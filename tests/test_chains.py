import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import metastab
from metastab import (
    BadRowSum,
    DetailedBalanceViolation,
    NotIrreducible,
    ValidationError,
    build_chain,
    chain_from_dict,
    chain_to_dict,
    conditional_expectation,
    dirichlet_form,
    entropy,
    log_mean,
    variance,
)
from metastab.sampling import random_reversible_chain


def test_two_state_stationary(two_state):
    assert np.allclose(two_state.stationary, [0.25, 0.75], atol=1e-14)


def test_path3_stationary(path3):
    assert np.allclose(path3.stationary, [0.25, 0.5, 0.25], atol=1e-14)


def test_identity_kernel_not_irreducible():
    with pytest.raises(NotIrreducible):
        build_chain(["a", "b"], [])


def test_bad_row_sum():
    with pytest.raises(BadRowSum):
        build_chain(["a", "b"], [("a", "b", 0.8), ("a", "a", 0.5), ("b", "a", 0.1)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_stationary_measure(two_state, bad):
    mu = np.array([bad, 0.75])
    with pytest.raises(ValidationError, match="finite"):
        metastab.ReversibleChain(two_state.states, two_state.kernel, mu)


def test_detailed_balance_violation():
    with pytest.raises(DetailedBalanceViolation):
        build_chain(
            ["a", "b"],
            [("a", "b", 0.3), ("b", "a", 0.1)],
            stationary=[0.5, 0.5],
        )


def test_continuous_time_build():
    chain = build_chain(
        ["a", "b"],
        [("a", "b", 2.0), ("b", "a", 1.0)],
        stationary=[1.0 / 3.0, 2.0 / 3.0],
        time="continuous",
    )
    rows = np.asarray(chain.kernel.sum(axis=1)).ravel()
    assert np.allclose(rows, 0.0, atol=1e-12)
    assert not chain.discrete_time


def test_dirichlet_examples(two_state):
    assert dirichlet_form(two_state, np.array([3.0, 3.0])) == 0.0
    assert dirichlet_form(two_state, np.array([1.0, 0.0])) == pytest.approx(
        0.075, rel=1e-12
    )
    f = np.array([1.0, -1.0])
    assert dirichlet_form(two_state, f) == pytest.approx(0.3, rel=1e-12)
    assert dirichlet_form(two_state, np.abs(f)) <= dirichlet_form(two_state, f)


def test_dirichlet_dimension_mismatch(two_state):
    with pytest.raises(ValidationError):
        dirichlet_form(two_state, np.zeros(3))


def test_basic_estimate_on_lazy_chains():
    # the basic bound E(f) <= ||f||^2 requires a positive semidefinite kernel,
    # guaranteed here by holding probability at least one half
    rng = np.random.default_rng(5)
    for _ in range(20):
        chain = random_reversible_chain(rng, int(rng.integers(3, 20)), laziness=0.5)
        for _ in range(10):
            f = rng.normal(size=chain.n_states)
            norm = float(np.dot(chain.stationary, f * f))
            assert dirichlet_form(chain, f) <= norm + 1e-12


def test_entropy_examples():
    assert entropy(np.array([0.5, 0.5]), np.array([3.0, 3.0])) == 0.0
    val = entropy(np.array([0.5, 0.5]), np.array([2.0, 0.0]))
    assert val == pytest.approx(np.log(2.0), rel=1e-12)
    with pytest.raises(ValidationError):
        entropy(np.array([0.5, 0.5]), np.array([1.0, -0.5]))


def test_entropy_homogeneity():
    rng = np.random.default_rng(7)
    mu = rng.uniform(0.1, 1.0, size=6)
    mu /= mu.sum()
    f = rng.normal(size=6)
    base = entropy(mu, f * f)
    for c in (0.25, 3.0, 17.5):
        assert entropy(mu, (c * f) ** 2) == pytest.approx(c * c * base, rel=1e-12)


def test_log_mean_examples():
    assert log_mean(1.0, 1.0) == 1.0
    assert log_mean(np.e, 1.0) == pytest.approx(np.e - 1.0, rel=1e-14)
    with pytest.raises(ValidationError):
        log_mean(0.0, 1.0)


@settings(max_examples=200, derandomize=True)
@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=1e-6, max_value=1e6),
)
def test_log_mean_bounds(a, b):
    val = log_mean(a, b)
    assert min(a, b) - 1e-12 * max(a, b) <= val <= max(a, b) * (1.0 + 1e-12)


def test_conditional_expectation_examples(path3):
    f = np.array([1.0, 0.0, 2.0])
    singles = conditional_expectation(path3, [["0"], ["1"], ["2"]], f)
    assert np.allclose(singles, f)
    whole = conditional_expectation(path3, [["0", "1", "2"]], f)
    assert np.allclose(whole, np.dot(path3.stationary, f))
    blocks = conditional_expectation(path3, [["0"], ["1", "2"]], f)
    assert blocks[0] == pytest.approx(1.0)
    assert blocks[1] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert blocks[2] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_conditional_expectation_bad_partition(path3):
    with pytest.raises(ValidationError):
        conditional_expectation(path3, [["0"], ["1"]], np.zeros(3))
    with pytest.raises(ValidationError):
        conditional_expectation(path3, [["0", "1"], ["1", "2"]], np.zeros(3))


def test_variance_splitting_corpus():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(3, 16))
        chain = random_reversible_chain(rng, n)
        labels = rng.integers(0, max(2, n // 2), size=n)
        parts = [labels == k for k in np.unique(labels)]
        mu = chain.stationary
        for _ in range(40):
            f = rng.normal(size=n)
            assert dirichlet_form(chain, f) >= 0.0
            proj = conditional_expectation(chain, parts, f)
            within = sum(
                mu[p].sum() * variance(mu[p] / mu[p].sum(), f[p]) for p in parts
            )
            total = within + variance(mu, proj)
            assert total == pytest.approx(variance(mu, f), abs=1e-10, rel=1e-10)


def test_entropy_splitting():
    rng = np.random.default_rng(13)
    chain = random_reversible_chain(rng, 9)
    mu = chain.stationary
    parts = [np.arange(9) < 3, (np.arange(9) >= 3) & (np.arange(9) < 5)]
    parts.append(~(parts[0] | parts[1]))
    for _ in range(30):
        f = rng.normal(size=9)
        proj = conditional_expectation(chain, parts, f * f)
        within = sum(
            mu[p].sum() * entropy(mu[p] / mu[p].sum(), (f * f)[p]) for p in parts
        )
        total = within + entropy(mu, proj)
        assert total == pytest.approx(entropy(mu, f * f), abs=1e-10, rel=1e-10)


def test_chain_dict_round_trip_bit_exact(two_state, path3):
    for chain in (two_state, path3):
        d = chain_to_dict(chain)
        blob = json.dumps(d)
        back = chain_from_dict(json.loads(blob))
        assert back.states == chain.states
        assert np.array_equal(back.stationary, chain.stationary)
        assert (back.kernel != chain.kernel).nnz == 0


def test_chain_dict_round_trip_random():
    rng = np.random.default_rng(17)
    for _ in range(10):
        chain = random_reversible_chain(rng, int(rng.integers(2, 20)))
        back = chain_from_dict(json.loads(json.dumps(chain_to_dict(chain))))
        assert (back.kernel != chain.kernel).nnz == 0
        assert np.array_equal(back.stationary, chain.stationary)


def test_package_sources_are_ascii():
    src = Path(metastab.__file__).parent
    for path in sorted(src.glob("*.py")):
        path.read_bytes().decode("ascii")
