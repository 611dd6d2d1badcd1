import numpy as np
import pytest

from metastab import (
    SolverNotConverged,
    ValidationError,
    build_chain,
    dirichlet_form,
    entropy,
    log_mean,
    variance,
)
from metastab.oracle import (
    GAP_DIGITS_FACTOR,
    brute_force_orlicz,
    cheeger_constant,
    estimate_clsi,
    exact_cpi,
    gradient_check,
    hardy_exact_constant,
)
from metastab import oracle as oracle_mod
from metastab.orlicz import entropy_pair, l1_pair, muckenhoupt_constant
from metastab.potential import birth_death_generator_chain, equilibrium_potential
from metastab.sampling import (
    double_well_chain,
    random_probability,
    random_reversible_chain,
)


def test_exact_cpi_two_state(two_state):
    rep = exact_cpi(two_state)
    assert rep.c_pi_exact == pytest.approx(2.5, abs=1e-12)
    assert rep.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(rep.eigenvalues <= 1.0 + 1e-9)
    assert np.all(rep.eigenvalues >= -1.0 - 1e-9)


def test_exact_cpi_complete_kernel():
    n = 5
    edges = [
        (f"s{i}", f"s{j}", 1.0 / n) for i in range(n) for j in range(n) if i != j
    ]
    chain = build_chain([f"s{i}" for i in range(n)], edges)
    rep = exact_cpi(chain)
    assert rep.c_pi_exact == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(np.sort(rep.eigenvalues)[:-1], 0.0, atol=1e-10)


def test_exact_cpi_matches_variational_bound():
    rng = np.random.default_rng(79)
    chain = random_reversible_chain(rng, 12)
    rep = exact_cpi(chain)
    best = 0.0
    for k in range(10_000):
        f = rng.normal(size=12)
        if k % 2:
            # mix in the spectral direction so the sup is actually approached
            f = rep.maximizer + 0.05 * f
        e = dirichlet_form(chain, f)
        if e > 1e-12:
            best = max(best, variance(chain.stationary, f) / e)
    assert best <= rep.c_pi_exact * (1.0 + 1e-10)
    assert best >= rep.c_pi_exact * 0.98


def test_clsi_two_state_symmetric():
    chain = build_chain(["a", "b"], [("a", "b", 0.2), ("b", "a", 0.2)])
    rep_pi = exact_cpi(chain)
    rep = estimate_clsi(chain, seed=3)
    assert rep.c_lsi_lower == pytest.approx(2.0 * rep_pi.c_pi_exact, abs=1e-6)
    assert rep.c_lsi_lower == pytest.approx(1.0 / 0.2, abs=1e-6)


def test_clsi_two_state_asymmetric_closed_form(two_state):
    # exact two-point constant mu(a) mu(b) / (Lambda(mu) cap)
    cap = equilibrium_potential(two_state, ["a"], ["b"]).capacity
    target = 0.25 * 0.75 / (log_mean(0.25, 0.75) * cap)
    rep = estimate_clsi(two_state, seed=5)
    assert rep.c_lsi_lower == pytest.approx(target, rel=1e-6)
    assert rep.c_lsi_lower <= target * (1.0 + 1e-9)


def test_clsi_above_twice_cpi():
    rng = np.random.default_rng(83)
    for k in range(8):
        chain = random_reversible_chain(rng, int(rng.integers(3, 12)))
        lb = estimate_clsi(chain, seed=k).c_lsi_lower
        cpi = exact_cpi(chain).c_pi_exact
        assert lb >= 2.0 * cpi - 1e-8


def test_constant_function_never_optimal():
    rng = np.random.default_rng(89)
    chain = random_reversible_chain(rng, 6)
    rep = estimate_clsi(chain, seed=1)
    assert rep.c_lsi_lower > 0.0


def test_brute_force_orlicz_indicator():
    nu = np.array([0.25, 0.35, 0.4])
    f = np.array([1.0, 1.0, 0.0])
    pair = entropy_pair()
    val = brute_force_orlicz(f, nu, pair, 1.0)
    closed = 0.6 * float(pair.psi_inverse(1.0 / 0.6))
    assert val == pytest.approx(closed, abs=1e-6)


def test_brute_force_orlicz_l1_box():
    nu = np.array([0.5, 0.5])
    f = np.array([0.7, 0.2])
    val = brute_force_orlicz(f, nu, l1_pair(), 1.0)
    assert val == pytest.approx(float(np.dot(nu, f)), abs=1e-8)


def test_brute_force_size_limit():
    with pytest.raises(ValidationError):
        brute_force_orlicz(np.ones(7), np.full(7, 1.0 / 7), l1_pair(), 1.0)


def test_cheeger_two_state(two_state):
    val, mask = cheeger_constant(two_state)
    assert val == pytest.approx(2.5, rel=1e-12)
    assert mask.sum() == 1


def test_cheeger_sandwich_random():
    rng = np.random.default_rng(97)
    for _ in range(10):
        chain = random_reversible_chain(rng, 8)
        ch, _ = cheeger_constant(chain)
        cpi = exact_cpi(chain).c_pi_exact
        assert ch <= cpi * (1.0 + 1e-10)
        assert cpi <= 8.0 * ch * ch * (1.0 + 1e-10)


def test_cheeger_complete_kernel():
    n = 4
    edges = [
        (f"s{i}", f"s{j}", 1.0 / n) for i in range(n) for j in range(n) if i != j
    ]
    chain = build_chain([f"s{i}" for i in range(n)], edges)
    val, _ = cheeger_constant(chain)
    # enumerated golden value: best split of the uniform complete kernel
    assert val == pytest.approx(1.0, rel=1e-10)


def test_hardy_exact_vs_muckenhoupt():
    rng = np.random.default_rng(101)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        mu = random_probability(rng, n + 1)
        nu = random_probability(rng, n + 1)
        c2 = muckenhoupt_constant(mu, nu)
        c1 = hardy_exact_constant(mu[:-1], nu)
        assert c2 <= c1 * (1.0 + 1e-9)
        assert c1 <= 4.0 * c2 * (1.0 + 1e-9)


def test_hardy_constant_is_attained():
    # c1 is the best constant: some f with f(0) = 0 attains it
    mu = np.array([0.5, 0.25, 0.25])
    nu = np.array([0.4, 0.3, 0.3])
    c1 = hardy_exact_constant(mu[:-1], nu)
    rng = np.random.default_rng(3)
    best = 0.0
    for _ in range(20000):
        f = np.concatenate([[0.0], rng.normal(size=2)])
        num = float(np.dot(nu, f * f))
        den = float(np.dot(mu[:-1], np.diff(f) ** 2))
        if den > 1e-12:
            best = max(best, num / den)
    assert best <= c1 * (1.0 + 1e-9)
    assert best >= 0.95 * c1


def test_gradient_checks(two_state):
    rng = np.random.default_rng(103)
    chain = random_reversible_chain(rng, 7)
    f = rng.normal(size=7) + 2.0
    assert gradient_check("dirichlet", chain, f) < 1e-6
    assert gradient_check("variance", chain, f) < 1e-6
    assert gradient_check("entropy", chain, f) < 1e-4
    g = f.copy()
    g[2] = 0.0
    assert gradient_check("entropy", chain, g) < 1e-4
    with pytest.raises(ValidationError):
        gradient_check("unknown", chain, f)


def _symmetrized(chain):
    root = np.sqrt(chain.stationary)
    sym = root[:, None] * chain.kernel.toarray() / root[None, :]
    return 0.5 * (sym + sym.T), root


@pytest.mark.parametrize("kind", ["discrete", "continuous"])
def test_exact_cpi_spectrum_and_lambda2_vector(kind):
    rng = np.random.default_rng(83)
    if kind == "discrete":
        chain = random_reversible_chain(rng, 40)
    else:
        mu = rng.uniform(0.2, 2.0, size=30)
        chain = birth_death_generator_chain(mu / mu.sum())
    rep = exact_cpi(chain)
    sym, root = _symmetrized(chain)
    want = np.linalg.eigvalsh(sym)[::-1]
    if kind == "continuous":
        want = -want
    assert np.allclose(rep.eigenvalues, want, rtol=0.0, atol=1e-12)
    # maximizer / sqrt(mu)-weighting is a unit eigenvector of sym for the
    # second-largest eigenvalue, whatever its sign
    v = rep.maximizer * root
    lam2 = 1.0 - rep.spectral_gap if kind == "discrete" else -rep.spectral_gap
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(sym @ v - lam2 * v) <= 1e-10
    assert rep.c_pi_exact == pytest.approx(1.0 / rep.spectral_gap, rel=1e-15)


# spectral gaps of the 11-state well, from a 60-digit symmetric eigensolve of
# the chain's own conductances (mpmath); the dense float eigensolve resolves
# only about 1e-13 here
WELL_GAP_GOLDEN = {5.0: 1.2127669959236109e-14, 6.0: 2.4389012541681088e-17,
                   8.0: 9.4416438237428967e-23}


def test_exact_cpi_resolves_metastable_gaps():
    eps = np.finfo(float).eps
    for beta in (1.0, 2.0, 3.0, 4.0):
        chain = double_well_chain(beta)
        sym, _ = _symmetrized(chain)
        want = 1.0 - np.linalg.eigvalsh(sym)[-2]
        rep = exact_cpi(chain)
        assert rep.spectral_gap > GAP_DIGITS_FACTOR * chain.n_states * eps
        assert rep.spectral_gap == pytest.approx(want, rel=1e-9, abs=1e-14)
    # below the dense resolution the refined gap keeps its relative digits
    for beta, want in WELL_GAP_GOLDEN.items():
        chain = double_well_chain(beta)
        rep = exact_cpi(chain)
        assert rep.spectral_gap < GAP_DIGITS_FACTOR * chain.n_states * eps
        assert rep.spectral_gap == pytest.approx(want, rel=1e-12)
        assert rep.c_pi_exact == pytest.approx(1.0 / want, rel=1e-12)


def test_exact_cpi_refinement_guards(monkeypatch):
    chain = double_well_chain(2.0)
    # the refined gap must stay within the dense resolution of the dense gap
    refine = oracle_mod._refine_gap
    monkeypatch.setattr(oracle_mod, "_refine_gap",
                        lambda ch, f: (2.0 * refine(ch, f)[0], f))
    with pytest.raises(SolverNotConverged):
        exact_cpi(chain)
    monkeypatch.undo()
    # an inverse iteration that has not settled raises instead of returning
    monkeypatch.setattr(oracle_mod, "REFINE_STEPS", 1)
    with pytest.raises(SolverNotConverged):
        exact_cpi(chain)


# c_lsi_lower of the clsi chains in the benchmark pool (seed 1), frozen
# from the full-eigenvector implementation of exact_cpi
CLSI_POOL_GOLDEN = [
    1810775.4864762672,
    757.1573918066856,
    236.25601058617323,
    866.1130796828851,
    289.13195712827314,
    226.46515828912243,
    1090.575512957776,
    209.08561800569993,
    88.73748960872368,
]


def test_clsi_pool_golden():
    chains = [double_well_chain(2.0, 11)] + [
        random_reversible_chain(np.random.default_rng((20170515, 12, v)), 12)
        for v in range(8)
    ]
    for chain, want in zip(chains, CLSI_POOL_GOLDEN):
        got = estimate_clsi(chain, seed=1).c_lsi_lower
        assert got == pytest.approx(want, rel=1e-6)
