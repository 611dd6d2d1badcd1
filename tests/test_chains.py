import argparse
import ast
import importlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

import metastab
from metastab import cli
from metastab import (
    BadRowSum,
    DetailedBalanceViolation,
    NotIrreducible,
    ValidationError,
    build_chain,
    chain_from_dict,
    chain_to_dict,
    dirichlet_form,
    entropy,
    log_mean,
)
from metastab.chains import BALANCE_RTOL, EXACT_RTOL, MASS_TOL, ROW_TOL, Certified
from metastab.rfcw import build_model, coarse_grain, mesoscopic_rates_and_chain
from metastab.sampling import double_well_chain, random_reversible_chain
from references import birth_death_generator_chain, conditional_expectation, variance


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


def _walk(tree):
    """(node, names of the enclosing definitions) of every node of ``tree``."""
    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        yield node, inside
        for child in ast.iter_child_nodes(node):
            yield from visit(child, inside)

    return visit(tree, frozenset())


def _loads(tree):
    """(name, names of the enclosing definitions) of every ``ast.Name`` load
    and of every attribute read off a metastab module alias in ``tree``."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.module == "metastab" or (node.level and node.module is None)
        ):
            aliases |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname or "metastab" for a in node.names
                        if a.name.split(".")[0] == "metastab"}

    for node, inside in _walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, inside
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            yield node.attr, inside


def test_every_export_has_a_caller():
    # every module-level def and class of the package needs a caller: a load
    # in a module of the package (outside the name's own definition) or in
    # the benchmark; tests do not count.  ``cli.main`` dispatches through
    # globals(), so cmd_<name> is called when <name> is a subcommand.
    src = Path(metastab.__file__).parent
    package = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    files = list(package)
    defined = [f"{path.stem}.{node.name}" for path in files
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    names = [d.split(".")[1] for d in defined]
    files += sorted((src.parents[1] / "perfbench").glob("*.py"))
    called = {name for path in files for name, inside in _loads(ast.parse(path.read_text()))
              if name not in inside}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    called |= {f"cmd_{command}" for command in sub.choices}
    # the rule goes by bare name, so no two modules may define the same one
    assert len(files) > 10 and len(set(names)) == len(names) > 100
    assert [d for d, name in zip(defined, names) if name not in called] == []

    # every public method and property of a package class needs an attribute
    # read of its name outside its own definition, unless it overrides a
    # method of a base class (argparse calls ``_Parser.error``)
    methods = []
    for path in package:
        module = importlib.import_module(f"metastab.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                bases = getattr(module, node.name).__mro__[1:]
                methods += [f"{path.stem}.{node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")
                            and not any(hasattr(base, item.name) for base in bases)]
    read = {node.attr for path in files for node, inside in _walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr not in inside}
    assert len(methods) > 10
    assert [m for m in methods if m.rsplit(".", 1)[1] not in read] == []


@pytest.mark.parametrize("value,lower,upper,mode", [
    (1e12, 1e12 - 0.5, 1e12 + 0.5, "exact"),  # a width of EXACT_RTOL |value| = 1.0
    (1e12, 1e12 - 0.5, np.nextafter(1e12 + 0.5, np.inf), "bound"),  # one ulp wider
    (-1e12, -1e12 - 0.5, -1e12 + 0.5, "exact"),  # the width goes by |value|
    (2.0, 2.0, np.inf, "bound"),  # a one-sided interval
    (0.0, -np.inf, 0.0, "bound"),
    (np.inf, np.inf, np.inf, "bound"),  # an infinite value carries no digits
    (0.0, 0.0, 0.0, "exact"),
    (0.0, 0.0, 5e-324, "bound"),
])
def test_certified_mode_is_the_one_tag_rule(value, lower, upper, mode):
    assert EXACT_RTOL == 1e-12
    assert Certified(value, lower, upper).mode == mode
    assert (Certified(value, lower, upper) / 0.5).mode == mode  # as by a mass


def _reference_assembly(states, kernel, mu, discrete_time=True):
    """The scipy.sparse validation and assembly that ReversibleChain replaced.

    Returns (kernel, conductance, laplacian, (edge_i, edge_j, edge_w)), or
    raises what the old constructor raised.
    """
    n = len(states)
    kernel = sp.csr_matrix(kernel)
    mu = np.array(mu, dtype=float)
    if kernel.shape != (n, n):
        raise ValidationError("kernel shape does not match state count")
    if mu.shape != (n,):
        raise ValidationError("stationary measure has wrong length")
    if not np.all(np.isfinite(kernel.data)):
        raise ValidationError("kernel has non-finite entries")
    if not np.all(np.isfinite(mu)) or np.any(mu <= 0.0):
        raise ValidationError("stationary measure must be finite and positive")
    if abs(mu.sum() - 1.0) > MASS_TOL:
        raise ValidationError(f"stationary measure sums to {mu.sum()!r}, not 1 within {MASS_TOL}")
    coo = kernel.tocoo()
    off = coo.row != coo.col
    if np.any(coo.data[off] < 0.0):
        raise BadRowSum("negative off-diagonal kernel entry")
    rows = np.asarray(kernel.sum(axis=1)).ravel()
    target = 1.0 if discrete_time else 0.0
    if np.any(np.abs(rows - target) > ROW_TOL):
        i = int(np.argmax(np.abs(rows - target)))
        raise BadRowSum(f"row sum {rows[i]!r} at state {states[i]!r} (expected {target})")
    r, c, v = coo.row[off], coo.col[off], coo.data[off]
    lhs = mu[r] * v
    rev = np.asarray(kernel.T.tocsr()[r, c]).ravel() * mu[c]
    gap = np.abs(lhs - rev)
    tol = BALANCE_RTOL * np.maximum(lhs, rev) + 1e-300
    if np.any(gap > tol):
        k = int(np.argmax(gap - tol))
        raise DetailedBalanceViolation(
            f"mu(x)p(x,y) != mu(y)p(y,x) at edge ({states[r[k]]!r}, {states[c[k]]!r}): "
            f"{lhs[k]!r} vs {rev[k]!r}"
        )
    support = sp.csr_matrix((np.ones_like(v), (r, c)), shape=(n, n))
    ncomp, _ = connected_components(support, directed=True, connection="strong")
    if ncomp != 1:
        raise NotIrreducible(f"kernel support has {ncomp} strong components")
    w = sp.csr_matrix((mu[r] * v, (r, c)), shape=kernel.shape)
    w = 0.5 * (w + w.T)
    w.eliminate_zeros()
    w = w.tocsr()
    laplacian = (sp.diags(np.asarray(w.sum(axis=1)).ravel()) - w).tocsr()
    upper = sp.triu(w, k=1).tocoo()
    return kernel, w, laplacian, (upper.row, upper.col, upper.data)


def _assert_same_assembly(states, kernel, mu, discrete_time=True):
    try:
        want = _reference_assembly(states, kernel, mu, discrete_time)
    except ValidationError as exc:
        with pytest.raises(type(exc)) as info:
            metastab.ReversibleChain(states, kernel, mu, discrete_time)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return
    chain = metastab.ReversibleChain(states, kernel, mu, discrete_time)
    got = (chain.kernel, chain.conductance, chain.laplacian)
    for mine, ref in zip(got, want[:3]):
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(mine, attr), getattr(ref, attr)), attr
    for mine, ref in zip((chain._edge_i, chain._edge_j, chain._edge_w), want[3]):
        assert np.array_equal(mine, ref)


def _lumped_rfcw():
    model = build_model(8, 1.5, "uniform:0.2", seed=7)
    return mesoscopic_rates_and_chain(model, coarse_grain(model, 2))


def _one_way_edge():
    # p(a, b) = 1e-305 has no reverse entry, yet mu(a) p(a, b) passes the
    # balance check's 1e-300 floor, so W + W^T gains the mirror (b, a)
    kernel = sp.csr_matrix(np.array([[0.5, 1e-305, 0.5], [0.0, 0.5, 0.5], [0.5, 0.5, 0.0]]))
    return ["a", "b", "c"], kernel, np.full(3, 1.0 / 3.0)


def _built_chains():
    rng = np.random.default_rng(23)
    wells = [double_well_chain(1.0, 11), double_well_chain(8.0, 11), double_well_chain(2.0, 15)]
    return wells + [birth_death_generator_chain(np.full(6, 1.0 / 6.0)),  # continuous time
                    random_reversible_chain(rng, 1),
                    *(random_reversible_chain(rng, n) for n in range(3, 17))]


def test_chain_assembly_matches_the_sparse_reference_bit_for_bit():
    built = _built_chains()
    for chain in built:  # build_chain's kernel is the canonical CSR of its triplets
        ref = sp.csr_matrix(chain.kernel.toarray())
        assert chain.kernel.has_canonical_format
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(chain.kernel, attr), getattr(ref, attr))
    lumped = _lumped_rfcw()
    assert not lumped.kernel.has_canonical_format  # _lump's product leaves rows unsorted
    for chain in built + [lumped]:
        _assert_same_assembly(chain.states, chain.kernel, chain.stationary, chain.discrete_time)
    _assert_same_assembly(*_one_way_edge())


def test_chain_assembly_past_int32_keys():
    # (n - 1) * n passes 2**31 from n = 46,341; scipy's indices are int32
    chain = birth_death_generator_chain(np.full(50_000, 1.0 / 50_000))
    assert chain.kernel.indices.dtype == np.int32
    _assert_same_assembly(chain.states, chain.kernel, chain.stationary, chain.discrete_time)


def _spoilt(states, kernel, mu, how):
    k = kernel.toarray()
    mu = mu.copy()
    if how == "shape":
        k = k[:-1]
    elif how == "mu-length":
        mu = mu[:-1]
    elif how == "nan":
        k[0, 1] = np.nan
    elif how == "mu-zero":
        mu[0] = 0.0
    elif how == "mass":
        mu = mu * 1.5
    elif how == "negative":
        k[0, 1], k[0, 0] = -k[0, 1], k[0, 0] + 2.0 * k[0, 1]
    elif how == "row-sum":
        k[1, 1] += 0.1  # the row sums to 1.1 as reduceat adds, 1.0999999999999999 in order
    elif how == "balance":
        k[2, 3] *= 1.5
        k[2, 2] -= k[2, 3] / 3.0
    elif how == "reducible":
        k[:3, 3:] = k[3:, :3] = 0.0
        k[np.diag_indices_from(k)] = 0.0
        k[np.diag_indices_from(k)] = 1.0 - k.sum(axis=1)
    return states, sp.csr_matrix(k), mu


@pytest.mark.parametrize(
    "how",
    ["shape", "mu-length", "nan", "mu-zero", "mass", "negative", "row-sum", "balance", "reducible"],
)
def test_chain_validation_errors_match_the_sparse_reference(how):
    chain = double_well_chain(1.0, 11)
    states, kernel, mu = _spoilt(chain.states, chain.kernel, chain.stationary, how)
    with pytest.raises(ValidationError):
        _reference_assembly(states, kernel, mu)
    _assert_same_assembly(states, kernel, mu)


def test_entropy_gradient_of_an_underflowed_ratio_is_zero():
    # f^2 / E[f^2] underflows to 0 at the first entry, whose weight times f
    # underflows too: f ln f^2 -> 0 gives 0 there, not 0 * -inf
    mu = np.array([1e-170, 0.5, 0.5])
    f = np.array([1e-160, 1e3, -2e3])
    g = metastab.chains.entropy_gradient(mu, f)
    assert np.all(np.isfinite(g)) and g[0] == 0.0
    m = 0.5 * 1e6 + 0.5 * 4e6
    assert g[1] == 2.0 * 0.5 * 1e3 * np.log(1e6 / m)
    assert g[2] == 2.0 * 0.5 * -2e3 * np.log(4e6 / m)
    rows = metastab.chains.entropy_gradient(mu, np.stack([f, f[::-1].copy()]))
    assert np.all(np.isfinite(rows)) and np.array_equal(rows[0], g)
