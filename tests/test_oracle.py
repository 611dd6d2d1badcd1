import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_array_equal

from metastab import (
    SolverNotConverged,
    ValidationError,
    build_chain,
    dirichlet_form,
    entropy,
    log_mean,
)
from metastab.oracle import (
    brute_force_orlicz,
    cheeger_constant,
    estimate_clsi,
    exact_cpi,
)
from metastab import oracle as oracle_mod
from metastab import rfcw as rfcw_mod
from metastab.chains import entropy_gradient
from metastab.metastable import trace_chain
from metastab.orlicz import entropy_pair, l1_pair
from metastab.potential import equilibrium_potential, mean_exit_time_bound
from metastab.sampling import (
    double_well_chain,
    random_probability,
    random_reversible_chain,
)
import references
from references import hardy_exact_constant, lockstep_ascent, muckenhoupt_constant, variance

# resolution of a dense symmetric eigensolve: GAP_DIGITS_FACTOR n eps max|lambda|
GAP_DIGITS_FACTOR = 64


def test_exact_cpi_two_state(two_state):
    rep = exact_cpi(two_state)
    assert rep.c_pi.value == pytest.approx(2.5, abs=1e-12)
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
    assert rep.c_pi.value == pytest.approx(1.0, abs=1e-10)
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
            f = rep.certificate.f + 0.05 * f
        e = dirichlet_form(chain, f)
        if e > 1e-12:
            best = max(best, variance(chain.stationary, f) / e)
    assert best <= rep.c_pi.value * (1.0 + 1e-10)
    assert best >= rep.c_pi.value * 0.98


def test_clsi_two_state_symmetric():
    chain = build_chain(["a", "b"], [("a", "b", 0.2), ("b", "a", 0.2)])
    rep_pi = exact_cpi(chain)
    rep = estimate_clsi(chain, seed=3)
    assert rep.c_lsi.value == pytest.approx(2.0 * rep_pi.c_pi.value, abs=1e-6)
    assert rep.c_lsi.value == pytest.approx(1.0 / 0.2, abs=1e-6)


def test_clsi_two_state_asymmetric_closed_form(two_state):
    # exact two-point constant mu(a) mu(b) / (Lambda(mu) cap)
    cap = equilibrium_potential(two_state, ["a"], ["b"]).capacity
    target = 0.25 * 0.75 / (log_mean(0.25, 0.75) * cap)
    rep = estimate_clsi(two_state, seed=5)
    assert rep.c_lsi.value == pytest.approx(target, rel=1e-6)
    assert rep.c_lsi.value <= target * (1.0 + 1e-9)


def test_clsi_above_twice_cpi():
    rng = np.random.default_rng(83)
    for k in range(8):
        chain = random_reversible_chain(rng, int(rng.integers(3, 12)))
        lb = estimate_clsi(chain, seed=k).c_lsi.value
        cpi = exact_cpi(chain).c_pi.value
        assert lb >= 2.0 * cpi - 1e-8


def test_constant_function_never_optimal():
    rng = np.random.default_rng(89)
    chain = random_reversible_chain(rng, 6)
    rep = estimate_clsi(chain, seed=1)
    assert rep.c_lsi.value > 0.0


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
        cpi = exact_cpi(chain).c_pi.value
        assert ch <= cpi * (1.0 + 1e-10)
        assert cpi <= 8.0 * ch * ch * (1.0 + 1e-10)


def _cheeger_loop_reference(chain):
    """One subset at a time: masses by peeling the lowest bit, first maximum."""
    n, mu = chain.n_states, chain.stationary
    size = 1 << n
    mass = np.zeros(size)
    for m in range(1, size):
        mass[m] = mass[m & (m - 1)] + mu[(m & -m).bit_length() - 1]
    masks = np.arange(size, dtype=np.int64)
    cut = np.zeros(size)
    for i, j, w in zip(chain._edge_i, chain._edge_j, chain._edge_w):
        cut += w * (((masks >> int(i)) ^ (masks >> int(j))) & 1)
    best, best_mask = -np.inf, 0
    for m in range(1, size - 1, 2):
        val = mass[m] * (1.0 - mass[m]) / cut[m]
        if val > best:
            best, best_mask = val, m
    return float(best), np.array([(best_mask >> k) & 1 for k in range(n)], dtype=bool)


def test_cheeger_matches_subset_loop_bit_for_bit():
    chains = [random_reversible_chain(np.random.default_rng((5, n)), n) for n in range(1, 15)]
    chains += [double_well_chain(beta, n) for n in (11, 13) for beta in (0.25, 2.0, 8.0)]
    for chain in chains:
        val, members = cheeger_constant(chain)
        want, want_members = _cheeger_loop_reference(chain)
        assert val == want
        assert_array_equal(members, want_members)
    val, members = cheeger_constant(chains[0])  # one state: no proper subset
    assert val == -np.inf and members.tolist() == [False]


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


def gradient_check(functional, chain, f):
    """Max relative error between analytic and central-difference gradients.

    ``functional`` is ``dirichlet`` or ``entropy``.  The
    difference step is h = 1e-6.  Entropy coordinates within 10 h of the
    f = 0 kink are skipped since the analytic gradient is a limit value there.
    """
    h = 1e-6
    f = np.asarray(f, dtype=float)
    mu = chain.stationary
    if functional == "dirichlet":
        fun = lambda g: dirichlet_form(chain, g)
        grad = 2.0 * (chain.laplacian @ f)  # the energy gradient of the LSI ascent
        skip = np.zeros(f.size, dtype=bool)
    elif functional == "entropy":
        fun = lambda g: entropy(mu, g * g)
        grad = entropy_gradient(mu, f)
        skip = np.abs(f) < 10.0 * h
    else:
        raise ValidationError(f"unknown functional {functional!r}")

    worst = 0.0
    for i in range(f.size):
        if skip[i]:
            continue
        up = f.copy()
        dn = f.copy()
        up[i] += h
        dn[i] -= h
        fd = (fun(up) - fun(dn)) / (2.0 * h)
        scale = max(abs(fd), abs(grad[i]), 1e-8)
        worst = max(worst, abs(fd - grad[i]) / scale)
    return worst


def test_gradient_checks(two_state):
    rng = np.random.default_rng(103)
    chain = random_reversible_chain(rng, 7)
    f = rng.normal(size=7) + 2.0
    assert gradient_check("dirichlet", chain, f) < 1e-6
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


def _bd_generator(scale=1.0):
    """``birth_death_generator_chain`` of 30 random weights, rates times ``scale``."""
    mu = np.random.default_rng(83).uniform(0.2, 2.0, size=30)
    mu /= mu.sum()
    edges = []
    for y in range(29):
        edges += [(y, y + 1, scale), (y + 1, y, scale * mu[y] / mu[y + 1])]
    return build_chain(list(range(30)), edges, stationary=mu, time="continuous")


@pytest.mark.parametrize("kind", ["discrete", "continuous"])
def test_exact_cpi_spectrum_and_lambda2_vector(kind):
    if kind == "discrete":
        chain = random_reversible_chain(np.random.default_rng(83), 40)
    else:
        chain = _bd_generator()
    rep = exact_cpi(chain)
    sym, root = _symmetrized(chain)
    want = np.linalg.eigvalsh(sym)[::-1]
    if kind == "continuous":
        want = -want
    assert np.allclose(rep.eigenvalues, want, rtol=0.0, atol=1e-12)
    # the certificate's f, sqrt(mu)-weighted, is a unit eigenvector of sym for the
    # second-largest eigenvalue, whatever its sign
    v = rep.certificate.f * root
    lam2 = 1.0 - rep.certificate.value if kind == "discrete" else -rep.certificate.value
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(sym @ v - lam2 * v) <= 1e-10
    assert rep.c_pi.value == pytest.approx(1.0 / rep.certificate.value, rel=1e-15)


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
        assert rep.certificate.value > GAP_DIGITS_FACTOR * chain.n_states * eps
        assert rep.certificate.value == pytest.approx(want, rel=1e-9, abs=1e-14)
    # below the dense resolution the refined gap keeps its relative digits
    for beta, want in WELL_GAP_GOLDEN.items():
        chain = double_well_chain(beta)
        rep = exact_cpi(chain)
        assert rep.certificate.value < GAP_DIGITS_FACTOR * chain.n_states * eps
        assert rep.certificate.value == pytest.approx(want, rel=1e-12)
        assert rep.c_pi.value == pytest.approx(1.0 / want, rel=1e-12)


def test_exact_cpi_refinement_guards(monkeypatch):
    # an inverse iteration stopped before it settles still returns, with the
    # certificate of the quotient it stopped at: one quotient, no solve.  At
    # beta 10 the interval holds lambda_2 only if the residual is summed
    # edge by edge
    monkeypatch.setattr(oracle_mod, "REFINE_STEPS", 1)
    for beta in (10.0, 12.0):
        chain = double_well_chain(beta)
        cert = exact_cpi(chain).certificate
        assert cert.mode == "bound"
        assert cert.lower <= _mp_line_gap(chain) <= cert.upper
        # the certified f is the vector of the reported quotient
        assert cert.value == dirichlet_form(chain, cert.f)
        assert np.dot(chain.stationary, cert.f**2) == pytest.approx(1.0, rel=1e-14)
    # where the dense vector is already the eigenvector, its quotient certifies
    chain = double_well_chain(2.0)
    rep = exact_cpi(chain)
    sym, _ = _symmetrized(chain)
    dense_gap = 1.0 - np.linalg.eigvalsh(sym)[-2]
    res = GAP_DIGITS_FACTOR * chain.n_states * np.finfo(float).eps
    assert rep.certificate.mode == "exact"
    assert rep.certificate.lower <= dense_gap + res and dense_gap - res <= rep.certificate.upper


# at 1e-200 max|sym| is below the 1e-146 under which dsyevr scales the matrix
SPECTRUM_CASES = {
    **{f"dw11-b{b:g}": (lambda b=b: double_well_chain(b)) for b in (1.0, 2.0, 5.0, 8.0)},
    "dw15-b0.5": lambda: double_well_chain(0.5, 15),
    **{f"rc{n}": (lambda n=n: random_reversible_chain(np.random.default_rng((20170515, n, 0)), n))
       for n in (12, 14, 16)},
    "rfcw-N8": lambda: rfcw_mod.build_model(8, 1.5, "uniform:0.2", seed=7).chain,
    "bd30-generator": _bd_generator,
    "bd30-generator-x1e-200": lambda: _bd_generator(1e-200),
}


@pytest.mark.parametrize("name", sorted(SPECTRUM_CASES))
def test_sym_spectrum_keeps_eigh_bits(name):
    # the spectrum of the symmetrized kernel that exact_cpi reports
    chain = SPECTRUM_CASES[name]()
    rep = exact_cpi(chain)
    sym, _ = _symmetrized(chain)
    want = scipy.linalg.eigh(sym, eigvals_only=True)[::-1]
    assert_array_equal(rep.eigenvalues, want if chain.discrete_time else -want)
    if name.endswith("x1e-200"):
        # the first solve returns |f| near 1e200, whose squares overflow
        # unless the norm is taken after scaling by max|f|
        gap = 1e-200 * exact_cpi(_bd_generator()).certificate.value
        assert rep.certificate.value == pytest.approx(gap, rel=1e-12)
        assert rep.certificate.lower <= gap <= rep.certificate.upper


# each LAPACK step of the dense eigensolve -> (eigh call it runs in, 0 for
# dsyevr or 1 for its workspace query).  The first call, all eigenvalues,
# reduces to tridiagonal form (dsytrd) and takes its eigenvalues (dsterf);
# the second, the lambda_2 vector, bisects (dstebz), inverse-iterates
# (dstein) and back-transforms (dormqr).  dsyevr reports a failed inner
# step as info > 0, which is what the stub returns.
LAPACK_STEPS = {"dsyevr_lwork": (0, 1), "dsytrd": (0, 0), "dsterf": (0, 0),
                "dstebz": (1, 0), "dstein": (1, 0), "dormqr": (1, 0)}


@pytest.mark.parametrize("routine", ["dsyevr_lwork", "dsytrd", "dsterf", "dstebz", "dstein",
                                     "dormqr"])
def test_sym_spectrum_lapack_failure_raises(monkeypatch, routine):
    call, which = LAPACK_STEPS[routine]
    real_get = scipy.linalg._decomp.get_lapack_funcs
    calls, failed = [], []

    def get_lapack_funcs(names, *args, **kwargs):
        funcs = list(real_get(names, *args, **kwargs))
        if names == ("syevr", "syevr_lwork") and len(calls) == call:
            real = funcs[which]

            def failing(*a, **k):
                failed.append(routine)
                return (*real(*a, **k)[:-1], 1)

            funcs[which] = failing
        calls.append(names)
        return funcs

    monkeypatch.setattr(scipy.linalg._decomp, "get_lapack_funcs", get_lapack_funcs)
    with pytest.raises(SolverNotConverged, match="dense eigensolve failed"):
        exact_cpi(double_well_chain(2.0))
    assert failed == [routine]


def test_exact_cpi_holds_two_dense_copies():
    chain = rfcw_mod.build_model(9, 2.0, "uniform:0.2", seed=3).chain
    n = chain.n_states
    exact_cpi(chain)
    tracemalloc.start()
    try:
        exact_cpi(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the kernel and its symmetrization, plus 64 doubles a state of LAPACK work
    assert peak <= 2 * 8 * n * n + 64 * 8 * n


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
        got = estimate_clsi(chain, seed=1).c_lsi.value
        assert got == pytest.approx(want, rel=1e-6)


def _ascent_seeds(chain):
    rng = np.random.default_rng(3)
    v2 = exact_cpi(chain).certificate.f
    seeds = [v2, 1.0 + 1e-3 * v2, 1.0 - 0.1 * v2]
    return np.array(seeds + [rng.normal(size=chain.n_states) for _ in range(13)])


def _ascend_one(chain, mu, f, max_iter):
    # one start as a scalar loop: the reference rules of the lockstep kernel
    e = dirichlet_form(chain, f)
    if e <= 0.0:
        return f, -np.inf, True
    f = f / np.sqrt(e)
    val = entropy(mu, f * f)
    step = 0.5
    for _ in range(max_iter):
        g = entropy_gradient(mu, f)
        ge = 2.0 * (chain.laplacian @ f)
        if np.dot(ge, ge) > 0.0:
            g = g - (np.dot(g, ge) / np.dot(ge, ge)) * ge
        if np.linalg.norm(g) <= 1e-13 * max(1.0, abs(val)):
            return f, val, True
        while step > 1e-14:
            cand = f + step * g
            ec = dirichlet_form(chain, cand)
            if ec > 0.0:
                cand = cand / np.sqrt(ec)
                cval = entropy(mu, cand * cand)
                if cval > val + 1e-16:
                    f, val = cand, cval
                    step *= 1.5
                    break
            step *= 0.5
        else:
            return f, val, True
    return f, val, False


ASCENT_CHAINS = {
    "dw11-b2": lambda: double_well_chain(2.0),
    "rc12-v3": lambda: random_reversible_chain(np.random.default_rng((20170515, 12, 3)), 12),
}


@pytest.mark.parametrize("name", sorted(ASCENT_CHAINS))
def test_lockstep_rows_match_single_runs_bit_for_bit(name):
    chain = ASCENT_CHAINS[name]()
    seeds = _ascent_seeds(chain)
    F, val, conv = oracle_mod._lockstep_ascent(chain, chain.stationary, seeds.copy(), 400)
    for k in range(len(seeds)):
        f1, v1, c1 = oracle_mod._lockstep_ascent(
            chain, chain.stationary, seeds[k : k + 1].copy(), 400
        )
        assert v1[0] == val[k] and c1[0] == conv[k]
        assert np.array_equal(f1[0], F[k])


def test_lockstep_rows_follow_the_scalar_rules():
    # on the stiff dw11 well, rows still climbing at 400 steps take other
    # line-search turns after a last-bit change, so only rc12 compares rows
    chain = ASCENT_CHAINS["rc12-v3"]()
    seeds = _ascent_seeds(chain)
    _, val, conv = oracle_mod._lockstep_ascent(chain, chain.stationary, seeds.copy(), 400)
    for k, f0 in enumerate(seeds):
        _, want, want_conv = _ascend_one(chain, chain.stationary, f0, 400)
        assert val[k] == pytest.approx(want, rel=1e-9)
        assert conv[k] == want_conv
    assert 0 < conv.sum() < len(seeds)  # rows stop at different ticks


def test_constant_seed_is_minus_inf_and_converged():
    chain = ASCENT_CHAINS["rc12-v3"]()
    mu = chain.stationary
    seeds = _ascent_seeds(chain)
    mixed = np.insert(seeds, 2, np.full(chain.n_states, 3.0), axis=0)
    _, val, conv = oracle_mod._lockstep_ascent(chain, mu, mixed.copy(), 400)
    assert val[2] == -np.inf and conv[2]
    _, live_val, _ = oracle_mod._lockstep_ascent(chain, mu, seeds.copy(), 400)
    assert np.array_equal(np.delete(val, 2), live_val)
    best, _, n_conv, start = oracle_mod.entropy_ratio_ascent(chain, mu, mixed, 400)
    want, _, want_conv, want_start = oracle_mod.entropy_ratio_ascent(chain, mu, seeds, 400)
    assert (best, n_conv) == (want, want_conv + 1)
    assert start == want_start + (want_start >= 2)
    only = oracle_mod.entropy_ratio_ascent(chain, mu, [np.ones(chain.n_states)], 400)
    assert only == (-np.inf, None, 1, -1)


@pytest.mark.parametrize("name", sorted(ASCENT_CHAINS))
def test_ascent_value_is_the_ratio_at_its_function(name):
    chain = ASCENT_CHAINS[name]()
    rep = estimate_clsi(chain, seed=1)
    f = rep.maximizer
    assert rep.c_lsi.value == entropy(chain.stationary, f * f) / dirichlet_form(chain, f)
    low = np.arange(chain.n_states) < 5
    weight = np.where(low, chain.stationary, 0.0) / chain.mass(low)
    val, f, _, _ = oracle_mod.entropy_ratio_ascent(chain, weight, _ascent_seeds(chain), 300)
    assert val == entropy(weight, f * f) / dirichlet_form(chain, f)


@pytest.mark.parametrize("name", sorted(ASCENT_CHAINS))
@pytest.mark.parametrize("trials", [1, 6])
def test_batched_line_search_trials_keep_the_bits(name, trials, monkeypatch):
    # trying the next K halvings of a row's step in one batch takes the
    # steps that one trial per tick takes, including the stop at the floor
    chain = ASCENT_CHAINS[name]()
    seeds = np.insert(_ascent_seeds(chain), 1, np.full(chain.n_states, 2.0), axis=0)
    low = np.arange(chain.n_states) < 5
    weight = np.where(low, chain.stationary, 0.0) / chain.mass(low)
    want = [oracle_mod._lockstep_ascent(chain, w, seeds.copy(), 400)
            for w in (chain.stationary, weight)]
    monkeypatch.setattr(oracle_mod, "ASCENT_TRIALS", trials)
    for w, (F, val, conv) in zip((chain.stationary, weight), want):
        got = oracle_mod._lockstep_ascent(chain, w, seeds.copy(), 400)
        assert_array_equal(got[0], F)
        assert_array_equal(got[1], val)
        assert_array_equal(got[2], conv)


def _clsi_case(chain):
    """(chain, weight, seed block) of the ascent that ``estimate_clsi(chain, 1)`` runs."""
    calls = []
    ascend = oracle_mod._lockstep_ascent

    def record(chain, weight, F, max_iter):
        calls.append((chain, weight, F.copy()))
        return ascend(chain, weight, F, max_iter)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle_mod, "_lockstep_ascent", record)
        estimate_clsi(chain, seed=1)
    (case,) = calls
    return case


def _rc12(v):
    return random_reversible_chain(np.random.default_rng((20170515, 12, v)), 12)


def _constant_row_case():
    chain = _rc12(3)
    seeds = np.insert(_ascent_seeds(chain), 2, np.full(12, 3.0), axis=0)
    return chain, chain.stationary, seeds


def _fast_case():
    # six states at rates near 100: ratios near 4e-3, where the 1e-16
    # acceptance margin is many ulps
    rng = np.random.default_rng(11)
    w = rng.uniform(0.5, 2.0, size=(6, 6))
    w = 40.0 * (w + w.T)
    s = [f"s{i}" for i in range(6)]
    edges = [(s[i], s[j], w[i, j]) for i in range(6) for j in range(6) if i != j]
    chain = build_chain(s, edges, stationary=np.full(6, 1 / 6), time="continuous")
    return chain, chain.stationary, rng.normal(size=(8, 6))


def _five_state_case():
    # one row vanishes on the weight's support: its entropy and gradient are 0
    chain = double_well_chain(2.0)
    low = np.arange(chain.n_states) < 5
    weight = np.where(low, chain.stationary, 0.0) / chain.mass(low)
    return chain, weight, np.insert(_ascent_seeds(chain), 4, ~low, axis=0)


# (chain, weight, seed block): the clsi cells of ``certify_small``, the trace
# chains whose rows climb the entropy's rounding floor (ROADMAP item 16), a
# block with a constant row, two states (a row with a zero entry), a fast
# chain and a weight on five states
PACKED_ASCENT_CASES = {
    "dw11-b2": lambda: _clsi_case(double_well_chain(2.0, 11)),
    **{f"rc12-v{v}": lambda v=v: _clsi_case(_rc12(v)) for v in range(8)},
    "trace-dw11-b40": lambda: _clsi_case(
        trace_chain(double_well_chain(40.0), ["x0", "x1", "x2"])
    ),
    "trace-dw15-b12": lambda: _clsi_case(
        trace_chain(double_well_chain(12.0, 15), ["x0", "x1", "x2"])
    ),
    "constant-row": _constant_row_case,
    "two-state": lambda: (
        build_chain(["a", "b"], [("a", "b", 0.3), ("b", "a", 0.1)]),
        np.array([0.25, 0.75]),
        np.array([[1.0, -2.0], [3.0, 3.0], [0.5, 1e-3], [1.0, 0.0]]),
    ),
    "fast-continuous": _fast_case,
    "five-state-weight": _five_state_case,
}


@pytest.mark.parametrize("max_iter", [1, 7, 400])
@pytest.mark.parametrize("name", list(PACKED_ASCENT_CASES))
def test_packed_ascent_keeps_the_bits_of_the_reference(name, max_iter):
    chain, weight, seeds = PACKED_ASCENT_CASES[name]()
    want = lockstep_ascent(chain, weight, seeds.copy(), max_iter)
    got = oracle_mod._lockstep_ascent(chain, weight, seeds.copy(), max_iter)
    for g, w in zip(got, want):
        assert_array_equal(g, w)
    assert not np.array_equal(want[0], seeds)  # the ascent wrote its rows


@pytest.mark.parametrize("name", ["dw11-b2", "rc12-v1", "two-state", "five-state-weight"])
def test_zero_energy_candidates_keep_the_bits_of_the_reference(name, monkeypatch):
    # E = 0 is forced on about one row in eight, chosen by the row's bits so
    # that both ascents see it on the same rows; such a candidate is never
    # accepted, and such a seed row is converged at -inf
    def zeroed(energy):
        def rows(chain, F):
            e = energy(chain, F)
            return np.where(F[:, 0].view(np.int64) % 8 == 3, 0.0, e)

        return rows

    chain, weight, seeds = PACKED_ASCENT_CASES[name]()
    monkeypatch.setattr(references, "energy_rows", zeroed(references.energy_rows))
    monkeypatch.setattr(oracle_mod, "_energy_rows", zeroed(oracle_mod._energy_rows))
    want = lockstep_ascent(chain, weight, seeds.copy(), 400)
    got = oracle_mod._lockstep_ascent(chain, weight, seeds.copy(), 400)
    for g, w in zip(got, want):
        assert_array_equal(g, w)


def test_degenerate_entropy_rows_and_gradients_keep_the_bits_of_the_reference():
    # rows with E_weight[f^2] = 0, entries with f = 0 or f^2 underflowing to
    # 0, and entries outside the weight's support
    weight = np.array([0.5, 0.5, 0.0, 0.0])
    f = np.array(
        [
            [1.0, -2.0, 3.0, -4.0],
            [0.0, 0.0, 5.0, -6.0],
            [0.0, -1.0, 0.0, 2.0],
            [1e-170, -1e-170, 1.0, 0.0],
            [-1e-170, 2.0, 0.0, -0.0],
        ]
    )
    assert_array_equal(entropy_gradient(weight, f), references.entropy_gradient(weight, f))
    fsq = f * f
    assert_array_equal(oracle_mod._entropy_rows(weight, fsq), references.entropy_rows(weight, fsq))


# -- the certified sparse gap of ``metastab rfcw`` ------------------------------


def _rfcw_cell(n_spins, beta, field, seed=0):
    """(chain, h_{M1,M2}) of a materialized RFCW cell, None if degenerate."""
    model = rfcw_mod.build_model(n_spins, beta, field, seed=seed, materialize=True)
    land = rfcw_mod.coarse_grain(model, 2)
    order = rfcw_mod.find_minima_and_order(model, land)
    if order.degenerate:
        return None
    sets = [land.fiber_mask([k]) for k in order.minima[:2]]
    return model.chain, equilibrium_potential(model.chain, *sets).potential


def _dense_gaps(chain):
    """(lambda_2, lambda_3, resolution) from ``exact_cpi``."""
    rep = exact_cpi(chain)
    vals = 1.0 - rep.eigenvalues if rep.discrete_time else rep.eigenvalues
    floor = GAP_DIGITS_FACTOR * chain.n_states * np.finfo(float).eps
    return rep.certificate.value, vals[2], floor * np.max(np.abs(rep.eigenvalues))


RFCW_GRID_FIELDS = [("uniform:0.2", s) for s in (0, 1, 2)] + [("zero", 0)]


@pytest.mark.parametrize("n_spins", [4, 6, 8, 10])
def test_certified_gap_agrees_with_the_dense_oracle(n_spins):
    betas = (1.2, 1.5, 2.0, 3.0, 5.0, 8.0) if n_spins < 10 else (1.2, 3.0, 8.0)
    for beta in betas:
        for field, seed in RFCW_GRID_FIELDS:
            cell = _rfcw_cell(n_spins, beta, field, seed)
            if cell is None:
                continue
            chain, h = cell
            cert = oracle_mod.certified_gap(chain, h)
            gap, lam3, res = _dense_gaps(chain)
            where = (n_spins, beta, field, seed)
            assert cert.mode == "exact", where
            assert cert.value == pytest.approx(gap, rel=1e-12), where
            assert cert.lower <= gap + res and gap - res <= cert.upper, where
            assert 0.0 < cert.lambda3_floor <= lam3 + res, where


def _point_pair_cell(n_spins, beta, field, seed):
    """(chain, solution of (M1, M2)) of a materialized RFCW cell whose two
    minima fibers are single states, None otherwise."""
    model = rfcw_mod.build_model(n_spins, beta, field, seed=seed, materialize=True)
    land = rfcw_mod.coarse_grain(model, 2)
    order = rfcw_mod.find_minima_and_order(model, land)
    if order.degenerate:
        return None
    sets = [land.fiber_mask([k]) for k in order.minima[:2]]
    if any(m.sum() != 1 for m in sets):
        return None
    return model.chain, equilibrium_potential(model.chain, *sets)


def _point_pair_cells(n_spins):
    for beta in (2.5, 3.0, 4.5, 6.0):
        for field, seed in RFCW_GRID_FIELDS:
            cell = _point_pair_cell(n_spins, beta, field, seed)
            if cell is not None:
                yield (n_spins, beta, field, seed), cell


@pytest.mark.parametrize("n_spins", [6, 8, 9, 10, 11])
def test_pair_route_agrees_with_the_grounded_route(n_spins):
    cells = 0
    for where, (chain, sol) in _point_pair_cells(n_spins):
        grounded = oracle_mod.certified_gap(chain, sol.potential)
        pair = oracle_mod.certified_gap(chain, sol.potential, sol)
        sigma = 1.0 / mean_exit_time_bound(chain, ~(sol.set_a | sol.set_b))
        assert pair.lambda3_floor == sigma, where  # the pair route's own floor
        assert grounded.lower <= pair.value <= grounded.upper, where
        assert pair.lower <= grounded.value <= pair.upper, where
        assert pair.mode == grounded.mode, where
        cells += 1
    assert cells


@pytest.mark.parametrize("n_spins", [6, 8])
def test_pair_route_floor_is_below_lambda3(n_spins):
    # sigma <= lambda_1 of the chain killed at {a, b} <= lambda_3
    for where, (chain, sol) in _point_pair_cells(n_spins):
        floor = oracle_mod.certified_gap(chain, sol.potential, sol).lambda3_floor
        _, lam3, res = _dense_gaps(chain)
        free = ~(sol.set_a | sol.set_b)
        root = np.sqrt(chain.stationary[free])
        killed = chain.laplacian[free][:, free].toarray() / root[:, None] / root[None, :]
        vals = scipy.linalg.eigvalsh(killed)
        killed_res = GAP_DIGITS_FACTOR * free.sum() * np.finfo(float).eps * vals[-1]
        assert 0.0 < floor <= vals[0] + killed_res, where
        assert floor <= lam3 + res, where


def _mp_spectrum(chain, dps=40):
    """Ascending eigenvalues of D^-1/2 Lap D^-1/2, built in mpmath from the
    chain's own conductances."""
    mp = pytest.importorskip("mpmath").mp
    mp.dps = dps
    lap = chain.laplacian.tocoo()
    n = chain.n_states
    root = [mp.sqrt(mp.mpf(float(m))) for m in chain.stationary]
    a = mp.matrix(n, n)
    for i, j, v in zip(lap.row, lap.col, lap.data):
        if i != j:
            w = -mp.mpf(float(v))
            a[i, j] = -w / (root[i] * root[j])
            a[i, i] += w / (root[i] * root[i])
    return sorted(mp.eigsy(a, eigvals_only=True))


def _mp_line_gap(chain, dps=800):
    """lambda_2 of a chain on a line (state k joined to k + 1 only), by
    bisection on a Sylvester count: the number of negative pivots of
    Lap - x diag(mu), a three-term recurrence, is the number of eigenvalues
    below x.  mpmath, from the chain's own conductances; ``dps`` covers the
    cancellation of pivots across conductances down to 1e-700."""
    mp = pytest.importorskip("mpmath").mp
    n = chain.n_states
    lap = chain.laplacian
    with mp.workdps(dps):
        c = [-mp.mpf(float(lap[k, k + 1])) for k in range(n - 1)] + [mp.mpf(0)]
        m = [mp.mpf(float(v)) for v in chain.stationary]

        def below(x):
            count, d, left = 0, mp.mpf(1), mp.mpf(0)
            for k in range(n):
                d = left + c[k] - x * m[k] - left * left / d
                left = c[k]
                count += d < 0
            return count

        lo, hi = mp.mpf(10) ** (-dps // 2), mp.mpf(4)
        assert below(lo) == 1 and below(hi) >= 2
        while hi - lo > mp.mpf(10) ** -30 * hi:
            mid = mp.sqrt(lo * hi)
            if below(mid) >= 2:
                hi = mid
            else:
                lo = mid
        return hi


# ROADMAP item 2's low-temperature grid: a dense eigensolve gives dw11 at
# beta 12-40 and dw15 at beta 8-15 wrong, by up to 1e32 relative
MP_GRID = [(11, b) for b in (5.0, 8.0, 10.0, 12.0, 15.0, 20.0, 25.0, 40.0)] + [
    (15, b) for b in (5.0, 8.0, 10.0, 12.0, 15.0, 20.0, 25.0)
]


@pytest.mark.parametrize("n,beta", MP_GRID)
def test_exact_cpi_tag_holds_against_mpmath(n, beta):
    chain = double_well_chain(beta, n)
    rep = exact_cpi(chain)
    cert = rep.certificate
    want = _mp_line_gap(chain)
    assert rep.certificate.value == cert.value and rep.c_pi.value == 1.0 / cert.value
    if cert.mode == "exact":
        assert abs(cert.value - want) <= 1e-12 * want
        assert abs(rep.c_pi.value * want - 1) <= 1e-12
    else:
        assert cert.lower <= want <= cert.upper


# cells that certify only if the residual is summed edge by edge: the CSR
# row of the Laplacian cancels inside the wells
@pytest.mark.parametrize("n,beta", [(11, 10.0), (11, 20.0), (15, 5.0), (15, 20.0)])
def test_edgewise_residual_certifies_well_gaps(n, beta):
    chain = double_well_chain(beta, n)
    cert = exact_cpi(chain).certificate
    want = _mp_line_gap(chain)
    assert cert.mode == "exact"
    assert cert.lower <= want <= cert.upper


def test_mp_line_gap_matches_eigsy():
    chain = double_well_chain(5.0)
    assert abs(_mp_line_gap(chain) / _mp_spectrum(chain)[1] - 1) <= 1e-20


@pytest.mark.parametrize("seed", range(3))
def test_exact_cpi_certifies_random_chains(seed):
    for n in range(3, 41):
        chain = random_reversible_chain(np.random.default_rng((20170515, n, seed)), n)
        assert exact_cpi(chain).certificate.mode == "exact", n


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonfinite_lambda3_estimate_gives_no_floor(monkeypatch):
    # at beta 25 the estimate's solves overflow: no count, no floor, a bound
    def count(*args):
        raise AssertionError("the inertia count ran on a non-finite estimate")

    monkeypatch.setattr(oracle_mod, "_lambda3_floor", count)
    chain = double_well_chain(25.0, 15)
    cert = exact_cpi(chain).certificate
    assert cert.lambda3_floor == 0.0 and cert.lower == 0.0 and cert.mode == "bound"
    assert cert.lower <= _mp_line_gap(chain) <= cert.upper


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_inverse_iteration_overflow_raises_solver_error():
    with pytest.raises(SolverNotConverged, match="not finite"):
        exact_cpi(double_well_chain(30.0, 15))


@pytest.mark.parametrize("beta", [12.0, 20.0])
def test_certified_gap_matches_mpmath(beta):
    chain, h = _rfcw_cell(6, beta, "uniform:0.2")
    cert = oracle_mod.certified_gap(chain, h)
    lam = _mp_spectrum(chain)
    assert cert.mode == "exact"
    assert abs(cert.value - lam[1]) <= 1e-12 * lam[1]
    assert cert.lower <= lam[1] <= cert.upper
    assert cert.lambda3_floor <= lam[2]


def test_certified_gap_releases_the_grounded_factor_first(monkeypatch):
    # at most one SuperLU factor of certified_gap is alive: the grounded one
    # is gone before each inertia count factors the shifted Laplacian
    refs, alive = [], []
    real_factor, real_pivots = oracle_mod._grounded_factor, oracle_mod._ldl_pivots

    class Factor:
        def __init__(self, solve):
            self.solve = solve

        def __call__(self, rhs):
            return self.solve(rhs)

    def grounded_factor(chain):
        free, solve = real_factor(chain)
        factor = Factor(solve)
        refs.append(weakref.ref(factor))
        return free, factor

    def ldl_pivots(chain, a):
        alive.append(refs[-1]() is not None)
        return real_pivots(chain, a)

    monkeypatch.setattr(oracle_mod, "_grounded_factor", grounded_factor)
    monkeypatch.setattr(oracle_mod, "_ldl_pivots", ldl_pivots)
    chain, h = _rfcw_cell(8, 1.5, "uniform:0.2", seed=7)
    assert oracle_mod.certified_gap(chain, h).mode == "exact"
    assert alive and not any(alive)


def test_certified_gap_interval_holds_off_convergence(monkeypatch):
    # stopped at a settle of 1e-4, rho sits well above lambda_2: the
    # Kato-Temple interval must be that wide, and still contain lambda_2
    chain, h = _rfcw_cell(8, 1.5, "uniform:0.2", seed=7)
    gap, lam3, res = _dense_gaps(chain)
    monkeypatch.setattr(oracle_mod, "REFINE_RTOL", 1e-4)
    cert = oracle_mod.certified_gap(chain, h)
    assert cert.value > gap * (1.0 + 1e-8)
    assert gap * (1.0 - 1e-5) < cert.lower <= gap - res
    assert cert.lambda3_floor <= lam3


def test_certified_gap_bound_when_the_count_fails(monkeypatch):
    chain, h = _rfcw_cell(6, 2.0, "uniform:0.2")
    gap, _, res = _dense_gaps(chain)
    # every LDL^T distrusted: no lambda_3 floor, so no lower bound
    monkeypatch.setattr(oracle_mod, "PIVOT_GROWTH_LIMIT", 0.0)
    cert = oracle_mod.certified_gap(chain, h)
    assert cert.mode == "bound"
    assert cert.lower == 0.0 and cert.lambda3_floor == 0.0
    assert cert.value >= gap - res


def test_lambda3_floor_counts_pivots():
    chain, _ = _rfcw_cell(6, 2.0, "uniform:0.2")
    gap, lam3, _ = _dense_gaps(chain)
    # sigma starts halfway between the gap and the estimate
    assert oracle_mod._lambda3_floor(chain, gap, 0.5 * lam3) == 0.5 * (gap + 0.5 * lam3)
    # above lambda_3 the count halves sigma's distance to the gap until it
    # falls below, so sigma stays above the gap however close lambda_3 is
    sigma = 0.5 * (gap + 3.0 * lam3)
    assert sigma > lam3
    assert oracle_mod._lambda3_floor(chain, gap, 3.0 * lam3) == gap + 0.5 * (sigma - gap)
    # below lambda_2 only one pivot is negative: no floor
    assert oracle_mod._lambda3_floor(chain, 0.5 * gap, 0.5 * gap) == 0.0
    # past the halvings: no floor
    far = 2.0 ** (oracle_mod.SIGMA_HALVINGS + 3) * lam3
    assert oracle_mod._lambda3_floor(chain, gap, far) == 0.0


def test_certified_gap_two_states(two_state):
    cert = oracle_mod.certified_gap(two_state, np.array([1.0, 0.0]))
    assert cert.mode == "exact" and cert.lambda3_floor == np.inf
    assert cert.value == pytest.approx(0.4, rel=1e-14)
    assert cert.lower <= 0.4 <= cert.upper
