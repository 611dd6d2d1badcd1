import numpy as np
import pytest

from metastab import (
    ValidationError,
    build_chain,
    build_structure,
    dirichlet_form,
    equilibrium_potential,
    eta_regularity,
    harmonic_neighborhood,
    log_mean,
    mean_exit_asymptotics,
    metastable_partition,
    pi_lsi_estimates,
    rho_metastability,
    subset_mask,
)
from metastab import potential, rfcw
from metastab.metastable import c_mass_constant, local_lsi_constant, local_pi_constant
from metastab.oracle import cheeger_constant, exact_cpi
from metastab.potential import capacity_dense, capacity_scan_context
from metastab.sampling import double_well_chain, random_reversible_chain

E2 = float(np.exp(2.0))


def test_rho_double_well_golden(double_well):
    cert = rho_metastability(double_well[2.0], [["x0"], ["x10"]], mode="exact")
    assert cert.mode == "exact"
    # frozen after the first exhaustive-denominator run
    assert cert.rho == pytest.approx(3.376453052253705e-06, rel=1e-9)
    assert cert.rho < 1e-3


def test_rho_whole_space_flag(two_state):
    cert = rho_metastability(two_state, [["a"], ["b"]])
    assert cert.whole_space
    assert cert.denominator is None
    assert cert.rho == pytest.approx(cert.numerator)


def test_rho_overlap_error(path3):
    with pytest.raises(ValidationError):
        rho_metastability(path3, [["0", "1"], ["1"]])
    with pytest.raises(ValidationError):
        rho_metastability(path3, [["0"]])


def test_rho_singleton_mode_upper_bound(double_well):
    exact = rho_metastability(double_well[1.0], [["x0"], ["x10"]], mode="exact")
    single = rho_metastability(double_well[1.0], [["x0"], ["x10"]], mode="singleton")
    assert single.mode == "singleton"
    assert single.rho >= exact.rho


def test_rho_reads_the_enumeration_limit_at_call_time(double_well, monkeypatch):
    # {x0}, {x10} leave 9 free states of the 11-state well
    monkeypatch.setattr(potential, "EXACT_ENUM_LIMIT", 8)
    assert rho_metastability(double_well[1.0], [["x0"], ["x10"]]).mode == "singleton"
    with pytest.raises(ValidationError, match="enumeration limit"):
        rho_metastability(double_well[1.0], [["x0"], ["x10"]], mode="exact")


def test_partition_symmetric_tie(double_well):
    valleys, parts, assign, ties = metastable_partition(
        double_well[2.0], [["x0"], ["x10"]]
    )
    # the saddle at x5 is a tie and goes to the lower index
    assert ties[5]
    assert assign[5] == 0
    assert list(assign) == [0] * 6 + [1] * 5
    assert valleys[0][5] and valleys[1][5]


def test_partition_whole_space(two_state):
    _, parts, assign, _ = metastable_partition(two_state, [["a"], ["b"]])
    assert list(assign) == [0, 1]


def test_partition_asymmetric_matches_brute_force():
    rng = np.random.default_rng(107)
    chain = random_reversible_chain(rng, 12)
    sets = [[0], [7]]
    valleys, parts, assign, ties = metastable_partition(chain, sets)
    # brute-force valley definition from the two potentials
    h0 = equilibrium_potential(chain, [0], [7]).potential
    h1 = equilibrium_potential(chain, [7], [0]).potential
    for x in range(12):
        if not ties[x]:
            assert assign[x] == (0 if h0[x] > h1[x] else 1)


def test_eta_singleton_and_symmetric(double_well):
    assert eta_regularity(double_well[2.0], ["x0"], ["x10"]) == 0.0
    # two mu-equal states with symmetric exits: density is constant
    edges = [
        ("l1", "l2", 0.1),
        ("l2", "l1", 0.1),
        ("l1", "r", 0.05),
        ("r", "l1", 0.05),
        ("l2", "r", 0.05),
        ("r", "l2", 0.05),
    ]
    sym = build_chain(["l1", "l2", "r"], edges)
    assert eta_regularity(sym, ["l1", "l2"], ["r"]) == pytest.approx(0.0, abs=1e-15)


def test_eta_generic_golden(double_well):
    val = eta_regularity(double_well[2.0], ["x0", "x1"], ["x10"])
    assert val == pytest.approx(2.804826642261082e-06, rel=1e-8)
    # direct assembly from the equilibrium solution
    chain = double_well[2.0]
    sol = equilibrium_potential(chain, ["x0", "x1"], ["x10"])
    a = sol.set_a
    mass = chain.mass(a)
    dens = sol.equilibrium_measure[a] * mass / sol.capacity
    w = chain.stationary[a] / mass
    var = float(np.dot(w, (dens - 1.0) ** 2))
    assert val == pytest.approx(var * sol.capacity / mass, rel=1e-12)


def test_structure_and_constants_singletons(double_well):
    st = build_structure(double_well[2.0], [["x0"], ["x10"]], mode="exact", seed=0)
    assert st.cpi_M == 1.0 and st.clsi_M == 1.0
    assert st.eta == 0.0
    assert st.c_mass >= np.log1p(E2)


def test_c_mass_uniform_blocks():
    # symmetric ring: uniform measure, so conditional blocks are uniform
    n = 8
    edges = []
    for i in range(n):
        j = (i + 1) % n
        edges.append((f"u{i}", f"u{j}", 0.25))
        edges.append((f"u{j}", f"u{i}", 0.25))
    chain = build_chain([f"u{i}" for i in range(n)], edges)
    parts = [np.arange(n) < 4, np.arange(n) >= 4]
    assert c_mass_constant(chain, parts) == pytest.approx(
        np.log1p(4.0 * E2), rel=1e-12
    )
    assert np.log1p(4.0 * E2) == pytest.approx(3.41963, abs=1e-4)
    assert np.log1p(2.0 * E2) == pytest.approx(2.75864, abs=1e-4)


# local_lsi_constant on multi-state sets, frozen from the per-start ascent
# that ran each seed alone
LOCAL_LSI_GOLDEN = [
    (lambda: double_well_chain(2.0), range(4), 21.231661094496268),
    (lambda: double_well_chain(1.0, 15), range(9, 15), 76.96115687354757),
    (lambda: random_reversible_chain(np.random.default_rng(7), 12), [0, 2, 3, 5, 8],
     271.6326613486908),
]


@pytest.mark.parametrize("make,members,want", LOCAL_LSI_GOLDEN, ids=["dw11", "dw15", "rc12"])
def test_local_lsi_constant_matches_per_start_ascent(make, members, want):
    chain = make()
    got = local_lsi_constant(chain, [chain.states[i] for i in members], seed=0)
    assert got == pytest.approx(want, rel=1e-9)


def test_local_pi_constant_attained():
    rng = np.random.default_rng(113)
    chain = random_reversible_chain(rng, 7)
    m = np.zeros(7, dtype=bool)
    m[:3] = True
    c = local_pi_constant(chain, m)
    mu_m = chain.conditional(m)

    def ratio(f):
        e = dirichlet_form(chain, f)
        if e <= 1e-14:
            return -np.inf
        mean = float(np.dot(mu_m, f))
        return float(np.dot(mu_m, (f - mean) ** 2)) / e

    best_f, best = None, -np.inf
    for _ in range(2000):
        f = rng.normal(size=7)
        r = ratio(f)
        if r > best:
            best, best_f = r, f
    assert best <= c * (1.0 + 1e-9)
    # independent refinement: projected gradient ascent approaches the sup
    f = best_f.copy()
    step = 0.5
    for _ in range(2000):
        e = dirichlet_form(chain, f)
        mean = float(np.dot(mu_m, f))
        grad = 2.0 * mu_m * (f - mean) - ratio(f) * 2.0 * (chain.laplacian @ f)
        cand = f + step * grad / e
        if ratio(cand) > ratio(f):
            f = cand
            step *= 1.2
        else:
            step *= 0.5
            if step < 1e-12:
                break
    assert ratio(f) <= c * (1.0 + 1e-9)
    assert ratio(f) >= c * (1.0 - 1e-6)


def test_mean_exit_two_state(two_state):
    st = build_structure(two_state, [["a"], ["b"]], seed=0)
    rep = mean_exit_asymptotics(two_state, st, 0)
    assert rep["main_term"] == pytest.approx(0.25 / 0.075, rel=1e-10)
    assert rep["exact"] == pytest.approx(rep["main_term"], rel=1e-10)
    assert rep["relative_error"] < 1e-10
    with pytest.raises(ValidationError):
        mean_exit_asymptotics(two_state, st, 1)  # nothing heavier than b


def test_mean_exit_gap_shrinks(double_well):
    gaps = []
    for beta in (1.0, 2.0, 3.0):
        st = build_structure(
            double_well[beta], [["x0"], ["x10"]], mode="exact", seed=0
        )
        gaps.append(mean_exit_asymptotics(double_well[beta], st, 0)["relative_error"])
    assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("beta,n", [(1.0, 11), (3.0, 11), (5.0, 11), (8.0, 11),
                                    (0.5, 15), (2.0, 15)])
def test_mean_exit_matches_birth_death_series(exit_time_series, beta, n):
    # at beta 8 (n = 11) and 2 (n = 15) a second solve Lap w = mu has lost
    # every digit; E_mu[h] / cap keeps them
    chain = double_well_chain(beta, n)
    st = build_structure(chain, [["x0"], [f"x{n - 1}"]], mode="singleton", seed=0)
    for i in (0, 1):
        want = exit_time_series(chain, forward=i == 0)
        got = mean_exit_asymptotics(chain, st, i)["exact"]
        assert abs(got - want) <= 1e-12 * want


def test_mean_exit_k3_delta_positive():
    # three wells with a shallow middle: delta > 0 path
    beta = 2.0
    xs = np.arange(13, dtype=float)
    v = 0.1 * (xs - 2.0) ** 2 * (xs - 6.5) ** 2 * (xs - 11.0) ** 2 / 100.0
    mu = np.exp(-beta * (v - v.min()))
    mu /= mu.sum()
    edges = []
    for x in range(12):
        edges.append((f"y{x}", f"y{x + 1}", 0.5 * min(1.0, np.exp(-beta * (v[x + 1] - v[x])))))
        edges.append((f"y{x + 1}", f"y{x}", 0.5 * min(1.0, np.exp(-beta * (v[x] - v[x + 1])))))
    chain = build_chain([f"y{x}" for x in range(13)], edges, stationary=mu)
    wells = sorted([2, 6, 11], key=lambda x: (-mu[x], x))
    sets = [[f"y{w}"] for w in wells]
    st = build_structure(chain, sets, mode="exact", seed=0)
    # lightest well: every other set is at least as heavy, so delta vanishes
    rep = mean_exit_asymptotics(chain, st, 2)
    assert rep["delta"] == 0.0
    assert rep["c_ratio"] > 0.0
    # middle well: the shallow set stays outside the target and drives delta
    rep1 = mean_exit_asymptotics(chain, st, 1)
    assert rep1["delta"] > 0.0


def test_pi_lsi_two_state(two_state):
    st = build_structure(two_state, [["a"], ["b"]], seed=0)
    est = pi_lsi_estimates(two_state, st)
    assert est["pi_lower"] == pytest.approx(2.5, rel=1e-10)
    assert est["pi_upper"] == pytest.approx(2.5, rel=1e-10)
    assert est["pi_lower"] == pytest.approx(
        exact_cpi(two_state).c_pi_exact, rel=1e-10
    )
    assert est["k2_point_estimates"]["c_pi"] == est["pi_lower"]


def test_pi_lsi_symmetric_factor_two():
    chain = build_chain(["a", "b"], [("a", "b", 0.2), ("b", "a", 0.2)])
    st = build_structure(chain, [["a"], ["b"]], seed=0)
    est = pi_lsi_estimates(chain, st)
    assert est["lsi_lower"] == pytest.approx(2.0 * est["pi_lower"], rel=1e-12)


def test_pi_lsi_k3_symmetric_ratio():
    n = 3
    edges = [
        (f"s{i}", f"s{j}", 1.0 / 3.0) for i in range(n) for j in range(n) if i != j
    ]
    chain = build_chain([f"s{i}" for i in range(n)], edges)
    st = build_structure(chain, [["s0"], ["s1"], ["s2"]], seed=0)
    est = pi_lsi_estimates(chain, st)
    assert est["pi_upper"] == pytest.approx(3.0 * est["pi_lower"], rel=1e-10)


def test_harmonic_neighborhood(double_well):
    chain = double_well[2.0]
    st = build_structure(chain, [["x0"], ["x10"]], mode="exact", seed=0)
    rep = harmonic_neighborhood(chain, st, [0], [1], 0.1)
    assert rep["u_a"][chain.index["x0"]]
    assert 0.8 - 1e-10 <= rep["cap_ratio"] <= 1.0 + 1e-12
    wide = harmonic_neighborhood(chain, st, [0], [1], 0.49)
    assert wide["u_a"].sum() >= rep["u_a"].sum()
    with pytest.raises(ValidationError):
        harmonic_neighborhood(chain, st, [0], [1], 0.7)


def test_single_set_hitting_comparison(double_well):
    # P_{mu_A}[tau_{M_i} < tau_A] >= (1/K) P_{mu_A}[tau_{union} < tau_A]
    chain = double_well[1.0]
    sets = [["x0"], ["x10"]]
    valleys, parts, assign, _ = metastable_partition(chain, sets)
    union = np.zeros(chain.n_states, dtype=bool)
    union[chain.index["x0"]] = True
    union[chain.index["x10"]] = True
    ctx = capacity_scan_context(chain)
    m0 = np.zeros(chain.n_states, dtype=bool)
    m0[chain.index["x0"]] = True
    free = np.flatnonzero(valleys[0] & ~m0)
    mu = chain.stationary
    for bits in range(1, 1 << free.size):
        a = np.zeros(chain.n_states, dtype=bool)
        for pos in range(free.size):
            if (bits >> pos) & 1:
                a[free[pos]] = True
        lhs = capacity_dense(ctx, a, m0)[0] / mu[a].sum()
        rhs = capacity_dense(ctx, a, union)[0] / mu[a].sum()
        assert lhs >= rhs / 2.0 - 1e-12


def test_lp_norm_estimate(double_well):
    for beta in (1.0, 2.0):
        chain = double_well[beta]
        st = build_structure(chain, [["x0"], ["x10"]], mode="exact", seed=0)
        rho = st.rho
        h = equilibrium_potential(chain, st.sets[1], st.sets[0]).potential
        mu0 = chain.conditional(st.partition[0])
        ratio = min(1.0, st.mu_parts[1] / st.mu_parts[0])
        for p in (2.0, 3.0):
            lhs = float(np.dot(mu0, h**p))
            assert lhs <= rho * p / (p - 1.0) * ratio + 1e-12
        eps = rho
        lhs1 = float(np.dot(mu0, h))
        assert lhs1 <= eps + rho * np.log(1.0 / eps) * ratio + 1e-12


def test_local_pi_projection_inequality(double_well):
    from metastab import conditional_expectation

    chain = double_well[2.0]
    st = build_structure(chain, [["x0"], ["x10"]], mode="exact", seed=0)
    parts = [st.sets[0], st.sets[1]] + [
        np.eye(chain.n_states, dtype=bool)[k]
        for k in range(chain.n_states)
        if not (st.sets[0][k] or st.sets[1][k])
    ]
    rng = np.random.default_rng(127)
    for _ in range(30):
        f = rng.normal(size=chain.n_states)
        proj = conditional_expectation(chain, parts, f)
        for i in range(2):
            mu_i = chain.conditional(st.partition[i])
            mean = float(np.dot(mu_i, proj))
            var = float(np.dot(mu_i, (proj - mean) ** 2))
            ref = float(np.dot(chain.conditional(st.sets[i]), f))
            assert var <= float(np.dot(mu_i, (proj - ref) ** 2)) + 1e-12


def test_mean_difference_core(double_well):
    chain = double_well[2.0]
    sol01 = equilibrium_potential(chain, ["x0"], ["x10"])
    sol10 = equilibrium_potential(chain, ["x10"], ["x0"])
    rng = np.random.default_rng(131)
    for _ in range(100):
        f = rng.normal(size=chain.n_states)
        lhs = (
            float(np.dot(sol01.last_exit, f)) - float(np.dot(sol10.last_exit, f))
        ) ** 2
        assert lhs <= dirichlet_form(chain, f) / sol01.capacity + 1e-10


def test_mean_difference_full(double_well):
    chain = double_well[2.0]
    st = build_structure(chain, [["x0"], ["x10"]], mode="exact", seed=0)
    rng = np.random.default_rng(137)
    kappa_max = np.sqrt(st.cpi_M * (st.rho + st.eta))
    worst = 0.0
    for _ in range(200):
        f = rng.normal(size=chain.n_states)
        e = dirichlet_form(chain, f)
        if e < 1e-14:
            continue
        mi = float(np.dot(chain.conditional(st.partition[0]), f))
        mj = float(np.dot(chain.conditional(st.partition[1]), f))
        worst = max(worst, (mi - mj) ** 2 * st.caps[0, 1] / e)
    # the measured excess stays within the reported error form
    assert worst <= 1.0 + 100.0 * kappa_max


def test_cheeger_sandwich_exact_instances(two_state, path3, double_well):
    for chain in (two_state, path3, double_well[1.0], double_well[2.0]):
        ch, _ = cheeger_constant(chain)
        cpi = exact_cpi(chain).c_pi_exact
        assert ch <= cpi * (1.0 + 1e-10)
        assert cpi <= 8.0 * ch * ch * (1.0 + 1e-10)


def test_singleton_mode_green_identity(double_well):
    # the one-factorization singleton capacities agree with per-singleton solves
    chain = double_well[1.0]
    union = np.zeros(chain.n_states, dtype=bool)
    union[chain.index["x0"]] = True
    union[chain.index["x10"]] = True
    free = np.flatnonzero(~union)
    lap_ff = chain.laplacian[~union][:, ~union].toarray()
    diag = np.diag(np.linalg.inv(lap_ff))
    for k, y in enumerate(free):
        a = np.zeros(chain.n_states, dtype=bool)
        a[y] = True
        cap = equilibrium_potential(chain, a, union).capacity
        assert cap == pytest.approx(1.0 / diag[k], rel=1e-10)


def _singleton_rho_reference(chain, masks):
    """The dense-inverse singleton ratio: capacity_dense numerator and
    diag(inv(Lap_ff)) denominator."""
    mu = chain.stationary
    union = np.logical_or.reduce(masks)
    ctx = capacity_scan_context(chain)
    num = len(masks) * max(
        capacity_dense(ctx, m, union & ~m)[0] / mu[m].sum() for m in masks
    )
    lap_ff = chain.laplacian[~union][:, ~union].toarray()
    diag = np.diag(np.linalg.inv(lap_ff))
    den = np.min(1.0 / (diag * mu[~union])) / chain.n_states
    return num, den


def test_singleton_rho_matches_dense_inverse(double_well):
    model = rfcw.build_model(9, 2.0, "uniform:0.2", seed=4, materialize=True)
    land = rfcw.coarse_grain(model, 2)
    minima = rfcw.find_minima_and_order(model, land).minima
    cases = [
        (double_well[1.0], ["x0"], ["x10"]),
        (double_well[2.0], ["x0"], ["x10"]),
        (double_well[3.0], ["x0", "x1"], ["x9", "x10"]),
        (model.chain, land.fiber_mask([minima[0]]), land.fiber_mask([minima[1]])),
    ]
    for chain, s1, s2 in cases:
        masks = [subset_mask(chain, s1), subset_mask(chain, s2)]
        cert = rho_metastability(chain, masks, mode="singleton")
        num, den = _singleton_rho_reference(chain, masks)
        assert cert.numerator == pytest.approx(num, rel=1e-12)
        assert cert.denominator == pytest.approx(den, rel=1e-12)
        assert cert.rho == pytest.approx(num / den, rel=1e-12)


def test_mean_exit_error_form_undefined_outside_regime():
    # {x0}, {x1} of the 11-state well at beta = 1: rho >= C_ratio
    chain = double_well_chain(1.0)
    st = build_structure(chain, [["x0"], ["x1"]], mode="exact", seed=1)
    rep = mean_exit_asymptotics(chain, st, 1)
    assert st.rho >= rep["c_ratio"]
    assert rep["error_form"] is None


def test_exact_rho_takes_the_first_minimum(monkeypatch, ring4):
    # {r1}, {r3} and {r1, r3} tie for the denominator; with one subset per
    # block each is solved in its own block, and the first in bit order wins
    monkeypatch.setattr(potential, "SCAN_BLOCK", 1)
    union = subset_mask(ring4, ["r0", "r2"])
    free = np.flatnonzero(~union)
    ctx = capacity_scan_context(ring4)
    vals = []
    for bits in range(1, 1 << free.size):
        a = np.zeros(4, dtype=bool)
        a[[free[k] for k in range(free.size) if bits >> k & 1]] = True
        vals.append((capacity_dense(ctx, a, union)[0] / ring4.stationary[a].sum(), a))
    den = min(v for v, _ in vals)
    ties = [a for v, a in vals if v == den]
    assert len(ties) > 1
    cert = rho_metastability(ring4, [["r0"], ["r2"]], mode="exact")
    assert cert.denominator == den
    assert np.array_equal(cert.argmin_subset, ties[0])
