import itertools
import math

import numpy as np
import pytest

from metastab import ValidationError
from metastab.chains import MetastabError
from metastab.coupling import (
    BoundOutOfRange,
    _accept,
    _coupled_steps,
    _event_b,
    _flip_table,
    _gated_draw,
    _streams,
    coupling_experiment,
    eta_from_coupling,
    gate_probability,
    hitting_lower_bound_check,
    marginal_chi_square,
    mismatched_pair_in_fiber,
    negative_binomial_rate,
    optimal_two_point_coupling,
    richest_fiber,
    run_coupling,
    tail_bound_check,
)
from metastab.rfcw import build_model, coarse_grain, find_minima_and_order


def test_optimal_coupling_identical_marginals():
    c = optimal_two_point_coupling([0.5, 0.5], [0.5, 0.5], 1.0 - 1e-9)
    assert c.disagreement == pytest.approx(0.0, abs=1e-9)
    left, right = c.marginals()
    assert np.allclose(left, [0.5, 0.5]) and np.allclose(right, [0.5, 0.5])


def test_optimal_coupling_tv_and_lp():
    nu = np.array([0.7, 0.3])
    nup = np.array([0.5, 0.5])
    c = optimal_two_point_coupling(nu, nup, 0.5)
    assert c.disagreement == pytest.approx(0.2, abs=1e-12)
    left, right = c.marginals()
    assert np.allclose(left, nu, atol=1e-15)
    assert np.allclose(right, nup, atol=1e-15)
    # exhaustive 2x2 LP: every coupling has at least TV disagreement
    best = math.inf
    for q in np.linspace(max(0.0, nu[0] + nup[0] - 1.0), min(nu[0], nup[0]), 2001):
        dis = (nu[0] - q) + (nup[0] - q)
        best = min(best, dis)
    assert c.disagreement == pytest.approx(best, abs=1e-6)


def test_optimal_coupling_domination_error():
    with pytest.raises(ValidationError):
        optimal_two_point_coupling([0.9, 0.1], [0.1, 0.9], 0.5)


@pytest.fixture(scope="module")
def small_pair():
    model = build_model(6, 1.0, "values:0.19,0.13,0.2,-0.18,-0.2,-0.14")
    land = coarse_grain(model, 2)
    return model, land


def test_run_coupling_merged_at_zero(small_pair):
    model, land = small_pair
    sigma = model.spins[17].copy()
    trace = run_coupling(model, land, sigma, sigma.copy(), T=30, M=6, seed=2)
    assert trace.merged and trace.merge_time == 0
    assert np.array_equal(trace.sigma_final, trace.varsigma_final)


def test_run_coupling_rejects_meso_mismatch(small_pair):
    model, land = small_pair
    up = np.ones(6, dtype=np.int8)
    down = -up
    with pytest.raises(ValidationError):
        run_coupling(model, land, up, down, T=10, M=4, seed=3)


def test_run_coupling_sync_invariant(small_pair):
    model, land = small_pair
    rng = np.random.default_rng(5)
    start = richest_fiber(land)
    for r in range(200):
        s0, v0 = mismatched_pair_in_fiber(model, land, start, rng)
        trace = run_coupling(model, land, s0, v0, T=150, M=8, seed=100 + r)
        assert trace.sync_violations == 0
        assert trace.partner_failures == 0
        if trace.merged and trace.merge_time is not None:
            assert np.array_equal(trace.sigma_final, trace.varsigma_final)


def test_merge_containment(small_pair):
    # condition on the all-gates event by forcing the gates; the merge at
    # frak_t must then hold on every run where B occurs
    model, land = small_pair
    rng = np.random.default_rng(7)
    start = richest_fiber(land)
    M = 60
    checked = 0
    for r in range(300):
        s0, v0 = mismatched_pair_in_fiber(model, land, start, rng)
        trace = run_coupling(
            model,
            land,
            s0,
            v0,
            T=400,
            M=M,
            seed=500 + r,
            gates=np.ones(M, dtype=bool),
        )
        if trace.event_A and trace.event_B:
            checked += 1
            assert trace.matched_at_frak_t
    assert checked > 50


def test_gate_event_probability(small_pair):
    model, land = small_pair
    rep = coupling_experiment(
        model, land, runs=40_000, seed=11, M=4, T=120, dynamics_runs=150
    )
    assert rep["p_A_within_3sigma"]
    assert rep["sync_violations"] == 0
    assert rep["containment_violations"] == 0
    assert rep["p_A_theory"] == pytest.approx(
        gate_probability(model, land) ** 4, rel=1e-12
    )


def test_marginal_chi_square(small_pair):
    model, land = small_pair
    results = marginal_chi_square(model, land, runs=300, steps=80, seed=13)
    for rep in results:
        assert rep["pass"], rep
        assert rep["states_tested"] > 10


def test_negative_binomial_rate_values():
    alpha = 0.5
    assert negative_binomial_rate(alpha, 1.0 / alpha) == pytest.approx(0.0, abs=1e-12)
    # frozen golden at the RFCW parameters beta = 1, h_inf = 0.2
    a = math.exp(-2.4)
    assert negative_binomial_rate(a, 2.0 / a) == pytest.approx(
        0.3313903153672205, rel=1e-12
    )
    with pytest.raises(ValidationError):
        negative_binomial_rate(0.5, 1.0)
    with pytest.raises(ValidationError):
        negative_binomial_rate(1.5, 2.0)


def test_negative_binomial_rate_convexity():
    alpha = 0.3
    h = 1e-5
    for s in (1.5, 2.0, 4.0, 7.0):
        second = (
            negative_binomial_rate(alpha, s + h)
            - 2.0 * negative_binomial_rate(alpha, s)
            + negative_binomial_rate(alpha, s - h)
        ) / (h * h)
        assert second == pytest.approx(1.0 / (s * (s - 1.0)), rel=1e-3)


def test_tail_bound_beta_zero():
    model = build_model(5, 0.0, "zero")
    rep = tail_bound_check(model, samples=100, seed=1)
    assert rep["alpha"] == 1.0
    assert rep["bound"] == 0.0
    assert rep["empirical"] == 0.0
    assert rep["domination_ok"]


def test_tail_bound_generic(small_pair):
    model, _ = small_pair
    rep = tail_bound_check(model, samples=400, seed=9)
    assert rep["within_3sigma"]
    assert rep["domination_ok"]


def test_hitting_bound_exact_lumpable(rfcw_two_valued):
    model, land = rfcw_two_valued
    order = find_minima_and_order(model, land)
    rep = hitting_lower_bound_check(
        model, land, [order.minima[0]], [order.minima[1]]
    )
    # resolved field: hitting probabilities exactly constant on fibers
    assert rep["max_fiber_spread"] < 1e-10
    assert rep["worst_margin"] >= -1e-12


def test_hitting_bound_spread(rfcw_spread):
    model, land = rfcw_spread
    order = find_minima_and_order(model, land)
    rep = hitting_lower_bound_check(
        model, land, [order.minima[0]], [order.minima[1]], runs=200, seed=3
    )
    assert rep["worst_margin"] >= -1e-12
    assert rep["mc"]["margin"] >= -rep["mc"]["three_sigma"]


def test_hitting_bound_degenerate_complement(small_pair):
    model, land = small_pair
    all_pts = list(range(land.n_points))
    rep = hitting_lower_bound_check(model, land, all_pts[:1], all_pts[1:])
    assert rep["worst_margin"] >= -1e-12


def test_eta_from_coupling_resolved(rfcw_two_valued):
    model, land = rfcw_two_valued
    order = find_minima_and_order(model, land)
    rep = eta_from_coupling(model, land, order.minima[0], order.minima[1])
    assert rep["eta_exact"] <= 1e-12
    assert rep["slack"] >= 0.0


def test_eta_from_coupling_singleton(small_pair):
    model, land = small_pair
    # the all-up corner is a one-configuration fiber
    corner = land.point_of(tuple(int(b.size) for b in land.blocks))
    other = richest_fiber(land)
    rep = eta_from_coupling(model, land, corner, other)
    assert rep["eta_exact"] == pytest.approx(0.0, abs=1e-15)


def test_eta_from_coupling_spread(rfcw_spread):
    model, land = rfcw_spread
    order = find_minima_and_order(model, land)
    # pick a metastable fiber with more than one configuration
    source = next(
        k for k in order.minima if land.fiber_mask([k]).sum() > 1
    )
    target = next(k for k in order.minima if k != source)
    rep = eta_from_coupling(model, land, source, target)
    assert rep["eta_exact"] > 0.0
    assert rep["slack"] > 0.0


# -- the lockstep kernel -------------------------------------------------------


def test_accept_matches_flip_probability(small_pair):
    rng = np.random.default_rng(3)
    models = [small_pair[0]] + [
        build_model(8, beta, "uniform:0.3", seed=4) for beta in (0.0, 0.7, 2.5)
    ]
    for model in models:
        n = model.n_spins
        table = _flip_table(model)
        spins = np.where(rng.random((400, n)) < 0.5, 1, -1).astype(np.int8)
        m = spins.sum(axis=1, dtype=np.int64)
        for i in range(n):
            sites = np.full(400, i)
            got = _accept(table, spins[:, i], m, sites)
            want = [model.flip_probability(s, int(k), i) for s, k in zip(spins, m)]
            assert got.tolist() == want  # bit for bit


@pytest.fixture(scope="module")
def law_pair():
    # blocks {0, 1, 2, 3} and {4, 5, 6, 7}; sigma and varsigma disagree on
    # four sites of the first block and two of the second, so site 0 has two
    # candidate partners and site 4 one
    model = build_model(8, 1.0, "values:0.19,0.13,0.2,0.15,-0.18,-0.2,-0.14,-0.11")
    land = coarse_grain(model, 2)
    sig = np.array([1, 1, -1, -1, 1, -1, 1, -1], dtype=np.int8)
    var = np.array([-1, -1, 1, 1, -1, 1, 1, -1], dtype=np.int8)
    return model, land, sig, var


def _one_step_law(model, land, sig, var, gate):
    """Exact law of (sigma', varsigma') after one kernel step, by enumeration."""
    n = model.n_spins
    delta = gate_probability(model, land)
    blk = land.site_block()
    law = {}

    def add(p, i, fs, j, fv):
        s, v = sig.copy(), var.copy()
        if fs:
            s[i] = -s[i]
        if fv:
            v[j] = -v[j]
        key = (s.tobytes(), v.tobytes())
        law[key] = law.get(key, 0.0) + p / n

    for i in range(n):
        a = model.flip_probability(sig, int(sig.sum()), i)
        if gate is None:  # no gate left: independent Glauber steps
            for k in range(n):
                b = model.flip_probability(var, int(var.sum()), k)
                for fs, fv in itertools.product((0, 1), repeat=2):
                    p = (a if fs else 1 - a) * (b if fv else 1 - b) / n
                    add(p, i, fs, k, fv)
            continue
        if sig[i] == var[i]:
            add(a, i, 1, i, 1)
            add(1.0 - a, i, 0, i, 0)
            continue
        cands = [
            j for j in range(n)
            if blk[j] == blk[i] and var[j] != sig[j] and var[j] == sig[i]
        ]
        for j in cands:
            b = model.flip_probability(var, int(var.sum()), j)
            hi, lo = max(a, b), min(a, b)
            nu = np.array([1.0 - hi, hi])  # [hold, flip] of the driving side
            c = optimal_two_point_coupling(nu, [1.0 - lo, lo], delta)
            joint = np.diag(nu) if gate else (c.joint - delta * np.diag(nu)) / (1.0 - delta)
            for x, y in itertools.product((0, 1), repeat=2):
                fs, fv = (x, y) if a >= b else (y, x)
                add(joint[x, y] / len(cands), i, fs, j, fv)
    return law


@pytest.mark.parametrize("case", ["gate_pass", "gate_fail", "merged", "no_gates"])
def test_kernel_one_step_joint_law(law_pair, case):
    model, land, sig, var = law_pair
    R = 200_000
    if case == "merged":
        var = sig.copy()
    gate = {"gate_pass": True, "gate_fail": False, "merged": True, "no_gates": None}[case]
    gates = np.full((R, 0 if gate is None else 1), bool(gate))
    out = _coupled_steps(
        model, land, np.tile(sig, (R, 1)), np.tile(var, (R, 1)), 1, gates,
        _streams((5, len(case)), 2),
    )
    seen = {}
    for s, v in zip(out["sigma"], out["varsigma"]):
        key = (s.tobytes(), v.tobytes())
        seen[key] = seen.get(key, 0) + 1
    law = _one_step_law(model, land, sig, var, gate)
    assert set(seen) <= {k for k, p in law.items() if p > 0.0}
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    for key, p in law.items():
        assert abs(seen.get(key, 0) - R * p) <= 5.0 * math.sqrt(R * p * (1.0 - p)) + 1e-9


def test_kernel_batch_invariants(small_pair):
    # the per-trajectory invariants of the sync and containment tests, checked
    # row by row on one batched call
    model, land = small_pair
    start = richest_fiber(land)
    s0, v0 = mismatched_pair_in_fiber(
        model, land, start, np.random.default_rng(5), size=300
    )
    gates = np.random.default_rng(6).random((300, 8)) < gate_probability(model, land)
    out = _coupled_steps(model, land, s0, v0, 150, gates, _streams((7,), 2))
    assert (out["sync_violations"] == 0).all()
    merged = out["merge_time"] >= 0
    assert merged.any()
    assert (out["sigma"][merged] == out["varsigma"][merged]).all()

    M = 60
    forced = np.ones((300, M), dtype=bool)
    out = _coupled_steps(model, land, s0, v0, 400, forced, _streams((8,), 2))
    contained = _event_b(out, M)  # every gate passes
    assert contained.sum() > 50
    assert out["matched"][contained].all()


def test_kernel_rejects_meso_mismatch_and_failed_domination(small_pair):
    model, land = small_pair
    s0, _ = mismatched_pair_in_fiber(
        model, land, richest_fiber(land), np.random.default_rng(1)
    )
    # move one up spin to another block: same magnetization, other point
    blk = land.site_block()
    i = int(np.flatnonzero(s0 == 1)[0])
    k = next(j for j in range(6) if blk[j] != blk[i] and s0[j] == -1)
    moved = s0.copy()
    moved[i], moved[k] = -1, 1
    with pytest.raises(ValidationError, match="mesoscopically"):
        _coupled_steps(
            model, land, s0[None], moved[None], 1, np.ones((1, 1), dtype=bool),
            _streams((1,), 2),
        )
    # a follower flipping far less often than delta times the driver
    with pytest.raises(MetastabError, match="domination"):
        _gated_draw(
            np.array([0.9]), np.array([0.1]), 0.5, np.array([False]),
            np.array([0.5]), np.array([0.5]),
        )


def test_eta_bound_out_of_float_range():
    model = build_model(8, 2.0, "uniform:0.2", seed=0)
    land = coarse_grain(model, 2)
    order = find_minima_and_order(model, land)
    with pytest.raises(BoundOutOfRange, match="log"):
        eta_from_coupling(model, land, order.minima[0], order.minima[1])
