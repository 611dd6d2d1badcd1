import math

import numpy as np
import pytest

from metastab import ValidationError, equilibrium_potential
from metastab.oracle import exact_cpi
from metastab import rfcw
from metastab.rfcw import (
    barred_chain,
    bernoulli_laplace_constants,
    bl_comparison_report,
    bottleneck_height,
    build_model,
    coarse_grain,
    find_minima_and_order,
    free_energy_continuous,
    lumpability_certificate,
    mesoscopic_dominance,
    mesoscopic_rates_and_chain,
    two_step_comparison,
)


def test_build_model_n2_golden():
    m = build_model(2, 1.0, "zero")
    # H(++) = H(--) = -1, H(+-) = H(-+) = 0; direct 4-state enumeration
    assert np.allclose(np.sort(m.hamiltonian), [-1.0, -1.0, 0.0, 0.0])
    w = np.exp(-m.hamiltonian)
    assert np.allclose(m.gibbs, w / w.sum(), atol=1e-14)
    i_pp = m.chain.index["++"]
    i_mp = m.chain.index["-+"]
    assert m.chain.kernel[i_pp, i_mp] == pytest.approx(0.5 * math.exp(-1.0), rel=1e-14)


def test_build_model_beta_zero_uniform():
    m = build_model(4, 0.0, "values:0.1,0.1,-0.1,-0.1")
    assert np.allclose(m.gibbs, 1.0 / 16.0, atol=1e-15)


def test_build_model_field_bound():
    with pytest.raises(ValidationError):
        build_model(3, 1.0, {"kind": "explicit", "values": [0.3, 0.0, 0.0], "h_inf": 0.2})
    with pytest.raises(ValidationError):
        build_model(3, 1.0, "uniform:0.2")  # missing seed


def test_coarse_grain_total_magnetization():
    m = build_model(5, 1.2, "zero")
    land = coarse_grain(m, 1)
    assert land.n_points == 6  # N + 1 magnetization levels
    assert land.mu_meso.sum() == pytest.approx(1.0, abs=1e-12)


def test_coarse_grain_two_valued_resolved(rfcw_two_valued):
    model, land = rfcw_two_valued
    assert np.max(np.abs(land.h_tilde)) < 1e-14
    assert [b.size for b in land.blocks] == [3, 3]


def test_induced_measure_matches_fiber_sums(rfcw_spread):
    model, land = rfcw_spread
    for k in range(land.n_points):
        fiber = land.fiber_mask([k])
        assert land.mu_meso[k] == pytest.approx(model.gibbs[fiber].sum(), rel=1e-12)


def test_free_energy_scalar_curie_weiss():
    m = build_model(8, 1.5, "zero")
    land = coarse_grain(m, 1)
    # I(0) = 0 and E(0) = 0, so F(0) = 0
    assert free_energy_continuous(land, np.zeros(1)) == pytest.approx(0.0, abs=1e-12)
    # endpoint: I(1) = ln 2
    f1 = free_energy_continuous(land, np.ones(1))
    expected = -0.5 + math.log(2.0) / 1.5
    assert f1 == pytest.approx(expected, rel=1e-12)


def test_free_energy_domain_errors():
    m = build_model(4, 1.0, "zero")
    land = coarse_grain(m, 1)
    with pytest.raises(ValidationError):
        free_energy_continuous(land, np.array([1.5]))


def test_bottleneck_height_toy_path():
    values = [0.0, 2.0, 1.0, 3.0, 0.5]
    nbrs = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2, 4], 4: [3]}
    phi = bottleneck_height(values, lambda k: nbrs[k], [0], [4])
    assert phi == 3.0


def test_minima_scalar_double_well():
    m = build_model(10, 1.5, "zero")
    land = coarse_grain(m, 1)
    order = find_minima_and_order(m, land)
    assert not order.degenerate
    assert len(order.minima) == 2
    ms = sorted(land.points[k][0] for k in order.minima)
    assert ms[0] == -ms[1]  # symmetric pair +-m*
    assert order.deltas.size == 1 and order.deltas[0] > 0.0
    # Delta_1 equals the barrier: F passes through the origin
    z0 = land.index[(0,)]
    top = land.free_energy[z0]
    bottom = land.free_energy[order.minima[1]]
    assert order.deltas[0] == pytest.approx(top - bottom, rel=1e-12)


def test_minima_subcritical_single_well():
    m = build_model(10, 0.8, "zero")
    land = coarse_grain(m, 1)
    order = find_minima_and_order(m, land)
    assert order.degenerate
    assert len(order.minima) == 1
    assert land.points[order.minima[0]][0] == 0


def test_deltas_ordered(rfcw_spread):
    model, land = rfcw_spread
    order = find_minima_and_order(model, land)
    if order.deltas.size > 1:
        assert np.all(np.diff(order.deltas) <= 1e-12)


def test_critical_point_refinement(rfcw_spread):
    model, land = rfcw_spread
    order = find_minima_and_order(model, land)
    for ref in order.refined:
        assert ref["residual"] < 1e-8
        assert ref["f_value"] == pytest.approx(ref["f_closed_form"], abs=1e-8)


def test_meso_rates_reversible_and_birth_death():
    m = build_model(6, 1.2, "zero")
    land = coarse_grain(m, 1)
    meso = mesoscopic_rates_and_chain(m, land)
    assert meso.n_states == 7
    # birth-death structure of the magnetization chain
    coo = meso.kernel.tocoo()
    for r, c in zip(coo.row, coo.col):
        assert abs(int(r) - int(c)) <= 1


def test_meso_dominance(rfcw_two_valued, rfcw_spread):
    for model, land in (rfcw_two_valued, rfcw_spread):
        meso = mesoscopic_rates_and_chain(model, land)
        order = find_minima_and_order(model, land)
        rep = mesoscopic_dominance(
            model, land, meso, [order.minima[0]], [order.minima[1]]
        )
        assert rep["micro"] <= rep["meso"] * (1.0 + 1e-9)


def test_meso_dominance_injective_blocks():
    # n = N distinct field values: every block is a single site
    m = build_model(4, 1.0, "values:0.15,-0.15,0.05,-0.05")
    land = coarse_grain(m, 4)
    sizes = sorted(b.size for b in land.blocks)
    assert sizes == [1, 1, 1, 1]
    meso = mesoscopic_rates_and_chain(m, land)
    # rho is injective, so the meso chain mirrors the micro chain
    assert meso.n_states == 16
    rep = mesoscopic_dominance(m, land, meso, [0], [land.n_points - 1])
    assert rep["micro"] == pytest.approx(rep["meso"], rel=1e-9)


def test_barred_chain_exact_when_resolved(rfcw_two_valued):
    model, land = rfcw_two_valued
    bar = barred_chain(model, land)
    assert bar["max_log_mu_ratio"] < 1e-12
    assert bar["max_log_p_ratio"] < 1e-12


def test_barred_chain_spread_strictly_inside(rfcw_spread):
    model, land = rfcw_spread
    bar = barred_chain(model, land)
    assert 0.0 < bar["max_log_mu_ratio"] < bar["mu_ratio_bound"]
    assert 0.0 < bar["max_log_p_ratio"] < bar["p_ratio_bound"]


def test_lumpability(rfcw_two_valued):
    model, land = rfcw_two_valued
    bar = barred_chain(model, land)
    order = find_minima_and_order(model, land)
    cert = lumpability_certificate(
        model, land, bar, [order.minima[0]], [order.minima[1]]
    )
    assert cert["max_fiber_spread"] < 1e-12
    assert cert["cap_micro"] >= cert["comparison_factor"] * cert["cap_barred"] * (
        1.0 - 1e-9
    )


def test_lumpability_spread_field(rfcw_spread):
    model, land = rfcw_spread
    bar = barred_chain(model, land)
    order = find_minima_and_order(model, land)
    cert = lumpability_certificate(
        model, land, bar, [order.minima[0]], [order.minima[1]]
    )
    assert cert["max_fiber_spread"] < 1e-10


def test_bernoulli_laplace_examples():
    rep = bernoulli_laplace_constants(4, 2)
    assert rep["c_pi_bl"] == 1.0
    assert rep["c_pi_spectral"] == pytest.approx(1.0, rel=1e-10)
    rep2 = bernoulli_laplace_constants(2, 1)
    assert rep2["c_pi_bl"] == 0.5
    assert rep2["c_pi_spectral"] == pytest.approx(0.5, rel=1e-10)
    for L in range(2, 9):
        for k in range(1, L):
            out = bernoulli_laplace_constants(L, k)
            assert out["c_pi_bl"] <= L / 4.0 + 1e-12
            assert out["c_pi_spectral"] == pytest.approx(out["c_pi_bl"], rel=1e-9)
    with pytest.raises(ValidationError):
        bernoulli_laplace_constants(4, 4)


def test_two_step_comparison(two_state, rfcw_two_valued):
    rep = two_step_comparison(two_state, n_samples=200, seed=1)
    assert rep["max_energy_ratio"] <= 2.0 + 1e-10
    assert rep["spectral_margin"] <= 1e-12
    model, _ = rfcw_two_valued
    rep2 = two_step_comparison(model.chain, n_samples=50, seed=2)
    assert rep2["spectral_margin"] <= 1e-12


def test_bl_comparison_ceiling(rfcw_two_valued):
    model, land = rfcw_two_valued
    order = find_minima_and_order(model, land)
    rep = bl_comparison_report(model, land, order)
    assert rep["cpi_M"] <= rep["ceiling"]
    assert 2.0 * math.log(2.0) * rep["clsi_M"] <= rep["ceiling"]
    assert rep["worst_edge_ratio"] <= rep["edge_bound"]


def test_rho_trend_monotone_in_beta():
    # metastability certificate tightens with beta on the symmetric model
    from metastab.metastable import rho_metastability

    ratios = []
    for beta in (1.5, 2.0, 2.5):
        m = build_model(10, beta, "zero")
        land = coarse_grain(m, 1)
        order = find_minima_and_order(m, land)
        sets = [land.fiber_mask([k]) for k in order.minima[:2]]
        cert = rho_metastability(m.chain, sets, mode="singleton")
        ratios.append(cert.rho)
    assert ratios[0] > ratios[1] > ratios[2]


def test_micro_meso_chain_inequality(rfcw_spread):
    # escape probabilities bounded below through mesoscopic capacities
    model, land = rfcw_spread
    meso = mesoscopic_rates_and_chain(model, land)
    n, beta, eps = model.n_spins, model.beta, land.eps_n
    factor = (
        math.exp(-4.0 * beta * eps * (2 * n + 1)) / land.n_points
    )
    order = find_minima_and_order(model, land)
    b_pts = [order.minima[0], order.minima[1]]
    b_mask = land.fiber_mask(b_pts)
    sel_b = np.zeros(land.n_points, dtype=bool)
    sel_b[b_pts] = True
    floor = np.inf
    for k in range(land.n_points):
        if sel_b[k]:
            continue
        sel = np.zeros(land.n_points, dtype=bool)
        sel[k] = True
        cap = equilibrium_potential(meso, sel, sel_b).capacity
        floor = min(floor, cap / land.mu_meso[k])
    rng = np.random.default_rng(11)
    mu = model.gibbs
    free = np.flatnonzero(~b_mask)
    for _ in range(50):
        size = int(rng.integers(1, 6))
        a = np.zeros(model.chain.n_states, dtype=bool)
        a[rng.choice(free, size=size, replace=False)] = True
        cap = equilibrium_potential(model.chain, a, b_mask).capacity
        assert cap / mu[a].sum() >= factor * floor * (1.0 - 1e-9)


def test_point_index_matches_block_sums():
    # rho_of_config reads the point index off the spins; it must agree with
    # looking the block sums up in the landscape's index
    for spec, blocks in (("uniform:0.2", (1, 2, 3)), ("zero", (1, 2))):
        model = rfcw.build_model(8, 1.0, spec, seed=5)
        for n in blocks:
            land = rfcw.coarse_grain(model, n)
            sums = np.array(
                [[row[b].sum() if b.size else 0 for b in land.blocks] for row in model.spins]
            )
            ref = [land.index[tuple(int(v) for v in row)] for row in sums]
            assert land.rho_of_config.tolist() == ref
            assert land.site_block().tolist() == [
                next(l for l, b in enumerate(land.blocks) if i in b) for i in range(8)
            ]
