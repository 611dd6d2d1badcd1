import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import metastab
import metastab.cli
from metastab import InequalityViolation, ValidationError, equilibrium_potential
from metastab.coupling import hitting_lower_bound_check
from metastab.oracle import exact_cpi
from metastab import oracle, potential, rfcw
from metastab.rfcw import (
    barred_chain,
    bottleneck_height,
    build_model,
    coarse_grain,
    find_minima_and_order,
    free_energy_continuous,
    lumpability_certificate,
    mesoscopic_dominance,
    mesoscopic_rates_and_chain,
)
from metastab.sampling import random_reversible_chain
from references import flood_fill_minima, point_index


def test_micro_chain_is_built_on_first_read(monkeypatch):
    built = []
    real = rfcw.ReversibleChain
    monkeypatch.setattr(rfcw, "ReversibleChain", lambda *a, **k: built.append(1) or real(*a, **k))
    model = build_model(8, 1.0, "uniform:0.2", seed=1)
    assert model.materialized and not built
    assert model.gibbs.shape == (256,) and model.flip_probs.shape == (256, 8)
    assert model.chain is model.chain and len(built) == 1
    assert build_model(8, 1.0, "uniform:0.2", seed=1, materialize=False).chain is None
    assert not build_model(8, 1.0, "uniform:0.2", seed=1, materialize=False).materialized


def test_underflowing_gibbs_weights_fail_at_build_time():
    # exp(-1000 * 3) is 0: the chain's own check, made before the chain exists
    with pytest.raises(ValidationError, match="finite and positive"):
        build_model(6, 1000.0, "zero")


def test_build_model_n2_golden():
    m = build_model(2, 1.0, "zero")
    # H(++) = H(--) = -1, H(+-) = H(-+) = 0; direct 4-state enumeration
    spins = m.spins.astype(float)
    hamiltonian = -spins.sum(axis=1) ** 2 / 4.0 - spins @ m.field
    assert np.allclose(np.sort(hamiltonian), [-1.0, -1.0, 0.0, 0.0])
    w = np.exp(-hamiltonian)
    assert np.allclose(m.gibbs, w / w.sum(), atol=1e-14)
    i_pp = m.chain.index["++"]
    i_mp = m.chain.index["-+"]
    assert m.chain.kernel[i_pp, i_mp] == pytest.approx(0.5 * math.exp(-1.0), rel=1e-14)


def test_build_model_beta_zero_uniform():
    m = build_model(4, 0.0, "values:0.1,0.1,-0.1,-0.1")
    assert np.allclose(m.gibbs, 1.0 / 16.0, atol=1e-15)


def test_build_model_field_bound():
    # a field comes from a spec string alone; a dict is no spec
    with pytest.raises(ValidationError, match="unknown field spec"):
        build_model(3, 1.0, {"kind": "explicit", "values": [0.3, 0.0, 0.0], "h_inf": 0.2})
    with pytest.raises(ValidationError):
        build_model(3, 1.0, "uniform:0.2")  # missing seed


def test_coarse_grain_total_magnetization():
    m = build_model(5, 1.2, "zero")
    land = coarse_grain(m, 1)
    assert land.n_points == 6  # N + 1 magnetization levels
    assert mesoscopic_rates_and_chain(m, land).stationary.sum() == pytest.approx(1.0, abs=1e-12)


def test_coarse_grain_two_valued_resolved(rfcw_two_valued):
    model, land = rfcw_two_valued
    assert np.max(np.abs(land.h_tilde)) < 1e-14
    assert [b.size for b in land.blocks] == [3, 3]


def test_induced_measure_matches_fiber_sums(rfcw_spread):
    model, land = rfcw_spread
    mu_meso = mesoscopic_rates_and_chain(model, land).stationary
    for k in range(land.n_points):
        fiber = land.fiber_mask([k])
        assert mu_meso[k] == pytest.approx(model.gibbs[fiber].sum(), rel=1e-12)


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


def test_free_energy_is_computed_on_first_read(monkeypatch):
    calls = []
    real = rfcw._block_dual_entropy
    monkeypatch.setattr(rfcw, "_block_dual_entropy", lambda *a: calls.append(1) or real(*a))
    land = coarse_grain(build_model(8, 1.2, "uniform:0.2", seed=1, materialize=False), 2)
    assert calls == []
    values = land.free_energy
    assert calls and land.free_energy is values
    assert values.tolist() == [free_energy_continuous(land, k / 8) for k in land.points]
    assert coarse_grain(build_model(4, 0.0, "zero"), 1).free_energy is None


@pytest.mark.parametrize("field, n", [
    ("uniform:0.2", 1), ("uniform:0.2", 2), ("uniform:0.2", 3), ("zero", 2),
])
def test_lattice_neighbors_step_by_the_point_strides(field, n):
    # against looking the block sums +-2 up in a tuple dictionary; the zero
    # field puts every site in block 0, so n = 2 leaves block 1 empty
    land = coarse_grain(build_model(8, 1.0, field, seed=5, materialize=False), n)
    assert (field == "zero") == (0 in land.block_sizes)
    assert land.neighbors.shape == (land.n_points, 2 * n) and land.neighbors is land.neighbors
    index = point_index(land)
    for k, base in enumerate(land.points):
        want = []
        for l, s in enumerate(land.block_sizes):
            for d in (-2, 2):
                if s and -s <= base[l] + d <= s:
                    nb = base.copy()
                    nb[l] += d
                    want.append(index[tuple(int(v) for v in nb)])
        row = land.neighbors[k]
        assert sorted(row[row >= 0].tolist()) == sorted(want)
        assert np.all(row[row < 0] == -1)


def _same_ordering(model, land):
    got, want = find_minima_and_order(model, land), flood_fill_minima(model, land)
    assert got.minima == want.minima
    assert got.deltas.tobytes() == want.deltas.tobytes()
    assert got.phi.tobytes() == want.phi.tobytes()
    assert got.degenerate == want.degenerate
    return got


@pytest.mark.parametrize("field", ["zero", "uniform:0.2", "discrete:-0.3,0.3"])
@pytest.mark.parametrize("n_spins", [4, 10, 20, 60])
def test_minima_match_the_flood_fill_bit_for_bit(n_spins, field):
    # seed 1 at N = 10, n = 2, discrete, beta 0.5 and 1.5 has flat steps
    for n in (1, 2, 3):
        for beta in (0.5, 1.5, 3.0, 8.0):
            model = build_model(n_spins, beta, field, seed=1, materialize=False)
            _same_ordering(model, coarse_grain(model, n))


def test_minima_match_the_flood_fill_on_10185_points():
    model = build_model(200, 1.5, "discrete:-0.2,0.2", seed=1, materialize=False)
    land = coarse_grain(model, 2)
    assert land.n_points == 10185
    order = _same_ordering(model, land)
    assert len(order.minima) == 4 and not order.degenerate


def test_flat_plateaus_and_shelves_on_a_hand_set_free_energy():
    # points -6, -4, ..., 6: a flat minimum {0, 1}, a flat shelf {3, 4} that
    # steps down to the minimum 5, and 6 above it
    model = build_model(6, 1.0, "zero", materialize=False)
    land = coarse_grain(model, 1)
    land.__dict__["free_energy"] = np.array([0.0, 0.0, 1.0, 0.5, 0.5, 0.2, 1.0])
    order = _same_ordering(model, land)
    assert order.minima == [0, 5]
    assert order.deltas.tolist() == [0.8]
    # random ties on a 3-block lattice: plateaus of every shape
    model = build_model(8, 1.0, "uniform:0.2", seed=5, materialize=False)
    land = coarse_grain(model, 3)
    for seed in range(20):
        values = np.random.default_rng(seed).integers(0, 4, size=land.n_points)
        land.__dict__["free_energy"] = values.astype(float)
        _same_ordering(model, land)


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
    z0 = point_index(land)[(0,)]
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


def two_step_comparison(chain, n_samples=100, seed=0):
    """Certificates for the two-step Dirichlet form E_2(f) <= 2 E(f).

    Checked on random functions and on the whole spectrum via the identity
    1 - lambda^2 <= 2 (1 - lambda) on [-1, 1].
    """
    if not chain.discrete_time:
        raise ValidationError("two-step comparison needs a discrete-time chain")
    rng = np.random.default_rng(seed)
    mu = chain.stationary
    worst = -np.inf
    for _ in range(n_samples):
        f = rng.normal(size=chain.n_states)
        pf = chain.kernel @ f
        ppf = chain.kernel @ pf
        e1 = float(np.dot(mu * f, f - pf))
        e2 = float(np.dot(mu * f, f - ppf))
        if e2 > 2.0 * e1 + 1e-10:
            raise InequalityViolation("two-step energy exceeded twice the energy")
        if e1 > 0.0:
            worst = max(worst, e2 / e1)
    spec = exact_cpi(chain)
    lam = spec.eigenvalues
    margin = float(np.max((1.0 - lam**2) - 2.0 * (1.0 - lam)))
    if margin > 1e-12:
        raise InequalityViolation("spectral two-step identity violated")
    return {"max_energy_ratio": worst, "spectral_margin": margin}


def test_two_step_comparison(two_state, rfcw_two_valued):
    rep = two_step_comparison(two_state, n_samples=200, seed=1)
    assert rep["max_energy_ratio"] <= 2.0 + 1e-10
    assert rep["spectral_margin"] <= 1e-12
    model, _ = rfcw_two_valued
    rep2 = two_step_comparison(model.chain, n_samples=50, seed=2)
    assert rep2["spectral_margin"] <= 1e-12


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
        ratios.append(cert.value)
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
        floor = min(floor, cap / meso.stationary[k])
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
            index = point_index(land)
            ref = [index[tuple(int(v) for v in row)] for row in sums]
            assert land.rho_of_config.tolist() == ref
            assert land.site_block.tolist() == [
                next(l for l, b in enumerate(land.blocks) if i in b) for i in range(8)
            ]


def test_fiber_range_and_point_mask_match_per_point_loop():
    model = rfcw.build_model(8, 1.0, "uniform:0.2", seed=5)
    land = rfcw.coarse_grain(model, 3)
    values = np.random.default_rng(0).normal(size=model.gibbs.size)
    lo, hi = land.fiber_range(values)
    for k in range(land.n_points):
        fiber = values[land.rho_of_config == k]
        assert (lo[k], hi[k]) == (fiber.min(), fiber.max())
    picks = [0, land.n_points - 1]
    assert np.flatnonzero(land.point_mask(picks)).tolist() == picks
    assert np.array_equal(land.fiber_mask(picks), np.isin(land.rho_of_config, picks))


# sha256 of the lab objects for the field "uniform:0.2", seed 7, n = 2; frozen
# from the separate assemblies and lumpings that the shared ones replaced, so
# they must come out bit for bit; the bits depend on numpy's exp and BLAS.
# The N = 10 lumpability and hitting entries were frozen again when the
# hypercube chains took their sparse factors in one cached cube order.  The
# barred capacities and the hitting margin moved by at most 1.3e-15
# relative and the hitting spreads by 9.6e-15; all stay within 7.8e-15 of a
# dense solve refined in long double.  The lumpability spreads, rounding
# of an exact 0, went from 2.1e-15 and 2.7e-15 to 6.7e-16 and 2.2e-15.
# The N = 8 lumpability and hitting entries, and the beta 1.5 dominance
# entry, were frozen again when interiors above 96 states left the threaded
# dense solve for SuperLU.  Against a long-double dense solve: at beta 1.5
# cap_micro (also the dominance's micro capacity) 0.0026390733647885896 ->
# ...8591, 3.3e-16 -> 1.6e-16 from it, cap_barred 0 -> 1.3e-15, the hitting
# margin 3.8e-16 both,
# the hitting spread 1.7e-15 both; at beta 6 cap_barred 0 -> 2.3e-16 and
# the hitting spread 3.7e-15 -> 1.9e-15.  The lumpability spreads went from
# 3.3e-16 and 1.1e-15 to 1.0e-15 and 1.6e-15.
# The dominance and lumpability entries were frozen again when the small
# mesoscopic and lumped chains left the dense solve for SuperLU: only their
# meso capacity and cap_lumped moved.  Against an interior solve in 60-digit
# mpmath: N8 b1.5 meso 3.3e-16 -> 9.9e-16, N8 b6 cap_lumped 2.3e-16 ->
# 4.6e-16, N10 b1.5 meso 1.3e-16 -> 0 and cap_lumped 6.5e-16 -> 1.3e-16,
# N10 b6 meso 0 -> 3.2e-16 and cap_lumped 2.0e-16 both.
LAB_GOLDENS = {
    (8, 1.5): {
        "micro": "bbf545e00abd8bd46e6aa9fdd5ed0bfc1ff2ef0f6e13763ad1f5d4901d28163a",
        "meso": "58d35520030b33c8a223583e464cb29c83350414d3b161251acaf9cdc1eb545f",
        "barred": "98fe62c6d766be2a5f63d2e9c21c9f79c2fad4c253b69578975e914d167f811a",
        "lumped": "76841f349ba614b3d2c428dbfae4c65164f68ca72831a75979e04a0d747881e0",
        "dominance": "7ed681a738c4f85785f249612d8bfc95e60e74f5b0246be21be7535e89d24b08",
        "lumpability": "747ee2153c2636df1d0fd13cd197c7c3cdad525730d2a524735642a2db360a48",
        "hitting": "1791f126a0a160df1b37e9950e411cd30daecc5dc4a6c72d0f20eea233a83add",
    },
    (8, 6.0): {
        "micro": "e3b2311206a58c9c5aa93cd10cab112cf157f299820a97376da857dc24433270",
        "meso": "85e5eeca02e5fb0098e3d86425d0da42c5b1b37f7021864b340b4406c18a4b1a",
        "barred": "352493a493777c4b8739b3d56943f719e551c07771c87e62161f3da6f2d276a7",
        "lumped": "8fa6ff706aceed96b503978279c5ed9e3a95022a59742450296f2d10567e546a",
        "dominance": "d1ac1fd99273a14645d5d562b15d0d08b52867babb91ff39497567fc7374ba76",
        "lumpability": "74faf86fd701c260ee05a4e79631d03d62fbefdfa2d64a5499cc7c8426ac8f42",
        "hitting": "70d6b5f97738814d494cbfac26578c0f3d1ed7a4b21a62069a45e1715835b76c",
    },
    (10, 1.5): {
        "micro": "7523ec32e6a05372fff6fbab9df3dddb0c2c24143d210acc80a2907d84815203",
        "meso": "462f73d61262f86c4ff86852b747492a384d74bfc08180e0a97ffb6af725c0dd",
        "barred": "d3468f98b913e158c3e1df48d11737df318290ffd92546ce4d6c0d604e555506",
        "lumped": "96c505ebc64edd6a982545bf2cf1f8dc0cd919a884b9871f60d3bc0a84bd69f1",
        "dominance": "4b8c4617e261cc8bbbed22080785a376804da1f6a3520aade7f81aa9d977f198",
        "lumpability": "3e1f149964e00f964b92e92c93261cba9e0dba02befe9bee17ea8c80610a8a65",
        "hitting": "2710553dcea6bd0745b981b2b8da2ed393d2befdae98c2b18e7f5ae17dcef039",
    },
    (10, 6.0): {
        "micro": "12c058067616f6f14fa1e6390a214b73f7abe5339e919c523662f43b9285dc44",
        "meso": "75fb30741a0c480f620f7b14a45162216f3dec3e8304188795de5ce45183b247",
        "barred": "b477348e8c07f086e85f18cf7609278012b733fb8ff28835875803106afdeb0a",
        "lumped": "b5b9713c93bfdd392eed39e01ffc064ba37f88df378fc8c91ee6043b76a5e1ae",
        "dominance": "c2f603ec99ba89bce64826e73c7b5eebbd14211bee5defae28358af74f1e7b13",
        "lumpability": "23e461f1792b6680d9e403e3609283667e42c055d2ac226711ceba844bf0f5b4",
        "hitting": "d048d3de4cff86eb9c9ec50da541e546dca51d6a56c240ff9f15454c9c7ec17b",
    },
}


def _chain_sha(chain):
    h = hashlib.sha256()
    k = chain.kernel
    for arr in (k.data, k.indices, k.indptr, chain.stationary):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _repr_sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("n_spins,beta", sorted(LAB_GOLDENS))
def test_lab_objects_match_frozen_hashes(n_spins, beta):
    model = build_model(n_spins, beta, "uniform:0.2", seed=7)
    land = coarse_grain(model, 2)
    order = find_minima_and_order(model, land)
    a, b = [order.minima[0]], [order.minima[1]]
    meso = mesoscopic_rates_and_chain(model, land)
    bar = barred_chain(model, land)
    got = {
        "micro": _chain_sha(model.chain),
        "meso": _chain_sha(meso),
        "barred": _chain_sha(bar["barred"]),
        "lumped": _chain_sha(bar["lumped"]),
        "dominance": _repr_sha(mesoscopic_dominance(model, land, meso, a, b)),
        "lumpability": _repr_sha(lumpability_certificate(model, land, bar, a, b)),
        "hitting": _repr_sha(hitting_lower_bound_check(model, land, a, b)),
    }
    assert got == LAB_GOLDENS[(n_spins, beta)]


@pytest.mark.parametrize("n_spins", [1, 8, 10, 11])
def test_state_labels_match_the_join_loop(n_spins):
    # the labels come from one byte-array conversion; the per-configuration
    # join they replaced is the reference
    model = build_model(n_spins, 1.0, "uniform:0.2", seed=0, materialize=True)
    bits = (np.arange(1 << n_spins)[:, None] >> np.arange(n_spins)) & 1
    want = ["".join("+" if b else "-" for b in row) for row in bits]
    assert list(model.chain.states) == want
    assert all(type(s) is str for s in model.chain.states)


def _tanh_brackets(rng, count):
    # _refine_minimum's map g(v) = v - mean tanh(beta (v + h)) on the sign
    # changes of its 2001-point grid around a random start
    for _ in range(count):
        n = int(rng.integers(2, 40))
        beta = float(np.exp(rng.uniform(math.log(0.24), math.log(24.0))))
        h = rng.uniform(-0.5, 0.5, n) * rng.choice([0.0, 0.2, 1.0])
        z = rng.uniform(-1.0, 1.0)
        grid = np.linspace(z - 1.0, z + 1.0, 2001)
        vals = grid - np.mean(np.tanh(beta * (grid[:, None] + h)), axis=1)
        sign = np.signbit(vals)

        def g(v, beta=beta, h=h):
            return v - float(np.mean(np.tanh(beta * (v + h))))

        for p in np.flatnonzero(sign[:-1] != sign[1:]):
            yield g, float(grid[p]), float(grid[p + 1])


def _cubic_brackets(rng, count):
    for _ in range(count):
        c = rng.normal(size=4)
        a, b = sorted(rng.uniform(-5.0, 5.0, 2))

        def f(x, c=c):
            return float(((c[0] * x + c[1]) * x + c[2]) * x + c[3])

        if math.copysign(1.0, f(a)) != math.copysign(1.0, f(b)):
            yield f, float(a), float(b)


def test_brentq_port_matches_scipy_bit_for_bit():
    import scipy.optimize

    rng = np.random.default_rng(20170515)
    brackets = list(_tanh_brackets(rng, 60)) + list(_cubic_brackets(rng, 400))
    assert len(brackets) > 200
    for f, a, b in brackets:
        for xtol in (1e-15, 2e-12):
            want = scipy.optimize.brentq(f, a, b, xtol=xtol)
            got = rfcw._brentq(f, a, b, xtol=xtol)
            assert type(got) is float and got == want
    assert rfcw._brentq(lambda x: x - 0.25, 0.25, 1.0) == 0.25  # a root at an end
    for lo, hi in ((0.0, 1.0), (-0.5, 1.0), (-3.0, 0.75)):  # steps that land on the root
        want = scipy.optimize.brentq(lambda x: x - 0.5, lo, hi, xtol=1e-15)
        assert rfcw._brentq(lambda x: x - 0.5, lo, hi, xtol=1e-15) == want == 0.5

    def square(x):
        return x * x - 2.0

    with pytest.raises(ValueError, match="different signs"):
        scipy.optimize.brentq(square, 2.0, 3.0)
    with pytest.raises(ValueError, match="different signs"):
        rfcw._brentq(square, 2.0, 3.0)
    with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
        scipy.optimize.brentq(square, 0.0, 2.0, maxiter=3)
    with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
        rfcw._brentq(square, 0.0, 2.0, maxiter=3)


def test_refine_minimum_reaches_the_brent_fallback(monkeypatch):
    calls = []
    brentq = rfcw._brentq

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return brentq(*args, **kwargs)

    monkeypatch.setattr(rfcw, "_brentq", counted)
    model = build_model(8, 1.5, "uniform:0.2", seed=0)
    order = find_minima_and_order(model, coarse_grain(model, 2))
    assert calls
    for ref in order.refined:
        assert ref["residual"] <= 1e-14


def test_rfcw_commands_leave_scipy_optimize_unimported():
    # the critical points are refined by the in-package Brent port, not by
    # the 0.3 s import of scipy.optimize; both cells reach that fallback
    code = "\n".join([
        "import contextlib, io, sys",
        "from metastab import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    a = cli.main(['rfcw', '--N', '8', '--beta', '1.5', '--field', 'uniform:0.2',",
        "                  '--n', '2', '--materialize', '--seed', '0'])",
        "    b = cli.main(['couple', '--N', '8', '--beta', '1.2', '--field', 'uniform:0.2',",
        "                  '--n', '2', '--runs', '100', '--dynamics-runs', '5', '--seed', '5'])",
        "print(a, b, 'scipy.optimize' in sys.modules)",
    ])
    src = str(Path(metastab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0", "False"]


# -- the cached cube order ----------------------------------------------------


def _own_order_solve(mat, rhs):
    """The SuperLU call of a chain with no elimination order."""
    lu = spla.splu(
        mat.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    return lu.solve(rhs)


@pytest.mark.parametrize("n_spins", [9, 10, 11])
@pytest.mark.parametrize("field", ["uniform:0.2", "zero"])
@pytest.mark.parametrize("beta", [1.5, 3.0, 6.0])
def test_ordered_factor_solves_like_superlus_own_order(n_spins, field, beta):
    chain = build_model(n_spins, beta, field, seed=3).chain
    order = chain._fill_order
    assert order is rfcw._cube_order(n_spins)
    mu = chain.stationary
    top = int(np.argmax(mu))
    grounded = np.arange(chain.n_states) != top
    interior = grounded.copy()
    interior[top ^ (chain.n_states - 1)] = False  # the flipped configuration
    lap = chain.laplacian
    full = (lap + sp.diags(mu)).tocsr()  # all states; solves mu to 1
    rng = np.random.default_rng(n_spins)
    for mat, free in ((lap[interior][:, interior], interior),
                      (lap[grounded][:, grounded], grounded), (full, None)):
        m = mat.shape[0]
        rhs = np.column_stack([mu if free is None else mu[free], rng.uniform(0.5, 1.5, m)])
        want = _own_order_solve(mat, rhs)
        _, solve = potential.sym_factor(mat, order, free)
        got = solve(rhs)
        scale = abs(mat).sum(axis=1).max() * np.abs(got).max(axis=0) + np.abs(rhs).max(axis=0)
        assert np.all(np.abs(mat @ got - rhs).max(axis=0) <= 1e-14 * scale)
        # grounded at beta 6, the far well's solution is fixed only to about
        # 1e-8 by either order (against a refinement in long double), as the
        # Schur complements there cancel; every other solve keeps 12 digits
        if free is not grounded or beta <= 3.0:
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
    assert np.allclose(got[:, 0], 1.0, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n_spins,beta", [(8, 1.5), (8, 6.0), (9, 3.0)])
def test_ordered_pivots_count_the_eigenvalues_below_sigma(n_spins, beta):
    chain = build_model(n_spins, beta, "uniform:0.2", seed=5).chain
    mu = chain.stationary
    root = np.sqrt(mu)
    lam = np.linalg.eigvalsh(chain.laplacian.toarray() / root[:, None] / root[None, :])
    for k in (1, 2, 3, 10, 40):
        sigma = 0.5 * (lam[k] + lam[k + 1])
        shifted = chain.laplacian.tocsc()
        shifted.setdiag(shifted.diagonal() - sigma * mu)
        pivots = oracle._ldl_pivots(chain, shifted)
        assert pivots is not None
        assert np.count_nonzero(pivots < 0.0) == np.count_nonzero(lam < sigma) == k + 1


def test_multi_beta_rfcw_orders_the_cube_once(capsys):
    rfcw._cube_order.cache_clear()
    argv = ["rfcw", "--N", "8", "--beta", "1.5,3", "--field", "uniform:0.2", "--n", "2",
            "--materialize", "--seed", "7"]
    assert metastab.cli.main(argv) == 0
    capsys.readouterr()
    info = rfcw._cube_order.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    order = rfcw._cube_order(8)
    assert np.array_equal(np.sort(order), np.arange(256))
    assert not order.flags.writeable
    # the incomplete factor orders the cube as a full one does
    flips = np.arange(256)[:, None] ^ (1 << np.arange(8))
    cube = 9.0 * sp.identity(256) - sp.csr_matrix(
        (np.ones(2048), (np.repeat(np.arange(256), 8), flips.ravel())))
    lu, _ = potential.sym_factor(cube)
    assert np.array_equal(np.argsort(lu.perm_c), order)


def test_built_chains_keep_superlus_own_order():
    # a chain from build_chain has no order: every sparse factor is SuperLU's
    # minimum degree call, bit for bit
    chain = random_reversible_chain(np.random.default_rng(11), 600)
    assert chain._fill_order is None
    interior = np.ones(600, dtype=bool)
    interior[[0, 599]] = False
    mat = chain.laplacian[interior][:, interior]
    rhs = chain.stationary[interior]
    want = _own_order_solve(mat, rhs)
    assert np.array_equal(potential._spd_solver(chain, interior)(rhs), want)
    free, solve = oracle._grounded_factor(chain)
    grounded = chain.laplacian[free][:, free]
    assert np.array_equal(solve(chain.stationary[free]),
                          _own_order_solve(grounded, chain.stationary[free]))
