import hashlib
import math

import numpy as np
import pytest

from metastab import InequalityViolation, ValidationError, equilibrium_potential
from metastab.coupling import hitting_lower_bound_check
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
    # a field comes from a spec string alone; a dict is no spec
    with pytest.raises(ValidationError, match="unknown field spec"):
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
# they must come out bit for bit; the bits depend on numpy's exp and BLAS
LAB_GOLDENS = {
    (8, 1.5): {
        "micro": "bbf545e00abd8bd46e6aa9fdd5ed0bfc1ff2ef0f6e13763ad1f5d4901d28163a",
        "meso": "58d35520030b33c8a223583e464cb29c83350414d3b161251acaf9cdc1eb545f",
        "barred": "98fe62c6d766be2a5f63d2e9c21c9f79c2fad4c253b69578975e914d167f811a",
        "lumped": "76841f349ba614b3d2c428dbfae4c65164f68ca72831a75979e04a0d747881e0",
        "dominance": "829c09cafccfbe7a5f4f68152e489a307e9e89dc5c6b7f9c69e4fb929d4c7d0e",
        "lumpability": "2aa56e531b82ed6f3d8f0d1663d10b23c2acd0b97dceab7828c370a548a2fdd7",
        "hitting": "a65fdfa05cf63f05b8bacd7381ad6cd9ed33e66e2fab7123cd9d1cdfc683e8a7",
    },
    (8, 6.0): {
        "micro": "e3b2311206a58c9c5aa93cd10cab112cf157f299820a97376da857dc24433270",
        "meso": "85e5eeca02e5fb0098e3d86425d0da42c5b1b37f7021864b340b4406c18a4b1a",
        "barred": "352493a493777c4b8739b3d56943f719e551c07771c87e62161f3da6f2d276a7",
        "lumped": "8fa6ff706aceed96b503978279c5ed9e3a95022a59742450296f2d10567e546a",
        "dominance": "d1ac1fd99273a14645d5d562b15d0d08b52867babb91ff39497567fc7374ba76",
        "lumpability": "0439f570e9b0def3fff0306fec459ea6d3ab8e1202a3f1feaf7121d66d4052e9",
        "hitting": "d0b8051d4dd259324a2473b42fd85e014a949ba286d39fe1f3a0329201d0055b",
    },
    (10, 1.5): {
        "micro": "7523ec32e6a05372fff6fbab9df3dddb0c2c24143d210acc80a2907d84815203",
        "meso": "462f73d61262f86c4ff86852b747492a384d74bfc08180e0a97ffb6af725c0dd",
        "barred": "d3468f98b913e158c3e1df48d11737df318290ffd92546ce4d6c0d604e555506",
        "lumped": "96c505ebc64edd6a982545bf2cf1f8dc0cd919a884b9871f60d3bc0a84bd69f1",
        "dominance": "2664bd9758d3b322f9a6f98aa3e6f102bcf586fe694bc91b62aa4fa9cbd0abe0",
        "lumpability": "ab472a3e415badb4cec5d281326a95b171b805d22f8399593aeee541e48d6fee",
        "hitting": "073a9bcdb1681e58ba4ef09a9e46dddcc7cd779c2073b1336be381c8a40130dd",
    },
    (10, 6.0): {
        "micro": "12c058067616f6f14fa1e6390a214b73f7abe5339e919c523662f43b9285dc44",
        "meso": "75fb30741a0c480f620f7b14a45162216f3dec3e8304188795de5ce45183b247",
        "barred": "b477348e8c07f086e85f18cf7609278012b733fb8ff28835875803106afdeb0a",
        "lumped": "b5b9713c93bfdd392eed39e01ffc064ba37f88df378fc8c91ee6043b76a5e1ae",
        "dominance": "d0c2fa3604f5d6358a49218470eea01a479ace874f6117a9b793a97d5008c0c2",
        "lumpability": "1f39fd3f57bf7f55b6f53037668925226f33e2187c8622a495fb37ff3a969976",
        "hitting": "a0f6c3c5aeb98872e12ea3bf76195cbb19bba1be8f484a5ad3b7e139260f947f",
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
