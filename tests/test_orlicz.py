import numpy as np
import pytest

from metastab import (
    InequalityViolation,
    ValidationError,
    build_chain,
    capacitary_integral,
    dirichlet_form,
    entropy,
    entropy_pair,
    equilibrium_potential,
    indicator_orlicz_norm,
    l1_pair,
    measure_capacity_constant,
    muckenhoupt_constant,
    orlicz_norm,
    p_pair,
    universal_mixed_constants,
)
from metastab import potential
from metastab.orlicz import PiecewiseLinearYoung, builtin_pairs, random_young_pair
from metastab.oracle import brute_force_orlicz
from metastab.potential import capacity_dense, capacity_scan_context
from metastab.sampling import random_probability, random_reversible_chain

E2 = float(np.exp(2.0))


# -- Young pairs -------------------------------------------------------------------


def test_catalog_values():
    ent = entropy_pair()
    assert ent.psi_inverse(0.0) == 0.0
    l1 = l1_pair()
    assert float(l1.psi_inverse(5.0)) == 1.0
    assert float(l1.psi_inverse(0.0)) == 0.0
    pair2 = p_pair(2.0)
    assert float(pair2.psi(2.0)) == pytest.approx(2.0)
    assert float(pair2.psi_inverse(2.0)) == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        p_pair(1.0)


def test_fenchel_young_builtin():
    grid = np.linspace(0.0, 6.0, 41)
    for pair in builtin_pairs().values():
        for s in grid:
            for r in grid:
                lhs = s * r
                rhs = float(pair.phi(s)) + float(pair.psi(r))
                assert lhs <= rhs + 1e-10


def test_young_function_properties_random():
    rng = np.random.default_rng(43)
    for _ in range(20):
        pl = random_young_pair(rng)
        grid = np.linspace(0.0, float(pl.slopes[-1]) * 1.5, 200)
        phi = pl.phi(grid)
        assert np.all(np.diff(phi) >= -1e-12)
        finite = grid[grid <= pl.slopes[-1]]
        psi = pl.psi(finite)
        assert psi[0] == 0.0
        assert np.all(np.diff(psi) >= -1e-12)
        assert np.all(np.diff(psi, 2) >= -1e-12)  # convexity
        tgrid = np.linspace(0.0, float(pl._psi_knots_v[-1]) * 1.2 + 1.0, 150)
        inv = pl.psi_inverse(tgrid)
        assert np.all(np.diff(inv) >= -1e-12)
        assert np.all(np.diff(inv, 2) <= 1e-12)  # concavity
        # Fenchel-Young on a sampled grid
        ss = np.linspace(0.0, float(pl.breaks[-1]) * 1.3 + 0.5, 25)
        rr = np.linspace(0.0, float(pl.slopes[-1]), 25)
        gap = ss[:, None] * rr[None, :] - pl.phi(ss)[:, None] - pl.psi(rr)[None, :]
        assert gap.max() <= 1e-10


def test_pseudo_inverse_strict_convention():
    # psi of the l1 pair jumps at 1; the strict inf convention gives the
    # jump location for every positive argument
    pl = PiecewiseLinearYoung(slopes=np.array([1.0]), breaks=np.array([]))
    # phi(r) = r, so psi = 0 on [0, 1], infinite beyond: inverse is 1 for t >= 0
    assert float(pl.psi_inverse(np.array([0.0]))[0]) == 1.0
    assert pl.near_jump(0.0)


# -- norms -------------------------------------------------------------------------


def test_indicator_norm_values():
    ent = entropy_pair()
    assert indicator_orlicz_norm(0.4, l1_pair(), 1.0) == pytest.approx(0.4)
    assert indicator_orlicz_norm(0.5, ent, E2) == pytest.approx(
        0.5 * np.log1p(2.0 * E2), rel=1e-12
    )
    assert indicator_orlicz_norm(0.5, ent, E2) == pytest.approx(1.37931, abs=1e-5)
    assert indicator_orlicz_norm(1.0, ent, E2) == pytest.approx(2.12693, abs=1e-5)
    with pytest.raises(ValidationError):
        indicator_orlicz_norm(0.0, ent, 1.0)


def test_orlicz_norm_indicator_consistency():
    rng = np.random.default_rng(47)
    for pair in (l1_pair(), entropy_pair(), p_pair(2.0), p_pair(3.0)):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            nu = random_probability(rng, n)
            mask = np.zeros(n)
            mask[: int(rng.integers(1, n + 1))] = 1.0
            k_val = float(rng.uniform(0.3, 8.0))
            direct = orlicz_norm(mask, nu, pair, k_val)
            closed = indicator_orlicz_norm(float(nu[mask > 0].sum()), pair, k_val)
            assert direct == pytest.approx(closed, rel=1e-8)


def test_orlicz_norm_constant_l1():
    nu = np.array([0.2, 0.5, 0.3])
    f = np.full(3, 1.7)
    assert orlicz_norm(f, nu, l1_pair(), 1.0) == pytest.approx(1.7, rel=1e-12)


def test_orlicz_norm_p_closed_form():
    rng = np.random.default_rng(53)
    for p in (1.5, 2.0, 3.0):
        pair = p_pair(p)
        q = p / (p - 1.0)
        for _ in range(5):
            n = int(rng.integers(2, 8))
            nu = random_probability(rng, n)
            f = np.abs(rng.normal(size=n)) + 0.01
            k_val = float(rng.uniform(0.5, 4.0))
            closed = (q * k_val) ** (1.0 / q) * float(
                np.dot(nu, f**p) ** (1.0 / p)
            )
            assert orlicz_norm(f, nu, pair, k_val) == pytest.approx(closed, rel=1e-10)


def test_orlicz_norm_dominates_entropy():
    rng = np.random.default_rng(59)
    pair = entropy_pair()
    for _ in range(20):
        n = int(rng.integers(2, 8))
        nu = random_probability(rng, n)
        f = np.abs(rng.normal(size=n))
        assert entropy(nu, f) <= orlicz_norm(f, nu, pair, 1.0) + 1e-10


def test_orlicz_norm_vs_brute_force():
    rng = np.random.default_rng(61)
    pairs = [l1_pair(), entropy_pair(), p_pair(2.0)]
    for _ in range(9):
        n = int(rng.integers(2, 7))
        nu = random_probability(rng, n)
        f = np.abs(rng.normal(size=n))
        pair = pairs[int(rng.integers(len(pairs)))]
        k_val = float(rng.uniform(0.5, 4.0))
        dual = orlicz_norm(f, nu, pair, k_val)
        brute = brute_force_orlicz(f, nu, pair, k_val)
        assert brute <= dual + 1e-6
        assert brute == pytest.approx(dual, abs=1e-4, rel=1e-4)


def test_brute_force_monotone_in_k():
    nu = np.array([0.5, 0.3, 0.2])
    f = np.array([1.0, 0.4, 0.2])
    pair = entropy_pair()
    vals = [brute_force_orlicz(f, nu, pair, k) for k in (0.25, 1.0, 4.0)]
    assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9


# -- capacitary inequality -----------------------------------------------------------


def test_capacitary_integral_examples(two_state):
    lhs, rhs = capacitary_integral(two_state, np.array([1.0, 0.0]), ["b"])
    assert lhs == pytest.approx(0.075, rel=1e-10)
    assert rhs == pytest.approx(0.3, rel=1e-10)
    lhs2, rhs2 = capacitary_integral(two_state, np.array([2.0, 0.0]), ["b"])
    assert lhs2 == pytest.approx(0.3, rel=1e-10)
    assert rhs2 == pytest.approx(1.2, rel=1e-10)
    with pytest.raises(ValidationError):
        capacitary_integral(two_state, np.array([1.0, 0.5]), ["b"])


def test_capacitary_inequality_random():
    rng = np.random.default_rng(67)
    for _ in range(100):
        n = int(rng.integers(3, 24))
        chain = random_reversible_chain(rng, n)
        b = np.zeros(n, dtype=bool)
        b[int(rng.integers(n))] = True
        f = rng.normal(size=n)
        f[b] = 0.0
        lhs, rhs = capacitary_integral(chain, f, b)
        assert lhs <= rhs + 1e-10


# -- measure-capacity constants ------------------------------------------------------


def test_measure_capacity_two_state(two_state):
    res = measure_capacity_constant(
        two_state, two_state.stationary, ["b"], l1_pair(), 1.0
    )
    assert res["c_psi"] == pytest.approx(10.0 / 3.0, rel=1e-10)
    assert res["mode"] == "exact"
    res_ent = measure_capacity_constant(
        two_state, two_state.stationary, ["b"], entropy_pair(), E2
    )
    # 0.25 ln(1 + e^2/0.25) / 0.075, frozen from direct evaluation
    assert res_ent["c_psi"] == pytest.approx(11.398561364684474, rel=1e-10)


def test_measure_capacity_restricted_scan(monkeypatch):
    rng = np.random.default_rng(71)
    chain = random_reversible_chain(rng, 10)
    b = np.zeros(10, dtype=bool)
    b[0] = True
    exact = measure_capacity_constant(chain, chain.stationary, b, l1_pair(), 1.0)
    monkeypatch.setattr(potential, "EXACT_ENUM_LIMIT", 3)
    lower = measure_capacity_constant(chain, chain.stationary, b, l1_pair(), 1.0)
    assert lower["mode"] == "lower_bound"
    assert lower["c_psi"] <= exact["c_psi"] + 1e-12


def test_muckenhoupt_examples():
    assert muckenhoupt_constant([0.5, 0.25, 0.25], [0.5, 0.25, 0.25]) == pytest.approx(
        1.5
    )
    q = 0.3
    assert muckenhoupt_constant([q, 1 - q], [q, 1 - q]) == pytest.approx(
        (1.0 / q) * (1.0 - q)
    )
    assert muckenhoupt_constant([0.5, 0.5], [0.5, 0.5]) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        muckenhoupt_constant([], [])


def test_universal_constants_two_state_uniform():
    chain = build_chain(["a", "b"], [("a", "b", 0.3), ("b", "a", 0.3)])
    res = universal_mixed_constants(chain, chain.stationary)
    cap = 0.5 * 0.3
    assert res["c_var"] == pytest.approx(0.5 / cap, rel=1e-10)
    assert res["c_ent"] == pytest.approx(
        0.5 * np.log1p(E2 / 0.5) / cap, rel=1e-10
    )


def test_universal_constants_forced_split():
    # one state carries most of the mass, so it must sit inside B
    chain = build_chain(
        ["a", "b", "c"],
        [
            ("a", "b", 0.2),
            ("b", "a", 0.8),
            ("b", "c", 0.1),
            ("c", "b", 0.8),
        ],
    )
    nu = chain.stationary
    heavy = int(np.argmax(nu))
    res = universal_mixed_constants(chain, nu)
    _, b_mask = res["argmax_var"]
    assert b_mask[heavy]


def test_universal_constants_ring_vs_enumeration():
    edges = []
    for i in range(4):
        j = (i + 1) % 4
        edges.append((f"r{i}", f"r{j}", 0.25))
        edges.append((f"r{j}", f"r{i}", 0.25))
    ring = build_chain([f"r{i}" for i in range(4)], edges)
    res = universal_mixed_constants(ring, ring.stationary)
    # independent brute force over all admissible pairs
    from metastab.potential import capacity_dense, capacity_scan_context

    ctx = capacity_scan_context(ring)
    best = 0.0
    for a_bits in range(1, 15):
        a = np.array([(a_bits >> k) & 1 for k in range(4)], dtype=bool)
        if ring.stationary[a].sum() > 0.5:
            continue
        rest = [k for k in range(4) if not a[k]]
        for b_bits in range(1, 1 << len(rest)):
            b = np.zeros(4, dtype=bool)
            for pos, k in enumerate(rest):
                if (b_bits >> pos) & 1:
                    b[k] = True
            if ring.stationary[b].sum() < 0.5:
                continue
            cap, _ = capacity_dense(ctx, a, b)
            best = max(best, ring.stationary[a].sum() / cap)
    assert res["c_var"] == pytest.approx(best, rel=1e-10)


def test_rothaus_step_inequality():
    rng = np.random.default_rng(73)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        nu = random_probability(rng, n)
        f = rng.normal(size=n)
        b = int(rng.integers(n))
        fb = f - f[b]
        lhs = entropy(nu, f * f)
        rhs = entropy(nu, fb * fb) + 2.0 * float(np.dot(nu, fb * fb))
        assert lhs <= rhs + 1e-10


def test_capacitary_inequality_continuous_time():
    # the functional machinery accepts generator-convention chains unchanged
    from metastab.potential import birth_death_generator_chain

    rng = np.random.default_rng(79)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        mu = random_probability(rng, n)
        chain = birth_death_generator_chain(mu)
        b = np.zeros(n, dtype=bool)
        b[int(rng.integers(n))] = True
        f = rng.normal(size=n)
        f[b] = 0.0
        lhs, rhs = capacitary_integral(chain, f, b)
        assert lhs <= rhs + 1e-10


def _scalar_scan(chain, b, pair, k_val):
    """(ratio, A) of every subset A of the complement of B, in bit order,
    from one scalar norm and one capacity per subset."""
    ctx = capacity_scan_context(chain)
    free = np.flatnonzero(~b)
    out = []
    for bits in range(1, 1 << free.size):
        a = np.zeros(chain.n_states, dtype=bool)
        a[[free[k] for k in range(free.size) if bits >> k & 1]] = True
        norm = indicator_orlicz_norm(float(chain.stationary[a].sum()), pair, k_val)
        out.append((norm / capacity_dense(ctx, a, b)[0], a))
    return out


@pytest.mark.parametrize("block", [2, 512])
def test_measure_capacity_constant_takes_the_first_maximum(monkeypatch, ring4, block):
    # {r1, r2} and {r2, r3} tie; with 2 subsets per block they may be solved
    # in different blocks, with 512 in one, and either way the first wins
    monkeypatch.setattr(potential, "SCAN_BLOCK", block)
    b = np.zeros(4, dtype=bool)
    b[0] = True
    vals = _scalar_scan(ring4, b, entropy_pair(), E2)
    best = max(v for v, _ in vals)
    ties = [a for v, a in vals if v == best]
    assert len(ties) > 1
    res = measure_capacity_constant(ring4, ring4.stationary, b, entropy_pair(), E2)
    assert res["c_psi"] == best
    assert np.array_equal(res["argmax"], ties[0])


def test_measure_capacity_constant_keeps_the_scalar_norm_bits():
    # at this chain's maximizer numpy's array power and its scalar power
    # differ in the last bit; the scan reports the scalar value
    chain = random_reversible_chain(np.random.default_rng(11), 7)
    b = np.zeros(7, dtype=bool)
    b[0] = True
    vals = _scalar_scan(chain, b, p_pair(2.5), 1.5)
    best = max(v for v, _ in vals)
    res = measure_capacity_constant(chain, chain.stationary, b, p_pair(2.5), 1.5)
    assert res["c_psi"] == best
    assert np.array_equal(res["argmax"], next(a for v, a in vals if v == best))


def test_lower_bound_scan_matches_the_candidate_loop(ring4, monkeypatch):
    # the restricted scan against its per-candidate loop: best singleton
    # first, then the level sets of its potential, strict > throughout
    monkeypatch.setattr(potential, "EXACT_ENUM_LIMIT", 2)
    rng = np.random.default_rng(97)
    chains = [ring4] + [random_reversible_chain(rng, 9) for _ in range(4)]
    for chain, pair, k_val in zip(chains, [entropy_pair(), p_pair(2.5)] * 3, [E2, 1.5] * 3):
        b = np.zeros(chain.n_states, dtype=bool)
        b[0] = True
        ctx = capacity_scan_context(chain)
        nu = chain.stationary

        def ratio(m):
            norm = indicator_orlicz_norm(float(nu[m].sum()), pair, k_val)
            return norm / capacity_dense(ctx, m, b)[0]

        singles = [np.arange(chain.n_states) == x for x in np.flatnonzero(~b)]
        best, arg = max(((ratio(m), m) for m in singles), key=lambda t: t[0])
        h = equilibrium_potential(chain, arg, b).potential
        for t in np.unique(h[h > 0.0]):
            m = (h >= t) & ~b
            if ratio(m) > best:
                best, arg = ratio(m), m
        res = measure_capacity_constant(chain, nu, b, pair, k_val)
        assert res["mode"] == "lower_bound"
        assert res["c_psi"] == best and np.array_equal(res["argmax"], arg)


def _universal_loop_reference(chain, nu, threshold=0.5):
    """The pair loop ``universal_mixed_constants`` ran before the batched scan."""
    ctx = capacity_scan_context(chain)
    n = chain.n_states
    best_var = best_ent = -np.inf
    arg_var = arg_ent = None
    full = (1 << n) - 1
    for a_bits in range(1, full):
        a_idx = [k for k in range(n) if a_bits >> k & 1]
        a_mass = float(nu[a_idx].sum())
        if a_mass > threshold:
            continue
        rest = full & ~a_bits
        b_bits = rest
        while b_bits:
            b_idx = [k for k in range(n) if b_bits >> k & 1]
            if float(nu[b_idx].sum()) >= threshold and a_mass > 0.0:
                a = np.zeros(n, dtype=bool)
                a[a_idx] = True
                b = np.zeros(n, dtype=bool)
                b[b_idx] = True
                cap, _ = capacity_dense(ctx, a, b)
                rv = a_mass / cap
                re = a_mass * np.log1p(E2 / a_mass) / cap
                if rv > best_var:
                    best_var, arg_var = rv, (a, b)
                if re > best_ent:
                    best_ent, arg_ent = re, (a, b)
            b_bits = (b_bits - 1) & rest
    return best_var, best_ent, arg_var, arg_ent


def test_universal_constants_match_the_pair_loop(ring4):
    # on the tree, eight pairs tie for each maximum: every B that contains
    # the states next to A has the same capacity, so the order of B matters
    tree = random_reversible_chain(np.random.default_rng(0), 6, extra_edges=0)
    for c in (ring4, tree):
        res = universal_mixed_constants(c, c.stationary)
        best_var, best_ent, arg_var, arg_ent = _universal_loop_reference(c, c.stationary)
        assert res["c_var"] == best_var and res["c_ent"] == best_ent
        for got, want in ((res["argmax_var"], arg_var), (res["argmax_ent"], arg_ent)):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_capacitary_integral_matches_the_level_loop():
    # the terms are added left to right as in the per-level loop, also past
    # 8 levels, where a pairwise sum would group them differently
    rng = np.random.default_rng(89)
    for _ in range(10):
        n = int(rng.integers(12, 30))
        chain = random_reversible_chain(rng, n)
        b = np.zeros(n, dtype=bool)
        b[int(rng.integers(n))] = True
        f = rng.normal(size=n)
        f[b] = 0.0
        ctx = capacity_scan_context(chain)
        thresholds = np.concatenate([[0.0], np.unique(np.abs(f))[1:]])
        total = 0.0
        for lo, hi in zip(thresholds[:-1], thresholds[1:]):
            total += (hi * hi - lo * lo) * capacity_dense(ctx, np.abs(f) > lo, b)[0]
        assert capacitary_integral(chain, f, b)[0] == total
