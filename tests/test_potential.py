import numpy as np
import pytest

from metastab import (
    SolverNotConverged,
    ValidationError,
    builtin_pairs,
    dirichlet_form,
    entropy_pair,
    equilibrium_potential,
    hitting_probability_from_equilibrium,
    indicator_orlicz_norm,
    mean_hitting_time,
    measure_capacity_constant,
    path_capacity_1d,
    rfcw,
    rho_metastability,
    subset_mask,
)
from metastab import potential
from metastab.orlicz import E2
from metastab.potential import (
    DENSE_SOLVE_LIMIT,
    DegenerateTarget,
    EmptySet,
    OverlappingSets,
    _masses,
    _scan_capacities,
    _solve_potentials,
    _spd_solver,
    birth_death_generator_chain,
    capacity_dense,
    capacity_scan_context,
)
from metastab.sampling import (
    double_well_chain,
    random_probability,
    random_reversible_chain,
)


def test_two_state_solution(two_state):
    sol = equilibrium_potential(two_state, ["a"], ["b"])
    assert np.allclose(sol.potential, [1.0, 0.0])
    assert sol.capacity == pytest.approx(0.075, rel=1e-12)
    assert sol.capacity_from_energy == pytest.approx(sol.capacity, rel=1e-8)
    assert sol.last_exit[two_state.index["a"]] == pytest.approx(1.0)


def test_path3_capacity(path3):
    sol = equilibrium_potential(path3, ["2"], ["0"])
    assert sol.potential[path3.index["1"]] == pytest.approx(0.5, rel=1e-12)
    assert sol.capacity == pytest.approx(0.0625, rel=1e-10)
    swapped = equilibrium_potential(path3, ["0"], ["2"])
    assert swapped.capacity == pytest.approx(sol.capacity, rel=1e-10)
    assert np.allclose(swapped.potential, 1.0 - sol.potential, atol=1e-12)


def test_pair_validation(path3):
    with pytest.raises(OverlappingSets):
        equilibrium_potential(path3, ["0", "1"], ["1"])
    with pytest.raises(EmptySet):
        equilibrium_potential(path3, [], ["1"])


def test_hitting_probability(path3, two_state):
    assert hitting_probability_from_equilibrium(path3, ["2"], ["0"]) == pytest.approx(
        0.25, rel=1e-10
    )
    # singleton with a single direct escape edge: probability q
    assert hitting_probability_from_equilibrium(
        two_state, ["a"], ["b"]
    ) == pytest.approx(0.3, rel=1e-12)


def test_capacity_monotonicity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(5, 20))
        chain = random_reversible_chain(rng, n)
        perm = rng.permutation(n)
        a = np.zeros(n, dtype=bool)
        a[perm[:1]] = True
        big = np.zeros(n, dtype=bool)
        big[perm[1:4]] = True
        small = np.zeros(n, dtype=bool)
        small[perm[1:2]] = True
        cap_small = equilibrium_potential(chain, a, small).capacity
        cap_big = equilibrium_potential(chain, a, big).capacity
        assert cap_small <= cap_big + 1e-12


def test_dirichlet_principle():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(6, 64))
        chain = random_reversible_chain(rng, n)
        a = np.zeros(n, dtype=bool)
        b = np.zeros(n, dtype=bool)
        a[0] = True
        b[1] = True
        sol = equilibrium_potential(chain, a, b)
        for _ in range(20):
            f = np.clip(rng.normal(0.5, 0.5, size=n), 0.0, 1.0)
            f[a] = 1.0
            f[b] = 0.0
            assert dirichlet_form(chain, f) >= sol.capacity - 1e-10
        assert dirichlet_form(chain, sol.potential) == pytest.approx(
            sol.capacity, rel=1e-8
        )


def test_equilibrium_measure_bound():
    # e_{A,B}(x) <= cap(A, B) / mu(x) on A
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(5, 30))
        chain = random_reversible_chain(rng, n)
        perm = rng.permutation(n)
        a = np.zeros(n, dtype=bool)
        a[perm[:3]] = True
        b = np.zeros(n, dtype=bool)
        b[perm[3:5]] = True
        sol = equilibrium_potential(chain, a, b)
        mu = chain.stationary
        for x in np.flatnonzero(a):
            assert sol.equilibrium_measure[x] <= sol.capacity / mu[x] + 1e-12


def test_last_exit_absolutely_continuous():
    rng = np.random.default_rng(37)
    chain = random_reversible_chain(rng, 12)
    a = np.zeros(12, dtype=bool)
    a[:4] = True
    b = np.zeros(12, dtype=bool)
    b[10:] = True
    sol = equilibrium_potential(chain, a, b)
    assert sol.last_exit.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(sol.last_exit[~a] == 0.0)


def test_mean_hitting_time_examples(two_state):
    start = np.array([1.0, 0.0])
    t = mean_hitting_time(two_state, start, ["b"])
    assert t == pytest.approx(1.0 / 0.3, rel=1e-12)
    sol = equilibrium_potential(two_state, ["a"], ["b"])
    ident = np.dot(two_state.stationary, sol.potential) / sol.capacity
    assert mean_hitting_time(two_state, sol.last_exit, ["b"]) == pytest.approx(
        ident, rel=1e-8
    )


def test_mean_hitting_identity_corpus(chain_corpus):
    for chain, a, b in chain_corpus[:20]:
        sol = equilibrium_potential(chain, a, b)
        lhs = mean_hitting_time(chain, sol.last_exit, b)
        rhs = np.dot(chain.stationary, sol.potential) / sol.capacity
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_mean_hitting_time_degenerate(two_state):
    with pytest.raises(DegenerateTarget):
        mean_hitting_time(two_state, np.array([1.0, 0.0]), ["a", "b"])
    with pytest.raises(ValidationError):
        mean_hitting_time(two_state, np.array([0.0, 1.0]), ["b"])


def test_mean_hitting_time_without_sign_raises():
    # at beta = 8 the solve of Lap w = mu loses every digit and used to
    # come back as -3.3e19; w must be positive and finite or the call raises
    chain = double_well_chain(8.0)
    start = np.zeros(chain.n_states)
    start[0] = 1.0
    with pytest.raises(SolverNotConverged, match="not positive"):
        mean_hitting_time(chain, start, ["x10"])
    assert mean_hitting_time(double_well_chain(5.0), start, ["x10"]) > 0.0


def test_path_capacity_closed_form():
    cap, profile = path_capacity_1d([0.5, 0.25])
    assert cap == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert profile[0] == pytest.approx(1.0)
    assert profile[-1] == 0.0
    cap1, prof1 = path_capacity_1d([0.7])
    assert cap1 == pytest.approx(0.7, rel=1e-14)
    assert np.allclose(prof1, [1.0, 0.0])
    with pytest.raises(ValidationError):
        path_capacity_1d([0.5, 0.0])


def test_path_capacity_against_generic_solver():
    # the closed-form profile is the potential of the swapped pair ({0}, {x});
    # the capacity matches the generic solve on the same generator
    rng = np.random.default_rng(41)
    for _ in range(10):
        m = int(rng.integers(2, 9))
        mu = rng.uniform(0.2, 2.0, size=m + 1)
        mu = mu / mu.sum()
        chain = birth_death_generator_chain(mu)
        cap, profile = path_capacity_1d(mu[:-1])
        sol = equilibrium_potential(chain, [0], [m])
        assert sol.capacity == pytest.approx(cap, rel=1e-10)
        assert np.allclose(sol.potential, profile, atol=1e-10)


def test_capacity_symmetry_random(chain_corpus):
    for chain, a, b in chain_corpus[:15]:
        c_ab = equilibrium_potential(chain, a, b).capacity
        c_ba = equilibrium_potential(chain, b, a).capacity
        assert c_ab == pytest.approx(c_ba, rel=1e-10)


def _rfcw9_chain():
    return rfcw.build_model(9, 1.5, "uniform:0.2", seed=3, materialize=True).chain


def _dense_potential(chain, a, b):
    lap = chain.laplacian.toarray()
    w = chain.conductance.toarray()
    free = ~(a | b)
    h = np.zeros(chain.n_states)
    h[a] = 1.0
    h[free] = np.linalg.solve(lap[np.ix_(free, free)], w[np.ix_(free, a)].sum(axis=1))
    return h, float(np.dot(h[a], (lap @ h)[a]))


def test_swapped_pair_shares_one_sparse_factor():
    # 512 states with two singleton boundaries: a 510-state interior, which
    # takes the sparse symmetric-mode LU path
    chain = _rfcw9_chain()
    n = chain.n_states
    a = np.zeros(n, dtype=bool)
    a[0] = True
    b = np.zeros(n, dtype=bool)
    b[n - 1] = True
    interior = ~(a | b)
    assert interior.sum() > DENSE_SOLVE_LIMIT

    ab = equilibrium_potential(chain, a, b)
    solve = _spd_solver(chain, interior)
    ba = equilibrium_potential(chain, b, a)
    assert _spd_solver(chain, interior) is solve  # the swapped pair hit the memo
    assert np.max(np.abs(ab.potential + ba.potential - 1.0)) <= 1e-12
    assert ab.capacity == pytest.approx(ba.capacity, rel=1e-12)

    h_ref, cap_ref = _dense_potential(chain, a, b)
    assert np.allclose(ab.potential, h_ref, rtol=1e-12, atol=0.0)
    assert ab.capacity == pytest.approx(cap_ref, rel=1e-12)

    # a second pair replaces the memo entry and matches a fresh chain
    a2 = np.zeros(n, dtype=bool)
    a2[[1, 2]] = True
    b2 = np.zeros(n, dtype=bool)
    b2[[5, n - 3, n - 2]] = True
    again = equilibrium_potential(chain, a2, b2)
    fresh = equilibrium_potential(_rfcw9_chain(), a2, b2)
    assert np.array_equal(again.potential, fresh.potential)
    assert again.capacity == fresh.capacity
    h_ref, cap_ref = _dense_potential(chain, a2, b2)
    assert np.allclose(again.potential, h_ref, rtol=1e-12, atol=0.0)
    assert again.capacity == pytest.approx(cap_ref, rel=1e-12)


CG_CASES = {
    "dw15": (lambda: double_well_chain(0.5, 15), ["x0"], ["x14"]),
    "rc40": (lambda: random_reversible_chain(np.random.default_rng((40, 1)), 40),
             ["s0", "s1"], ["s39"]),
}


@pytest.mark.parametrize("name", sorted(CG_CASES))
def test_conjugate_gradient_path_matches_default(monkeypatch, name):
    # limits of 0 send every interior solve to Jacobi-preconditioned CG;
    # fresh chains keep the memo from handing back the default solver
    make, a, b = CG_CASES[name]
    ref = equilibrium_potential(make(), a, b)
    monkeypatch.setattr(potential, "DENSE_SOLVE_LIMIT", 0)
    monkeypatch.setattr(potential, "DIRECT_SOLVE_LIMIT", 0)
    calls = []
    cg = potential.spla.cg
    monkeypatch.setattr(potential.spla, "cg", lambda *a, **kw: calls.append(1) or cg(*a, **kw))
    sol = equilibrium_potential(make(), a, b)
    assert len(calls) == 2  # one CG run per column, h_{A,B} and h_{B,A}
    assert np.max(np.abs(sol.potential - ref.potential)) <= 1e-12
    assert sol.capacity == pytest.approx(ref.capacity, rel=1e-9, abs=0.0)


def test_conjugate_gradient_failure_raises(monkeypatch):
    monkeypatch.setattr(potential, "DENSE_SOLVE_LIMIT", 0)
    monkeypatch.setattr(potential, "DIRECT_SOLVE_LIMIT", 0)
    monkeypatch.setattr(potential.spla, "cg", lambda mat, rhs, **kw: (np.zeros_like(rhs), 7))
    with pytest.raises(SolverNotConverged, match="info=7"):
        equilibrium_potential(double_well_chain(0.5, 15), ["x0"], ["x14"])


def test_potential_right_hand_sides_keep_the_column_sum_bits():
    # W[int, M] 1 is added as csr.sum(axis=1) adds it; a product W[int] @ 1_M
    # groups rows with three or more neighbours in M differently
    rng = np.random.default_rng(29)
    for _ in range(20):
        chain = random_reversible_chain(rng, 15, extra_edges=40)
        perm = rng.permutation(15)
        a, b = np.isin(np.arange(15), perm[:4]), np.isin(np.arange(15), perm[4:8])
        interior = ~(a | b)
        w = chain.conductance[interior]
        rhs = np.column_stack([np.asarray(w[:, m].sum(axis=1)).ravel() for m in (a, b)])
        block = chain.laplacian[interior][:, interior].toarray()
        got = _solve_potentials(chain, [a, b])[interior]
        assert np.array_equal(got, np.linalg.solve(block, rhs))


def test_capacity_keeps_digits_at_low_temperature():
    # cap(x0, x10) of the well against the series formula: h_{A,B} is 1 up to
    # terms below 1e-10 next to x0, so sum mu e taken from it would keep only
    # their digits (and fail the energy cross-check from beta = 4 on); the
    # dense enumeration path takes the same route
    for beta in (2.0, 4.0, 6.0, 8.0):
        chain = double_well_chain(beta)
        w = chain.conductance.toarray()
        series, _ = path_capacity_1d(np.array([w[i, i + 1] for i in range(10)]))
        sol = equilibrium_potential(chain, ["x0"], ["x10"])
        assert sol.capacity == pytest.approx(series, rel=1e-13)
        assert sol.capacity_from_energy == pytest.approx(series, rel=1e-13)
        assert sol.last_exit[0] == 1.0
        ctx = capacity_scan_context(chain)
        cap, h = capacity_dense(ctx, sol.set_a, sol.set_b)
        assert cap == pytest.approx(series, rel=1e-13)
        assert np.allclose(h, sol.potential, rtol=0.0, atol=1e-15)


def _capacity_loop_reference(ctx, a, b):
    """The per-pair dense capacity the scans used before the batched kernel."""
    lap, w, mu = ctx
    h = np.zeros((mu.size, 2))
    h[a, 0] = 1.0
    h[b, 1] = 1.0
    interior = ~(a | b)
    if interior.any():
        rhs = w[interior] @ h
        h[interior] = np.linalg.solve(lap[np.ix_(interior, interior)], rhs)
    return float((w @ h[:, 1])[a].sum()), h[:, 0]


def _bit_mask_chunks(free, n, chunk):
    """Masks of the subsets of ``free`` for the bit patterns 1 .. 2^f - 1,
    ``chunk`` rows at a time; bit j selects free[j]."""
    bits = np.arange(1, 1 << free.size)
    for lo in range(0, bits.size, chunk):
        masks = np.zeros((bits[lo : lo + chunk].size, n), dtype=bool)
        masks[:, free] = (bits[lo : lo + chunk, None] >> np.arange(free.size)) & 1
        yield masks


SCAN_CHAINS = {
    "dw11-b1": lambda: double_well_chain(1.0),
    "dw11-b3": lambda: double_well_chain(3.0),
    "dw11-b8": lambda: double_well_chain(8.0),
    "dw15-b0.25": lambda: double_well_chain(0.25, 15),
    # the benchmark's random chains, pool variant 0
    "rc14": lambda: random_reversible_chain(np.random.default_rng((20170515, 14, 0)), 14),
    "rc16": lambda: random_reversible_chain(np.random.default_rng((20170515, 16, 0)), 16),
}


@pytest.mark.parametrize("name", sorted(SCAN_CHAINS))
def test_scan_kernel_matches_pairwise_bit_for_bit(monkeypatch, name):
    # every subset A of the free states against B = the last state: batched
    # capacities, potentials and masses equal the per-pair ones exactly;
    # small chunks and batches put many boundaries inside the scan
    chain = SCAN_CHAINS[name]()
    monkeypatch.setattr(potential, "SCAN_BATCH_BYTES", 1 << 14)
    n = chain.n_states
    b = np.zeros(n, dtype=bool)
    b[-1] = True
    free = np.flatnonzero(~b)
    chunks = list(_bit_mask_chunks(free, n, 100))
    assert max(len(c) for c in chunks) == 100
    masks = np.concatenate(chunks)
    bits = np.arange(1, 1 << free.size)
    expected = np.zeros((bits.size, n), dtype=bool)
    expected[:, free] = (bits[:, None] >> np.arange(free.size)) & 1
    assert np.array_equal(masks, expected)

    ctx = capacity_scan_context(chain)
    caps, pots = zip(*(_scan_capacities(ctx, c, b) for c in chunks))
    caps, pots = np.concatenate(caps), np.concatenate(pots)
    masses = _masses(chain.stationary, masks)
    for i, a in enumerate(masks):
        cap, h = capacity_dense(ctx, a, b)
        ref_cap, ref_h = _capacity_loop_reference(ctx, a, b)
        assert caps[i] == cap == ref_cap
        assert np.array_equal(pots[i], h) and np.array_equal(h, ref_h)
        assert masses[i] == chain.stationary[a].sum()


def test_scan_kernel_raises_instead_of_dividing():
    # a singular interior block (the 11-state well at beta = 40) and a
    # capacity that is not positive both raise SolverNotConverged
    b = np.zeros(11, dtype=bool)
    b[10] = True
    ctx = capacity_scan_context(double_well_chain(40.0))
    with pytest.raises(SolverNotConverged, match="singular"):
        for masks in _bit_mask_chunks(np.arange(10), 11, 512):
            _scan_capacities(ctx, masks, b)
    lap, w, mu = capacity_scan_context(double_well_chain(1.0))
    masks = np.eye(11, dtype=bool)[:10]
    with pytest.raises(SolverNotConverged, match="not positive"):
        _scan_capacities((lap, np.zeros_like(w), mu), masks, b)


def test_dense_interior_solve_maps_singular_blocks():
    # the well's mean hitting time at beta = 8 meets an exactly singular
    # block in the dense path
    chain = double_well_chain(8.0)
    start = np.zeros(11)
    start[10] = 1.0
    with pytest.raises(SolverNotConverged, match="singular interior block"):
        mean_hitting_time(chain, start, ["x0"])


# -- bounded subset scans ------------------------------------------------------


def _all_subsets(chain, b):
    free = np.flatnonzero(~b)
    return next(_bit_mask_chunks(free, chain.n_states, 1 << free.size))


def _full_orlicz(chain, nu, b, pair, k_val):
    """The plain exhaustive Orlicz scan: every subset in one call, the first
    of the largest scalar ratios near the array maximum."""
    masks = _all_subsets(chain, b)
    mass = _masses(nu, masks)
    masks, mass = masks[mass > 0.0], mass[mass > 0.0]
    caps, _ = _scan_capacities(capacity_scan_context(chain), masks, b)
    approx = mass * pair.psi_inverse(k_val / mass) / caps
    top = np.flatnonzero(approx >= approx.max() * (1.0 - 1e-15))
    vals = [indicator_orlicz_norm(mass[i], pair, k_val) / caps[i] for i in top]
    i = int(np.argmax(vals))
    return vals[i], masks[top[i]]


def _full_rho_denominator(chain, union):
    """min over every subset A of the free states of cap(A, M) / mu[A]."""
    masks = _all_subsets(chain, union)
    caps, _ = _scan_capacities(capacity_scan_context(chain), masks, union)
    vals = caps / _masses(chain.stationary, masks)
    i = int(np.argmin(vals))
    return vals[i], masks[i]


@pytest.mark.parametrize("block", [16, 256])
def test_bounded_scan_matches_full_enumeration(monkeypatch, block):
    # value bits and argmax of the bounded scans against the plain ones, on
    # random chains of 3-14 states, random B and nu, every built-in pair,
    # and random disjoint metastable sets for the exact ratio
    monkeypatch.setattr(potential, "SCAN_BLOCK", block)
    rng = np.random.default_rng(1515)
    for case in range(30):
        n = int(rng.integers(3, 15))
        chain = random_reversible_chain(rng, n)
        b = np.zeros(n, dtype=bool)
        b[rng.choice(n, size=int(rng.integers(1, max(2, n // 3))), replace=False)] = True
        nu = chain.stationary if case % 2 else random_probability(rng, n)
        if case % 3 == 0:  # some free states without mass
            nu = np.where(rng.random(n) < 0.4, 0.0, nu)
            nu = nu / nu.sum() if nu.sum() > 0.0 else chain.stationary
        for name, pair in builtin_pairs().items():
            k_val = float(rng.choice([E2, 1.5, 0.3]))
            val, arg = _full_orlicz(chain, nu, b, pair, k_val)
            res = measure_capacity_constant(chain, nu, b, pair, k_val)
            assert res["mode"] == "exact"
            assert res["c_psi"] == val, (case, name)
            assert np.array_equal(res["argmax"], arg), (case, name)

        order = rng.permutation(n)
        cuts = np.sort(rng.choice(np.arange(1, n), size=2, replace=False))
        sets = [order[: cuts[0]], order[cuts[0] : cuts[1]]]
        if cuts[1] < n - 1 and rng.integers(2):
            sets.append(order[cuts[1] : cuts[1] + 1])
        sets = [[chain.states[i] for i in s] for s in sets]
        union = subset_mask(chain, [s for part in sets for s in part])
        den, arg = _full_rho_denominator(chain, union)
        cert = rho_metastability(chain, sets, mode="exact")
        assert cert.denominator == den, case
        assert np.array_equal(cert.argmin_subset, arg), case


def test_bounded_scan_rules_out_most_subsets(monkeypatch):
    # the benchmark's 16-state chain, B = the last state: the singleton bound
    # leaves a few hundred of the 32,767 Orlicz and 16,383 rho subsets
    chain = SCAN_CHAINS["rc16"]()
    solved = []
    kernel = potential._scan_capacities

    def counting(ctx, a, b):
        solved.append(a.shape[0])
        return kernel(ctx, a, b)

    monkeypatch.setattr(potential, "_scan_capacities", counting)
    b = np.zeros(16, dtype=bool)
    b[-1] = True
    measure_capacity_constant(chain, chain.stationary, b, entropy_pair(), E2)
    assert sum(solved) < 32767 / 16
    solved.clear()
    rho_metastability(chain, [[chain.states[0]], [chain.states[-1]]], mode="exact")
    assert sum(solved) < 16383 / 16


def test_bounded_scan_margin_covers_kernel_rounding(monkeypatch):
    # a kernel that rounds cap({0, 1}) 1e-7 below its largest singleton
    # capacity: {0, 1, 2}, solved first for its larger bound, scores between
    # the bare bound of {0, 1} and its score, and only the margin keeps
    # {0, 1}, the maximizer of m / cap, from being ruled out
    caps = {0b001: 1.0, 0b010: 1.0, 0b100: 1.9, 0b011: 1.0 - 1e-7,
            0b101: 3.0, 0b110: 3.0, 0b111: 2.0 - 1e-7}

    def kernel(ctx, a, b):
        return np.array([caps[int(m[:3] @ [1, 2, 4])] for m in a]), None

    monkeypatch.setattr(potential, "_scan_capacities", kernel)
    monkeypatch.setattr(potential, "SCAN_BLOCK", 1)
    b = np.array([False, False, False, True])
    weight = np.array([0.25, 0.25, 0.5, 0.0])
    masks, mass, cap = potential._bounded_scan(
        (np.zeros((4, 4)),), np.arange(3), b, weight, lambda m, c: m / c
    )
    assert np.array_equal(masks[np.argmax(mass / cap)], [True, True, False, False])


def test_bounded_scan_needs_nu_mass_off_b():
    # nu lives on B: no subset of the free states carries mass, none is solved
    chain = random_reversible_chain(np.random.default_rng(7), 6)
    b = np.zeros(6, dtype=bool)
    b[[0, 3]] = True
    nu = np.where(b, 0.5, 0.0)
    with pytest.raises(ValidationError, match="no candidate set carries nu-mass"):
        measure_capacity_constant(chain, nu, b, entropy_pair(), E2)


# Orlicz (ent, K = e^2, B = the last state) and exact rho ({x0}, {x_last}) on
# the double wells, as the exhaustive scans reported them: c_psi or rho with
# the argmax or argmin, or the exception type and message
EXTREME_BETA_SCANS = {
    (11, 5): (("454930530290706.9", [0, 1, 2]), ("2.5772913328728364e-14", [4, 5, 6])),
    (11, 8): (("5.8435241302837514e+22", [0, 1, 2]), ("1.9100260570405824e-22", [4, 5, 6])),
    (11, 12): (("4.1312050125700574e+33", [0, 1, 2]), ("2.674904532033821e-33", [4, 5, 6])),
    (11, 20): (("2.1359289891515108e+55", [0, 1]), ("5.166277397646515e-55", [4, 5, 6])),
    (11, 30): (
        ("SolverNotConverged", "singular interior block in a capacity scan: Singular matrix"),
        ("3.713509621401821e-82", [4, 5, 6]),
    ),
    (11, 40): (
        ("SolverNotConverged", "singular interior block in a capacity scan: Singular matrix"),
        ("2.6691902114375945e-109", [4, 5, 6]),
    ),
    (15, 5): (("1.5250513760025172e+53", [0, 1, 2, 3]), ("7.265371632542418e-53", [6, 7, 8])),
    (15, 8): (("2.8988269241014728e+84", [0, 1]), ("3.8073547306609866e-84", [6, 7, 8])),
    (15, 12): (
        ("SolverNotConverged", "singular interior block in a capacity scan: Singular matrix"),
        ("7.431422648385155e-126", [6, 7, 8]),
    ),
    (15, 20): (
        ("SolverNotConverged", "singular interior block in a capacity scan: Singular matrix"),
        ("2.830021853974221e-209", [6, 7, 8]),
    ),
    (15, 30): (
        ("ValidationError", "K = 7.38905609893065 overflows K / nu[A]"),
        (
            "SolverNotConverged",
            "capacity np.float64(nan) of a scanned set is not positive and finite",
        ),
    ),
}


def _outcome(fn):
    try:
        value, arg = fn()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return repr(value), np.flatnonzero(arg).tolist()


# the NaN capacity of dw15 at beta = 30 warns inside the kernel's matvec
# before the kernel raises for it
@pytest.mark.filterwarnings("ignore:invalid value encountered in matvec:RuntimeWarning")
@pytest.mark.parametrize("n, beta", sorted(EXTREME_BETA_SCANS))
def test_bounded_scans_at_extreme_beta(n, beta):
    chain = double_well_chain(float(beta), n)
    b = np.zeros(n, dtype=bool)
    b[-1] = True

    def orlicz():
        res = measure_capacity_constant(chain, chain.stationary, b, entropy_pair(), E2)
        return res["c_psi"], res["argmax"]

    def rho():
        cert = rho_metastability(chain, [["x0"], [f"x{n - 1}"]], mode="exact")
        return cert.rho, cert.argmin_subset

    assert (_outcome(orlicz), _outcome(rho)) == EXTREME_BETA_SCANS[n, beta]


def test_bounded_scans_at_the_enumeration_limit():
    # 20 free states, the real EXACT_ENUM_LIMIT: the values of the exhaustive
    # scans, and one free state more falls back
    assert potential.EXACT_ENUM_LIMIT == 20
    chain = random_reversible_chain(np.random.default_rng(3), 21)
    b = np.zeros(21, dtype=bool)
    b[-1] = True
    res = measure_capacity_constant(chain, chain.stationary, b, entropy_pair(), E2)
    assert res["mode"] == "exact"
    assert res["c_psi"] == 3127.455671095346
    assert np.flatnonzero(res["argmax"]).tolist() == [6, 10, 11, 18, 19]

    chain = random_reversible_chain(np.random.default_rng(3), 22)
    sets = [[chain.states[0]], [chain.states[-1]]]
    cert = rho_metastability(chain, sets, mode="exact")
    assert cert.rho == 26.390442787871827
    assert cert.denominator == 0.002860768627261901
    assert np.flatnonzero(cert.argmin_subset).tolist() == [5, 17]

    b = np.zeros(22, dtype=bool)
    b[-1] = True
    res = measure_capacity_constant(chain, chain.stationary, b, entropy_pair(), E2)
    assert res["mode"] == "lower_bound"
    chain = random_reversible_chain(np.random.default_rng(3), 23)
    assert rho_metastability(chain, [[chain.states[0]], [chain.states[-1]]]).mode == "singleton"
