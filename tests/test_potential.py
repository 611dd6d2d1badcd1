import numpy as np
import pytest

from metastab import (
    ValidationError,
    dirichlet_form,
    equilibrium_potential,
    hitting_probability_from_equilibrium,
    mean_hitting_time,
    path_capacity_1d,
)
from metastab import SolverNotConverged, rfcw
from metastab import potential
from metastab.potential import (
    DENSE_SOLVE_LIMIT,
    DegenerateTarget,
    EmptySet,
    OverlappingSets,
    _masses,
    _scan_capacities,
    _solve_potentials,
    _spd_solver,
    _subset_masks,
    birth_death_generator_chain,
    capacity_dense,
    capacity_scan_context,
)
from metastab.sampling import double_well_chain, random_reversible_chain


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
    monkeypatch.setattr(potential, "SCAN_CHUNK", 100)
    monkeypatch.setattr(potential, "SCAN_BATCH_BYTES", 1 << 14)
    n = chain.n_states
    b = np.zeros(n, dtype=bool)
    b[-1] = True
    free = np.flatnonzero(~b)
    chunks = list(_subset_masks(free, n))
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
        for masks in _subset_masks(np.arange(10), 11):
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
