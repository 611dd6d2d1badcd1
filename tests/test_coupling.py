import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metastab
from metastab import ValidationError
from metastab import coupling as coupling_mod
from metastab.chains import MetastabError
from metastab.coupling import (
    BoundOutOfRange,
    _accept_table,
    _coupled_steps,
    _event_b,
    _gated_draw,
    _streams,
    coupling_experiment,
    eta_from_coupling,
    gate_probability,
    hitting_lower_bound_check,
    marginal_chi_square,
    mismatched_pair_in_fiber,
    negative_binomial_rate,
    richest_fiber,
    tail_bound_check,
)
from metastab import rfcw as rfcw_mod
from metastab.cli import main as cli_main
from metastab.rfcw import build_model, coarse_grain, find_minima_and_order
from references import TwoPointCoupling, point_index


def test_optimal_coupling_identical_marginals():
    c = TwoPointCoupling([0.5, 0.5], [0.5, 0.5], 1.0 - 1e-9)
    assert c.disagreement == pytest.approx(0.0, abs=1e-9)
    left, right = c.marginals()
    assert np.allclose(left, [0.5, 0.5]) and np.allclose(right, [0.5, 0.5])


def test_optimal_coupling_tv_and_lp():
    nu = np.array([0.7, 0.3])
    nup = np.array([0.5, 0.5])
    c = TwoPointCoupling(nu, nup, 0.5)
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
        TwoPointCoupling([0.9, 0.1], [0.1, 0.9], 0.5)


@pytest.fixture(scope="module")
def small_pair():
    model = build_model(6, 1.0, "values:0.19,0.13,0.2,-0.18,-0.2,-0.14")
    land = coarse_grain(model, 2)
    return model, land


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


def test_coupling_experiment_takes_fifty_n_steps_by_default(small_pair):
    model, land = small_pair
    args = dict(runs=300, seed=4, M=4, dynamics_runs=40)
    assert coupling_experiment(model, land, T=None, **args) == coupling_experiment(
        model, land, T=50 * model.n_spins, **args
    )


def test_marginal_chi_square(small_pair):
    model, land = small_pair
    results = marginal_chi_square(model, land, runs=300, steps=80, seed=13)
    for rep in results:
        assert rep["pass"], rep
        assert rep["states_tested"] > 10


def _chain_flip_rows(model):
    """P(sigma, sigma^i) of the assembled micro chain, one row per code."""
    n = model.n_spins
    codes = np.arange(1 << n)
    kernel = model.chain.kernel
    return np.column_stack(
        [np.asarray(kernel[codes, codes ^ (1 << i)]).ravel() for i in range(n)]
    )


@pytest.mark.parametrize("beta", [0.0, 0.7, 2.5, 20.0])
def test_sampler_accepts_with_the_chains_own_flip_probabilities(beta):
    # the kernel and the tail check read their accept probabilities from
    # ``_accept_table``: N P(sigma, sigma^i) of the micro chain, bit for bit
    for n, field in ((1, "zero"), (6, "uniform:0.2"), (8, "uniform:0.3"), (8, "discrete:-0.4,0.4")):
        model = build_model(n, beta, field, seed=4)
        accept = _accept_table(model).reshape(-1, n)
        assert accept.tolist() == (n * _chain_flip_rows(model)).tolist()


def test_chi_square_rows_are_the_chains_rows(monkeypatch):
    # the expected rows of every tested state are the chain's own rows
    model = build_model(8, 1.5, "uniform:0.2", seed=2)
    land = coarse_grain(model, 2)
    seen = []
    real = coupling_mod._pearson_statistics
    monkeypatch.setattr(coupling_mod, "_pearson_statistics",
                        lambda obs, flip: seen.append(flip) or real(obs, flip))
    marginal_chi_square(model, land, runs=150, steps=100, seed=2)
    rows = _chain_flip_rows(model)
    n = model.n_spins
    for parts, flip in zip(_chi_counts(model, land, 150, 100, 2), seen, strict=True):
        visits = np.bincount(np.concatenate(parts) // (n + 1), minlength=1 << n)
        codes = (visits >= 50).nonzero()[0]
        assert codes.size > 10
        assert flip.tolist() == rows[codes].tolist()  # bit for bit


def test_tail_check_needs_a_materialized_model():
    model = build_model(8, 1.5, "uniform:0.2", seed=3, materialize=False)
    with pytest.raises(ValidationError, match="materialized"):
        tail_bound_check(model, samples=20, seed=0)


def test_chi_square_op_never_computes_the_free_energy(monkeypatch):
    calls = []
    real = rfcw_mod._block_dual_entropy
    monkeypatch.setattr(rfcw_mod, "_block_dual_entropy",
                        lambda *a: calls.append(1) or real(*a))
    model = build_model(8, 1.2, "uniform:0.2", seed=1)
    land = coarse_grain(model, 2)
    marginal_chi_square(model, land, runs=50, steps=20, seed=1)
    assert calls == []
    assert land.free_energy.shape == (land.n_points,) and calls  # the counter sees a read


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


def test_tail_bound_domination_detects_a_false_floor(monkeypatch):
    # the true floor at N = 8, beta = 1.5, h_inf = 0.2 is exp(-3.6) = 0.027; a
    # claimed floor of 0.9 has comparison successes that do not flip
    from metastab import coupling

    model = build_model(8, 1.5, "uniform:0.2", seed=3)
    assert tail_bound_check(model, samples=200, seed=0)["domination_ok"]
    monkeypatch.setattr(coupling, "flip_rate_floor", lambda model: 0.9)
    assert not tail_bound_check(model, samples=200, seed=0)["domination_ok"]


def _tail_reference(model, samples, seed):
    """The per-step tail-bound loop: one ``rng.random((live, 2))`` per step."""
    n = model.n_spins
    alpha, s, rate, bound = coupling_mod._tail_rate(model)
    rng = np.random.default_rng((seed, 37))
    accept = model.flip_probs * n
    bits = 1 << np.arange(n)
    sig = np.ones((samples, n), dtype=np.int8)
    pending = np.ones((samples, n), dtype=bool)
    live = np.arange(samples)
    attempts = np.zeros(samples, dtype=np.int64)
    missed = 0
    while live.size:
        u = rng.random((live.size, 2))
        rows = np.arange(live.size)
        i = (u[:, 0] * n).astype(np.intp)
        spin = sig[rows, i]
        flip = u[:, 1] < accept[(sig > 0) @ bits, i]
        r = flip.nonzero()[0]
        sig[r, i[r]] = -spin[r]
        first = pending[rows, i]
        attempts[live] += first
        missed += int(np.count_nonzero(first & (u[:, 1] < alpha) & ~flip))
        new = first & flip
        pending[rows[new], i[new]] = False
        keep = pending.any(axis=1)
        if not keep.all():
            live, sig, pending = live[keep], sig[keep], pending[keep]
    emp = int(np.sum(attempts > s * n)) / samples
    sigma = math.sqrt(max(bound * (1.0 - bound), emp * (1.0 - emp), 1e-12) / samples)
    return {
        "alpha": alpha,
        "s": s,
        "rate": rate if math.isfinite(rate) else None,
        "bound": bound,
        "empirical": emp,
        "samples": samples,
        "sigma": sigma,
        "within_3sigma": emp <= bound + 3.0 * sigma,
        "domination_ok": missed == 0,
    }


@pytest.mark.parametrize("n_spins", [6, 8, 10])
@pytest.mark.parametrize("beta", [0.8, 1.5, 2.0])
def test_tail_check_matches_the_per_step_reference(n_spins, beta):
    # the uniforms drawn ahead are the values the per-step loop draws, so
    # every report keeps its bits; each cell runs all three sample sizes
    model = build_model(n_spins, beta, "uniform:0.2", seed=n_spins)
    for seed, samples in zip((0, 5, 11), (100, 500, 2000)):
        want = _tail_reference(model, samples, seed)
        assert tail_bound_check(model, samples=samples, seed=seed) == want


def test_tail_check_refills_its_buffer_bit_for_bit(monkeypatch):
    # a 4 KiB budget holds 512 doubles, fewer than a step of all 300 rows
    # takes: the buffer is refilled every step or few, each time carrying over
    # the remainder of the last block
    model = build_model(8, 1.5, "uniform:0.2", seed=3)
    monkeypatch.setattr(coupling_mod, "STEP_BLOCK_BYTES", 4096)
    want = _tail_reference(model, 300, 2)

    class Counted:
        def __init__(self, rng):
            self.rng, self.draws = rng, 0

        def random(self, *args):
            self.draws += 1
            return self.rng.random(*args)

    made = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(Counted(real(*a))) or made[-1])
    assert tail_bound_check(model, samples=300, seed=2) == want
    assert len(made) == 1 and made[0].draws > 50


def test_tail_check_matches_the_reference_on_a_false_floor(monkeypatch):
    # with a claimed floor above some accept probabilities the per-step miss
    # count runs, and finds the misses the reference finds
    model = build_model(8, 1.5, "uniform:0.2", seed=3)
    monkeypatch.setattr(coupling_mod, "flip_rate_floor", lambda model: 0.9)
    for samples, seed in ((200, 0), (500, 4)):
        got = tail_bound_check(model, samples=samples, seed=seed)
        assert not got["domination_ok"]
        assert got == _tail_reference(model, samples, seed)


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
    rep = hitting_lower_bound_check(model, land, [order.minima[0]], [order.minima[1]])
    assert rep["worst_margin"] >= -1e-12


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
    corner = point_index(land)[tuple(int(b.size) for b in land.blocks)]
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


def _code(spins):
    """The configuration code of a spin row: bit i set where site i is +1."""
    return int((spins > 0) @ (1 << np.arange(spins.size)))


def _one_step_law(model, land, sig, var, gate):
    """Exact law of the codes (sigma', varsigma') after one kernel step, by enumeration."""
    n = model.n_spins
    delta = gate_probability(model, land)
    blk = land.site_block
    accept = model.flip_probs * n
    code_sig, code_var = _code(sig), _code(var)
    law = {}

    def add(p, i, fs, j, fv):
        s, v = sig.copy(), var.copy()
        if fs:
            s[i] = -s[i]
        if fv:
            v[j] = -v[j]
        key = (_code(s), _code(v))
        law[key] = law.get(key, 0.0) + p / n

    for i in range(n):
        a = accept[code_sig, i]
        if gate is None:  # no gate left: independent Glauber steps
            for k in range(n):
                b = accept[code_var, k]
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
            b = accept[code_var, j]
            hi, lo = max(a, b), min(a, b)
            nu = np.array([1.0 - hi, hi])  # [hold, flip] of the driving side
            c = TwoPointCoupling(nu, [1.0 - lo, lo], delta)
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
    (out,) = _coupled_steps(
        model, land,
        [(np.full(R, _code(sig)), np.full(R, _code(var)), gates, _streams((5, len(case)), 2))],
        1,
    )
    seen = {}
    for key in zip(out["sigma"].tolist(), out["varsigma"].tolist()):
        seen[key] = seen.get(key, 0) + 1
    law = _one_step_law(model, land, sig, var, gate)
    assert set(seen) <= {k for k, p in law.items() if p > 0.0}
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    for key, p in law.items():
        assert abs(seen.get(key, 0) - R * p) <= 5.0 * math.sqrt(R * p * (1.0 - p)) + 1e-9


def test_kernel_batch_invariants(small_pair):
    # per-trajectory invariants, checked row by row on one batched call: no
    # sync violation, merged rows end equal, and with every gate forced to
    # pass the paths are merged at frak_t whenever B occurs
    model, land = small_pair
    s0, v0 = mismatched_pair_in_fiber(model, land, np.random.default_rng(5), 300)
    gates = np.random.default_rng(6).random((300, 8)) < gate_probability(model, land)
    (out,) = _coupled_steps(model, land, [(s0, v0, gates, _streams((7,), 2))], 150)
    assert (out["sync_violations"] == 0).all()
    merged = out["merge_time"] >= 0
    assert merged.any()
    assert (out["sigma"][merged] == out["varsigma"][merged]).all()

    M = 60
    forced = np.ones((300, M), dtype=bool)
    (out,) = _coupled_steps(model, land, [(s0, v0, forced, _streams((8,), 2))], 400)
    contained = _event_b(out, M)  # every gate passes
    assert contained.sum() > 50
    assert out["matched"][contained].all()


@pytest.mark.parametrize("block_steps", [None, 7])
def test_stacked_kernel_matches_per_group_calls(law_pair, monkeypatch, block_steps):
    # one call on three stacked groups returns, group by group, the bits of
    # one call per group: gate widths 4, 60 and 0 (``couple --M 0``), with
    # partner keys drawn in the first two (blocks of four sites, so a site
    # can have two candidate partners and the keys decide); a budget of 7
    # steps of all 75 rows gives each call its own blocking of T = 120, each
    # with a partial last block
    if block_steps:
        monkeypatch.setattr(coupling_mod, "STEP_BLOCK_BYTES", 56 * 75 * block_steps)
    model, land, _, _ = law_pair
    rng = np.random.default_rng(21)
    delta = gate_probability(model, land)
    groups = []
    for r, m, key in ((40, 4, 1), (25, 60, 2), (10, 0, 3)):
        s0, v0 = mismatched_pair_in_fiber(model, land, rng, r)
        gates = np.ones((r, m), dtype=bool) if key == 2 else rng.random((r, m)) < delta
        groups.append((s0, v0, gates, key))

    def run(gs):
        counts = ([], [])
        outs = _coupled_steps(
            model, land, [(s, v, g, _streams((31, key), 2)) for s, v, g, key in gs], 120,
            counts=counts,
        )
        return outs, counts

    stacked, stacked_counts = run(groups)
    singles = [run([g]) for g in groups]
    for out, ((single,), _) in zip(stacked, singles):
        assert out.keys() == single.keys()
        for name in out:
            assert out[name].dtype == single[name].dtype, name
            assert np.array_equal(out[name], single[name]), name
    for side in (0, 1):
        assert len(stacked_counts[side]) == 120
        for t, got in enumerate(stacked_counts[side]):
            want = np.concatenate([counts[side][t] for _, counts in singles])
            assert np.array_equal(got, want)
    assert (stacked[0]["gates_used"] > 0).any() and (stacked[1]["gates_used"] > 0).any()
    assert (stacked[2]["gates_used"] == 0).all()


def _chi_counts(model, land, runs, steps, seed):
    """The transition counts of ``marginal_chi_square``, from its own streams."""
    n = model.n_spins
    s0, v0 = mismatched_pair_in_fiber(model, land, np.random.default_rng((seed, 23)), runs)
    rng_gates, *rngs = _streams((seed, 7777), 3)
    gates = rng_gates.random((runs, n)) < gate_probability(model, land)
    counts = ([], [])
    _coupled_steps(model, land, [(s0, v0, gates, rngs)], steps, counts=counts)
    return counts


# sha256 of the (T, R) int64 count keys of each path, frozen before the
# counts were rebuilt after the kernel loop
COUNT_HASHES = {
    (6, 1.0, 300, 80, 13): (
        "c512b2d238149d4755356d773255b2a08bcc5c52427e5faab5ece0a21e809bed",
        "12edc79026cf1c58d4a5f9c5ee93dbbf8b832ae6d8b66bfe23171b0fdb0abc06",
    ),
    (8, 1.5, 150, 100, 2): (
        "3f43151ebbac04faa249a1cdb3b9f688e5a9252efba1bdbdd8da64cb87e0209d",
        "af58f6e933d734d696066eb036118e14b3a07a8763ca1fc4e0a170080c2b14c0",
    ),
    (10, 0.8, 120, 100, 5): (
        "54d5495ce87862d4469219f9d1dbfdd0b313bfe4c62ab6a69b925e8e51b039ae",
        "1af048ba827c34c9b022f324d47318373079a1c6295f29d951e97968d529d437",
    ),
    (8, 1.0, 50, 0, 1): (hashlib.sha256(b"").hexdigest(),) * 2,
}


@pytest.mark.parametrize("cell", sorted(COUNT_HASHES))
def test_chi_counts_keep_their_frozen_hashes(cell):
    n_spins, beta, runs, steps, seed = cell
    model = build_model(n_spins, beta, "uniform:0.2", seed=seed)
    counts = _chi_counts(model, coarse_grain(model, 2), runs, steps, seed)
    assert [len(side) for side in counts] == [steps, steps]
    got = tuple(
        hashlib.sha256(np.asarray(side, dtype=np.int64).tobytes()).hexdigest()
        for side in counts
    )
    assert got == COUNT_HASHES[cell]


def _chi_square_reference(model, land, runs, steps, seed, kinds=None):
    """(states tested, min p-value) per path, one ``chi2.sf`` call per state.

    ``kinds``, a set, collects the categories of every tested state: its
    number of categories, and "no rare", "pooled" or "dropped" (rare cells
    whose pooled expected count is below 1e-12).
    """
    from scipy.stats import chi2

    n = model.n_spins
    counts = _chi_counts(model, land, runs, steps, seed)
    found = []
    for parts in counts:
        keys = np.concatenate(parts)
        codes, state = np.unique(keys // (n + 1), return_inverse=True)
        slot = (keys % (n + 1) - 1) % (n + 1)
        outcomes = np.bincount(state * (n + 1) + slot, minlength=codes.size * (n + 1))
        outcomes = outcomes.reshape(codes.size, n + 1).astype(float)
        busy = outcomes.sum(axis=1) >= 50
        n_tested, min_p = 0, 1.0
        for obs, flip in zip(outcomes[busy], model.flip_probs[codes[busy]]):
            exp = int(obs.sum()) * np.concatenate([flip, [1.0 - flip.sum()]])
            keep = exp >= 5.0
            if keep.sum() < 2:
                continue
            obs_k = np.concatenate([obs[keep], [obs[~keep].sum()]])
            exp_k = np.concatenate([exp[keep], [exp[~keep].sum()]])
            if exp_k[-1] < 1e-12:
                obs_k, exp_k = obs_k[:-1], exp_k[:-1]
            if kinds is not None:
                rare = "no rare" if keep.all() else "pooled" if obs_k.size > keep.sum() else "dropped"
                kinds.update([rare, obs_k.size])
            stat = float(np.sum((obs_k - exp_k) ** 2 / exp_k))
            n_tested += 1
            min_p = min(min_p, float(chi2.sf(stat, obs_k.size - 1)))
        found.append((n_tested, min_p))
    return found


# beta = 0 holds with probability 1 - N (1/N), 0 or an ulp, so its rare cell
# is dropped; beta = 6 tests states with 3, 4 and 5 categories
CHI_CELLS = [(6, 1.0, 300, 13), (8, 1.5, 150, 2), (10, 0.8, 120, 5),
             (6, 0.0, 200, 1), (6, 0.3, 300, 4), (6, 6.0, 300, 4)]


@pytest.mark.parametrize("n_spins,beta,runs,seed", CHI_CELLS)
def test_chi_square_matches_the_per_state_reference(n_spins, beta, runs, seed):
    model = build_model(n_spins, beta, "uniform:0.2", seed=seed)
    land = coarse_grain(model, 2)
    got = marginal_chi_square(model, land, runs=runs, steps=100, seed=seed)
    want = _chi_square_reference(model, land, runs, 100, seed)
    assert [(r["states_tested"], r["min_pvalue"]) for r in got] == want  # bit for bit
    assert all(n_tested > 0 for n_tested, _ in want)


def test_chi_square_cells_cover_every_group_kind():
    # the grouped sums meet rows without a rare cell, rows whose pooled cell
    # is dropped, rows with a pooled cell, and several widths in one call
    for n_spins, beta, runs, seed in CHI_CELLS[-3:]:
        model = build_model(n_spins, beta, "uniform:0.2", seed=seed)
        kinds = set()
        _chi_square_reference(model, coarse_grain(model, 2), runs, 100, seed, kinds)
        if beta == 0.0:
            assert kinds == {"dropped", n_spins}
        if beta == 6.0:
            assert kinds >= {"pooled", 3, 4, 5}
        if beta == 0.3:
            assert kinds >= {"no rare", "pooled", "dropped"}


def test_monte_carlo_ops_build_no_micro_chain(monkeypatch):
    # the ops read the model's arrays; the 2^N-state chain is built on the
    # first read of ``model.chain`` (test_rfcw)
    built = []
    real = rfcw_mod.ReversibleChain
    monkeypatch.setattr(rfcw_mod, "ReversibleChain", lambda *a, **k: built.append(1) or real(*a, **k))
    model = build_model(8, 1.0, "uniform:0.2", seed=1)
    land = coarse_grain(model, 2)
    marginal_chi_square(model, land, runs=100, steps=50, seed=1)
    coupling_experiment(model, land, runs=100, seed=1, M=8, T=50, dynamics_runs=20)
    tail_bound_check(model, samples=100, seed=1)
    assert model.materialized and not built and "chain" not in vars(model)


def test_monte_carlo_leaves_scipy_stats_unimported():
    # the chi-square test and ``metastab couple`` need scipy.special only,
    # not the 0.3 s import of scipy.stats
    code = "\n".join([
        "import contextlib, io, sys",
        "from metastab import cli, coupling, rfcw",
        "model = rfcw.build_model(8, 1.0, 'uniform:0.2', seed=1)",
        "coupling.marginal_chi_square(model, rfcw.coarse_grain(model, 2), runs=50, steps=40, seed=1)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    rc = cli.main(['couple', '--N', '8', '--beta', '1.0', '--field', 'uniform:0.2',",
        "                   '--n', '2', '--runs', '200', '--dynamics-runs', '20', '--seed', '5'])",
        "print(rc, 'scipy.special' in sys.modules, 'scipy.stats' in sys.modules)",
    ])
    src = str(Path(metastab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "True", "False"]


def test_kernel_merged_at_zero(small_pair):
    model, land = small_pair
    sigma = np.array([17])
    (out,) = _coupled_steps(
        model, land, [(sigma, sigma.copy(), np.ones((1, 6), dtype=bool), _streams((2,), 2))], 30
    )
    assert out["merge_time"].tolist() == [0]
    assert np.array_equal(out["sigma"], out["varsigma"])


def test_run_coupling_rejects_meso_mismatch(small_pair):
    # all up against all down: different magnetizations, so no coupled run
    model, land = small_pair
    up, down = np.array([(1 << 6) - 1]), np.array([0])
    with pytest.raises(ValidationError, match="mesoscopically"):
        _coupled_steps(
            model, land, [(up, down, np.ones((1, 4), dtype=bool), _streams((3,), 2))], 10
        )


@pytest.mark.parametrize("sig0,var0", [
    ([-1], [0]),  # a negative code
    ([1 << 6], [1 << 6]),  # a code of 2^N
    ([[1, 1, -1, -1, 1, -1]], [[-1, 1, 1, -1, 1, -1]]),  # a spin row
    ([3, 5], [3]),  # codes of different lengths
])
def test_kernel_rejects_codes_out_of_range_or_shape(small_pair, sig0, var0):
    model, land = small_pair
    with pytest.raises(ValidationError, match="code"):
        _coupled_steps(
            model, land, [(sig0, var0, np.ones((1, 4), dtype=bool), _streams((4,), 2))], 10
        )


def test_mismatched_pairs_are_distinct_codes_of_the_richest_fiber(small_pair):
    model, land = small_pair
    s0, v0 = mismatched_pair_in_fiber(model, land, np.random.default_rng(3), 500)
    assert s0.shape == v0.shape == (500,) and s0.dtype == v0.dtype == np.int64
    assert (s0 != v0).all()
    rho = land.rho_of_config
    assert (rho[s0] == richest_fiber(land)).all() and (rho[v0] == richest_fiber(land)).all()


def test_kernel_rejects_meso_mismatch_and_failed_domination(small_pair):
    model, land = small_pair
    (s0,), _ = mismatched_pair_in_fiber(model, land, np.random.default_rng(1), 1)
    # move one up spin to another block: same magnetization, other point
    blk = land.site_block
    i = next(j for j in range(6) if s0 >> j & 1)
    k = next(j for j in range(6) if blk[j] != blk[i] and not s0 >> j & 1)
    moved = s0 ^ (1 << i) ^ (1 << k)
    with pytest.raises(ValidationError, match="mesoscopically"):
        _coupled_steps(
            model, land,
            [([s0], [moved], np.ones((1, 1), dtype=bool), _streams((1,), 2))],
            1,
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
