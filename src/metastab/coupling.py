"""Mesoscopic-synchronous coupling of two Glauber paths.

Two copies started in the same fiber are driven so that their block
magnetizations agree until a pre-tossed Bernoulli gate fails: same-spin sites
update synchronously, mismatched sites update through the optimal two-point
coupling applied to the site pair (i, j) with j a mismatched partner carrying
sigma_i's value in the same block.  Gates are an i.i.d. family drawn up
front, independent of everything else, so P[all gates pass] is exactly
delta^M with delta = exp(-4 beta eps(n)).

All Monte Carlo runs R replicas in lockstep, each path one int64 code per
row: the model's configuration index, bit i set where site i is +1.
``_coupled_steps`` advances R coupled pairs at once on their codes, gate
counters, phase masks and a bitmask of the sites sigma has not flipped;
every step reads its accept probabilities from the materialized chain's
own flip probabilities, ``RFCWModel.flip_probs`` times N at ``[code * N +
site]``.  It is the only trajectory path, and each op calls it once: it
takes a list of row groups, each with its own gate array and streams, and
steps all of their rows together.
``coupling_experiment`` stacks the dynamics replicas and the conditional
probe into one call; ``marginal_chi_square`` makes a one-group call whose
transition counts are keyed by an integer code of the pre-state, bins them
into one (2^N, N + 1) table, and makes one chi-square tail call
(``scipy.special.chdtrc``) for all tested states of a path.
``tail_bound_check`` steps all live single-path replicas together.
``hitting_lower_bound_check`` compares the exact hitting probabilities
fiber by fiber and simulates nothing.

Streams.  The gate array of ``coupling_experiment`` has a stream of its
own; every other purpose of a call (start pairs, tail-check steps) has one
stream, shared by all replicas.  Each row group of the kernel keeps its own
step stream and partner stream, and draws from them exactly what a call on
that group alone would draw; step uniforms are drawn in blocks of steps, up
to ``STEP_BLOCK_BYTES``, so memory does not grow with T.  The tail check
draws its uniforms ahead from its stream in the same way.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .chains import InequalityViolation, MetastabError, ValidationError
from .metastable import exit_variance
from .potential import equilibrium_potential
from .rfcw import hitting_value_function

LOG_FLOAT_MAX = math.log(sys.float_info.max)
# bound on the step uniforms and site indices the kernel draws ahead
STEP_BLOCK_BYTES = 1 << 21


class BoundOutOfRange(MetastabError):
    """A certified bound too large to represent as a float."""


def gate_probability(model, land):
    """delta = exp(-4 beta eps(n)), the gate success probability."""
    return math.exp(-4.0 * model.beta * land.eps_n)


def _accept_table(model):
    """N P(sigma, sigma^i) of the micro chain, flat at [code(sigma) * N + i].

    Bit i of a code is set where site i carries spin +1, as in the model's
    configuration order.
    """
    if not model.materialized:
        raise ValidationError("the Monte Carlo needs a materialized model")
    return model.flip_probs.ravel() * model.n_spins


def _streams(key, k):
    """``k`` independent generators spawned from the integer tuple ``key``."""
    kids = np.random.SeedSequence(entropy=key).spawn(k)
    return [np.random.default_rng(s) for s in kids]


def _coupled_steps(model, land, groups, T, counts=None):
    """Advance R coupled pairs of Glauber paths T steps in lockstep.

    ``groups`` lists row groups ``(sig0, var0, gates, rngs)``: ``sig0``/
    ``var0`` are the (R_g,) starting codes, each pair inside one fiber;
    ``gates`` is the (R_g, M_g) pre-tossed gate array, so a row's gate
    budget is its group's width; ``rngs`` is the group's pair (step stream,
    partner stream).  All rows step together, and each group draws from its
    own streams exactly what a call on that group alone would draw.  Every
    step takes one (R_g, 4) uniform block from the step stream: the sigma
    site and its accept uniform, then either the coupling's second uniform
    or the varsigma site and accept uniform of the post-gate phase; these
    blocks are drawn many steps at a time, up to ``STEP_BLOCK_BYTES``.  Rows
    that need a mismatched partner draw uniform keys over the sites from
    their group's partner stream, in row order, and take the argmax over the
    eligible ones.  A path is its code alone: site i's spin is bit i, its
    point is ``land.rho_of_config[code]`` and its accept probability at site
    i is ``[code * N + i]`` of ``_accept_table``.  ``counts``, a pair of
    lists, collects one array of ``pre-state code * (N + 1) + flipped site +
    1`` (0 = hold) per step and path, over all rows in group order; the loop
    records only the flips and their sites, and the codes are rebuilt after
    it.  Returns one dict of per-row arrays per group, with the final codes
    in ``sigma``/``varsigma``; -1 stands for a time that did not occur.
    """
    n = model.n_spins
    accept = _accept_table(model)
    sig, var, gate_arrays = [], [], []
    for sig0, var0, g, _ in groups:
        s = np.array(sig0, dtype=np.int64)
        v = np.array(var0, dtype=np.int64)
        # a negative code or one of 2^N or more keeps bits at or above N
        if s.ndim != 1 or v.shape != s.shape or np.any(np.concatenate([s, v]) >> n):
            raise ValidationError("configurations must be one code in [0, 2^N) per row")
        sig.append(s)
        var.append(v)
        gate_arrays.append(np.asarray(g, dtype=bool))
    sizes = [s.shape[0] for s in sig]
    ends = np.cumsum(sizes)
    code_sig = np.concatenate(sig)
    code_var = np.concatenate(var)
    R = code_sig.size
    widths = [g.shape[1] for g in gate_arrays]
    M = np.repeat(widths, sizes)
    gates = np.zeros((R, max(widths)), dtype=bool)
    for g, e in zip(gate_arrays, ends):
        gates[e - g.shape[0]:e, : g.shape[1]] = g
    rho = land.rho_of_config
    if np.any(rho[code_sig] != rho[code_var]):
        raise ValidationError("starting configurations differ mesoscopically")
    site_ids = np.arange(n, dtype=np.int64)
    bits = np.int64(1) << site_ids
    delta = gate_probability(model, land)
    blk = land.site_block
    steppers = [rng for *_, (rng, _) in groups]
    partners = [rng for *_, (_, rng) in groups]
    if counts is not None:
        starts = (code_sig.copy(), code_var.copy())
        # per step and row: did each path flip, and at which site
        flips = np.zeros((2, T, R), dtype=bool)
        sites = np.zeros((2, T, R), dtype=np.intp)

    todo = np.full(R, (1 << n) - 1, dtype=np.int64)  # sites sigma has not flipped
    attempts = np.zeros(R, dtype=np.int64)
    gates_used = np.zeros(R, dtype=np.int64)
    gated = M > 0
    xi = np.zeros(R, dtype=bool)
    frak_t = np.full(R, -1, dtype=np.int64)
    matched = np.zeros(R, dtype=bool)
    # merged pairs step synchronously and stay merged, so counting the steps
    # that begin merged gives the merge time
    n_merged = np.zeros(R, dtype=np.int64)
    merged_at_start = code_sig == code_var
    sync = np.zeros(R, dtype=np.int64)

    # a block of steps holds 4 uniforms and 3 site indices per row and step
    block = max(1, STEP_BLOCK_BYTES // (56 * max(R, 1)))
    for t0 in range(0, T, block):
        steps = min(block, T - t0)
        u_blk = np.concatenate(
            [rng.random((steps, r, 4)) for rng, r in zip(steppers, sizes)], axis=1
        )
        i_blk = (u_blk[:, :, 0] * n).astype(np.intp)
        j_blk = (u_blk[:, :, 2] * n).astype(np.intp)
        if counts is not None:
            sites[0, t0:t0 + steps] = i_blk
        for t in range(t0, t0 + steps):
            k = t - t0
            u, i = u_blk[k], i_blk[k]
            merged = code_sig == code_var
            n_merged += merged
            # gated or merged rows step together; the rest run independently
            coupled = merged | gated
            si = (code_sig >> i) & 1
            a = accept[code_sig * n + i]
            fs = u[:, 1] < a
            j = np.where(coupled, i, j_blk[k])
            # a coupled row copies sigma's flip: its entry read at the free
            # site is a valid probability that goes unused
            fv = np.where(coupled, fs, u[:, 3] < accept[code_var * n + j])
            pair = (coupled & (((code_var >> i) & 1) != si)).nonzero()[0]
            if pair.size:
                # partner: a mismatched site of the same block carrying sigma_i
                sp = (code_sig[pair, None] >> site_ids) & 1
                vp = (code_var[pair, None] >> site_ids) & 1
                elig = (blk == blk[i[pair], None]) & (vp != sp) & (vp == si[pair, None])
                if not elig.any(axis=1).all():
                    raise MetastabError("empty partner set despite mesoscopic agreement")
                # each group's keys come from its own stream, in row order (a
                # group without such rows draws nothing)
                cuts = np.searchsorted(pair, ends)
                keys = np.concatenate([
                    rng.random((hi - lo, n))
                    for rng, lo, hi in zip(partners, [0, *cuts[:-1]], cuts)
                ])
                j[pair] = jp = np.where(elig, keys, -1.0).argmax(axis=1)
                gate = gates[pair, gates_used[pair]]
                fs[pair], fv[pair] = _gated_draw(
                    a[pair],
                    accept[code_var[pair] * n + jp],
                    delta,
                    gate,
                    u[pair, 1],
                    u[pair, 2],
                )
                gates_used[pair] += 1
                xi[pair] |= ~gate
                gated[pair] = ~xi[pair] & (gates_used[pair] < M[pair])
            if counts is not None:
                flips[0, t], flips[1, t], sites[1, t] = fs, fv, j

            fresh = ((todo >> i) & 1).astype(bool)
            attempts += fresh
            new = (fresh & fs).nonzero()[0]
            if new.size:
                todo[new] ^= bits[i[new]]
                done = new[todo[new] == 0]
                frak_t[done] = t
                matched[done] = merged[done]

            np.bitwise_xor(code_sig, bits[i], out=code_sig, where=fs)
            np.bitwise_xor(code_var, bits[j], out=code_var, where=fv)

            # synchrony is the invariant of the gated phase: a coupled step
            # whose gate passed (or a merged step) must keep the block sums equal
            sync += coupled & ~xi & (rho[code_sig] != rho[code_var])

    if counts is not None:
        for side in (0, 1):
            f, j = flips[side], sites[side]
            # the code before step t: the start code XOR every flip before t
            code = np.bitwise_xor.accumulate(np.where(f, bits[j], 0), axis=0) ^ starts[side]
            code = np.concatenate([starts[side][None], code])[:T]
            counts[side].extend(code * (n + 1) + np.where(f, j + 1, 0))

    out = {
        "frak_t": frak_t,
        "attempts": attempts,
        "matched": matched,
        "merge_time": np.where(n_merged > 0, T - n_merged, np.where(merged_at_start, 0, -1)),
        "gates_used": gates_used,
        "sync_violations": sync,
        "sigma": code_sig,
        "varsigma": code_var,
    }
    return [{k: v[e - r:e] for k, v in out.items()} for r, e in zip(sizes, ends)]


def _gated_draw(a, b, delta, gate, u1, u2):
    """One gated coupling step per row, in flip-event coordinates.

    ``a``/``b`` are the flip probabilities of sigma and varsigma; the side
    with the larger one drives: it flips when u1 falls below its probability
    and the follower copies it if the gate passes, otherwise draws from the
    maximal coupling with its residual law (b - delta a)/(1 - delta), using
    u2.  Returns (sigma flips, varsigma flips); raises when the domination
    delta (a, 1 - a) <= (b, 1 - b) fails on a row whose gate fails.
    """
    drive = a >= b
    hi = np.where(drive, a, b)
    lo = np.where(drive, b, a)
    x = u1 < hi
    y = x.copy()
    f = (~gate).nonzero()[0]
    if f.size:
        h, x_f = hi[f], x[f]
        rf = (lo[f] - delta * h) / (1.0 - delta)
        rk = ((1.0 - lo[f]) - delta * (1.0 - h)) / (1.0 - delta)
        if np.any(rf < -1e-12) or np.any(rk < -1e-12):
            raise MetastabError("domination failed inside the coupling step")
        rf = np.maximum(rf, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            p_same = np.where(
                x_f,
                np.where(h > 0.0, np.minimum(h, rf) / h, 1.0),
                np.where(h < 1.0, np.minimum(1.0 - h, 1.0 - rf) / (1.0 - h), 1.0),
            )
        y[f] = np.where(u2[f] < p_same, x_f, ~x_f)
    return np.where(drive, x, y), np.where(drive, y, x)


def _event_b(out, M):
    """Rows where sigma flipped every site within M attempts."""
    return (out["frak_t"] >= 0) & (out["attempts"] <= M)


def mismatched_pair_in_fiber(model, land, rng, size):
    """Codes of ``size`` independent pairs of distinct configurations.

    Returns two (size,) int64 arrays of configuration indices; both codes of
    a pair lie in the fiber of ``richest_fiber(land)``.
    """
    fiber = np.flatnonzero(land.fiber_mask([richest_fiber(land)]))
    if fiber.size < 2:
        raise ValidationError("fiber has a single configuration")
    a = rng.integers(fiber.size, size=size)
    b = rng.integers(fiber.size - 1, size=size)
    b += b >= a
    return fiber[a], fiber[b]


def richest_fiber(land):
    """Mesoscopic point whose fiber holds the most configurations."""
    counts = np.bincount(land.rho_of_config, minlength=land.n_points)
    return int(np.argmax(counts))


def coupling_experiment(model, land, runs, seed, M, T=None, dynamics_runs=None):
    """Replicated coupling runs with the gate-event statistic.

    Gate blocks are drawn for every replica (the event A depends on them
    alone, so its frequency is estimated across all ``runs``); full dynamics
    execute for T steps (50 N when None) on the first ``dynamics_runs``
    replicas, started in the richest fiber, and feed the synchrony,
    containment and partner-set statistics.
    """
    if T is None:
        T = 50 * model.n_spins
    delta = gate_probability(model, land)
    root = np.random.SeedSequence(entropy=(int(seed), 9060))
    rng_gates = np.random.default_rng(root)
    gates = rng_gates.random((runs, M)) < delta
    p_a_emp = float(gates.all(axis=1).mean())
    p_a_theory = delta**M

    if dynamics_runs is None:
        dynamics_runs = min(runs, 2000)
    rng_pick = np.random.default_rng((seed, 17))

    def group(count, replica_gates, key):
        s0, v0 = mismatched_pair_in_fiber(model, land, rng_pick, count)
        return s0, v0, replica_gates, _streams((int(seed), key), 2)

    # conditional probe: forcing every gate to pass samples the law given the
    # all-gates event exactly (the gates are independent of everything else),
    # so the merge containment can be observed at will
    probe_m = max(M, 10 * model.n_spins)
    probe_runs = min(dynamics_runs, 500)
    groups = [
        group(dynamics_runs, gates[:dynamics_runs], 9061),
        group(probe_runs, np.ones((probe_runs, probe_m), dtype=bool), 9062),
    ]
    outs = _coupled_steps(model, land, groups, T)
    checked = violations = sync = 0
    for out, (*_, replica_gates, _) in zip(outs, groups):
        contained = replica_gates.all(axis=1) & _event_b(out, replica_gates.shape[1])
        checked += int(contained.sum())
        violations += int((contained & ~out["matched"]).sum())
        sync += int(out["sync_violations"].sum())
    dyn = outs[0]
    sigma_pa = math.sqrt(max(p_a_theory * (1.0 - p_a_theory), 1e-12) / runs)
    return {
        "runs": runs,
        "dynamics_runs": dynamics_runs,
        "delta": delta,
        "M": M,
        "p_A_empirical": p_a_emp,
        "p_A_theory": p_a_theory,
        "p_A_sigma": sigma_pa,
        "p_A_within_3sigma": abs(p_a_emp - p_a_theory) <= 3.0 * sigma_pa,
        "sync_violations": sync,
        "containment_checked": checked,
        "containment_violations": violations,
        "merged_fraction": int((dyn["merge_time"] >= 0).sum()) / dynamics_runs,
        "censored": int((dyn["frak_t"] < 0).sum()),
        "mean_attempts": float(np.mean(dyn["attempts"])),
    }


def marginal_chi_square(model, land, runs, steps, seed):
    """Chi-square goodness of fit of both coupled marginals.

    Pools one-step transition counts over many replicas started from a
    mismatched pair in the richest fiber, tests each sufficiently visited
    state against its exact Glauber row and Bonferroni-corrects the level
    0.01 over the tested states.
    """
    from scipy.special import chdtrc  # the chi-square survival function

    rng_pick = np.random.default_rng((seed, 23))
    n = model.n_spins
    s0, v0 = mismatched_pair_in_fiber(model, land, rng_pick, runs)
    rng_gates, *rngs = _streams((int(seed), 7777), 3)
    gates = rng_gates.random((runs, n)) < gate_probability(model, land)
    counts = ([], [])
    _coupled_steps(model, land, [(s0, v0, gates, rngs)], steps, counts=counts)
    results = []
    for side, parts in enumerate(counts):
        keys = np.concatenate(parts or [np.zeros(0, dtype=np.int64)])
        # one row per pre-state code (N <= MATERIALIZE_LIMIT): a hold in
        # column 0, a flip at site i in column i + 1
        outcomes = np.bincount(keys, minlength=(n + 1) << n).reshape(-1, n + 1)
        codes = (outcomes.sum(axis=1) >= 50).nonzero()[0]
        # outcome slot: flipped site i in slot i, a hold in the last slot
        obs = np.roll(outcomes[codes], -1, axis=1).astype(float)
        stats, dofs = _pearson_statistics(obs, model.flip_probs[codes])
        n_tested = stats.size
        # one survival-function call for every tested state
        pvals = chdtrc(dofs, stats)
        min_p = float(pvals.min(initial=1.0))
        threshold = 0.01 / max(n_tested, 1)
        results.append(
            {
                "path": "sigma" if side == 0 else "varsigma",
                "states_tested": n_tested,
                "min_pvalue": min_p,
                "bonferroni_threshold": threshold,
                "pass": min_p >= threshold,
            }
        )
    return results


def _pearson_statistics(obs, flip):
    """Pearson statistics and degrees of freedom of the rows of ``obs``.

    Row r holds a state's observed outcome counts (flip at site i in slot i,
    a hold last) and ``flip[r]`` its exact flip probabilities.  The
    categories are those with expected count at least 5, plus the pooled
    rest when its expected count reaches 1e-12; a row with fewer than two
    kept categories is not tested.  Rows are grouped by their number of kept
    categories and pooled cell, and each statistic is a row-wise sum over a
    C-ordered array (numpy sums each row pairwise), so every value has the
    bits of ``np.sum`` over that state's categories in slot order.  Returns
    (statistics, degrees of freedom), in no particular row order.
    """
    visits = obs.sum(axis=1)  # integer counts: exact in any order
    exp = visits[:, None] * np.concatenate([flip, 1.0 - flip.sum(axis=1, keepdims=True)], axis=1)
    keep = exp >= 5.0
    n_kept = keep.sum(axis=1)
    # kept slots first, then the rare ones, each in slot order
    order = np.argsort(~keep, axis=1, kind="stable")
    obs = np.take_along_axis(obs, order, axis=1)
    exp = np.take_along_axis(exp, order, axis=1)
    stats, dofs = [np.zeros(0)], [np.zeros(0)]
    for k in np.unique(n_kept[n_kept >= 2]):
        rows = n_kept == k
        o, e = obs[rows], exp[rows]
        # pooled rare cells; integer counts again sum exactly
        o_rare = o[:, k:].sum(axis=1)
        e_rare = np.ascontiguousarray(e[:, k:]).sum(axis=1)
        o = np.concatenate([o[:, :k], o_rare[:, None]], axis=1)
        e = np.concatenate([e[:, :k], e_rare[:, None]], axis=1)
        pooled = e_rare >= 1e-12
        for width, sel in ((k, ~pooled), (k + 1, pooled)):
            o_k, e_k = o[sel, :width], e[sel, :width]
            stats.append(np.ascontiguousarray((o_k - e_k) ** 2 / e_k).sum(axis=1))
            dofs.append(np.full(o_k.shape[0], width - 1.0))
    return np.concatenate(stats), np.concatenate(dofs)


def negative_binomial_rate(alpha, s):
    """Large-deviation rate I_alpha(s - 1) of the negative Bernoulli family.

    (s-1) ln((s-1)/(s(1-alpha))) - ln(alpha s) for s > 1; nonnegative with
    its zero at the mean s = 1/alpha.  alpha = 1 returns +inf (degenerate).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValidationError("alpha must lie in (0, 1]")
    if s <= 1.0:
        raise ValidationError("s must exceed 1")
    if alpha == 1.0:
        return math.inf
    val = (s - 1.0) * math.log((s - 1.0) / (s * (1.0 - alpha))) - math.log(alpha * s)
    if val < -1e-12:
        raise MetastabError("negative rate value; arguments out of regime")
    return max(val, 0.0)


def flip_rate_floor(model):
    """Uniform lower bound exp(-2 beta (1 + h_inf)) on the flip probability."""
    return math.exp(-2.0 * model.beta * (1.0 + model.h_inf))


def _tail_rate(model):
    """alpha, s, I_alpha(s - 1) and the tail bound exp(-I_alpha(s - 1) N).

    alpha is the flip-rate floor and s = 2 / alpha (2 when alpha = 1, where
    the rate is +inf and the tail bound 0).
    """
    alpha = flip_rate_floor(model)
    s = 2.0 / alpha if alpha < 1.0 else 2.0
    rate = negative_binomial_rate(alpha, s) if alpha < 1.0 else math.inf
    tail = math.exp(-rate * model.n_spins) if math.isfinite(rate) else 0.0
    return alpha, s, rate, tail


def tail_bound_check(model, samples=2000, seed=0):
    """Monte-Carlo check of P[N_attempts > s N] <= exp(-I_alpha(s-1) N).

    Every replica starts from the all-up configuration and is carried as
    its configuration code, which indexes the materialized chain's accept
    probabilities as in ``_coupled_steps``, and a bitmask of the sites it
    has not flipped yet; a landscape-only model is a ValidationError.

    Each replica also runs the negative-binomial comparison process on
    shared uniforms: a first attempt at a site succeeds in the comparison
    when its accept uniform falls below alpha.  The pathwise domination
    N_attempts <= comparison trials holds when every comparison success also
    flips the site; ``domination_ok`` reports that no success failed to flip.
    All replicas step together until each has flipped every site once.
    """
    n = model.n_spins
    alpha, s, rate, bound = _tail_rate(model)
    rng = np.random.default_rng((seed, 37))
    accept = _accept_table(model)
    # a comparison success that does not flip needs an accept probability
    # below alpha; with none in the chain, no uniform can produce one
    can_miss = bool(accept.min() < alpha)
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    # configuration codes and bitmasks of the sites not yet flipped of the
    # live rows, in row order
    code = np.full(samples, (1 << n) - 1, dtype=np.int64)  # all up
    todo = code.copy()  # every site: the all-up code has every bit set
    att = np.zeros(samples, dtype=np.int64)
    live = np.arange(samples)
    attempts = np.zeros(samples, dtype=np.int64)
    missed = 0
    # each step takes a site and an accept uniform per live row, in row
    # order, from a buffer drawn ahead of the stream (a plain sequence of
    # doubles, so every value is the one a per-step draw would give); blocks
    # start at 64 steps of every row and double up to STEP_BLOCK_BYTES
    buf, pos, block = np.zeros(0), 0, 0
    while live.size:
        r = live.size
        if pos + r > buf.size // 2:
            block = min(max(2 * block, 128 * samples), STEP_BLOCK_BYTES // 8)
            buf = np.concatenate([buf[2 * pos:], rng.random(max(block, 2 * r))])
            site = (buf[0::2] * n).astype(np.intp)
            u1, pos = buf[1::2].copy(), 0
        k = slice(pos, pos + r)
        pos += r
        i = site[k]
        flip = u1[k] < accept[code * n + i]
        np.bitwise_xor(code, bits[i], out=code, where=flip)
        first = ((todo >> i) & 1).astype(bool)
        att += first
        if can_miss:
            missed += int(np.count_nonzero(first & (u1[k] < alpha) & ~flip))
        np.bitwise_xor(todo, bits[i], out=todo, where=first & flip)
        if np.count_nonzero(todo) < r:
            keep = todo > 0
            attempts[live] = att
            live, code, todo, att = live[keep], code[keep], todo[keep], att[keep]
    emp = int(np.sum(attempts > s * n)) / samples
    sigma = math.sqrt(max(bound * (1.0 - bound), emp * (1.0 - emp), 1e-12) / samples)
    ok = emp <= bound + 3.0 * sigma
    return {
        "alpha": alpha,
        "s": s,
        "rate": rate if math.isfinite(rate) else None,  # +inf at alpha = 1
        "bound": bound,
        "empirical": emp,
        "samples": samples,
        "sigma": sigma,
        "within_3sigma": ok,
        "domination_ok": missed == 0,
    }


def hitting_lower_bound_check(model, land, a_points, b_points):
    """Fiberwise check of the coupling hitting-probability comparison.

    For every mesoscopic fiber the exact values P_x[tau_B < tau_A] satisfy
    min >= exp(-4 beta eps s N) (max - exp(-I N)); the margin is the worst
    slack.
    """
    n = model.n_spins
    _, s, _, correction = _tail_rate(model)
    a = land.fiber_mask(a_points)
    b = land.fiber_mask(b_points)
    vals = hitting_value_function(model.chain, a, b)
    factor = math.exp(-4.0 * model.beta * land.eps_n * s * n)
    lo, hi = land.fiber_range(vals)
    margins = lo - factor * (hi - correction)
    worst_fiber = int(np.argmin(margins))
    worst_margin = float(margins[worst_fiber])
    if worst_margin < -1e-10:
        raise InequalityViolation(
            f"hitting-probability comparison violated: margin {worst_margin!r}"
        )
    return {
        "factor": factor,
        "correction": correction,
        "worst_margin": worst_margin,
        "worst_fiber": worst_fiber,
        "max_fiber_spread": float(np.max(hi - lo)),
        "s": s,
    }


def eta_from_coupling(model, land, i_point, j_point):
    """Exact last-exit regularity versus the coupling-derived bound.

    The exact side is Var_{mu_A}[nu_{A,B}/mu_A] cap / mu[A] assembled from
    the equilibrium solution; the bound side is the proof's chain
    (e^{4 beta eps s N} - 1) + (mu[A]/cap) e^{(4 beta eps s - I) N}, scaled
    the same way.  Returns both with the slack, asserting exact <= bound;
    raises ``BoundOutOfRange`` when the bound exceeds the float range.
    """
    n = model.n_spins
    _, s, rate, _ = _tail_rate(model)
    a = land.fiber_mask([i_point])
    b = land.fiber_mask([j_point])
    sol = equilibrium_potential(model.chain, a, b)
    mass = model.chain.mass(a)
    var_exact = exit_variance(model.chain, sol)
    grow = 4.0 * model.beta * land.eps_n * s * n
    # log(expm1(grow) + tail) decides whether the bound is a float at all
    log_head = grow + math.log(-math.expm1(-grow)) if grow > 0.0 else -math.inf
    log_tail = (
        math.log(mass / sol.capacity) + grow - rate * n
        if math.isfinite(rate)
        else -math.inf
    )
    log_bound = float(np.logaddexp(log_head, log_tail))
    if log_bound >= LOG_FLOAT_MAX:
        raise BoundOutOfRange(
            f"regularity bound exceeds the float range: log(var_bound) = {log_bound!r}"
        )
    tail = (
        (mass / sol.capacity) * math.exp(grow - rate * n)
        if math.isfinite(rate)
        else 0.0
    )
    var_bound = math.expm1(grow) + tail
    eta_exact = var_exact * sol.capacity / mass
    eta_bound = var_bound * sol.capacity / mass
    if var_exact > var_bound + 1e-10:
        raise InequalityViolation(
            f"regularity bound violated: {var_exact!r} > {var_bound!r}"
        )
    return {
        "var_exact": var_exact,
        "var_bound": var_bound,
        "eta_exact": eta_exact,
        "eta_bound": eta_bound,
        "slack": var_bound - var_exact,
        "s": s,
    }
