"""Mesoscopic-synchronous coupling of two Glauber paths.

Two copies started in the same fiber are driven so that their block
magnetizations agree until a pre-tossed Bernoulli gate fails: same-spin sites
update synchronously, mismatched sites update through the optimal two-point
coupling applied to the site pair (i, j) with j a mismatched partner carrying
sigma_i's value in the same block.  Gates are an i.i.d. family drawn up
front, independent of everything else, so P[all gates pass] is exactly
delta^M with delta = exp(-4 beta eps(n)).

All Monte Carlo runs R replicas in lockstep.  ``_coupled_steps`` advances R
coupled pairs at once on (R, N) int8 spins, with per-row magnetizations,
mesoscopic point indices, gate counters and phase masks; every step reads
flip probabilities from one table of ``flip_probability`` (``_accept``).
``run_coupling`` is its R = 1 call; ``coupling_experiment`` makes one call
for the dynamics replicas and one for the conditional probe, and
``marginal_chi_square`` one call whose transition counts are keyed by an
integer code of the pre-state.  ``tail_bound_check`` and ``_mc_hitting``
step all live single-path replicas together (``_glauber_step``).

Streams.  The gate array of ``coupling_experiment`` keeps its stream, so
``p_A_empirical`` is unchanged for a seed; every other purpose of a call
(start pairs, kernel steps, partner keys, tail-check steps) has one stream
of its own, shared by all replicas, drawn in blocks.  The law of each
replica is the one of the step-by-step construction, but the draws differ
from the former per-replica streams: for a given seed the ``couple`` fields
``merged_fraction``, ``mean_attempts``, ``containment_checked``,
``censored`` and ``tail_bound.empirical`` can change; all others are
unchanged.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .chains import InequalityViolation, MetastabError, ValidationError
from .potential import equilibrium_potential
from .rfcw import hitting_value_function

LOG_FLOAT_MAX = math.log(sys.float_info.max)


class BoundOutOfRange(MetastabError):
    """A certified bound too large to represent as a float."""


@dataclass
class TwoPointCoupling:
    """Optimal coupling of two laws on {-1, +1} with a pass-through gate.

    With probability delta the gate V is 1 and X' copies X; otherwise X' is
    drawn from the maximal coupling of nu with the residual
    (nu' - delta nu)/(1 - delta).  Marginals are exact and the disagreement
    probability equals the total variation distance.
    """

    nu: np.ndarray        # [P(-1), P(+1)]
    nu_prime: np.ndarray
    delta: float
    residual: np.ndarray = field(init=False)
    joint: np.ndarray = field(init=False)
    disagreement: float = field(init=False)

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        nup = np.asarray(self.nu_prime, dtype=float)
        if not 0.0 < self.delta < 1.0:
            raise ValidationError("delta must lie in (0, 1)")
        if np.any(self.delta * nu > nup + 1e-15):
            raise ValidationError("domination delta nu <= nu' fails")
        rho = (nup - self.delta * nu) / (1.0 - self.delta)
        rho = np.maximum(rho, 0.0)
        diag = np.minimum(nu, rho)
        maximal = np.diag(diag)
        excess = nu - diag
        deficit = rho - diag
        for a in range(2):
            for b in range(2):
                if a != b and excess[a] > 0.0 and deficit[b] > 0.0:
                    maximal[a, b] = min(excess[a], deficit[b])
        self.residual = rho
        self.joint = self.delta * np.diag(nu) + (1.0 - self.delta) * maximal
        self.disagreement = float(
            self.joint[0, 1] + self.joint[1, 0]
        )

    def marginals(self):
        return self.joint.sum(axis=1), self.joint.sum(axis=0)


def optimal_two_point_coupling(nu, nu_prime, delta):
    """Construct the gated optimal coupling of two spin-valued laws."""
    return TwoPointCoupling(np.asarray(nu, float), np.asarray(nu_prime, float), delta)


@dataclass
class CouplingTrace:
    gates: np.ndarray
    gates_used: int
    xi: int
    first_flip: np.ndarray
    frak_t: int | None
    attempts: int
    event_A: bool
    event_B: bool
    merged: bool
    merge_time: int | None
    matched_at_frak_t: bool | None
    tau_B_sigma: int | None
    sync_violations: int
    partner_failures: int
    censored: bool
    sigma_final: np.ndarray | None = None
    varsigma_final: np.ndarray | None = None


def gate_probability(model, land):
    """delta = exp(-4 beta eps(n)), the gate success probability."""
    return math.exp(-4.0 * model.beta * land.eps_n)


def _flip_table(model):
    """``flip_probability`` at every (site, spin, magnetization).

    Entry [i, s + 1, m + N] is the accept probability of flipping site i
    carrying spin s at magnetization m, evaluated by the model's own scalar
    formula, so lookups reproduce it bit for bit (numpy's vectorized ``exp``
    differs from ``math.exp`` in the last bit on some arguments).  Entries
    of a magnetization without the parity of N stay NaN.
    """
    n = model.n_spins
    table = np.full((n, 3, 2 * n + 1), np.nan)
    for s in (-1, 1):
        sigma = np.full(n, s, dtype=np.int8)
        for i in range(n):
            for m in range(-n, n + 1, 2):
                table[i, s + 1, m + n] = model.flip_probability(sigma, m, i)
    return table


def _accept(table, s, m, sites):
    """Flip probability of ``sites`` carrying spins ``s`` at magnetizations ``m``."""
    return table[sites, s + 1, m + (table.shape[2] >> 1)]


def _streams(key, k):
    """``k`` independent generators spawned from the integer tuple ``key``."""
    kids = np.random.SeedSequence(entropy=key).spawn(k)
    return [np.random.default_rng(s) for s in kids]


def _coupled_steps(model, land, sig0, var0, T, gates, rngs, B_points=None, counts=None):
    """Advance R coupled pairs of Glauber paths T steps in lockstep.

    ``sig0``/``var0`` are (R, N) starting configurations, each pair inside one
    fiber; ``gates`` is the (R, M) pre-tossed gate array; ``rngs`` is the pair
    (step stream, partner stream).  Every step draws one (R, 4) uniform block
    from the step stream: the sigma site and its accept uniform, then either
    the coupling's second uniform or the varsigma site and accept uniform of
    the post-gate phase.  Rows that need a mismatched partner draw uniform
    keys over the sites from the partner stream and take the argmax over the
    eligible ones.  Block sums are carried as the index of their mesoscopic
    point.  ``counts``, a pair of lists, collects one array of
    ``pre-state code * (N + 1) + flipped site + 1`` (0 = hold) per step and
    path.  Returns a dict of per-row arrays; -1 stands for a time that did
    not occur.
    """
    sig = np.array(sig0, dtype=np.int8)
    var = np.array(var0, dtype=np.int8)
    R, n = sig.shape
    if n != model.n_spins or var.shape != (R, n):
        raise ValidationError("configurations must have one spin per site")
    gates = np.asarray(gates, dtype=bool)
    M = gates.shape[1]
    w = land.point_weights()
    pt_sig = (sig > 0) @ w
    pt_var = (var > 0) @ w
    if np.any(pt_sig != pt_var):
        raise ValidationError("starting configurations differ mesoscopically")
    table = _flip_table(model)
    delta = gate_probability(model, land)
    blk = land.site_block()
    rng, rng_partner = rngs
    in_b = None
    if B_points is not None:
        in_b = np.zeros(land.n_points, dtype=bool)
        in_b[np.asarray(B_points, dtype=int)] = True
    if counts is not None:
        bits = np.int64(1) << np.arange(n, dtype=np.int64)
        code_sig = (sig > 0) @ bits
        code_var = (var > 0) @ bits

    rows = np.arange(R)
    m_sig = sig.sum(axis=1, dtype=np.int64)
    m_var = var.sum(axis=1, dtype=np.int64)
    first_flip = np.full((R, n), -1, dtype=np.int64)
    n_first = np.zeros(R, dtype=np.int64)
    attempts = np.zeros(R, dtype=np.int64)
    gates_used = np.zeros(R, dtype=np.int64)
    gated = np.full(R, M > 0)
    xi = np.zeros(R, dtype=bool)
    frak_t = np.full(R, -1, dtype=np.int64)
    matched = np.zeros(R, dtype=bool)
    tau_b = np.full(R, -1, dtype=np.int64)
    # merged pairs step synchronously and stay merged, so counting the steps
    # that begin merged gives the merge time
    n_merged = np.zeros(R, dtype=np.int64)
    merged_at_start = (sig == var).all(axis=1)
    sync = np.zeros(R, dtype=np.int64)

    for t in range(T):
        merged = (sig == var).all(axis=1)
        n_merged += merged
        # gated or merged rows step together; the rest run independently
        coupled = merged | gated
        u = rng.random((R, 4))
        i = (u[:, 0] * n).astype(np.intp)
        si = sig[rows, i]
        vi = var[rows, i]
        a = _accept(table, si, m_sig, i)
        fs = u[:, 1] < a
        j = np.where(coupled, i, (u[:, 2] * n).astype(np.intp))
        vj = var[rows, j]
        fv = np.where(coupled, fs, u[:, 3] < _accept(table, vj, m_var, j))
        pair = (coupled & (vi != si)).nonzero()[0]
        if pair.size:
            # partner: a mismatched site of the same block carrying sigma_i
            sp, vp = sig[pair], var[pair]
            elig = (blk == blk[i[pair], None]) & (vp != sp) & (vp == si[pair, None])
            if not elig.any(axis=1).all():
                raise MetastabError("empty partner set despite mesoscopic agreement")
            keys = rng_partner.random((pair.size, n))
            j[pair] = jp = np.where(elig, keys, -1.0).argmax(axis=1)
            vj[pair] = vjp = vp[np.arange(pair.size), jp]
            gate = gates[pair, gates_used[pair]]
            fs[pair], fv[pair] = _gated_draw(
                a[pair],
                _accept(table, vjp, m_var[pair], jp),
                delta,
                gate,
                u[pair, 1],
                u[pair, 2],
            )
            gates_used[pair] += 1
            xi[pair] |= ~gate
            gated[pair] = ~xi[pair] & (gates_used[pair] < M)
        if counts is not None:
            counts[0].append(code_sig * (n + 1) + np.where(fs, i + 1, 0))
            counts[1].append(code_var * (n + 1) + np.where(fv, j + 1, 0))
            code_sig ^= np.where(fs, bits[i], 0)
            code_var ^= np.where(fv, bits[j], 0)

        fresh = first_flip[rows, i] < 0
        attempts += fresh
        new = (fresh & fs).nonzero()[0]
        if new.size:
            first_flip[new, i[new]] = t
            n_first[new] += 1
            done = new[n_first[new] == n]
            frak_t[done] = t
            matched[done] = merged[done]

        sig[rows, i] = np.where(fs, -si, si)
        var[rows, j] = np.where(fv, -vj, vj)
        d = si * fs
        m_sig -= 2 * d
        pt_sig -= d * w[i]
        d = vj * fv
        m_var -= 2 * d
        pt_var -= d * w[j]

        # synchrony is the invariant of the gated phase: a coupled step whose
        # gate passed (or a merged step) must keep the block sums equal
        sync += coupled & ~xi & (pt_sig != pt_var)
        if in_b is not None:
            tau_b[(tau_b < 0) & in_b[pt_sig]] = t + 1

    return {
        "first_flip": first_flip,
        "frak_t": frak_t,
        "attempts": attempts,
        "matched": matched,
        "merge_time": np.where(n_merged > 0, T - n_merged, np.where(merged_at_start, 0, -1)),
        "tau_B": tau_b,
        "xi": xi,
        "gates_used": gates_used,
        "sync_violations": sync,
        "sigma": sig,
        "varsigma": var,
    }


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
    """Rows where sigma flipped every site within M attempts, by tau_B if B was hit."""
    frak, tau = out["frak_t"], out["tau_B"]
    return (frak >= 0) & (out["attempts"] <= M) & ((tau < 0) | (frak <= tau))


def run_coupling(model, land, sigma0, varsigma0, T, M, seed=None, gates=None, B_points=None):
    """Execute one coupled trajectory of the two Glauber paths.

    Both starting configurations must share their mesoscopic value.  Set
    memberships for the mismatched-partner draw are read before any update of
    the step.  After the gated phase ends (xi = 1 or the gate budget is
    spent) the two paths evolve from independent uniforms; once the paths
    have merged they are updated synchronously so they stay identical.  This
    is the R = 1 call of the lockstep kernel.
    """
    n = model.n_spins
    sig = np.asarray(sigma0, dtype=np.int8)
    var = np.asarray(varsigma0, dtype=np.int8)
    if sig.shape != (n,) or var.shape != (n,):
        raise ValidationError("configurations must have one spin per site")
    if seed is None:
        raise ValidationError("run_coupling needs a seed")
    # one stream per purpose: gates, kernel steps, partner keys
    rng_gates, *rngs = _streams((int(seed),), 3)
    if gates is None:
        gates = rng_gates.random(M) < gate_probability(model, land)
    else:
        gates = np.asarray(gates, dtype=bool)
        if gates.shape != (M,):
            raise ValidationError("gate array must have length M")
    out = _coupled_steps(
        model, land, sig[None], var[None], T, gates[None], rngs, B_points=B_points
    )
    frak_t = int(out["frak_t"][0])
    merge_time = int(out["merge_time"][0])
    tau_b = int(out["tau_B"][0])
    return CouplingTrace(
        gates=gates,
        gates_used=int(out["gates_used"][0]),
        xi=int(out["xi"][0]),
        first_flip=out["first_flip"][0],
        frak_t=frak_t if frak_t >= 0 else None,
        attempts=int(out["attempts"][0]),
        event_A=bool(gates.all()),
        event_B=bool(_event_b(out, M)[0]),
        merged=merge_time >= 0,
        merge_time=merge_time if merge_time >= 0 else None,
        matched_at_frak_t=bool(out["matched"][0]) if frak_t >= 0 else None,
        tau_B_sigma=tau_b if tau_b >= 0 else None,
        sync_violations=int(out["sync_violations"][0]),
        partner_failures=0,
        censored=frak_t < 0,
        sigma_final=out["sigma"][0],
        varsigma_final=out["varsigma"][0],
    )


def mismatched_pair_in_fiber(model, land, point_index, rng, size=None):
    """Two distinct configurations sharing the given mesoscopic point.

    With ``size`` given, returns two (size, N) arrays of independent pairs.
    """
    fiber = np.flatnonzero(land.fiber_mask([point_index]))
    if fiber.size < 2:
        raise ValidationError("fiber has a single configuration")
    k = 1 if size is None else size
    a = rng.integers(fiber.size, size=k)
    b = rng.integers(fiber.size - 1, size=k)
    b += b >= a
    sig, var = model.spins[fiber[a]], model.spins[fiber[b]]
    return (sig[0], var[0]) if size is None else (sig, var)


def richest_fiber(land):
    """Mesoscopic point whose fiber holds the most configurations."""
    counts = np.bincount(land.rho_of_config, minlength=land.n_points)
    return int(np.argmax(counts))


def coupling_experiment(
    model,
    land,
    runs,
    seed,
    M,
    T,
    start_point=None,
    B_points=None,
    dynamics_runs=None,
):
    """Replicated coupling runs with the gate-event statistic.

    Gate blocks are drawn for every replica (the event A depends on them
    alone, so its frequency is estimated across all ``runs``); full dynamics
    execute on the first ``dynamics_runs`` replicas and feed the synchrony,
    containment and partner-set statistics.
    """
    delta = gate_probability(model, land)
    root = np.random.SeedSequence(entropy=(int(seed), 9060))
    rng_gates = np.random.default_rng(root)
    gates = rng_gates.random((runs, M)) < delta
    p_a_emp = float(gates.all(axis=1).mean())
    p_a_theory = delta**M

    if dynamics_runs is None:
        dynamics_runs = min(runs, 2000)
    if start_point is None:
        start_point = richest_fiber(land)
    rng_pick = np.random.default_rng((seed, 17))

    def replicas(count, replica_gates, key):
        s0, v0 = mismatched_pair_in_fiber(model, land, start_point, rng_pick, size=count)
        rngs = _streams((int(seed), key), 2)
        out = _coupled_steps(model, land, s0, v0, T, replica_gates, rngs, B_points=B_points)
        contained = replica_gates.all(axis=1) & _event_b(out, replica_gates.shape[1])
        return out, int(contained.sum()), int((contained & ~out["matched"]).sum())

    dyn, checked, violations = replicas(dynamics_runs, gates[:dynamics_runs], 9061)
    # conditional probe: forcing every gate to pass samples the law given the
    # all-gates event exactly (the gates are independent of everything else),
    # so the merge containment can be observed at will
    probe_m = max(M, 10 * model.n_spins)
    probe_runs = min(dynamics_runs, 500)
    probe, probe_checked, probe_violations = replicas(
        probe_runs, np.ones((probe_runs, probe_m), dtype=bool), 9062
    )
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
        "sync_violations": int(dyn["sync_violations"].sum() + probe["sync_violations"].sum()),
        "containment_checked": checked + probe_checked,
        "containment_violations": violations + probe_violations,
        "merged_fraction": int((dyn["merge_time"] >= 0).sum()) / dynamics_runs,
        "censored": int((dyn["frak_t"] < 0).sum()),
        "mean_attempts": float(np.mean(dyn["attempts"])),
    }


def marginal_chi_square(model, land, runs, steps, seed, start_point=None, alpha=0.01):
    """Chi-square goodness of fit of both coupled marginals.

    Pools one-step transition counts over many replicas started from a
    mismatched pair, tests each sufficiently visited state against its exact
    Glauber row and Bonferroni-corrects over the tested states.
    """
    from scipy.stats import chi2

    if start_point is None:
        start_point = richest_fiber(land)
    rng_pick = np.random.default_rng((seed, 23))
    n = model.n_spins
    s0, v0 = mismatched_pair_in_fiber(model, land, start_point, rng_pick, size=runs)
    rng_gates, *rngs = _streams((int(seed), 7777), 3)
    gates = rng_gates.random((runs, n)) < gate_probability(model, land)
    counts = ([], [])
    _coupled_steps(model, land, s0, v0, steps, gates, rngs, counts=counts)
    results = []
    for side, parts in enumerate(counts):
        keys = np.concatenate(parts or [np.zeros(0, dtype=np.int64)])
        codes, state = np.unique(keys // (n + 1), return_inverse=True)
        # outcome slot: flipped site i in slot i, a hold in the last slot
        slot = (keys % (n + 1) - 1) % (n + 1)
        outcomes = np.bincount(state * (n + 1) + slot, minlength=codes.size * (n + 1))
        outcomes = outcomes.reshape(codes.size, n + 1).astype(float)
        busy = outcomes.sum(axis=1) >= 50
        n_tested = 0
        min_p = 1.0
        for code, obs in zip(codes[busy], outcomes[busy]):
            visits = int(obs.sum())
            sigma = np.where((code >> np.arange(n)) & 1, 1, -1).astype(np.int8)
            m = int(sigma.sum())
            flip = np.array(
                [
                    model.flip_probability(sigma, m, i) / model.n_spins
                    for i in range(model.n_spins)
                ]
            )
            # categories: flip at site i, or hold; rare cells pooled so every
            # expected count is at least 5
            probs = np.concatenate([flip, [1.0 - flip.sum()]])
            exp = visits * probs
            keep = exp >= 5.0
            if keep.sum() < 2:
                continue
            obs_k = np.concatenate([obs[keep], [obs[~keep].sum()]])
            exp_k = np.concatenate([exp[keep], [exp[~keep].sum()]])
            if exp_k[-1] < 1e-12:
                obs_k, exp_k = obs_k[:-1], exp_k[:-1]
            stat = float(np.sum((obs_k - exp_k) ** 2 / exp_k))
            pval = float(chi2.sf(stat, obs_k.size - 1))
            n_tested += 1
            min_p = min(min_p, pval)
        threshold = alpha / max(n_tested, 1)
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


def _glauber_step(table, spins, m, u):
    """One Glauber update of every row in place, from uniforms u[:, :2].

    Returns the proposed sites, the flip mask and the pre-update spins at
    the sites.
    """
    i = (u[:, 0] * spins.shape[1]).astype(np.intp)
    s = spins[np.arange(i.size), i]
    flip = u[:, 1] < _accept(table, s, m, i)
    r = flip.nonzero()[0]
    spins[r, i[r]] = -s[r]
    m -= 2 * s * flip
    return i, flip, s


def tail_bound_check(model, s=None, samples=2000, seed=0, start=None):
    """Monte-Carlo check of P[N_attempts > s N] <= exp(-I_alpha(s-1) N).

    Each replica also simulates the negative-binomial comparison process on
    shared uniforms and asserts the pathwise domination
    N_attempts <= R + N on every run.  All replicas step together until
    each has flipped every site once; the comparison trials still missing
    after that are one negative-binomial draw per replica.
    """
    n = model.n_spins
    alpha = flip_rate_floor(model)
    if s is None:
        if alpha >= 1.0:
            s = 2.0
        else:
            s = 2.0 / alpha
    rate = negative_binomial_rate(alpha, s) if alpha < 1.0 else math.inf
    bound = math.exp(-rate * n) if math.isfinite(rate) else 0.0
    rng = np.random.default_rng((seed, 37))
    table = _flip_table(model)
    if start is None:
        start = np.ones(n, dtype=np.int8)
    sig = np.tile(np.asarray(start, dtype=np.int8), (samples, 1))
    m = sig.sum(axis=1, dtype=np.int64)
    pending = np.ones((samples, n), dtype=bool)
    live = np.arange(samples)
    attempts = np.zeros(samples, dtype=np.int64)
    succ = np.zeros(samples, dtype=np.int64)
    while live.size:
        u = rng.random((live.size, 2))
        i, flip, _ = _glauber_step(table, sig, m, u)
        rows = np.arange(live.size)
        first = pending[rows, i]
        attempts[live] += first
        succ[live] += first & (u[:, 1] < alpha)
        new = first & flip
        pending[rows[new], i[new]] = False
        keep = pending.any(axis=1)
        if not keep.all():
            live, sig, m, pending = live[keep], sig[keep], m[keep], pending[keep]
    need = np.maximum(n - succ, 0)
    trials = attempts + need
    more = need > 0
    trials[more] += rng.negative_binomial(need[more], alpha)
    dominated = bool(np.all(attempts <= trials))
    emp = int(np.sum(attempts > s * n)) / samples
    sigma = math.sqrt(max(bound * (1.0 - bound), emp * (1.0 - emp), 1e-12) / samples)
    ok = emp <= bound + 3.0 * sigma
    return {
        "alpha": alpha,
        "s": s,
        "rate": rate,
        "bound": bound,
        "empirical": emp,
        "samples": samples,
        "sigma": sigma,
        "within_3sigma": ok,
        "domination_ok": dominated,
    }


def _mc_hitting(model, land, start, a_points, b_points, runs, seed, cap=10_000_000):
    """Fraction of ``runs`` Glauber paths from ``start`` that reach B before A.

    All paths step together; a path leaves the batch when its mesoscopic
    point enters B (a hit) or A, and paths still running after ``cap`` steps
    count as misses.
    """
    w = land.point_weights()
    in_a = np.zeros(land.n_points, dtype=bool)
    in_a[np.asarray(a_points, dtype=int)] = True
    in_b = np.zeros(land.n_points, dtype=bool)
    in_b[np.asarray(b_points, dtype=int)] = True
    table = _flip_table(model)
    rng = np.random.default_rng(seed)
    sig = np.tile(np.asarray(start, dtype=np.int8), (runs, 1))
    m = sig.sum(axis=1, dtype=np.int64)
    pt = (sig > 0) @ w
    hits = 0
    for _ in range(cap):
        if not sig.shape[0]:
            break
        i, flip, s = _glauber_step(table, sig, m, rng.random((sig.shape[0], 2)))
        pt -= s * w[i] * flip
        hit = in_b[pt]
        hits += int(hit.sum())
        keep = ~(hit | in_a[pt])
        if not keep.all():
            sig, m, pt = sig[keep], m[keep], pt[keep]
    return hits / runs


def hitting_lower_bound_check(model, land, a_points, b_points, s=None, runs=0, seed=0):
    """Fiberwise check of the coupling hitting-probability comparison.

    For every mesoscopic fiber the exact values P_x[tau_B < tau_A] satisfy
    min >= exp(-4 beta eps s N) (max - exp(-I N)); the margin is the worst
    slack.  Optional Monte Carlo corroboration on the worst fiber.
    """
    n = model.n_spins
    alpha = flip_rate_floor(model)
    if s is None:
        s = 2.0 / alpha if alpha < 1.0 else 2.0
    if alpha < 1.0 and s <= 1.0 / alpha:
        raise ValidationError("s must exceed 1/alpha")
    rate = negative_binomial_rate(alpha, s) if alpha < 1.0 else math.inf
    a = land.fiber_mask(a_points)
    b = land.fiber_mask(b_points)
    vals = hitting_value_function(model.chain, a, b)
    factor = math.exp(-4.0 * model.beta * land.eps_n * s * n)
    correction = math.exp(-rate * n) if math.isfinite(rate) else 0.0
    worst_margin = math.inf
    worst_fiber = None
    spread = 0.0
    for k in range(land.n_points):
        fib = land.rho_of_config == k
        v = vals[fib]
        margin = float(v.min() - factor * (v.max() - correction))
        spread = max(spread, float(v.max() - v.min()))
        if margin < worst_margin:
            worst_margin = margin
            worst_fiber = k
    report = {
        "factor": factor,
        "correction": correction,
        "worst_margin": worst_margin,
        "worst_fiber": worst_fiber,
        "max_fiber_spread": spread,
        "s": s,
    }
    if worst_margin < -1e-10:
        raise InequalityViolation(
            f"hitting-probability comparison violated: margin {worst_margin!r}"
        )
    if runs > 0:
        fib = np.flatnonzero(land.rho_of_config == worst_fiber)
        v = vals[fib]
        hi_state = model.spins[fib[int(np.argmax(v))]]
        lo_state = model.spins[fib[int(np.argmin(v))]]
        emp_hi = _mc_hitting(model, land, hi_state, a_points, b_points, runs, (seed, 41))
        emp_lo = _mc_hitting(model, land, lo_state, a_points, b_points, runs, (seed, 43))
        sig = math.sqrt(0.25 / runs)
        report["mc"] = {
            "emp_max_state": emp_hi,
            "emp_min_state": emp_lo,
            "margin": emp_lo - factor * (emp_hi - correction),
            "three_sigma": 3.0 * sig * (1.0 + factor),
        }
    return report


def eta_from_coupling(model, land, i_point, j_point, s=None):
    """Exact last-exit regularity versus the coupling-derived bound.

    The exact side is Var_{mu_A}[nu_{A,B}/mu_A] cap / mu[A] assembled from
    the equilibrium solution; the bound side is the proof's chain
    (e^{4 beta eps s N} - 1) + (mu[A]/cap) e^{(4 beta eps s - I) N}, scaled
    the same way.  Returns both with the slack, asserting exact <= bound;
    raises ``BoundOutOfRange`` when the bound exceeds the float range.
    """
    n = model.n_spins
    alpha = flip_rate_floor(model)
    if s is None:
        s = 2.0 / alpha if alpha < 1.0 else 2.0
    rate = negative_binomial_rate(alpha, s) if alpha < 1.0 else math.inf
    a = land.fiber_mask([i_point])
    b = land.fiber_mask([j_point])
    sol = equilibrium_potential(model.chain, a, b)
    mass = model.chain.mass(a)
    dens = sol.equilibrium_measure[a] * mass / sol.capacity
    w = model.chain.stationary[a] / mass
    var_exact = float(np.dot(w, (dens - 1.0) ** 2))
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
