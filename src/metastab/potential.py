"""Equilibrium potentials and capacities.

The boundary value problem L h = 0 off A u B with h = 1_A on the boundary is
solved in the mu-symmetrized form: with the weighted graph Laplacian
Lap = deg - W (W the edge conductances), the interior block of Lap is
symmetric positive definite and the system reads
Lap[int, int] h_int = W[int, A] 1.

``_solve_potentials`` sets h to 0 or 1 on each dead end, a component of the
interior next to one set alone, and solves the rest by ``_spd_solver``,
which picks a path by the size m of the rest:

* m <= DENSE_SOLVE_LIMIT: dense ``np.linalg.solve``;
* larger: ``sym_factor``, a sparse LU in SuperLU's symmetric mode
  (diagonal pivots), which needs no pivoting since the block is an SPD
  M-matrix.  Its fill depends on the graph, not on m; memory is bounded
  where the chain is made (``rfcw``'s limits).

``sym_factor`` is the package's one SuperLU factorization; the oracle's
grounded factor and inertia count use it too.  It orders the block by the
chain's elimination order (RFCW's cube order) or else by minimum degree on
A^T + A.  The chain memoises one entry, the last interior's component
labels and the solver of its solved part, so (A, B) and (B, A) reuse both.
Above DENSE_SOLVE_LIMIT that is one SuperLU factorization; at or below it
the entry holds the dense block, which ``np.linalg.solve`` factors again.
``equilibrium_potential`` solves h_{A,B} and h_{B,A} together and takes e
on A from h_{B,A}: at low temperature h_{A,B} is 1 up to tiny terms next to
A, and e computed from it as (Lap h) / mu keeps only the digits of those
terms.  Whatever the path, it still checks the harmonicity residual, the
[0, 1] range and the agreement of sum mu e with the Dirichlet energy of
h_{A,B} where h <= 1/2 and 1 - h_{B,A} above before it returns.  A block
that LAPACK or SuperLU finds exactly singular raises
``SolverNotConverged``.  ``mean_exit_time_bound`` takes one more solve from
the memoised solver and bounds max_x E_x[tau] by its residual.

Subset scans (the measure-capacity constant, the capacitary integral and
the exact metastability ratio) need up to 2^20 capacities of small pairs and
take them from one batched kernel, ``_scan_capacities``, on a dense
``capacity_scan_context`` of at most SCAN_CONTEXT_LIMIT states:

* pairs are grouped by (|A|, |interior|), and each group gathers its
  interior blocks into one stack for one ``np.linalg.solve`` call, at most
  SCAN_BATCH_BYTES of gathered blocks at a time;
* the exact scans (the measure-capacity constant, the metastability ratio)
  go through ``_bounded_scan`` up to EXACT_ENUM_LIMIT free states, the one
  limit of exhaustive enumeration (callers read it at call time).  Capacity
  is monotone in A, so f singleton solves bound every subset's objective
  through its mass and max_{x in A} cap({x}, B), computed over the bit
  patterns 2^16 at a time; the mass is widened and the bound raised by
  SCAN_MARGIN to cover rounding.  Subsets are solved SCAN_BLOCK at a time,
  largest bound first, until no bound left reaches the best value, and come
  back in bit order.  Memory is two 2^16-pattern tables plus the bounds
  that pass the best singleton.  A subset ruled out is never solved and
  cannot raise;
* every step repeats the arithmetic of one pair: gesv per block, gemm for
  the right-hand sides, gemv for the flux of h_{B,A}, a contiguous sum on
  A, and masses summed like nu[mask].sum().  The capacities therefore have
  the bits of the pair solved alone (the kernel's k = 1 call), and ties
  resolve to the first subset in bit order;
* a singular block (the scans solve their dead ends), or a capacity that
  is not positive and finite, raises ``SolverNotConverged`` before any
  caller divides by it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .chains import (
    SolverNotConverged,
    ValidationError,
    _row_sums,
    subset_mask,
)

# largest block solved by dense LAPACK.  Probe: np.linalg.solve on the
# interior Laplacian block of a random reversible chain, with two
# right-hand sides, gave the same bits under OPENBLAS_NUM_THREADS=1 and =2
# at m = 32 .. 96 and different bits at m = 112, 128, 160 and 256 (2-vCPU
# x86-64, OpenBLAS), so below the limit no report depends on the thread
# count.  Larger blocks take SuperLU, single-threaded and no slower from
# m ~ 150
DENSE_SOLVE_LIMIT = 96
RESIDUAL_TOL = 1e-10
OVERSHOOT_TOL = 1e-9
CAP_AGREE_RTOL = 1e-8
EXACT_ENUM_LIMIT = 20
SCAN_BATCH_BYTES = 1 << 23
SCAN_BLOCK = 256
SCAN_MARGIN = 1e-6
# states of a ``capacity_scan_context`` (16 n^2 bytes): ``metastab orlicz`` with 5
# free states of the CI's double well took 0.53, 1.22 and 3.09 s and 130, 326 and
# 1,100 MB at 2,048, 4,096 and 8,192 states (one BLAS thread, 2-vCPU VM)
SCAN_CONTEXT_LIMIT = 8192
EPS = np.finfo(float).eps
# relative rounding allowance of max w~ / q in ``mean_exit_time_bound``: the
# quotient, the division by mu and the subtraction in q, and a reciprocal
# taken of the bound each round by at most eps / 2
MEAN_TIME_ROUNDING = 4 * EPS


class OverlappingSets(ValidationError):
    pass


class EmptySet(ValidationError):
    pass


@dataclass
class EquilibriumSolution:
    """Solution bundle for the pair (A, B).

    ``potential`` is h_{A,B} (1 on A, 0 on B), ``equilibrium_measure`` holds
    e_{A,B}(x) = -(L h)(x) on A, ``capacity`` is sum_A mu e, and ``last_exit``
    is the normalized distribution mu e / cap on A.  ``capacity_from_energy``
    stores the independent evaluation through the Dirichlet form.
    """

    potential: np.ndarray
    equilibrium_measure: np.ndarray
    capacity: float
    capacity_from_energy: float
    last_exit: np.ndarray
    set_a: np.ndarray
    set_b: np.ndarray


def equilibrium_potential(chain, A, B):
    """Solve the equilibrium-potential boundary value problem for (A, B)."""
    a = subset_mask(chain, A)
    b = subset_mask(chain, B)
    _check_pair(a, b)
    pots = _solve_potentials(chain, [a, b])

    mu = chain.stationary
    lap = chain.laplacian @ pots
    interior = ~(a | b)
    if interior.any():
        resid = np.max(np.abs(lap[interior] / mu[interior, None]))
        if resid > RESIDUAL_TOL:
            raise SolverNotConverged(f"harmonicity residual {resid:.3e}")
    lo, hi = pots.min(), pots.max()
    if lo < -OVERSHOOT_TOL or hi > 1.0 + OVERSHOOT_TOL:
        raise SolverNotConverged(f"potential overshoot: range [{lo}, {hi}]")
    h = np.clip(pots[:, 0], 0.0, 1.0)

    # e(x) = sum_y p(x, y) h_{B,A}(y) on A: a sum of nonnegative terms,
    # where (Lap h)(x) would subtract the neighbours' h ~ 1 from deg(x)
    # and keep only the digits of h that differ from 1
    e = np.zeros_like(h)
    e[a] = -lap[a, 1] / mu[a]
    if np.any(e[a] < -1e-12):
        raise SolverNotConverged("negative escape probability on A")
    e[a] = np.maximum(e[a], 0.0)

    cap = float(np.dot(mu[a], e[a]))
    # the energy of the two-sided g: an edge with both ends where h > 1/2
    # takes its difference from h_{B,A}, which keeps the digits of 1 - h
    h_ba = np.clip(pots[:, 1], 0.0, 1.0)
    i, j, up = chain._edge_i, chain._edge_j, h > 0.5
    g = np.where(up, 1.0 - h_ba, h)
    d = np.where(up[i] & up[j], h_ba[j] - h_ba[i], g[i] - g[j])
    cap_energy = float(np.dot(chain._edge_w, d * d))
    if abs(cap - cap_energy) > CAP_AGREE_RTOL * max(cap, cap_energy, 1e-300):
        raise SolverNotConverged(
            f"capacity mismatch: sum mu e = {cap!r}, energy = {cap_energy!r}"
        )
    if cap <= 0.0:
        raise SolverNotConverged("vanishing capacity on an irreducible chain")

    nu = np.zeros_like(h)
    nu[a] = mu[a] * e[a] / cap  # entries kept however small: nu << mu_A
    return EquilibriumSolution(
        potential=h,
        equilibrium_measure=e,
        capacity=cap,
        capacity_from_energy=cap_energy,
        last_exit=nu,
        set_a=a,
        set_b=b,
    )


def mean_exit_time_bound(chain, free):
    """Upper bound on max_x E_x[tau], tau the hitting time of the states
    outside the mask ``free``, or inf.

    w = E_.[tau] solves Lap[free, free] w = mu on ``free`` (Lap = mu (I - P)
    in discrete time, -mu L in continuous time), and w = 0 outside.  One
    call of the interior solver gives some w~.  Its residual
    q = min_x (Lap w~)_x / mu_x takes each row as a sum of edge terms
    c_xy (w~_x - w~_y), lowered by (k + 2) eps times the sum of their
    magnitudes, a bound on the rounding of a sum of k terms.  Since
    Lap[free, free]^{-1} >= 0 entrywise, Lap w~ >= q mu gives w~ >= q w, so
    max w <= max w~ / q.  That quotient is raised by MEAN_TIME_ROUNDING, which
    covers its own rounding, that of q, and that of its reciprocal.  A q that
    is not positive (a w~ too far from w) gives inf.
    """
    mu, n = chain.stationary, chain.n_states
    i, j = chain._edge_i, chain._edge_j
    w = np.zeros(n)
    with np.errstate(all="ignore"):  # a non-finite w~ gives q = nan
        w[free] = _spd_solver(chain, free)(mu[free])
        t = chain._edge_w * (w[i] - w[j])
        row = np.bincount(i, t, n) - np.bincount(j, t, n)
        size = np.abs(t)
        size = np.bincount(i, size, n) + np.bincount(j, size, n)
        terms = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
        q = ((row - (terms + 2) * EPS * size) / mu)[free].min()
        if not q > 0.0:
            return np.inf
        return w[free].max() / q * (1.0 + MEAN_TIME_ROUNDING)


# -- internals -----------------------------------------------------------------


def _check_pair(a, b):
    if not a.any() or not b.any():
        raise EmptySet("A and B must be nonempty")
    if np.any(a & b):
        raise OverlappingSets("A and B must be disjoint")


def _solve_potentials(chain, masks):
    """Columns h_i = h_{M_i, U - M_i} for disjoint masks M_i with union U.

    The rows of a dead end next to M_i alone are e_i, never solved.  One
    call of the interior solver takes all right-hand sides on the rest.  The
    columns sum to 1, but each is solved for itself: near M_i, where h_i is
    close to 1, the other columns hold 1 - h_i to full relative precision.
    """
    w = chain.conductance
    h = np.zeros((chain.n_states, len(masks)))
    rhs = np.zeros_like(h)
    union = np.zeros(chain.n_states, dtype=bool)
    for i, m in enumerate(masks):
        h[m, i] = 1.0
        union |= m
        # W[:, M_i] 1 with the bits of csr.sum(axis=1), not of a product
        sel = m[w.indices]
        rhs[:, i] = _row_sums(w.data[sel], np.append(0, np.cumsum(sel))[w.indptr])
    interior = ~union
    if interior.any():
        # the interior's component labels, memoised beside the solver; the
        # Laplacian block has W's off-diagonal pattern and is symmetric, so
        # its strong components need no transpose
        key, memo = interior.tobytes(), chain._interior_solver or (None,) * 4
        block = None
        if memo[2] != key:
            block = chain.laplacian[interior][:, interior]
            label = connected_components(block, connection="strong")[1]
            memo = chain._interior_solver = memo[:2] + (key, label)
        label = memo[3]
        # rhs[:, i] = W[int, M_i] 1 is positive exactly next to M_i
        near = np.zeros((label.max() + 1, len(masks)), dtype=bool)
        np.logical_or.at(near, label, rhs[interior] > 0.0)
        dead = (near.sum(axis=1) == 1)[label]
        h[interior] = near[label] & dead[:, None]
        if dead.any():
            block = None  # the solved part is smaller than the sliced block
        interior[interior] = ~dead
        if interior.any():
            h[interior] = _spd_solver(chain, interior, block)(rhs[interior])
    return h


def _spd_solver(chain, free, mat=None):
    """Solve callable for Lap[free, free] x = rhs, memoised on the chain.

    ``rhs`` is a vector or a matrix of right-hand-side columns.  ``mat`` is
    Lap[free, free] if the caller has sliced it already, else None.

    The memo is one tuple (key, solve, interior key, labels) keyed by mask
    bytes, the labels ``_solve_potentials``'s.  It is read once and replaced
    whole, so a thread sharing the chain sees the old or the new entry.
    """
    key = free.tobytes()
    memo = chain._interior_solver or (None,) * 4
    if memo[0] == key:
        return memo[1]
    if mat is None:
        mat = chain.laplacian[free][:, free]
    m = mat.shape[0]
    if m <= DENSE_SOLVE_LIMIT:
        dense = mat.toarray()

        def solve(rhs):
            try:
                return np.linalg.solve(dense, rhs)
            except np.linalg.LinAlgError as exc:
                raise SolverNotConverged(f"singular interior block: {exc}") from None

    else:
        _, solve = sym_factor(mat, chain._fill_order, free)
    chain._interior_solver = (key, solve) + memo[2:]
    return solve


def sym_factor(mat, order=None, free=None):
    """SuperLU factor of a symmetric sparse matrix in symmetric mode, each
    pivot taken on the diagonal while it is nonzero.  Returns (lu, solve).

    ``mat`` is the block on the states ``free`` (all if None) of a matrix
    whose elimination order is ``order``.  With no order SuperLU orders by
    minimum degree on A^T + A and ``solve`` is ``lu.solve``.  Otherwise
    ``lu`` factors ``mat`` permuted to ``order`` restricted to the block,
    with no ordering of its own, and ``solve`` undoes the permutation.

    An exactly singular factor raises SolverNotConverged.
    """
    if order is not None:
        if free is not None:
            order = (np.cumsum(free) - 1)[order[free[order]]]
        mat = mat[order][:, order]
    try:
        lu = spla.splu(
            mat.tocsc(),
            permc_spec="MMD_AT_PLUS_A" if order is None else "NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SolverNotConverged(f"singular interior block: {exc}") from None
    if order is None:
        return lu, lu.solve

    def solve(rhs):
        out = np.empty(rhs.shape)
        out[order] = lu.solve(rhs[order])
        return out

    return lu, solve


def capacity_scan_context(chain):
    """Dense precomputation for repeated capacity queries on small chains."""
    if chain.n_states > SCAN_CONTEXT_LIMIT:
        raise ValidationError(f"{chain.n_states} states exceed the dense scan context "
                              f"limit {SCAN_CONTEXT_LIMIT}")
    lap = chain.laplacian.toarray()
    w = chain.conductance.toarray()
    return lap, w, chain.stationary


def _scan_capacities(ctx, a, b):
    """cap(A_i, B_i) and h_{A_i,B_i} for stacked disjoint masks of shape (k, n).

    ``b`` may also be one mask shared by every row.  The module docstring
    says how rows are grouped and batched, and why each capacity has the
    bits of its pair solved alone.
    """
    lap, w, _ = ctx
    k, n = a.shape
    interior = ~(a | b)
    key = a.sum(axis=1) * (n + 1) + interior.sum(axis=1)
    caps = np.empty(k)
    pots = np.empty((k, n))
    for group in np.unique(key):
        s_a, m = divmod(int(group), n + 1)
        rows = np.flatnonzero(key == group)
        # a row gathers m (n + m) floats of W and Lap, plus its h and flux
        step = max(1, SCAN_BATCH_BYTES // (8 * (m + 1) * (m + n)))
        for lo in range(0, rows.size, step):
            r = rows[lo : lo + step]
            g = r.size
            at = np.arange(g)[:, None]
            h = np.zeros((g, n, 2))
            h[:, :, 0] = a[r]
            h[:, :, 1] = ~(a[r] | interior[r])  # B
            if m:
                i_idx = np.nonzero(interior[r])[1].reshape(g, m)
                # columns W[int, A] 1 and W[int, B] 1, one gemm per row
                rhs = w[i_idx] @ h
                blocks = lap[i_idx[:, :, None], i_idx[:, None, :]]
                try:
                    h[at, i_idx] = np.linalg.solve(blocks, rhs)
                except np.linalg.LinAlgError as exc:
                    raise SolverNotConverged(
                        f"singular interior block in a capacity scan: {exc}"
                    ) from None
            # a non-finite solve gives a capacity that raises below, unwarned
            with np.errstate(invalid="ignore", over="ignore"):
                flux = np.matvec(w, h[:, :, 1])
                caps[r] = flux[at, np.nonzero(a[r])[1].reshape(g, s_a)].sum(axis=1)
            pots[r] = h[:, :, 0]
    bad = ~(np.isfinite(caps) & (caps > 0.0))
    if bad.any():
        raise SolverNotConverged(
            f"capacity {float(caps[np.argmax(bad)])!r} of a scanned set is not "
            "positive and finite"
        )
    return caps, pots


def _bounded_scan(ctx, free, b, weight, score):
    """Masks, masses and capacities, in bit order, of every subset A of
    ``free`` that may maximize score(weight[A], cap(A, B)).

    ``score`` maps arrays of masses and capacities to the objective; it must
    be nondecreasing in the mass and nonincreasing in the capacity.  Subsets
    of zero mass are skipped, and masses have the bits of
    weight[mask].sum().  The module docstring gives the bound and the order.
    """
    n, f = ctx[0].shape[0], free.size
    w = weight[free]
    shifts = np.arange(f)
    found = []

    def solve(bits):
        # solve the subsets ``bits`` and return their best score
        masks = np.zeros((bits.size, n), dtype=bool)
        masks[:, free] = (bits[:, None] >> shifts) & 1
        mass = _masses(weight, masks)
        caps, _ = _scan_capacities(ctx, masks, b)
        found.append((bits, masks, mass, caps))
        return score(mass, caps).max(initial=-np.inf)

    def patterns(v, op):
        # op-fold of v over the set bits of every pattern 0 .. 2^len(v) - 1
        out = np.zeros(1 << v.size)
        for j, x in enumerate(v):
            out[1 << j : 2 << j] = op(out[: 1 << j], x)
        return out

    best = solve(1 << np.flatnonzero(w > 0.0))
    single = np.zeros(f)
    single[w > 0.0] = found[0][3]
    # bound the patterns in slices: low bits from one table, high bits added
    k = min(f, 16)
    lo_mass, lo_cap = patterns(w[:k], np.add), patterns(single[:k], np.maximum)
    hi_mass, hi_cap = patterns(w[k:], np.add), patterns(single[k:], np.maximum)
    keep, bound = [], []
    for h in range(hi_mass.size):
        mass = lo_mass + hi_mass[h]
        pos = np.flatnonzero(mass > 0.0)
        ub = score(mass[pos] * (1.0 + SCAN_MARGIN), np.maximum(lo_cap, hi_cap[h])[pos])
        ub += SCAN_MARGIN * np.abs(ub)
        bits = (h << k) + pos
        # singletons are solved already
        live = (ub >= best) & ((bits & (bits - 1)) != 0)
        keep.append(bits[live])
        bound.append(ub[live])
    keep, bound = np.concatenate(keep), np.concatenate(bound)
    while True:
        live = bound >= best
        keep, bound = keep[live], bound[live]
        if keep.size == 0:
            break
        head = np.argpartition(-bound, min(SCAN_BLOCK, keep.size) - 1)[:SCAN_BLOCK]
        best = max(best, solve(keep[head]))
        bound[head] = -np.inf
    bits, masks, mass, caps = (np.concatenate(x) for x in zip(*found))
    order = np.argsort(bits)
    return masks[order], mass[order], caps[order]


def _masses(nu, masks):
    """nu[mask].sum() for every row of ``masks``, bit for bit.

    Rows are grouped by size, so each sum is over one contiguous gather in
    index order, the summation order of nu[mask].sum().
    """
    sizes = masks.sum(axis=1)
    out = np.empty(masks.shape[0])
    for s in np.unique(sizes):
        rows = np.flatnonzero(sizes == s)
        cols = np.nonzero(masks[rows])[1].reshape(rows.size, s)
        out[rows] = nu[cols].sum(axis=1)
    return out
