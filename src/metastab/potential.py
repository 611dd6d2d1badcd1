"""Equilibrium potentials, capacities and hitting times.

The boundary value problem L h = 0 off A u B with h = 1_A on the boundary is
solved in the mu-symmetrized form: with the weighted graph Laplacian
Lap = deg - W (W the edge conductances), the interior block of Lap is
symmetric positive definite and the system reads
Lap[int, int] h_int = W[int, A] 1.

Every interior solve (potentials, mean hitting times) goes through
``_spd_solver``, which picks a path by the interior size m:

* m <= DENSE_SOLVE_LIMIT: dense ``np.linalg.solve``;
* m <= DIRECT_SOLVE_LIMIT: sparse LU in SuperLU's symmetric mode (minimum
  degree ordering on A^T + A, diagonal pivots), which needs no pivoting
  since the block is an SPD M-matrix;
* larger: Jacobi-preconditioned conjugate gradients.

The chain memoises one entry, the solver of the interior it saw last, so the
pairs (A, B) and (B, A), and a capacity after a potential on the same pair,
reuse it.  Above DENSE_SOLVE_LIMIT that is one SuperLU factorization; at or
below it the entry holds the dense block, which ``np.linalg.solve`` factors
again on every call.  ``equilibrium_potential`` solves h_{A,B} and
h_{B,A} together and takes e on A from h_{B,A}: at low temperature h_{A,B}
is 1 up to tiny terms next to A, and e computed from it as (Lap h) / mu
keeps only the digits of those terms.  Whatever the path, it still checks
the harmonicity residual, the [0, 1] range and the agreement of sum mu e
with the Dirichlet energy before it returns.  A dense block that LAPACK
finds exactly singular raises ``SolverNotConverged``.

Subset scans (the measure-capacity constant, the capacitary integral, the
universal split constants and the exact metastability ratio) need up to
2^20 capacities of small pairs and take them from one batched kernel,
``_scan_capacities``, on a dense ``capacity_scan_context``:

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
  the bits of the pair solved alone, which ``capacity_dense`` (the kernel's
  k = 1 call) does, and ties resolve to the first subset in bit order;
* a singular block, or a capacity that is not positive and finite, raises
  ``SolverNotConverged`` before any caller divides by it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chains import (
    SolverNotConverged,
    ValidationError,
    _row_sums,
    dirichlet_form,
    subset_mask,
)

DENSE_SOLVE_LIMIT = 400
DIRECT_SOLVE_LIMIT = 10_000
RESIDUAL_TOL = 1e-10
OVERSHOOT_TOL = 1e-9
CAP_AGREE_RTOL = 1e-8
EXACT_ENUM_LIMIT = 20
SCAN_BATCH_BYTES = 1 << 23
SCAN_BLOCK = 256
SCAN_MARGIN = 1e-6


class OverlappingSets(ValidationError):
    pass


class EmptySet(ValidationError):
    pass


class DegenerateTarget(ValidationError):
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
    cap_energy = dirichlet_form(chain, h)
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


def capacity(chain, A, B):
    """Capacity of the pair (A, B)."""
    return equilibrium_potential(chain, A, B).capacity


def hitting_probability_from_equilibrium(chain, A, B):
    """P_{mu_A}[tau_B < tau_A] = cap(A, B) / mu[A]."""
    sol = equilibrium_potential(chain, A, B)
    return sol.capacity / chain.mass(sol.set_a)


def mean_hitting_time(chain, start, target):
    """Expected hitting time of ``target`` from the start distribution.

    Solves the absorbed system (I - P) w = 1 off the target (mu-symmetrized
    as Lap w = mu).  The start measure must vanish on the target; for
    start = nu_{A,B} and target = B this equals E_mu[h_{A,B}] / cap(A, B).
    A solve that is not entrywise positive and finite has lost its digits
    and raises SolverNotConverged.
    """
    t = subset_mask(chain, target)
    if not t.any():
        raise EmptySet("empty target set")
    if t.all():
        raise DegenerateTarget(
            "target equals the whole space; first-return times are out of scope"
        )
    start = np.asarray(start, dtype=float)
    if start.shape != (chain.n_states,):
        raise ValidationError("start measure has wrong length")
    if np.any(start < -1e-15):
        raise ValidationError("start measure has negative mass")
    total = start.sum()
    if total <= 0.0:
        raise ValidationError("start measure has no mass")
    start = start / total
    if start[t].sum() > 1e-15:
        raise ValidationError("start measure puts mass on the target set")

    free = ~t
    w = np.zeros(chain.n_states)
    w[free] = _spd_solver(chain, free)(chain.stationary[free])
    # Lap_ff is a nonsingular M-matrix and mu > 0, so w is positive and finite
    if not np.all((w[free] > 0.0) & (w[free] < np.inf)):
        worst = float(np.min(w[free]))
        raise SolverNotConverged(f"mean hitting time solve is not positive: {worst!r}")
    return float(np.dot(start, w))


def path_capacity_1d(weights):
    """Closed-form capacity and potential profile for a birth-death path.

    For the cycle-free generator with vertex weights mu(0..x-1) this returns
    cap({x, ...}, {0}) = (sum_z 1/mu(z))^{-1} together with the profile
    h(y) = sum_{z=y}^{x-1} mu(z)^{-1} / sum_{z=0}^{x-1} mu(z)^{-1},
    which is 1 at y = 0 and 0 at y = x.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("need a nonempty weight vector")
    if np.any(w <= 0.0):
        raise ValidationError("zero or negative weight in birth-death path")
    inv = 1.0 / w
    total = inv.sum()
    tail = np.concatenate([np.cumsum(inv[::-1])[::-1], [0.0]])
    return float(1.0 / total), tail / total


def birth_death_generator_chain(mu_weights):
    """Continuous-time birth-death generator of the Muckenhoupt criterion.

    Rates are p(y, y+1) = 1 and p(y, y-1) = mu(y-1)/mu(y) on {0, ..., n},
    reversible for mu.  ``mu_weights`` should already be normalized so that
    capacities computed on the chain match the closed forms directly.
    """
    mu = np.asarray(mu_weights, dtype=float)
    n = mu.size
    if n < 2:
        raise ValidationError("need at least two states")
    edges = []
    for y in range(n - 1):
        edges.append((y, y + 1, 1.0))
        edges.append((y + 1, y, mu[y] / mu[y + 1]))
    from .chains import build_chain

    return build_chain(list(range(n)), edges, stationary=mu, time="continuous")


# -- internals -----------------------------------------------------------------


def _check_pair(a, b):
    if not a.any() or not b.any():
        raise EmptySet("A and B must be nonempty")
    if np.any(a & b):
        raise OverlappingSets("A and B must be disjoint")


def _solve_potentials(chain, masks):
    """Columns h_i = h_{M_i, U - M_i} for disjoint masks M_i with union U.

    One call of the interior solver takes all right-hand sides.  The
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
        h[interior] = _spd_solver(chain, interior)(rhs[interior])
    return h


def _spd_solver(chain, free):
    """Solve callable for Lap[free, free] x = rhs, memoised on the chain.

    ``rhs`` is a vector or a matrix of right-hand-side columns.

    The memo holds one entry keyed by the mask bytes; a new interior
    replaces it.  The entry is an immutable tuple read once, so a thread
    sharing the chain sees either the old or the new entry whole.
    """
    key = free.tobytes()
    memo = chain._interior_solver
    if memo is not None and memo[0] == key:
        return memo[1]
    mat = chain.laplacian[free][:, free]
    m = mat.shape[0]
    if m <= DENSE_SOLVE_LIMIT:
        dense = mat.toarray()

        def solve(rhs):
            try:
                return np.linalg.solve(dense, rhs)
            except np.linalg.LinAlgError as exc:
                raise SolverNotConverged(f"singular interior block: {exc}") from None

    elif m <= DIRECT_SOLVE_LIMIT:
        solve = spla.splu(
            mat.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        ).solve
    else:
        precond = sp.diags(1.0 / mat.diagonal())

        def solve(rhs):
            if rhs.ndim == 2:
                return np.column_stack([solve(col) for col in rhs.T])
            x, info = spla.cg(
                mat, rhs, rtol=1e-12, atol=0.0, maxiter=20 * m, M=precond
            )
            if info != 0:
                raise SolverNotConverged(
                    f"conjugate gradient stopped with info={info}"
                )
            return x

    chain._interior_solver = (key, solve)
    return solve


def capacity_scan_context(chain):
    """Dense precomputation for repeated capacity queries on small chains."""
    lap = chain.laplacian.toarray()
    w = chain.conductance.toarray()
    return lap, w, chain.stationary


def capacity_dense(ctx, a, b):
    """Capacity and h_{A,B} of one mask pair: the k = 1 call of the scan kernel."""
    caps, pots = _scan_capacities(ctx, a[None], b)
    return float(caps[0]), pots[0]


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
            flux = np.matvec(w, h[:, :, 1])
            caps[r] = flux[at, np.nonzero(a[r])[1].reshape(g, s_a)].sum(axis=1)
            pots[r] = h[:, :, 0]
    bad = ~(np.isfinite(caps) & (caps > 0.0))
    if bad.any():
        raise SolverNotConverged(
            f"capacity {caps[np.argmax(bad)]!r} of a scanned set is not "
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
