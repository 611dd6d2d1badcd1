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
share one factorization.  ``equilibrium_potential`` solves h_{A,B} and
h_{B,A} together and takes e on A from h_{B,A}: at low temperature h_{A,B}
is 1 up to tiny terms next to A, and e computed from it as (Lap h) / mu
keeps only the digits of those terms.  Whatever the path, it still checks
the harmonicity residual, the [0, 1] range and the agreement of sum mu e
with the Dirichlet energy before it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chains import (
    SolverNotConverged,
    ValidationError,
    dirichlet_form,
    subset_mask,
)

DENSE_SOLVE_LIMIT = 400
DIRECT_SOLVE_LIMIT = 10_000
RESIDUAL_TOL = 1e-10
OVERSHOOT_TOL = 1e-9
CAP_AGREE_RTOL = 1e-8


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


def equilibrium_potential(chain, A, B, residual_tol=RESIDUAL_TOL):
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
        if resid > residual_tol:
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
    h = np.zeros((chain.n_states, len(masks)))
    union = np.zeros(chain.n_states, dtype=bool)
    for i, m in enumerate(masks):
        h[m, i] = 1.0
        union |= m
    interior = ~union
    if interior.any():
        w = chain.conductance[interior]
        rhs = np.column_stack([np.asarray(w[:, m].sum(axis=1)).ravel() for m in masks])
        h[interior] = _spd_solver(chain, interior)(rhs)
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
            return np.linalg.solve(dense, rhs)

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
    """Capacity and h_{A,B} via a dense solve, for enumeration loops.

    Masks required.  Like ``equilibrium_potential`` it solves h_{B,A} in the
    same call and sums the flux out of A of h_{B,A}, which keeps its
    digits where h_{A,B} is 1 up to tiny terms next to A.
    """
    lap, w, mu = ctx
    n = mu.size
    h = np.zeros((n, 2))
    h[a, 0] = 1.0
    h[b, 1] = 1.0
    interior = ~(a | b)
    if interior.any():
        # columns W[int, A] 1 and W[int, B] 1 in one product
        rhs = w[interior] @ h
        h[interior] = np.linalg.solve(lap[np.ix_(interior, interior)], rhs)
    return float((w @ h[:, 1])[a].sum()), h[:, 0]
