"""Independent ground-truth engines used to cross-check every other module.

Nothing here shares a code path with the solvers it certifies except the
SuperLU factor call, ``potential.sym_factor``: the Poincare constant comes
from a dense symmetric eigensolve (two ``scipy.linalg.eigh`` calls: all
eigenvalues, and the lambda_2 vector), refined and certified by
``certified_gap`` on a sparse factor of its own (the Laplacian grounded at
one state), the log-Sobolev bound from projected gradient ascent, the Orlicz
norm from grid search with refinement, and the Cheeger constant from
exhaustive subset enumeration.  The one exception is the gap of a pair of
one-state metastable sets, which ``certified_gap`` takes from the interior
solver of their equilibrium potential.

``certified_gap`` is the one path that refines and tags a spectral gap:
inverse iteration with a Kato-Temple interval, whose lambda_3 floor comes
from the pair's mean exit time or from an inertia count with sigma midway
between the gap and a lambda_3 estimate.  ``exact_cpi`` starts it from the
dense lambda_2 vector, ``metastab rfcw`` from an equilibrium potential.
``metastable`` takes its local constants from ``exact_cpi`` and
``estimate_clsi`` on trace chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg

from .chains import (
    Certified,
    MetastabError,
    SolverNotConverged,
    ValidationError,
    _phi_xlogx,
    dirichlet_form,
    entropy,
    entropy_gradient,
)
from .potential import _spd_solver, equilibrium_potential, mean_exit_time_bound, sym_factor

# states of the dense eigensolve: ``metastab oracle --what cpi`` on a
# birth-death well took 2.2 s and 133 MB at 2,048 states, 83 s and 1.1 GB at
# 8,192 and 655 s and 4.2 GB at 16,384 (default BLAS threads, 2-vCPU VM, each
# run alone under a 6 GiB ``ulimit -v``)
SPECTRAL_LIMIT = 2**14
LSI_SIZE_LIMIT = 512
BRUTE_FORCE_LIMIT = 6
LSI_MULTISTARTS = 32
LSI_ASCENT_STEPS = 400
# line-search trials per row and tick of the LSI ascent: steps s, s/2, ...,
# s/2^(K-1) are evaluated together and the first accepted one is taken
ASCENT_TRIALS = 4
CHEEGER_LIMIT = 20
# inverse iteration stops when the Rayleigh quotient settles to this; from
# an equilibrium potential near the critical temperature it can take a dozen
# steps, from the dense eigenvector one or two
REFINE_RTOL = 1e-12
REFINE_STEPS = 32
# the lambda_3 estimate behind the inertia count: solves on a vector drawn
# from a fixed seed, so reports stay deterministic
LAMBDA3_SOLVES = 3
LAMBDA3_SEED = 0
# halvings of sigma's distance to the gap before the inertia count gives up
SIGMA_HALVINGS = 4
# element growth max|U| / max|A| of the shifted LDL^T beyond which its
# pivot signs are not trusted
PIVOT_GROWTH_LIMIT = 1e6
# relative rounding allowance of a computed Rayleigh quotient: its edge sum
# and the normalization of f each lose a few eps (against 40-digit mpmath
# the quotient of a converged f sat within 1.5 eps of lambda_2)
GAP_ROUNDING = 64 * np.finfo(float).eps


@dataclass
class SpectralReport:
    """Dense spectrum of the mu-symmetrized kernel and its certified gap;
    ``c_pi`` is 1 / gap on the reciprocal interval of the gap's."""

    eigenvalues: np.ndarray
    c_pi: Certified
    discrete_time: bool
    certificate: GapCertificate


@dataclass(frozen=True)
class GapCertificate(Certified):
    """Spectral gap ``value``, a Rayleigh quotient, in its Kato-Temple
    interval ``lower <= lambda_2 <= upper``, with ``lambda_3 >=
    lambda3_floor``.  ``upper`` is ``value`` plus its rounding allowance,
    and ``f`` the centred, normalized vector whose quotient is ``value``.
    A failed step leaves ``lower`` (and, for the lambda_3 floor,
    ``lambda3_floor``) at 0.
    """

    lambda3_floor: float
    f: np.ndarray


@dataclass
class LsiReport:
    """Lower bound on the log-Sobolev constant from ascent, true in exact
    arithmetic (``estimate_clsi``): the interval of ``c_lsi`` is [value, inf]."""

    c_lsi: Certified
    maximizer: np.ndarray
    multistarts: int
    spectral: SpectralReport  # exact_cpi's, whose lambda_2 vector seeds the ascent
    converged: bool


def exact_cpi(chain):
    """All eigenvalues of the symmetrized kernel and C_PI = 1 / lambda_2.

    For continuous-time chains the gap is the smallest nonzero eigenvalue of
    the symmetrized -L.  The Poincare constant equals the reciprocal gap
    because the energy is the quadratic form of I - P (resp. -L).  Two
    ``eigh`` calls give all eigenvalues and the eigenvector of the
    second-largest, the lambda_2 vector in both conventions.  The dense
    eigenvalues resolve only about n eps max|lambda|, so the gap, its
    ``certificate`` and C_PI come from ``certified_gap`` started at that
    vector.
    """
    n = chain.n_states
    if n > SPECTRAL_LIMIT:
        raise ValidationError(f"{n} states exceeds the dense eigensolve limit")
    root = np.sqrt(chain.stationary)
    dense = chain.kernel.toarray()
    dense *= root[:, None]
    dense /= root[None, :]
    sym = dense + dense.T
    del dense
    sym *= 0.5
    if not np.isfinite(max(sym.max(), -sym.min())):
        raise ValidationError("symmetrized kernel has non-finite entries")
    try:
        vals = scipy.linalg.eigh(sym, eigvals_only=True, check_finite=False)[::-1]
        if n > 1:
            vec = scipy.linalg.eigh(
                sym, subset_by_index=[n - 2, n - 2], overwrite_a=True, check_finite=False
            )[1][:, 0]
    except (np.linalg.LinAlgError, ValueError) as exc:
        # scipy reports a failed dsyevr workspace query as a ValueError
        raise SolverNotConverged(f"dense eigensolve failed: {exc}") from None

    if chain.discrete_time:
        if abs(vals[0] - 1.0) > 1e-9:
            raise ValidationError(f"leading eigenvalue {vals[0]!r} is not 1")
        if vals[-1] < -1.0 - 1e-9 or vals[0] > 1.0 + 1e-9:
            raise ValidationError("kernel eigenvalue outside [-1, 1]")
    else:
        # eigenvalues of -L, ascending; lambda_1 = 0 with constant vector
        vals = -vals
        if abs(vals[0]) > 1e-8:
            raise ValidationError(f"generator kernel eigenvalue {vals[0]!r} is not 0")
    if n > 1:
        cert = certified_gap(chain, vec / root)
    else:
        cert = GapCertificate(1.0, 1.0, 1.0, np.inf, np.zeros(n))
    with np.errstate(divide="ignore"):  # a lower end of 0 leaves C_PI one-sided
        c_pi = Certified(1.0 / cert.value, *np.reciprocal([cert.upper, cert.lower]))
    return SpectralReport(
        eigenvalues=vals,
        c_pi=c_pi,
        discrete_time=chain.discrete_time,
        certificate=cert,
    )


def _grounded_factor(chain):
    """The mask of all states but the heaviest, and the solve callable of a
    SuperLU factor of the Laplacian grounded there (an SPD M-matrix)."""
    free = np.ones(chain.n_states, dtype=bool)
    free[np.argmax(chain.stationary)] = False
    return free, sym_factor(chain.laplacian[free][:, free], chain._fill_order, free)[1]


def _grounded_solve(chain, free, factor, f):
    """u with Lap u = mu f off the grounded state and u = 0 on it."""
    u = np.zeros_like(f)
    u[free] = factor((chain.stationary * f)[free])
    return u


def _pair_solve(chain, pair, f):
    """u with Lap u = mu f off b and u = 0 on b, for the pair solution
    ``pair`` of one-state sets {a}, {b}, through the interior solver that
    computed it.

    With r = mu f, h = h_{a,b} and I the interior, the grounded system
    eliminates I to a rank-one Schur complement on a whose pivot is
    cap(a, b): u_a = (r_a + sum_{z in I} h(z) r_z) / cap(a, b) and
    u_I = Lap_II^{-1} r_I + h_I u_a.
    """
    a, interior = pair.set_a, ~(pair.set_a | pair.set_b)
    r = chain.stationary * f
    h = pair.potential[interior]
    u = np.zeros_like(f)
    u[a] = (r[a] + np.dot(h, r[interior])) / pair.capacity
    u[interior] = _spd_solver(chain, interior)(r[interior]) + h * u[a]
    return u


def _inverse_iteration(chain, f, solve):
    """Inverse iteration from ``f``; returns (gap, f).

    Each step solves the grounded Laplacian (``solve(f)``, u with
    Lap u = mu f off a ground), which multiplies the lambda_j
    component of the centred f by 1 / lambda_j, so a few steps remove what
    the start vector carries of the other eigenvectors.  The gap is
    the Rayleigh quotient E(f) / Var(f) with E summed edge by edge over
    squared differences: a sum of nonnegative terms, so it keeps its
    relative precision where the dense eigenvalue only resolves
    eps max|lambda|.  It stops when the quotient changes by at most
    REFINE_RTOL, after REFINE_STEPS quotients or at a zero quotient, and
    returns the centred f with sum mu f^2 = 1 (``_mu_normalized``) of that
    quotient.  A vector that stops being finite, or a final quotient that
    is not positive, raises SolverNotConverged.
    """
    mu = chain.stationary
    prev = np.inf
    with np.errstate(all="ignore"):
        for step in range(REFINE_STEPS):
            if step:
                f = solve(f)
            f = _mu_normalized(mu, f - np.dot(mu, f))
            if not np.isfinite(f).all():
                raise SolverNotConverged("inverse iteration vector is not finite")
            gap = dirichlet_form(chain, f)
            if not gap > 0.0 or abs(gap - prev) <= REFINE_RTOL * gap:
                break
            prev = gap
    if not gap > 0.0:
        raise SolverNotConverged(f"Rayleigh quotient {gap!r} is not positive")
    return gap, f


def _mu_normalized(mu, f):
    """f / sqrt(sum mu f^2).  Where that sum is not finite (the squares of
    an f past about 1e154 overflow), f is first divided by max|f|; every
    other f keeps the bits of the plain quotient."""
    norm2 = np.dot(mu, f * f)
    if not np.isfinite(norm2):
        f = f / np.abs(f).max()
        norm2 = np.dot(mu, f * f)
    return f / np.sqrt(norm2)


def certified_gap(chain, f, pair=None):
    """Spectral gap by inverse iteration from ``f``, with a Kato-Temple
    interval.  Two routes differ in how they ground the Laplacian and how
    they bound lambda_3 from below.

    The pair route runs when ``pair`` is the ``EquilibriumSolution`` of two
    one-state sets {a}, {b} on a chain of more than two states, and makes
    no factorization of its own:

    1. Inverse iteration grounded at b (``_pair_solve``) goes through the
       interior solver that computed ``pair``.
    2. Courant-Fischer with the two point evaluations at a and b: every
       3-dimensional space of functions holds one that vanishes on {a, b},
       so lambda_3 >= lambda_1 of the chain killed at {a, b}, which is at
       least 1 / max_x E_x[tau_{a,b}] (the Dirichlet Green operator is
       nonnegative with row sums E_x[tau]).  ``mean_exit_time_bound`` bounds
       that maximum by max w~ / q, w~ one interior solve against mu and q
       its residual floor, with its rounding allowance MEAN_TIME_ROUNDING;
       sigma is the reciprocal.  A q <= 0 gives sigma = 0.

    If that interval is not ``exact``, the grounded route runs from the
    same ``f`` and its certificate is returned, as for every other caller:

    1. Inverse iteration from ``f`` on a SuperLU factor of the Laplacian
       grounded at the heaviest state (``_grounded_factor``).
    2. A few solves on the same factor, from a fixed-seed vector kept
       mu-orthogonal to 1 and to f, estimate lambda_3.  An estimate that is
       not finite gives no floor.  The grounded factor is then released.
    3. ``_lambda3_floor`` certifies lambda_3 >= sigma by counting negative
       pivots of Lap - sigma diag(mu), with sigma between the upper end
       of the interval and the estimate.  Each count factors the shifted
       matrix anew, so at most one SuperLU factor of this function is alive
       at a time.

    Both routes end alike.  Inverse iteration (``_inverse_iteration``)
    gives the centred, normalized f and rho = E(f) / Var(f) >= lambda_2.
    Kato-Temple: lambda_2 >= rho - eps^2 / (sigma - rho), where
    eps^2 = sum r^2 / mu and r_x = sum_y c_xy (f_x - f_y) - rho mu_x f_x,
    summed edge by edge: the CSR row deg_x f_x - sum_y c_xy f_y cancels
    inside a well and can leave r too small.  Both ends of the interval
    are widened by GAP_ROUNDING rho, the rounding of rho.

    ``exact_cpi`` starts from the dense lambda_2 vector, ``metastab rfcw``
    from h_{M1,M2}, the lambda_2 eigenvector to leading order, and passes
    that solution as ``pair``.  A chain of at most two states has no
    lambda_3.  Raises SolverNotConverged if the quotient is not positive or
    the iteration overflows.
    """
    mu = chain.stationary
    n = chain.n_states
    f = np.asarray(f, dtype=float)
    if pair is not None and n > 2 and pair.set_a.sum() == pair.set_b.sum() == 1:
        gap, g = _inverse_iteration(chain, f, partial(_pair_solve, chain, pair))
        sigma = 1.0 / mean_exit_time_bound(chain, ~(pair.set_a | pair.set_b))
        cert = _kato_temple(chain, gap, g, sigma)
        if cert.mode == "exact":
            return cert
    free, factor = _grounded_factor(chain)
    solve = partial(_grounded_solve, chain, free, factor)
    gap, f = _inverse_iteration(chain, f, solve)
    sigma = np.inf
    if n > 2:
        g = np.random.default_rng(LAMBDA3_SEED).normal(size=n)
        with np.errstate(all="ignore"):
            for k in range(LAMBDA3_SOLVES + 1):
                for _ in range(2):  # twice: one pass leaves rounding of a huge f part
                    g = g - np.dot(mu, g)
                    g = g - np.dot(mu * f, g) * f
                g = _mu_normalized(mu, g)
                if k < LAMBDA3_SOLVES:
                    g = solve(g)
        del factor, solve  # one live SuperLU factor: _lambda3_floor builds its own
        sigma = 0.0
        if np.isfinite(g).all():
            upper = gap * (1.0 + GAP_ROUNDING)
            sigma = _lambda3_floor(chain, upper, dirichlet_form(chain, g))
    return _kato_temple(chain, gap, f, sigma)


def _kato_temple(chain, gap, f, sigma):
    """The certificate of the quotient ``gap`` at ``f`` given
    lambda_3 >= ``sigma`` (``certified_gap``'s last step)."""
    mu = chain.stationary
    upper = gap * (1.0 + GAP_ROUNDING)
    lower = 0.0
    if sigma > upper:
        i, j, n = chain._edge_i, chain._edge_j, chain.n_states
        d = chain._edge_w * (f[i] - f[j])
        r = np.bincount(i, d, n) - np.bincount(j, d, n) - gap * (mu * f)
        eps2 = np.dot(r, r / mu)
        lower = max(gap * (1.0 - GAP_ROUNDING) - eps2 / (sigma - upper), 0.0)
    return GapCertificate(gap, lower, upper, sigma, f)


def _lambda3_floor(chain, upper, estimate):
    """The first sigma at which an inertia count shows lambda_3 >= sigma, or
    0.  sigma starts midway between ``upper``, the top of the lambda_2
    interval, and the lambda_3 ``estimate``; each failed count halves its
    distance to ``upper`` (at most SIGMA_HALVINGS times), so sigma stays
    above the gap even when lambda_3 < 2 lambda_2.

    By Sylvester's law of inertia the pivots of an LDL^T factorization of
    Lap - sigma diag(mu) have as many negative signs as the pencil
    (Lap, diag(mu)) has eigenvalues below sigma.  Two negative pivots mean
    that only lambda_1 = 0 and lambda_2 lie below sigma; more than two move
    sigma, fewer than two end the search.  A factorization whose pivots
    cannot be trusted (``_ldl_pivots`` returns None) moves sigma as well.
    """
    mu = chain.stationary
    shifted = chain.laplacian.tocsc()
    deg = shifted.diagonal()
    sigma = 0.5 * (upper + estimate)
    for _ in range(SIGMA_HALVINGS + 1):
        shifted.setdiag(deg - sigma * mu)
        pivots = _ldl_pivots(chain, shifted)
        if pivots is not None:
            negative = np.count_nonzero(pivots < 0.0)
            if negative == 2:
                return sigma
            if negative < 2:
                return 0.0
        sigma = upper + 0.5 * (sigma - upper)
    return 0.0


def _ldl_pivots(chain, a):
    """The pivots D of a symmetric LDL^T factorization of ``a``, a matrix on
    the states of ``chain``, or None.

    SuperLU in symmetric mode with ``diag_pivot_thresh=0`` takes each pivot
    on the diagonal while it is nonzero, so L U is L D L^T with D the
    diagonal of U; in the chain's elimination order it factors P a P^T,
    which has the inertia of ``a``.  None if the factorization hit a zero
    pivot, if a pivot left the diagonal (the row and column permutations
    differ), or if the element growth max|U| / max|a| passes
    PIVOT_GROWTH_LIMIT.
    """
    try:
        lu, _ = sym_factor(a, chain._fill_order)
    except SolverNotConverged:  # an exactly singular factor
        return None
    u = lu.U  # each access assembles a new matrix
    pivots = u.diagonal()
    growth = np.abs(u.data).max() / np.abs(a.data).max()
    if (
        not np.array_equal(lu.perm_r, lu.perm_c)
        or not np.all(pivots != 0.0)
        or not growth <= PIVOT_GROWTH_LIMIT
    ):
        return None
    return pivots


def estimate_clsi(chain, seed=0):
    """Lower bound on C_LSI by ascent of Ent_mu[f^2] / E(f).

    Seeds include the spectral-gap eigenvector, near-constant perturbations
    1 + eps v2 in both signs (whose ratio approaches 2 C_PI), equilibrium
    potentials between the extreme states of v2, and deterministic Gaussian
    multistarts.  Every reported value is the ratio at an explicit function,
    computed in floating point, so it is a true lower bound on the supremum
    in exact arithmetic only: the trace of the beta 40 double well on
    {x0, x1, x2} reports 7.30e22, where its witness gives 3.99999 at 80
    digits (ROADMAP item 16).
    """
    n = chain.n_states
    if n > LSI_SIZE_LIMIT:
        raise ValidationError(f"{n} states exceeds the LSI ascent limit")
    mu = chain.stationary
    spec = exact_cpi(chain)
    v2 = spec.certificate.f
    v2 = v2 / max(np.max(np.abs(v2)), 1e-300)

    seeds = [v2]
    for eps in (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0):
        seeds.append(1.0 + eps * v2)
        seeds.append(1.0 - eps * v2)
    hi = int(np.argmax(v2))
    lo = int(np.argmin(v2))
    if hi != lo:
        try:
            h = equilibrium_potential(chain, [hi], [lo]).potential
        except MetastabError:
            pass  # the other seeds still give a lower bound
        else:
            seeds += [h, 1.0 + h]
    rng = np.random.default_rng(seed)
    while len(seeds) < LSI_MULTISTARTS:
        seeds.append(rng.normal(size=n))

    best_val, best_f, n_conv, _ = entropy_ratio_ascent(
        chain, mu, seeds, LSI_ASCENT_STEPS
    )
    best_val = float(best_val)
    return LsiReport(
        c_lsi=Certified(best_val, best_val, np.inf),
        maximizer=best_f,
        multistarts=len(seeds),
        spectral=spec,
        converged=n_conv == len(seeds),
    )


def entropy_ratio_ascent(chain, weight, seeds, max_iter):
    """Best Ent_weight[f^2] / E(f) found over ascent runs from the seeds.

    ``weight`` can be any probability vector (in particular a conditional
    measure supported on a subset).  All seeds ascend together in
    ``_lockstep_ascent``.  Deterministic reduction: best by value, ties by
    seed index.  The value returned is recomputed with ``entropy`` and
    ``dirichlet_form`` at the returned f, so it is the ratio at an explicit
    function.
    """
    F, val, converged = _lockstep_ascent(
        chain, np.asarray(weight, dtype=float), np.array(seeds, dtype=float), max_iter
    )
    n_conv = int(converged.sum())
    best = int(np.argmax(val))
    if val[best] == -np.inf:
        return -np.inf, None, n_conv, -1
    f = F[best]
    return entropy(weight, f * f) / dirichlet_form(chain, f), f, n_conv, best


def _lockstep_ascent(chain, weight, F, max_iter):
    """Projected gradient ascent of Ent_weight[f^2] on E(f) = 1 from each
    row of F; returns the final rows, their values and converged flags.

    Each row keeps its own step in a backtracking line search that grows
    the step by 1.5 on success and halves it on failure, and stops at a
    flat projected gradient, at a step below 1e-14 or after ``max_iter``
    gradients; a row with E = 0 has value -inf and counts as converged.
    All rows step in lockstep: each tick takes the gradient of every live
    row (a row that did not move gets the bits it had) and tries the next
    ``ASCENT_TRIALS`` steps of every live row's line search as one batch,
    keeping the first accepted one, so a row takes the steps it would take
    trying one per tick.  Every reduction is a row-wise sum over a C-ordered
    array, which numpy sums pairwise within the row, so a row follows the
    same arithmetic whichever other rows are in the batch.  The live rows
    are kept packed, and a row is written back to F when it stops.

    A value is the ratio at its row's function in floating point, a true
    lower bound in exact arithmetic only: Ent has a rounding floor of order
    E_weight[f^2] eps^2, which a row can climb where E is tiny (ROADMAP
    item 16).
    """
    S, n = F.shape
    halvings = 0.5 ** np.arange(ASCENT_TRIALS)
    e = _energy_rows(chain, F)
    val = np.full(S, -np.inf)
    live = e > 0.0
    converged = ~live  # E = 0: the ratio is -inf, nothing to ascend
    ids = np.flatnonzero(live)
    f = F[ids] / np.sqrt(e[ids])[:, None]
    v = _entropy_rows(weight, f * f)
    step = np.full(ids.size, 0.5)
    grads = np.zeros(ids.size, dtype=int)
    moved = np.ones(ids.size, dtype=bool)
    while ids.size:
        g = entropy_gradient(weight, f)
        ge = 2.0 * np.ascontiguousarray((chain.laplacian @ f.T).T)
        denom = (ge * ge).sum(axis=1)
        coef = np.zeros(ids.size)
        np.divide((g * ge).sum(axis=1), denom, out=coef, where=denom > 0.0)
        g -= coef[:, None] * ge
        flat = np.sqrt((g * g).sum(axis=1)) <= 1e-13 * np.maximum(1.0, np.abs(v))
        spent = moved & (grads >= max_iter)
        grads += moved
        # only a row that moved can be flat or spent; a row whose step fell
        # to the floor in the last tick's batch is stuck
        stop = flat | spent | (step <= 1e-14)
        if stop.any():
            out = ids[stop]
            F[out], val[out], converged[out] = f[stop], v[stop], ~spent[stop]
            keep = ~stop
            ids, f, g, v = ids[keep], f[keep], g[keep], v[keep]
            step, grads = step[keep], grads[keep]
            if not ids.size:
                break
        # the next ASCENT_TRIALS steps of each row's line search at once;
        # halving is exact, so trial k has the bits of the step after k
        # rejections, and a trial at or below the step floor never counts
        trial = step[:, None] * halvings
        cand = f[:, None, :] + trial[:, :, None] * g[:, None, :]
        rows = cand.reshape(-1, n)  # a view: normalizing rows normalizes cand
        ec = _energy_rows(chain, rows)
        pos = ec > 0.0
        rows /= np.sqrt(np.where(pos, ec, 1.0))[:, None]
        cval = np.where(pos, _entropy_rows(weight, rows * rows), -np.inf).reshape(trial.shape)
        up = (cval > v[:, None] + 1e-16) & (trial > 1e-14)
        moved = up.any(axis=1)
        pick = np.arange(ids.size), up.argmax(axis=1)
        f = np.where(moved[:, None], cand[pick], f)
        v = np.where(moved, cval[pick], v)
        step = np.where(moved, trial[pick] * 1.5, step * 0.5**ASCENT_TRIALS)
    return F, val, converged


def _energy_rows(chain, F):
    """dirichlet_form of each row of F, by row-wise sums.

    The public one-vector forms keep their dot products, whose bits the
    spectral-gap and report goldens pin.
    """
    d = F.take(chain._edge_i, axis=1) - F.take(chain._edge_j, axis=1)  # C order
    return (chain._edge_w * (d * d)).sum(axis=1)


def _entropy_rows(weight, fsq):
    """entropy(weight, row) of each row of fsq (rows of squares), by
    row-wise sums."""
    m = (weight * fsq).sum(axis=1)
    pos = m > 0.0
    mm = np.where(pos, m, 1.0)
    out = np.where(pos, m * (weight * _phi_xlogx(fsq / mm[:, None])).sum(axis=1), 0.0)
    return np.maximum(out, 0.0)


def brute_force_orlicz(f, nu, pair, K):
    """Grid search with box refinement for the K-Orlicz norm, plus a
    coordinate/pairwise polish.  Always returns the objective at a feasible
    point, hence a lower bound; on <= 6 states it lands within 1e-4 of the
    exact dual value.
    """
    f = np.abs(np.asarray(f, dtype=float))
    nu = np.asarray(nu, dtype=float)
    n = f.size
    if n > BRUTE_FORCE_LIMIT:
        raise ValidationError(f"brute force limited to {BRUTE_FORCE_LIMIT} states")
    if K <= 0.0:
        raise ValidationError("K must be positive")
    coeff = nu * f
    psi = pair.psi

    nz = nu > 0.0
    if not nz.any():
        return 0.0
    numin = nu[nz].min()

    gmax = 1.0
    with np.errstate(over="ignore"):
        while float(psi(gmax)) * numin <= K and gmax < 1e12:
            gmax *= 2.0
    if gmax >= 1e12:
        raise ValidationError("feasible set unbounded; norm is infinite")

    center = np.full(n, gmax / 2.0)
    width = gmax / 2.0
    best_g = np.zeros(n)
    best_val = 0.0
    axes = np.linspace(-1.0, 1.0, 7)
    for _ in range(30):
        pts = [np.clip(center[d] + width * axes, 0.0, None) for d in range(n)]
        mesh = np.stack(np.meshgrid(*pts, indexing="ij"), axis=-1).reshape(-1, n)
        budget = np.zeros(len(mesh))
        for d in range(n):
            budget += nu[d] * np.asarray(psi(mesh[:, d]), dtype=float)
        ok = budget <= K * (1.0 + 1e-12)
        if ok.any():
            vals = mesh[ok] @ coeff
            k = int(np.argmax(vals))
            if vals[k] > best_val:
                best_val = float(vals[k])
                best_g = mesh[ok][k].copy()
        center = best_g.copy()
        width *= 0.55

    best_g, best_val = _polish(best_g, coeff, nu, psi, K, gmax)
    return best_val


def _psi_sup(psi, budget, hi):
    """sup{s <= hi : psi(s) <= budget} by bisection; psi nondecreasing."""
    if budget < 0.0:
        return 0.0
    if psi(hi) <= budget:
        return hi
    lo, up = 0.0, hi
    for _ in range(200):
        mid = 0.5 * (lo + up)
        if mid == lo or mid == up:  # float resolution: no step moves lo again
            break
        if psi(mid) <= budget:
            lo = mid
        else:
            up = mid
    return lo


def _polish(g, coeff, nu, psi, K, gmax):
    g = g.copy()
    n = g.size

    def budget(gv):
        return sum(nu[d] * psi(gv[d]) for d in range(n))

    for _ in range(40):
        changed = False
        # free budget tied up in worthless coordinates, then saturate the rest
        for d in range(n):
            if coeff[d] <= 0.0 and g[d] > 0.0:
                g[d] = 0.0
                changed = True
        for d in range(n):
            if coeff[d] <= 0.0 or nu[d] <= 0.0:
                continue
            slack = K - (budget(g) - nu[d] * psi(g[d]))
            cand = _psi_sup(psi, slack / nu[d], gmax)
            if cand > g[d] + 1e-15:
                g[d] = cand
                changed = True
        # pairwise budget exchange: the pooled objective is concave in the
        # split fraction, so a ternary search localizes the optimum sharply
        for a in range(n):
            for b in range(a + 1, n):
                if nu[a] <= 0.0 or nu[b] <= 0.0:
                    continue
                base = budget(g) - nu[a] * psi(g[a]) - nu[b] * psi(g[b])
                pool = K - base

                def split(t):
                    ga = _psi_sup(psi, t * pool / nu[a], gmax)
                    gb = _psi_sup(psi, (pool - nu[a] * psi(ga)) / nu[b], gmax)
                    return ga, gb, coeff[a] * ga + coeff[b] * gb

                lo, hi = 0.0, 1.0
                for _ in range(60):
                    m1 = lo + (hi - lo) / 3.0
                    m2 = hi - (hi - lo) / 3.0
                    if split(m1)[2] < split(m2)[2]:
                        lo = m1
                    else:
                        hi = m2
                ga, gb, val = split(0.5 * (lo + hi))
                if val > coeff[a] * g[a] + coeff[b] * g[b] + 1e-15:
                    g[a], g[b] = ga, gb
                    changed = True
        if not changed:
            break
    return g, float(np.dot(coeff, g))


def cheeger_constant(chain):
    """sup over proper subsets of mu[A] mu[A^c] / cap(A, A^c).

    cap(A, A^c) is the conductance cut -<1_A, L 1_{A^c}>_mu, computed
    directly; every proper subset is enumerated.
    """
    n = chain.n_states
    if n > CHEEGER_LIMIT:
        raise ValidationError(f"{n} states exceeds the Cheeger enumeration limit")
    if n < 2:
        return -np.inf, np.zeros(n, dtype=bool)
    mu = chain.stationary
    size = 1 << n
    # mass[m] = mass[m without its lowest bit k] + mu[k], higher bits first
    mass = np.zeros(size)
    for k in range(n - 1, -1, -1):
        mass[1 << k :: 2 << k] = mass[0 :: 2 << k] + mu[k]
    cut = np.zeros(size)
    masks = np.arange(size, dtype=np.int64)
    for i, j, w in zip(chain._edge_i, chain._edge_j, chain._edge_w):
        crossing = ((masks >> int(i)) ^ (masks >> int(j))) & 1
        cut += w * crossing
    # complements give the same value; fix state 0 inside A
    odd = slice(1, size - 1, 2)
    vals = mass[odd] * (1.0 - mass[odd]) / cut[odd]
    best = int(np.argmax(vals))  # the first maximum, as in a loop over masks
    members = ((2 * best + 1) >> np.arange(n)) & 1
    return float(vals[best]), members.astype(bool)
