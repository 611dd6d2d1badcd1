"""Independent ground-truth engines used to cross-check every other module.

Nothing here shares a code path with the solvers it certifies except the
SuperLU factor call, ``potential.sym_factor``: the Poincare constant comes
from a dense symmetric eigensolve (two ``scipy.linalg.eigh`` calls: all
eigenvalues, and the lambda_2 vector), refined and certified by
``certified_gap`` on a sparse factor of its own (the Laplacian grounded at
one state), the log-Sobolev bound from projected gradient ascent, the Orlicz
norm from grid search with refinement, and the Cheeger constant from
exhaustive subset enumeration.

``certified_gap`` is the one path that refines and tags a spectral gap:
inverse iteration with a Kato-Temple interval, whose lambda_3 floor comes
from an inertia count with sigma midway between the gap and a lambda_3
estimate.  ``exact_cpi`` starts it from the dense lambda_2 vector,
``metastab rfcw`` from an equilibrium potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .chains import (
    MetastabError,
    SolverNotConverged,
    ValidationError,
    _phi_xlogx,
    dirichlet_form,
    entropy,
    entropy_gradient,
)
from .potential import equilibrium_potential, sym_factor

SPECTRAL_LIMIT = 2**14
LSI_SIZE_LIMIT = 512
BRUTE_FORCE_LIMIT = 6
LSI_MULTISTARTS = 32
LSI_ASCENT_STEPS = 400
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
    """Dense spectrum of the mu-symmetrized kernel and its certified gap."""

    eigenvalues: np.ndarray
    c_pi_exact: float
    spectral_gap: float
    maximizer: np.ndarray
    discrete_time: bool
    certificate: GapCertificate


@dataclass
class GapCertificate:
    """Spectral gap as a Rayleigh quotient with its Kato-Temple interval.

    ``lower <= lambda_2 <= upper`` and ``lambda_3 >= lambda3_floor``, where
    ``upper`` is ``gap`` plus its rounding allowance, and ``f`` the centred,
    normalized vector whose Rayleigh quotient is ``gap``.  A failed step
    leaves ``lower`` (and, for the lambda_3 floor, ``lambda3_floor``) at 0.
    ``exact`` holds when the interval is at most REFINE_RTOL ``gap`` wide.
    """

    gap: float
    lower: float
    upper: float
    lambda3_floor: float
    exact: bool
    f: np.ndarray


@dataclass
class LsiReport:
    """Certified lower bound on the log-Sobolev constant from ascent."""

    c_lsi_lower: float
    maximizer: np.ndarray
    multistarts: int
    best_start: int
    converged: bool
    n_converged: int


def exact_cpi(chain):
    """All eigenvalues of the symmetrized kernel and C_PI = 1 / lambda_2.

    For continuous-time chains the gap is the smallest nonzero eigenvalue of
    the symmetrized -L.  The Poincare constant equals the reciprocal gap
    because the energy is the quadratic form of I - P (resp. -L).  Two
    ``eigh`` calls give all eigenvalues and the eigenvector of the
    second-largest, the lambda_2 vector in both conventions.  The dense
    eigenvalues resolve only about n eps max|lambda|, so the gap, its
    ``certificate`` and the maximizer come from ``certified_gap`` started
    at that vector.
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
        cert = GapCertificate(1.0, 1.0, 1.0, np.inf, True, np.zeros(n))
    return SpectralReport(
        eigenvalues=vals,
        c_pi_exact=1.0 / cert.gap,
        spectral_gap=float(cert.gap),
        maximizer=cert.f,
        discrete_time=chain.discrete_time,
        certificate=cert,
    )


def _grounded_factor(chain):
    """The mask of all states but the heaviest, and a SuperLU factor of the
    Laplacian grounded there (an SPD M-matrix)."""
    free = np.ones(chain.n_states, dtype=bool)
    free[np.argmax(chain.stationary)] = False
    return free, sym_factor(chain.laplacian[free][:, free])


def _grounded_solve(chain, free, factor, f):
    """u with Lap u = mu f off the grounded state and u = 0 on it."""
    u = np.zeros_like(f)
    u[free] = factor.solve((chain.stationary * f)[free])
    return u


def _inverse_iteration(chain, f, free, factor):
    """Inverse iteration from ``f``; returns (gap, f).

    Each step solves the grounded Laplacian, which multiplies the lambda_j
    component of the centred f by 1 / lambda_j, so a few steps remove what
    the start vector carries of the other eigenvectors.  The gap is
    the Rayleigh quotient E(f) / Var(f) with E summed edge by edge over
    squared differences: a sum of nonnegative terms, so it keeps its
    relative precision where the dense eigenvalue only resolves
    eps max|lambda|.  It stops when the quotient changes by at most
    REFINE_RTOL, after REFINE_STEPS quotients or at a zero quotient, and
    returns the centred f with sum mu f^2 = 1 of that quotient.  A vector
    that stops being finite raises SolverNotConverged.
    """
    mu = chain.stationary
    prev = np.inf
    with np.errstate(all="ignore"):
        for step in range(REFINE_STEPS):
            if step:
                f = _grounded_solve(chain, free, factor, f)
            f = f - np.dot(mu, f)
            f = f / np.sqrt(np.dot(mu, f * f))
            if not np.isfinite(f).all():
                raise SolverNotConverged("inverse iteration vector is not finite")
            gap = dirichlet_form(chain, f)
            if not gap > 0.0 or abs(gap - prev) <= REFINE_RTOL * gap:
                break
            prev = gap
    return gap, f


def certified_gap(chain, f):
    """Spectral gap by inverse iteration from ``f``, with a Kato-Temple
    interval whose lambda_3 bound is a Sylvester inertia count.

    1. Inverse iteration (``_inverse_iteration``) from ``f`` gives the
       centred, normalized f and rho = E(f) / Var(f) >= lambda_2.
    2. A few solves on the same grounded factor, from a fixed-seed vector
       kept mu-orthogonal to 1 and to f, estimate lambda_3.  An estimate
       that is not finite gives no floor.
    3. ``_lambda3_floor`` certifies lambda_3 >= sigma by counting negative
       pivots of Lap - sigma diag(mu), with sigma between the upper end
       of the interval and the estimate.
    4. Kato-Temple: lambda_2 >= rho - eps^2 / (sigma - rho), where
       eps^2 = sum r^2 / mu and r = Lap f - rho mu f.  Both ends of the
       interval are widened by GAP_ROUNDING rho, the rounding of rho.

    ``exact_cpi`` starts from the dense lambda_2 vector, ``metastab rfcw``
    from h_{M1,M2}, the lambda_2 eigenvector to leading order.  A chain of
    at most two states has no lambda_3.  Raises SolverNotConverged if the
    quotient is not positive or the iteration overflows.
    """
    mu = chain.stationary
    n = chain.n_states
    free, factor = _grounded_factor(chain)
    gap, f = _inverse_iteration(chain, np.asarray(f, dtype=float), free, factor)
    if not gap > 0.0:
        raise SolverNotConverged(f"Rayleigh quotient {gap!r} is not positive")
    upper = gap * (1.0 + GAP_ROUNDING)
    sigma = np.inf
    if n > 2:
        g = np.random.default_rng(LAMBDA3_SEED).normal(size=n)
        with np.errstate(all="ignore"):
            for k in range(LAMBDA3_SOLVES + 1):
                for _ in range(2):  # twice: one pass leaves rounding of a huge f part
                    g = g - np.dot(mu, g)
                    g = g - np.dot(mu * f, g) * f
                g = g / np.sqrt(np.dot(mu, g * g))
                if k < LAMBDA3_SOLVES:
                    g = _grounded_solve(chain, free, factor, g)
        sigma = 0.0
        if np.isfinite(g).all():
            sigma = _lambda3_floor(chain, upper, dirichlet_form(chain, g))
    lower = 0.0
    if sigma > upper:
        r = chain.laplacian @ f - gap * (mu * f)
        eps2 = np.dot(r, r / mu)
        lower = max(gap * (1.0 - GAP_ROUNDING) - eps2 / (sigma - upper), 0.0)
    exact = bool(upper - lower <= REFINE_RTOL * gap)
    return GapCertificate(gap, lower, upper, sigma, exact, f)


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
        pivots = _ldl_pivots(shifted)
        if pivots is not None:
            negative = np.count_nonzero(pivots < 0.0)
            if negative == 2:
                return sigma
            if negative < 2:
                return 0.0
        sigma = upper + 0.5 * (sigma - upper)
    return 0.0


def _ldl_pivots(a):
    """The pivots D of a symmetric LDL^T factorization of ``a``, or None.

    SuperLU in symmetric mode with ``diag_pivot_thresh=0`` takes each pivot
    on the diagonal while it is nonzero, so L U is L D L^T with D the
    diagonal of U.  None if the factorization hit a zero pivot, if a pivot
    left the diagonal (the row and column permutations differ), or if the
    element growth max|U| / max|a| passes PIVOT_GROWTH_LIMIT.
    """
    try:
        lu = sym_factor(a)
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
    """Certified lower bound on C_LSI by ascent of Ent_mu[f^2] / E(f).

    Seeds include the spectral-gap eigenvector, near-constant perturbations
    1 + eps v2 in both signs (whose ratio approaches 2 C_PI), equilibrium
    potentials between the extreme states of v2, and deterministic Gaussian
    multistarts.  Every reported value is the ratio at an explicit function,
    hence a true lower bound on the supremum.
    """
    n = chain.n_states
    if n > LSI_SIZE_LIMIT:
        raise ValidationError(f"{n} states exceeds the LSI ascent limit")
    mu = chain.stationary
    spec = exact_cpi(chain)
    v2 = spec.maximizer
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

    best_val, best_f, n_conv, best_start = entropy_ratio_ascent(
        chain, mu, seeds, LSI_ASCENT_STEPS
    )
    return LsiReport(
        c_lsi_lower=float(best_val),
        maximizer=best_f,
        multistarts=len(seeds),
        best_start=best_start,
        converged=n_conv == len(seeds),
        n_converged=n_conv,
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
    All rows step in lockstep: each tick takes the gradient of the rows that
    just moved and tries one candidate for every live row.  Every reduction
    is a row-wise sum over a C-ordered array, which numpy sums pairwise
    within the row, so a row follows the same arithmetic whichever other
    rows are in the batch.  F is updated in place.
    """
    S = len(F)
    val = np.full(S, -np.inf)
    e = _energy_rows(chain, F)
    live = e > 0.0
    converged = ~live  # E = 0: the ratio is -inf, nothing to ascend
    F[live] /= np.sqrt(e[live])[:, None]
    val[live] = _entropy_rows(weight, F[live] * F[live])
    step = np.full(S, 0.5)
    grads = np.zeros(S, dtype=int)
    moved = live.copy()
    G = np.zeros_like(F)
    while live.any():
        idx = np.flatnonzero(moved)
        spent = grads[idx] >= max_iter
        live[idx[spent]] = moved[idx[spent]] = False
        idx = idx[~spent]
        if idx.size:
            f = F[idx]
            g = entropy_gradient(weight, f)
            ge = 2.0 * np.ascontiguousarray((chain.laplacian @ f.T).T)
            denom = (ge * ge).sum(axis=1)
            coef = np.zeros(idx.size)
            np.divide((g * ge).sum(axis=1), denom, out=coef, where=denom > 0.0)
            g = g - coef[:, None] * ge
            gnorm = np.sqrt((g * g).sum(axis=1))
            flat = idx[gnorm <= 1e-13 * np.maximum(1.0, np.abs(val[idx]))]
            converged[flat], live[flat], moved[idx] = True, False, False
            G[idx] = g
            grads[idx] += 1

        idx = np.flatnonzero(live)
        stuck = idx[step[idx] <= 1e-14]
        converged[stuck], live[stuck] = True, False
        idx = np.flatnonzero(live)
        cand = F[idx] + step[idx, None] * G[idx]
        ec = _energy_rows(chain, cand)
        cval = np.full(idx.size, -np.inf)
        pos = ec > 0.0
        cand[pos] /= np.sqrt(ec[pos])[:, None]
        cval[pos] = _entropy_rows(weight, cand[pos] * cand[pos])
        up = cval > val[idx] + 1e-16
        F[idx[up]] = cand[up]
        val[idx[up]] = cval[up]
        step[idx] *= np.where(up, 1.5, 0.5)
        moved[idx[up]] = True
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
    out = np.zeros(len(fsq))
    mp = m[pos]
    out[pos] = mp * (weight * _phi_xlogx(fsq[pos] / mp[:, None])).sum(axis=1)
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


def hardy_exact_constant(mu_weights, nu_weights):
    """Best constant in sum nu f^2 <= C1 sum mu (f(x+1) - f(x))^2, f(0) = 0.

    The sharp constant for the discrete weighted Hardy inequality on
    {0, ..., n}, via the generalized symmetric eigenproblem on the interior
    coordinates.  This is the spectral oracle for the Muckenhoupt sandwich.
    """
    mu = np.asarray(mu_weights, dtype=float)
    nu = np.asarray(nu_weights, dtype=float)
    if mu.size + 1 != nu.size:
        raise ValidationError("need one mu weight per bond, one nu weight per site")
    m = mu.size  # free coordinates f(1), ..., f(n)
    a = np.zeros((m, m))
    for y in range(m):
        # bond (y, y+1): in free coordinates index y-1 and y (f(0) fixed)
        if y == 0:
            a[0, 0] += mu[0]
        else:
            a[y - 1, y - 1] += mu[y]
            a[y, y] += mu[y]
            a[y - 1, y] -= mu[y]
            a[y, y - 1] -= mu[y]
    nmat = np.diag(nu[1:])
    vals = scipy.linalg.eigh(nmat, a, eigvals_only=True)
    return float(vals[-1])
