"""Metastability diagnostics: the metastability ratio, valley partitions,
regularity and mass constants, mean-exit asymptotics and the sharp
Poincare / log-Sobolev main terms.

All probabilistic quantities are reduced to capacities through
P_{mu_A}[tau_B < tau_A] = cap(A, B) / mu[A].  ``build_structure`` solves
each pair of sets once, by the checked ``equilibrium_potential``, and the rho
numerator, valleys, capacities, eta and mean exits all read those solutions.
The local Poincare and log-Sobolev constants of a set come from the oracle
(``exact_cpi``, ``estimate_clsi``) on the set's ``trace_chain``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components

from .chains import (
    Certified,
    ReversibleChain,
    SolverNotConverged,
    ValidationError,
    log_mean,
    subset_mask,
)
from . import oracle, potential
from .oracle import estimate_clsi
from .potential import _bounded_scan, capacity_scan_context, equilibrium_potential

TIE_TOL = 1e-12
# free states m of the singleton rho; its dense Cholesky holds one 8 s^2
# buffer, s the states left by the red-black reduction: s = m / 2 on cube
# and birth-death chains (0.45 GB at the limit; the singleton rho of a
# 15,002-state path took 3.4 s and 542 MB peak RSS on a 2-vCPU VM), s = m
# with no bipartite component (1.8 GB, 35 s); the threaded dpotrf of
# scipy's OpenBLAS 0.3.30 segfaulted on whole blocks of 15,800 states and up
SINGLETON_LIMIT = 15_000
# rows of the eliminated class per sparse-times-dense block in
# ``_inverse_diagonal``: a block holds 8 ROW_BLOCK s bytes
ROW_BLOCK = 64


@dataclass(frozen=True)
class RhoCertificate(Certified):
    """Witnessed evaluation of the metastability ratio by ``method``.

    In ``exact`` the denominator minimum runs over every nonempty subset
    outside the metastable sets, and the interval is [rho, rho].  In
    ``singleton`` the value is an upper bound on the ratio carrying the
    documented |S| relaxation factor, on [0, rho].  When the sets cover the
    whole space the denominator family is empty and only the numerator is
    reported (``numerator-only``, on [numerator, inf]).  ``solutions[i]``
    is the checked solution of the pair (M_i, U - M_i), U the union of the
    sets, whose capacity enters the numerator.
    """

    method: str
    numerator: float
    denominator: float | None
    argmin_subset: np.ndarray | None
    solutions: list


@dataclass
class MetastableStructure:
    sets: list
    rho_certificate: RhoCertificate
    valleys: list
    partition: list
    assignment: np.ndarray
    tie_states: np.ndarray
    caps: np.ndarray
    mu_sets: np.ndarray
    mu_parts: np.ndarray
    eta: float
    eta_pairs: np.ndarray
    c_mass: float
    cpi_local: list
    clsi_local: list
    cpi_M: Certified
    clsi_M: Certified
    solutions: dict

    @property
    def n_sets(self):
        return len(self.sets)


def _check_sets(chain, sets):
    masks = [subset_mask(chain, s) for s in sets]
    if len(masks) < 2:
        raise ValidationError("need at least two metastable sets")
    total = np.zeros(chain.n_states, dtype=int)
    for m in masks:
        if not m.any():
            raise ValidationError("metastable sets must be nonempty")
        total += m.astype(int)
    if np.any(total > 1):
        raise ValidationError("metastable sets must be pairwise disjoint")
    return masks


def rho_metastability(chain, sets, mode="auto"):
    """Metastability ratio |M| max / min with a witness certificate.

    Exact mode minimizes over every nonempty subset of the complement of the
    metastable sets (including disconnected ones), up to
    ``potential.EXACT_ENUM_LIMIT`` free states, by a bounded scan: subsets
    whose singleton-capacity bound cannot reach the minimum are ruled out
    unsolved, so a singular block there does not raise.  Singleton mode
    uses the reversibility relaxation and is an upper bound up to the |S|
    factor.  It takes every singleton capacity from diag(Lap_ff^{-1})
    (``_inverse_diagonal``, at most SINGLETON_LIMIT free states: one dense
    s x s buffer after the red-black reduction, s = m / 2 on the cube)
    before the numerator's potentials, so that buffer is freed before the
    sparse factor of the same interior is built; a singular interior
    therefore fails in the reduction's dense Cholesky (SolverNotConverged).

    The numerator takes each cap(M_i, U - M_i), U the union of the sets,
    from ``equilibrium_potential``; the k pairs share one interior factor,
    and the certificate carries their solutions.  An unknown ``mode``
    raises before anything is solved.
    """
    if mode not in ("auto", "exact", "singleton"):
        raise ValidationError(f"unknown mode {mode!r}")
    masks = _check_sets(chain, sets)
    k = len(masks)
    union = np.zeros(chain.n_states, dtype=bool)
    for m in masks:
        union |= m
    mu = chain.stationary
    free = np.flatnonzero(~union)
    if mode == "auto":
        mode = "singleton" if free.size > potential.EXACT_ENUM_LIMIT else "exact"
    if mode == "singleton" and free.size:
        # cap({y}, M) = 1 / (Lap_ff^{-1})_{yy} on the killed interior
        if free.size > SINGLETON_LIMIT:
            raise ValidationError(
                f"{free.size} free states exceed the singleton rho limit {SINGLETON_LIMIT}"
            )
        diag = _inverse_diagonal(chain.laplacian[~union][:, ~union])

    solutions = [equilibrium_potential(chain, m, union & ~m) for m in masks]
    vals = [sol.capacity / mu[m].sum() for sol, m in zip(solutions, masks)]
    worst = int(np.argmax(vals))  # first maximum
    numerator = k * vals[worst]

    if free.size == 0:
        num = float(numerator)
        return RhoCertificate(num, num, np.inf, "numerator-only", num, None, None, solutions)

    if mode == "exact":
        if free.size > potential.EXACT_ENUM_LIMIT:
            raise ValidationError(
                f"{free.size} free states exceed the exact enumeration limit"
            )
        masks, mass, caps = _bounded_scan(
            capacity_scan_context(chain), free, union, mu, lambda m, c: -(c / m)
        )
        vals = caps / mass
        i = int(np.argmin(vals))  # first minimum: ties go to the lowest bits
        den, arg = vals[i], masks[i]
        rho = numerator / den
    else:
        vals = 1.0 / (diag * mu[free])
        k_min = int(np.argmin(vals))
        den = float(vals[k_min])
        arg = np.zeros(chain.n_states, dtype=bool)
        arg[free[k_min]] = True
        den = den / chain.n_states  # reversibility relaxation, |S| factor
        rho = numerator / den
    rho = float(rho)
    return RhoCertificate(
        rho, rho if mode == "exact" else 0.0, rho, mode, float(numerator), float(den), arg,
        solutions,
    )


def _colour_class(mat):
    """Mask of one colour class of each bipartite component of mat's graph.

    In the double cover [[0, P], [P, 0]], P the off-diagonal pattern of the
    m x m matrix, u is in the class when its component is labelled before
    that of its copy u + m.  Labels follow the lowest state of a component,
    so the class holds the lowest state of each bipartite component.  A
    non-bipartite component's double cover is connected, so it gives the
    class nothing.
    """
    m = mat.shape[0]
    coo = mat.tocoo()
    off = coo.row != coo.col
    r, c = coo.row[off], coo.col[off]
    cover = sp.coo_matrix(
        (np.ones(2 * r.size), (np.r_[r, r + m], np.r_[c + m, c])), shape=(2 * m, 2 * m)
    )
    lab = connected_components(cover, directed=False)[1]
    return lab[:m] < lab[m:]


def _inverse_diagonal(mat):
    """diag(mat^{-1}) of a sparse SPD matrix by one red-black reduction.

    I (``_colour_class``) is an independent set of mat's graph.  With
    d = diag(mat)_I and E the other states, eliminating I leaves the sparse
    Schur complement S = mat_EE - mat_EI D^-1 mat_IE, made dense in one
    Fortran-ordered s x s buffer that ``potrf`` and ``dtrtri`` overwrite in
    turn: S = C C^T, then C^{-1}.  For y in E, (mat^{-1})_yy is the squared
    norm of column y of C^{-1}; for y in I it is 1/d_y + |C^{-1} a_y|^2,
    a_y = mat_Ey / d_y, taken ROW_BLOCK rows at a time from the sparse
    (D^-1 mat_IE) C^{-T}, never from a dense s x |I| product.  On a
    single-flip cube or a birth-death chain s = m / 2, so the factor takes
    1/8 of the flops and 1/4 of the memory of the whole block; with no
    bipartite component I is empty and the arithmetic is that of the whole
    block's factor.  It skips scipy's finiteness scan, whose boolean copy
    would add s^2 bytes; the Laplacian of a validated chain is finite.
    """
    ind = _colour_class(mat)
    ext = ~ind
    diag_i = 1.0 / mat.diagonal()[ind]
    a_ie = mat[ind][:, ext]
    g = sp.diags(diag_i) @ a_ie
    out = np.empty(mat.shape[0])
    if ext.any():  # else mat is diagonal, and LAPACK rejects an empty matrix
        try:
            c = scipy.linalg.cholesky(
                (mat[ext][:, ext] - a_ie.T @ g).toarray(order="F"), lower=True,
                overwrite_a=True, check_finite=False,
            )
        except np.linalg.LinAlgError as exc:
            raise SolverNotConverged(f"interior Laplacian not positive definite: {exc}")
        c_inv, info = lapack.dtrtri(c, lower=1, overwrite_c=1)
        if info != 0:
            raise SolverNotConverged(f"triangular inverse failed with info={info}")
        out[ext] = np.einsum("ij,ij->j", c_inv, c_inv)
        for lo in range(0, diag_i.size, ROW_BLOCK):
            w = g[lo:lo + ROW_BLOCK] @ c_inv.T
            diag_i[lo:lo + ROW_BLOCK] += np.einsum("ij,ij->i", w, w)
    out[ind] = diag_i
    return out


def _partition(masks, solutions):
    """Local valleys and the induced partition of the state space.

    Valley membership compares the hitting probabilities
    h_i(x) = P_x[tau_{M_i} < tau_{union minus M_i}] of the set solutions;
    contested states go to the valley with the largest value, ties resolved
    to the lowest index.  Returns (valleys, partition, assignment, tie_mask).
    """
    pots = np.array([sol.potential for sol in solutions])
    near = pots >= pots.max(axis=0) - TIE_TOL
    valleys = list(near)
    assignment = near.argmax(axis=0)  # the first candidate
    ties = near.sum(axis=0) > 1
    partition = [assignment == i for i in range(len(masks))]
    for i, m in enumerate(masks):
        if not np.all(partition[i][m]):
            raise ValidationError("partition failed to contain its metastable set")
    return valleys, partition, assignment, ties


def exit_variance(chain, sol):
    """Var_{mu_A}[nu_{A,B} / mu_A] for the pair (A, B) of ``sol``.

    The density nu_{A,B} / mu_A = e_{A,B} mu[A] / cap(A, B) has mu_A-mean 1
    by construction, so the mean is taken as exactly 1.
    """
    a = sol.set_a
    mass = chain.mass(a)
    dens = sol.equilibrium_measure[a] * mass / sol.capacity
    w = chain.stationary[a] / mass
    return float(np.dot(w, (dens - 1.0) ** 2))


def trace_chain(chain, M):
    """The chain watched on M (its trace process), reversible for mu[. | M].

    Its conductances c(x, y) = sum_z w(x, z) h_y(z), h_y = h_{{y}, M - {y}},
    sums of nonnegative terms, are the Schur complement of the Laplacian onto
    M, so its energy is the least global energy with the same values on M,
    divided by mu[M].  One solve takes every h_y, and sets h_y = 1 on the
    dead ends next to y alone.  The constructor checks c(x, y) against the
    independently summed c(y, x); a failure raises SolverNotConverged.
    """
    idx = np.flatnonzero(subset_mask(chain, M))
    h = potential._solve_potentials(chain, [np.arange(chain.n_states) == x for x in idx])
    c = chain.conductance[idx] @ np.maximum(h, 0.0)
    np.fill_diagonal(c, 0.0)
    mu = chain.stationary[idx]
    kernel = c / mu[:, None]
    np.fill_diagonal(kernel, float(chain.discrete_time) - kernel.sum(axis=1))
    try:
        return ReversibleChain(
            [chain.states[x] for x in idx], kernel, mu / mu.sum(), chain.discrete_time
        )
    except ValidationError as exc:
        raise SolverNotConverged(f"trace chain on {idx.size} states: {exc}") from None


def c_mass_constant(chain, partition):
    """max_i max_{x in S_i} ln(1 + e^2 / mu_i(x)) over the partition."""
    e2 = float(np.exp(2.0))
    worst = 0.0
    for part in partition:
        p = np.asarray(part, dtype=bool)
        cond = chain.stationary[p] / chain.stationary[p].sum()
        worst = max(worst, float(np.max(np.log1p(e2 / cond))))
    return worst


def build_structure(chain, sets, mode="auto", seed=0):
    """Assemble the full metastable structure for the given candidate sets.

    Each pair is solved once.  The rho certificate brings the solutions of
    (M_i, U - M_i), whose potentials give the valleys; each other ordered
    pair (M_i, M_j) is solved here, and its solution gives eta_pairs[i, j]
    and, for i < j, caps[i, j] = caps[j, i].  ``solutions`` keeps them all,
    keyed by the mask bytes of (A, B), for ``mean_exit_asymptotics``.
    C_PI,i and C_LSI,i are the oracle's intervals on ``trace_chain(chain,
    M_i)`` over mu[M_i]; a singleton has C_PI,i = 0 and C_LSI,i in
    [0, inf].  C_PI(M) and C_LSI(M) take max(1, sum_i mu[M_i] C_i) end by
    end.  A set over ``oracle.LSI_SIZE_LIMIT`` states raises
    ValidationError before anything is solved.
    """
    masks = _check_sets(chain, sets)
    k = len(masks)
    for i, m in enumerate(masks):
        if m.sum() > oracle.LSI_SIZE_LIMIT:
            raise ValidationError(f"metastable set {i} has over {oracle.LSI_SIZE_LIMIT} states")
    cert = rho_metastability(chain, masks, mode=mode)
    sols = {(s.set_a.tobytes(), s.set_b.tobytes()): s for s in cert.solutions}
    valleys, partition, assignment, ties = _partition(masks, cert.solutions)

    caps = np.zeros((k, k))
    eta_pairs = np.zeros((k, k))
    for i, j in itertools.permutations(range(k), 2):
        key = masks[i].tobytes(), masks[j].tobytes()
        if key not in sols:
            sols[key] = equilibrium_potential(chain, masks[i], masks[j])
        sol = sols[key]
        caps[i, j] = caps[j, i] if j < i else sol.capacity
        eta_pairs[i, j] = exit_variance(chain, sol) * sol.capacity / chain.mass(masks[i])

    mu_sets = np.array([chain.mass(m) for m in masks])
    mu_parts = np.array([chain.mass(p) for p in partition])

    cpi_local, clsi_local = [Certified(0.0, 0.0, 0.0)] * k, [Certified(0.0, 0.0, np.inf)] * k
    for i, m in enumerate(masks):
        if m.sum() > 1:
            lsi = estimate_clsi(trace_chain(chain, m), seed)
            cpi_local[i], clsi_local[i] = lsi.spectral.c_pi / mu_sets[i], lsi.c_lsi / mu_sets[i]

    def global_constant(local):
        return Certified(*(float(max(1.0, np.dot(mu_sets, [getattr(c, end) for c in local])))
                           for end in ("value", "lower", "upper")))

    return MetastableStructure(
        sets=masks,
        rho_certificate=cert,
        valleys=valleys,
        partition=partition,
        assignment=assignment,
        tie_states=ties,
        caps=caps,
        mu_sets=mu_sets,
        mu_parts=mu_parts,
        eta=float(eta_pairs.max()),
        eta_pairs=eta_pairs,
        c_mass=c_mass_constant(chain, partition),
        cpi_local=cpi_local,
        clsi_local=clsi_local,
        cpi_M=global_constant(cpi_local),
        clsi_M=global_constant(clsi_local),
        solutions=sols,
    )


def mean_exit_asymptotics(chain, structure, i):
    """Sharp mean-exit main term mu[S_i]/cap(M_i, B) against the exact value.

    B collects the metastable sets at least as heavy as M_i.  The reported
    gap is the relative difference; delta and C_ratio parametrize the
    reported error form O(delta + rho ln(C_ratio / rho)), None where that
    term is undefined (rho outside (0, C_ratio)).
    """
    k = structure.n_sets
    heavier = [
        j
        for j in range(k)
        if j != i and structure.mu_sets[j] >= structure.mu_sets[i]
    ]
    if not heavier:
        raise ValidationError(f"no metastable set is at least as heavy as {i}")
    b = np.zeros(chain.n_states, dtype=bool)
    for j in heavier:
        b |= structure.sets[j]
    a = structure.sets[i]
    sol = structure.solutions.get((a.tobytes(), b.tobytes()))
    if sol is None:
        sol = equilibrium_potential(chain, a, b)
    main = structure.mu_parts[i] / sol.capacity
    # E_{nu_{A,B}}[tau_B] = E_mu[h_{A,B}] / cap(A, B): no second solve, whose
    # Lap w = mu loses its digits at low temperature
    exact = float(np.dot(chain.stationary, sol.potential)) / sol.capacity
    others = [j for j in range(k) if j != i and j not in heavier]
    delta = max(
        (structure.mu_parts[j] / structure.mu_parts[i] for j in others),
        default=0.0,
    )
    c_ratio = max(structure.mu_parts[j] / structure.mu_parts[i] for j in heavier)
    rho = structure.rho_certificate.value
    # rho ln(C_ratio / rho) is the error term only while 0 < rho < C_ratio
    err = float(delta + rho * np.log(c_ratio / rho)) if 0.0 < rho < c_ratio else None
    return {
        "main_term": float(main),
        "exact": float(exact),
        "relative_error": float(abs(exact - main) / exact),
        "delta": float(delta),
        "c_ratio": float(c_ratio),
        "error_form": err,
        "target": heavier,
    }


def pi_lsi_estimates(chain, structure):
    """Main terms of the sharp Poincare and log-Sobolev bounds.

    pi_lower = max_{i != j} mu[S_i] mu[S_j] / cap(M_i, M_j), pi_upper the
    half-sum of the same terms; the LSI analogues divide each term by the
    logarithmic mean of the partition masses.  Error factors are reported as
    diagnostics only; the multiplicative constants in them are not pinned
    down, so they are never folded into the main terms.
    """
    k = structure.n_sets
    pi_terms, lsi_terms = [], []
    for i in range(k):
        for j in range(i + 1, k):
            t = structure.mu_parts[i] * structure.mu_parts[j] / structure.caps[i, j]
            pi_terms.append(t)
            lsi_terms.append(
                t / log_mean(structure.mu_parts[i], structure.mu_parts[j])
            )
    pi_terms = np.asarray(pi_terms)
    lsi_terms = np.asarray(lsi_terms)
    rho, eta = structure.rho_certificate.value, structure.eta
    out = {
        "pi_lower": float(pi_terms.max()),
        "pi_upper": float(pi_terms.sum()),
        "lsi_lower": float(lsi_terms.max()),
        "lsi_upper": float(lsi_terms.sum()),
        "diag_pi_error_factor": float(np.sqrt(structure.cpi_M.value * (rho + eta))),
        "diag_lsi_error_factor": float(
            np.sqrt(structure.c_mass * structure.clsi_M.value * (rho + eta))
        ),
    }
    if k == 2:
        out["k2_point_estimates"] = {
            "c_pi": out["pi_lower"],
            "c_lsi": out["lsi_lower"],
        }
    return out
