"""Metastability diagnostics: the metastability ratio, valley partitions,
regularity and mass constants, mean-exit asymptotics and the sharp
Poincare / log-Sobolev main terms.

All probabilistic quantities are reduced to capacities through
P_{mu_A}[tau_B < tau_A] = cap(A, B) / mu[A].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .chains import (
    InequalityViolation,
    SolverNotConverged,
    ValidationError,
    log_mean,
    subset_mask,
)
from . import potential
from .potential import (
    _bounded_scan,
    _solve_potentials,
    capacity_scan_context,
    equilibrium_potential,
)

TIE_TOL = 1e-12


@dataclass
class RhoCertificate:
    """Witnessed evaluation of the metastability ratio.

    In singleton mode the value is an upper bound on the ratio carrying the
    documented |S| relaxation factor; in exact mode the denominator minimum
    runs over every nonempty subset outside the metastable sets.  When the
    sets cover the whole space the denominator family is empty and only the
    numerator is reported.
    """

    rho: float
    mode: str
    numerator: float
    denominator: float | None
    worst_set: int
    argmin_subset: np.ndarray | None
    whole_space: bool


@dataclass
class MetastableStructure:
    sets: list
    rho: float
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
    cpi_local: np.ndarray
    clsi_local: np.ndarray
    cpi_M: float
    clsi_M: float

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
    factor.
    """
    masks = _check_sets(chain, sets)
    k = len(masks)
    union = np.zeros(chain.n_states, dtype=bool)
    for m in masks:
        union |= m
    mu = chain.stationary

    # every numerator pair has the interior ~union, so one factorization
    # serves them all and the next solve on two of the sets;
    # cap(M_i, U - M_i) is the flux into M_i of 1 - h_i, taken as the sum of
    # the other potentials, which keeps the digits that 1 - h_i would lose
    pots = _solve_potentials(chain, masks)
    num_val, worst = -np.inf, -1
    for i, m in enumerate(masks):
        rest = np.delete(pots, i, axis=1).sum(axis=1)
        cap = -float((chain.laplacian @ rest)[m].sum())
        val = cap / mu[m].sum()
        if val > num_val:
            num_val, worst = val, i
    numerator = k * num_val

    free = np.flatnonzero(~union)
    if free.size == 0:
        return RhoCertificate(
            rho=float(numerator),
            mode="numerator-only",
            numerator=float(numerator),
            denominator=None,
            worst_set=worst,
            argmin_subset=None,
            whole_space=True,
        )

    limit = potential.EXACT_ENUM_LIMIT
    if mode == "auto":
        mode = "exact" if free.size <= limit else "singleton"
    if mode == "exact":
        if free.size > limit:
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
    elif mode == "singleton":
        # all singleton capacities from one factorization:
        # cap({y}, M) = 1 / (Lap_ff^{-1})_{yy} on the killed interior
        diag = _inverse_diagonal(chain.laplacian[~union][:, ~union])
        vals = 1.0 / (diag * mu[free])
        k_min = int(np.argmin(vals))
        den = float(vals[k_min])
        arg = np.zeros(chain.n_states, dtype=bool)
        arg[free[k_min]] = True
        den = den / chain.n_states  # reversibility relaxation, |S| factor
        rho = numerator / den
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    return RhoCertificate(
        rho=float(rho),
        mode=mode,
        numerator=float(numerator),
        denominator=float(den),
        worst_set=worst,
        argmin_subset=arg,
        whole_space=False,
    )


def _inverse_diagonal(mat):
    """diag(mat^{-1}) of a sparse SPD matrix from its dense Cholesky factor.

    With mat = C C^T, (mat^{-1})_yy is the squared norm of column y of C^{-1}.
    """
    try:
        c = scipy.linalg.cholesky(mat.toarray(), lower=True, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise SolverNotConverged(f"interior Laplacian not positive definite: {exc}")
    c_inv, info = lapack.dtrtri(c, lower=1, overwrite_c=1)
    if info != 0:
        raise SolverNotConverged(f"triangular inverse failed with info={info}")
    return np.einsum("ij,ij->j", c_inv, c_inv)


def metastable_partition(chain, sets):
    """Local valleys and the induced partition of the state space.

    Valley membership compares the hitting probabilities
    h_i(x) = P_x[tau_{M_i} < tau_{union minus M_i}]; contested states go to
    the valley with the largest value, ties resolved to the lowest index.
    Returns (valleys, partition, assignment, tie_mask).
    """
    masks = _check_sets(chain, sets)
    k = len(masks)
    union = np.zeros(chain.n_states, dtype=bool)
    for m in masks:
        union |= m
    pots = np.empty((k, chain.n_states))
    for i, m in enumerate(masks):
        pots[i] = equilibrium_potential(chain, m, union & ~m).potential

    top = pots.max(axis=0)
    valleys = [pots[i] >= top - TIE_TOL for i in range(k)]
    assignment = np.empty(chain.n_states, dtype=int)
    ties = np.zeros(chain.n_states, dtype=bool)
    for x in range(chain.n_states):
        cands = np.flatnonzero(pots[:, x] >= top[x] - TIE_TOL)
        assignment[x] = cands[0]
        ties[x] = cands.size > 1
    partition = [assignment == i for i in range(k)]
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


def eta_regularity(chain, M_i, M_j):
    """Smallest eta making the last-exit regularity bound an equality.

    Var_{mu_{M_i}}[nu_{M_i,M_j} / mu_{M_i}] * cap(M_i, M_j) / mu[M_i]; zero
    for singletons and whenever the escape probability is constant on M_i.
    """
    sol = equilibrium_potential(chain, M_i, M_j)
    return exit_variance(chain, sol) * sol.capacity / chain.mass(sol.set_a)


def local_pi_constant(chain, M):
    """Exact C_PI,i = sup{Var_{mu_M}[f] : E(f) = 1} with the global energy.

    Both quadratic forms kill constants, so the generalized eigenproblem is
    solved on the mu-mean-zero subspace where the energy form is definite.
    """
    m = subset_mask(chain, M)
    if m.sum() <= 1:
        return 0.0
    n = chain.n_states
    mu = chain.stationary
    cond = np.zeros(n)
    cond[m] = mu[m] / mu[m].sum()
    v = np.diag(cond) - np.outer(cond, cond)
    lap = chain.laplacian.toarray()
    q = np.zeros((n, n - 1))
    q[: n - 1, :] = np.eye(n - 1)
    q -= np.outer(np.ones(n), mu[: n - 1])
    a = q.T @ v @ q
    b = q.T @ lap @ q
    b = 0.5 * (b + b.T)
    a = 0.5 * (a + a.T)
    vals = scipy.linalg.eigh(a, b, eigvals_only=True)
    return float(vals[-1])


def local_lsi_constant(chain, M, seed=0):
    """Ascent lower bound on C_LSI,i = sup{Ent_{mu_M}[f^2] : E(f) = 1}."""
    from .oracle import entropy_ratio_ascent

    m = subset_mask(chain, M)
    if m.sum() <= 1:
        return 0.0
    weight = chain.conditional(m)
    rng = np.random.default_rng(seed)
    seeds = [m.astype(float), 1.0 + m, 1.0 - 0.5 * m]
    idx = np.flatnonzero(m)
    bump = np.zeros(chain.n_states)
    bump[idx[0]] = 1.0
    seeds.append(bump)
    for _ in range(8):
        seeds.append(rng.normal(size=chain.n_states))
    best, _, _, _ = entropy_ratio_ascent(chain, weight, seeds, max_iter=300)
    return max(best, 0.0)


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
    """Assemble the full metastable structure for the given candidate sets."""
    masks = _check_sets(chain, sets)
    k = len(masks)
    cert = rho_metastability(chain, masks, mode=mode)
    valleys, partition, assignment, ties = metastable_partition(chain, masks)

    caps = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            caps[i, j] = caps[j, i] = equilibrium_potential(
                chain, masks[i], masks[j]
            ).capacity

    eta_pairs = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i != j:
                eta_pairs[i, j] = eta_regularity(chain, masks[i], masks[j])

    mu_sets = np.array([chain.mass(m) for m in masks])
    mu_parts = np.array([chain.mass(p) for p in partition])

    cpi_local = np.array([local_pi_constant(chain, m) for m in masks])
    clsi_local = np.array([local_lsi_constant(chain, m, seed=seed) for m in masks])

    return MetastableStructure(
        sets=masks,
        rho=cert.rho,
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
        cpi_M=float(max(1.0, np.dot(mu_sets, cpi_local))),
        clsi_M=float(max(1.0, np.dot(mu_sets, clsi_local))),
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
    sol = equilibrium_potential(chain, structure.sets[i], b)
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
    rho = structure.rho
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
    rho, eta = structure.rho, structure.eta
    out = {
        "pi_lower": float(pi_terms.max()),
        "pi_upper": float(pi_terms.sum()),
        "lsi_lower": float(lsi_terms.max()),
        "lsi_upper": float(lsi_terms.sum()),
        "diag_pi_error_factor": float(np.sqrt(structure.cpi_M * (rho + eta))),
        "diag_lsi_error_factor": float(
            np.sqrt(structure.c_mass * structure.clsi_M * (rho + eta))
        ),
    }
    if k == 2:
        out["k2_point_estimates"] = {
            "c_pi": out["pi_lower"],
            "c_lsi": out["lsi_lower"],
        }
    return out


def harmonic_neighborhood(chain, structure, a_indices, b_indices, delta):
    """Level-set neighborhoods U_A(delta, B) with their certificates.

    Asserts 1 - 2 delta <= cap(A, B)/cap(U_A, U_B) <= 1 and, for each i on
    the A side, mu[S_i minus U_{M_i}] <= rho mu[M_i] / delta.
    """
    if not 0.0 < delta < 0.5:
        raise ValidationError("delta must lie in (0, 1/2)")
    a_indices = list(a_indices)
    b_indices = list(b_indices)
    if set(a_indices) & set(b_indices):
        raise ValidationError("A and B index sets overlap")
    n = chain.n_states
    a = np.zeros(n, dtype=bool)
    b = np.zeros(n, dtype=bool)
    parts_a = np.zeros(n, dtype=bool)
    parts_b = np.zeros(n, dtype=bool)
    for i in a_indices:
        a |= structure.sets[i]
        parts_a |= structure.partition[i]
    for j in b_indices:
        b |= structure.sets[j]
        parts_b |= structure.partition[j]

    sol = equilibrium_potential(chain, a, b)
    h = sol.potential
    u_a = parts_a & (h >= 1.0 - delta)
    u_b = parts_b & (h <= delta)
    cap_u = equilibrium_potential(chain, u_a, u_b).capacity
    ratio = sol.capacity / cap_u
    if not (1.0 - 2.0 * delta - 1e-10 <= ratio <= 1.0 + 1e-10):
        raise InequalityViolation(
            f"capacity ratio {ratio!r} outside [1 - 2 delta, 1]"
        )

    rho = structure.rho
    mass_bounds = []
    for i in a_indices:
        h_i = equilibrium_potential(chain, structure.sets[i], b).potential
        u_i = structure.partition[i] & (h_i >= 1.0 - delta)
        left = chain.mass(structure.partition[i] & ~u_i)
        right = rho * chain.mass(structure.sets[i]) / delta
        if left > right + 1e-12:
            raise InequalityViolation(
                f"neighborhood mass bound violated for set {i}: "
                f"{left!r} > {right!r}"
            )
        mass_bounds.append({"set": i, "excluded_mass": left, "bound": right})
    return {
        "u_a": u_a,
        "u_b": u_b,
        "cap_ab": sol.capacity,
        "cap_u": cap_u,
        "cap_ratio": float(ratio),
        "mass_bounds": mass_bounds,
    }
