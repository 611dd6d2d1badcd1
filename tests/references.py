"""Reference implementations that the tests compare the package against.

None of this is reached by a command or by the benchmark: closed forms and
brute-force oracles (the birth-death path, the weighted Hardy constant and
its Muckenhoupt sandwich, exact piecewise-linear Young conjugates, the gated
two-point coupling law), the harmonic-neighbourhood lemma checked against
the package's capacities, the projection onto a partition, the local
Poincare constant from a high-precision Schur complement, the tuple
lookup of mesoscopic points, and the per-point flood fill that found the
RFCW minima before the neighbour table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath
import numpy as np
import scipy.linalg

from metastab import InequalityViolation, ValidationError, build_chain, equilibrium_potential
from metastab.chains import _as_state_function, subset_mask
from metastab.rfcw import MinimaOrdering, _refine_minimum, bottleneck_height


# -- chains ----------------------------------------------------------------------


def variance(mu, f):
    """Variance of f under the probability vector mu."""
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    m = float(np.dot(mu, f))
    d = f - m
    return float(np.dot(mu, d * d))


def conditional_expectation(chain, partition, f):
    """Project f onto a partition: E_mu[f | block], piecewise constant.

    The total-variance identity
    Var[f] = sum_blocks mu[block] Var_block[f] + Var[E[f | partition]]
    holds for the result to machine precision.
    """
    f = _as_state_function(chain, f)
    masks = [subset_mask(chain, b) for b in partition]
    cover = np.zeros(chain.n_states, dtype=int)
    for m in masks:
        cover += m.astype(int)
    if np.any(cover != 1):
        raise ValidationError("partition must cover the state space disjointly")
    mu = chain.stationary
    out = np.empty(chain.n_states)
    for m in masks:
        out[m] = float(np.dot(mu[m], f[m]) / mu[m].sum())
    return out


def local_cpi_schur(chain, M):
    """C_PI,i = sup{Var_{mu_M}[f] : E(f) = 1} of the chain's own float
    conductances, evaluated at 320 digits.

    The least energy of f with given values on M is f^T S f, S the Schur
    complement of the Laplacian onto M, so the constant is 1 / lambda_2 of
    the pencil (S, diag(mu_M)).  At low temperature S keeps only the
    digits that survive a cancellation of e^{-beta Delta}; 120 digits were
    too few on a 15-state double well at beta 12.
    """
    m = subset_mask(chain, M)
    idx, free = np.flatnonzero(m), np.flatnonzero(~m)
    with mpmath.workdps(320):
        n = chain.n_states
        lap = mpmath.zeros(n, n)
        for i, j, w in zip(chain._edge_i, chain._edge_j, chain._edge_w):
            w = mpmath.mpf(float(w))
            lap[i, j] -= w
            lap[j, i] -= w
            lap[i, i] += w
            lap[j, j] += w

        def block(rows, cols):
            return mpmath.matrix([[lap[r, c] for c in cols] for r in rows])

        schur = block(idx, idx)
        if free.size:
            schur -= block(idx, free) * mpmath.inverse(block(free, free)) * block(free, idx)
        mu = [mpmath.mpf(float(chain.stationary[x])) for x in idx]
        root = [mpmath.sqrt(v / mpmath.fsum(mu)) for v in mu]
        k = idx.size
        sym = mpmath.matrix(k, k)
        for a in range(k):
            for b in range(k):
                sym[a, b] = (schur[a, b] + schur[b, a]) / (2 * root[a] * root[b])
        vals = sorted(mpmath.eigsy(sym, eigvals_only=True))
        return float(1 / vals[1])


# -- birth-death closed forms and the Muckenhoupt sandwich ---------------------


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
    return build_chain(list(range(n)), edges, stationary=mu, time="continuous")


def muckenhoupt_constant(mu_weights, nu_weights):
    """C_2 = sup_{x >= 1} (sum_{y<x} 1/mu(y)) (sum_{y>=x} nu(y)).

    Both weight vectors live on {0, ..., n}; mu enters only through the
    prefix resistances, so its last entry never contributes.
    """
    mu = np.asarray(mu_weights, dtype=float)
    nu = np.asarray(nu_weights, dtype=float)
    if mu.size == 0 or nu.size == 0:
        raise ValidationError("empty weight list")
    if mu.size != nu.size or mu.size < 2:
        raise ValidationError("mu and nu must share a length of at least 2")
    if np.any(mu <= 0.0) or np.any(nu < 0.0):
        raise ValidationError("weights must be positive")
    resist = np.cumsum(1.0 / mu[:-1])
    tails = np.cumsum(nu[::-1])[::-1]
    return float(np.max(resist * tails[1:]))


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

# -- piecewise-linear Young functions (exact conjugation) -----------------------


@dataclass
class PiecewiseLinearYoung:
    """Convex piecewise-linear Young function and its exact conjugate.

    Phi has increasing slopes on consecutive segments starting at 0; its
    conjugate is again piecewise linear up to an infinite tail beyond the
    largest slope.  The pseudo-inverse follows the strict-inequality
    convention, and ``near_jump`` flags arguments within 1e-12 of the height
    where Psi jumps to infinity.
    """

    slopes: np.ndarray
    breaks: np.ndarray  # len(slopes) - 1 interior breakpoints, increasing

    def __post_init__(self):
        self.slopes = np.asarray(self.slopes, dtype=float)
        self.breaks = np.asarray(self.breaks, dtype=float)
        if np.any(np.diff(self.slopes) <= 0.0) or np.any(self.slopes < 0.0):
            raise ValidationError("slopes must be nonnegative and increasing")
        if self.slopes[-1] <= 0.0:
            raise ValidationError("the last slope must be positive")
        # knot values of phi at 0 and the interior breakpoints
        seg = np.diff(np.concatenate([[0.0], self.breaks]))
        self._phi_knots_x = np.concatenate([[0.0], self.breaks])
        self._phi_knots_v = np.concatenate(
            [[0.0], np.cumsum(self.slopes[:-1] * seg)]
        )
        # conjugate knots: psi(r) has breakpoints at the slopes, slopes are the
        # breakpoints of phi; finite up to slopes[-1], infinite beyond
        bx = self._phi_knots_x
        bv = self._phi_knots_v
        self._psi_knots_x = np.concatenate([[0.0], self.slopes])
        self._psi_knots_v = np.concatenate(
            [[0.0], bx * self.slopes - bv]
        )

    def phi(self, r):
        r = np.asarray(r, dtype=float)
        idx = np.clip(
            np.searchsorted(self._phi_knots_x, r, side="right") - 1,
            0,
            self.slopes.size - 1,
        )
        return self._phi_knots_v[idx] + self.slopes[idx] * (
            r - self._phi_knots_x[idx]
        )

    def psi(self, r):
        r = np.asarray(r, dtype=float)
        out = np.full(r.shape, np.inf)
        fin = r <= self._psi_knots_x[-1]
        rf = r[fin]
        idx = np.clip(
            np.searchsorted(self._psi_knots_x, rf, side="right") - 1,
            0,
            self._psi_knots_x.size - 2,
        )
        x0 = self._psi_knots_x[idx]
        x1 = self._psi_knots_x[idx + 1]
        v0 = self._psi_knots_v[idx]
        v1 = self._psi_knots_v[idx + 1]
        slope = np.where(x1 > x0, (v1 - v0) / np.where(x1 > x0, x1 - x0, 1.0), 0.0)
        out[fin] = v0 + slope * (rf - x0)
        return out

    def psi_inverse(self, t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape)
        vmax = self._psi_knots_v[-1]
        high = t >= vmax
        out[high] = self._psi_knots_x[-1]
        low = ~high
        tv = t[low]
        # first knot with value strictly above t; the strict convention walks
        # past flat segments sitting exactly at height t
        idx = np.searchsorted(self._psi_knots_v, tv, side="right")
        idx = np.clip(idx, 1, self._psi_knots_v.size - 1)
        x0 = self._psi_knots_x[idx - 1]
        x1 = self._psi_knots_x[idx]
        v0 = self._psi_knots_v[idx - 1]
        v1 = self._psi_knots_v[idx]
        frac = np.where(v1 > v0, (tv - v0) / np.where(v1 > v0, v1 - v0, 1.0), 1.0)
        out[low] = x0 + np.clip(frac, 0.0, 1.0) * (x1 - x0)
        return out

    def near_jump(self, t):
        return np.abs(np.asarray(t, dtype=float) - self._psi_knots_v[-1]) <= 1e-12


def random_young_pair(rng):
    """Random piecewise-linear Young function for property tests."""
    m = int(rng.integers(2, 6))
    slopes = np.cumsum(rng.uniform(0.05, 1.5, size=m))
    if rng.uniform() < 0.3:
        slopes = np.concatenate([[0.0], slopes])
    breaks = np.cumsum(rng.uniform(0.1, 1.5, size=slopes.size - 1))
    return PiecewiseLinearYoung(slopes=slopes, breaks=breaks)


# -- coupling, metastable sets and the RFCW lattice -----------------------------


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

    rho = structure.rho_certificate.value
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


def point_index(land):
    """The landscape's points as a dictionary from block-sum tuples to indices."""
    return {tuple(int(v) for v in row): k for k, row in enumerate(land.points)}


def lattice_neighbors(land, k):
    """Indices of the single-flip lattice neighbors of point index k.

    A step of -2 or +2 in block l's sum moves its digit by one and the index
    by ``land.strides[l]``; an empty block has no neighbors.
    """
    out = []
    for v, s, stride in zip(
        land.points[k].tolist(), land.block_sizes.tolist(), land.strides.tolist()
    ):
        if v > -s:
            out.append(k - stride)
        if v < s:
            out.append(k + stride)
    return out


def communication_height(land, a_points, b_points):
    """Minimax free energy over lattice paths connecting the two sets."""
    return bottleneck_height(
        land.free_energy, lambda k: lattice_neighbors(land, k), a_points, b_points
    )


def flood_fill_minima(model, land):
    """``rfcw.find_minima_and_order`` by a per-point flood fill of the plateaus.

    Strict neighbor comparison with plateau components grouped by flood
    fill; the labels satisfy the greedy depth recursion
    Delta_{k-1} = Phi(m_k, M_{k-1}) - F(m_k), picked smallest-first from the
    top label downward, ties broken by lexicographic state order.  Every
    minimum also gets its continuous critical-point refinement.
    """
    if land.free_energy is None:
        raise ValidationError("free energy unavailable (beta = 0?)")
    F = land.free_energy
    P = land.n_points
    scale = 1e-12 * (1.0 + np.max(np.abs(F)))
    visited = np.zeros(P, dtype=bool)
    components = []
    for start in range(P):
        if visited[start]:
            continue
        comp = [start]
        visited[start] = True
        stack = [start]
        is_min = True
        while stack:
            node = stack.pop()
            for nb in lattice_neighbors(land, node):
                df = F[nb] - F[node]
                if abs(df) <= scale:
                    if not visited[nb]:
                        visited[nb] = True
                        comp.append(nb)
                        stack.append(nb)
                elif df < 0.0:
                    is_min = False
        if is_min:
            components.append(sorted(comp))
    reps = [
        min(comp, key=lambda k: tuple(land.points[k])) for comp in components
    ]
    order0 = sorted(range(len(reps)), key=lambda c: tuple(land.points[reps[c]]))
    components = [components[c] for c in order0]
    reps = [reps[c] for c in order0]

    K = len(components)
    phi = np.zeros((K, K))
    for i in range(K):
        for j in range(i + 1, K):
            phi[i, j] = phi[j, i] = communication_height(
                land, components[i], components[j]
            )

    remaining = list(range(K))
    labels_rev = []
    deltas_rev = []
    while len(remaining) > 1:
        scored = []
        for c in remaining:
            others = [o for o in remaining if o != c]
            depth = min(phi[c][o] for o in others) - F[reps[c]]
            scored.append((depth, tuple(land.points[reps[c]]), c))
        depth, _, chosen = min(scored)
        labels_rev.append(chosen)
        deltas_rev.append(depth)
        remaining.remove(chosen)
    labels = remaining + labels_rev[::-1]
    deltas = np.array(deltas_rev[::-1])
    degenerate = K < 2
    return MinimaOrdering(
        minima=[reps[c] for c in labels],
        deltas=deltas,
        phi=phi[np.ix_(labels, labels)],
        degenerate=degenerate,
        refined=[_refine_minimum(model, land, reps[c]) for c in labels],
    )
