"""Young pairs, Orlicz K-norms, the capacitary integral and the
measure-capacity constant C_Psi.

The K-norm ||f||_{Phi, nu, K} = sup{ E_nu[|f| g] : g >= 0, E_nu[Psi(g)] <= K }
is evaluated through its one-dimensional Lagrangian dual: the optimal g is
g*(x) = Phi'(|f(x)| / lambda) and the multiplier solves the active budget
equation E_nu[Psi(g*)] = K, which is monotone in lambda and bisected exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chains import (
    Certified,
    InequalityViolation,
    ValidationError,
    dirichlet_form,
    subset_mask,
)
from . import potential
from .potential import (
    _bounded_scan,
    _masses,
    _scan_capacities,
    capacity_scan_context,
    equilibrium_potential,
)

# most states of a lower-bound scan: a dense n x n context and one dense block
# per singleton, O(n^4); 4.2 s and 86 MB at 512 (one BLAS thread, 2-vCPU VM)
LOWER_BOUND_SCAN_LIMIT = 512


class UnboundedNorm(ValidationError):
    pass


@dataclass
class YoungPair:
    """A Legendre-Fenchel dual pair (Phi, Psi) with pseudo-inverse.

    ``phi`` and ``psi`` accept numpy arrays.  ``psi_inverse`` implements the
    strict convention inf{s : Psi(s) > t}.  ``phi_prime`` is needed by the
    dual norm solver; ``box`` marks the indicator-type Psi that is zero up to
    the given level and infinite beyond it.
    """

    name: str
    phi: Callable
    psi: Callable
    psi_inverse: Callable
    phi_prime: Callable | None = None
    box: float | None = None


def l1_pair():
    """Limiting pair p -> 1: Phi_1(r) = r, Psi_1 = 0 on [0,1], infinity beyond."""

    def psi(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= 1.0, 0.0, np.inf)

    def psi_inverse(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0.0, 1.0, 0.0)

    return YoungPair(
        name="l1",
        phi=lambda r: np.asarray(r, dtype=float),
        psi=psi,
        psi_inverse=psi_inverse,
        phi_prime=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        box=1.0,
    )


def entropy_pair():
    """Pair (Phi_Ent, Psi_Ent) = (1_{[1,oo)}(r)(r ln r - r + 1), e^r - 1)."""

    def phi(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        m = r >= 1.0
        rm = r[m]
        out[m] = rm * np.log(rm) - rm + 1.0
        return out

    def phi_prime(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        m = r > 1.0
        out[m] = np.log(r[m])
        return out

    return YoungPair(
        name="ent",
        phi=phi,
        psi=lambda r: np.expm1(np.asarray(r, dtype=float)),
        psi_inverse=lambda t: np.log1p(np.asarray(t, dtype=float)),
        phi_prime=phi_prime,
    )


def p_pair(p):
    """Power pair Phi_p(r) = r^p / p with conjugate exponent p* = p/(p-1)."""
    if not 1.0 < p < np.inf:
        raise ValidationError(f"p must be finite and exceed 1, got {p!r}")
    q = p / (p - 1.0)

    return YoungPair(
        name=f"p{p:g}",
        phi=lambda r: np.asarray(r, dtype=float) ** p / p,
        psi=lambda r: np.asarray(r, dtype=float) ** q / q,
        psi_inverse=lambda t: (q * np.asarray(t, dtype=float)) ** (1.0 / q),
        phi_prime=lambda r: np.asarray(r, dtype=float) ** (p - 1.0),
    )


def builtin_pairs():
    """Catalog of the built-in Legendre-Fenchel pairs: l1, ent and p = 1.5, 2, 3."""
    pairs = {"l1": l1_pair(), "ent": entropy_pair()}
    for p in (1.5, 2.0, 3.0):
        pair = p_pair(p)
        pairs[pair.name] = pair
    return pairs


def get_pair(spec):
    """Resolve a pair from a name like ``ent``, ``l1`` or ``p:2.5``."""
    if isinstance(spec, YoungPair):
        return spec
    if spec == "l1":
        return l1_pair()
    if spec == "ent":
        return entropy_pair()
    if spec.startswith("p:"):
        try:
            p = float(spec[2:])
        except ValueError:
            raise ValidationError(f"Young pair {spec!r} needs a numeric p") from None
        return p_pair(p)
    raise ValidationError(f"unknown Young pair {spec!r}")


# -- norms ---------------------------------------------------------------------


def indicator_orlicz_norm(A_mass, pair, K):
    """Closed form nu[A] Psi^{-1}(K / nu[A]) for an indicator function."""
    if A_mass <= 0.0:
        raise ValidationError("indicator norm needs nu[A] > 0")
    if K <= 0.0:
        raise ValidationError("K must be positive")
    return float(A_mass * pair.psi_inverse(K / A_mass))


def orlicz_norm(f, nu, pair, K):
    """K-Orlicz norm by the dual/KKT method.

    Pairs with an indicator-type Psi reduce to the pointwise box constraint
    g <= box, where the budget is vacuous.  Otherwise the active-budget
    equation E_nu[Psi(Phi'(|f|/lambda))] = K is solved by bisection and the
    norm is E_nu[|f| g*].
    """
    f = np.abs(np.asarray(f, dtype=float))
    nu = np.asarray(nu, dtype=float)
    if f.shape != nu.shape:
        raise ValidationError("f and nu must have matching shapes")
    if K <= 0.0:
        raise ValidationError("K must be positive")
    if pair.box is not None:
        return pair.box * float(np.dot(nu, f))
    if pair.phi_prime is None:
        raise ValidationError(
            "the dual solver needs phi_prime; supply it on the YoungPair"
        )
    support = (nu > 0.0) & (f > 0.0)
    if not support.any():
        return 0.0
    fs, ns = f[support], nu[support]

    # unboundedness: a bounded Psi lets g grow without violating the budget
    with np.errstate(over="ignore"):
        probe = float(np.dot(ns, np.minimum(pair.psi(np.full(fs.shape, 1e12)), 1e300)))
    if probe <= K:
        raise UnboundedNorm("Psi too flat: the supremum is infinite")

    def budget(lam):
        g = pair.phi_prime(fs / lam)
        return float(np.dot(ns, pair.psi(g)))

    lo = hi = 1.0
    while budget(hi) > K:
        hi *= 2.0
        if hi > 1e300:
            raise UnboundedNorm("budget never met; the supremum is infinite")
    while budget(lo) <= K and lo > 1e-300:
        lo /= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if budget(mid) > K:
            lo = mid
        else:
            hi = mid
    lam = hi
    g = pair.phi_prime(fs / lam)
    return float(np.dot(ns, fs * g))


# -- capacitary machinery --------------------------------------------------------


def capacitary_integral(chain, f, B):
    """Exact value of the layer-cake integral int_0^inf 2t cap(A_t, B) dt.

    The super level-sets A_t = {|f| > t} are piecewise constant in t, so the
    integral is a finite sum over the sorted distinct values of |f|.  Returns
    the integral together with 4 E(f); a violated capacitary inequality,
    integral > 4 E(f) + 1e-10, raises InequalityViolation.
    """
    b = subset_mask(chain, B)
    if not b.any():
        raise ValidationError("B must be nonempty")
    f = np.asarray(f, dtype=float)
    if np.any(f[b] != 0.0):
        raise ValidationError("f must vanish identically on B")
    af = np.abs(f)
    levels = np.unique(af)
    levels = levels[levels > 0.0]
    four_energy = 4.0 * dirichlet_form(chain, f)
    if levels.size == 0:
        return 0.0, four_energy
    lo = np.concatenate([[0.0], levels[:-1]])
    caps, _ = _scan_capacities(capacity_scan_context(chain), af > lo[:, None], b)
    # cumsum adds the terms left to right, one at a time
    total = float(np.cumsum((levels * levels - lo * lo) * caps)[-1])
    if total > four_energy + 1e-10:
        raise InequalityViolation(
            f"capacitary inequality violated: {total!r} > {four_energy!r}"
        )
    return total, four_energy


def measure_capacity_constant(chain, nu, B, pair, K):
    """C_Psi = max over A in S \\ B of nu[A] Psi^{-1}(K/nu[A]) / cap(A, B).

    Exact up to ``potential.EXACT_ENUM_LIMIT`` free states: a bounded scan
    solves every subset whose singleton-capacity bound can reach the maximum
    and rules out the rest unsolved, so a singular block there does not
    raise.  Beyond the limit, a restricted scan over singletons and super
    level-sets of the equilibrium potential seeded at the best singleton,
    labeled as a lower bound, on at most ``LOWER_BOUND_SCAN_LIMIT`` states
    (checked before the scan allocates).  ``c_psi`` is on [c, c] in exact
    mode and on [c, inf] in ``lower_bound`` mode.  Ties go to the first
    candidate: in bit order, singletons before level sets.
    """
    b = subset_mask(chain, B)
    if b.all():
        raise ValidationError("B must leave at least one state free")
    if not b.any():
        raise ValidationError("B must be nonempty")
    if K <= 0.0:
        raise ValidationError("K must be positive")
    nu = _measure(chain, nu)
    n = chain.n_states
    free = np.flatnonzero(~b)
    light = nu[free][nu[free] > 0.0]
    if light.size and K / float(light.min()) == np.inf:
        raise ValidationError(f"K = {K!r} overflows K / nu[A]")
    exact = free.size <= potential.EXACT_ENUM_LIMIT
    if not exact and n > LOWER_BOUND_SCAN_LIMIT:
        raise ValidationError(f"{n} states exceed the Orlicz scan limit {LOWER_BOUND_SCAN_LIMIT}")
    ctx = capacity_scan_context(chain)
    best, best_mask = -np.inf, None

    def ratio(mass, caps):
        return mass * pair.psi_inverse(K / mass) / caps

    def fold(masks, mass, caps):
        # fold the first largest ratio among ``masks`` into the best so far
        nonlocal best, best_mask
        if mass.size == 0:
            return
        approx = ratio(mass, caps)
        # array powers may differ from scalar ones in the last bit; the first
        # maximum of the scalar ratios lies within 1e-15 of the array maximum
        top = np.flatnonzero(approx >= approx.max() * (1.0 - 1e-15))
        vals = [indicator_orlicz_norm(mass[i], pair, K) / caps[i] for i in top]
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, best_mask = vals[i], masks[top[i]]

    def scan(masks):
        mass = _masses(nu, masks)
        masks, mass = masks[mass > 0.0], mass[mass > 0.0]
        fold(masks, mass, _scan_capacities(ctx, masks, b)[0])

    if exact:
        mode = "exact"
        fold(*_bounded_scan(ctx, free, b, nu, ratio))
    else:
        mode = "lower_bound"
        scan(np.eye(n, dtype=bool)[free])
        if best_mask is None:
            raise ValidationError("no candidate set carries nu-mass")
        h = equilibrium_potential(chain, best_mask, b).potential
        scan((h >= np.unique(h[h > 0.0])[:, None]) & ~b)
    if best_mask is None:
        raise ValidationError("no candidate set carries nu-mass")
    c_psi = Certified(float(best), float(best), float(best) if mode == "exact" else np.inf)
    return {"c_psi": c_psi, "argmax": best_mask, "mode": mode}


def _measure(chain, nu):
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (chain.n_states,):
        raise ValidationError("measure has wrong length")
    if np.any(nu < 0.0):
        raise ValidationError("measure has negative mass")
    s = nu.sum()
    if abs(s - 1.0) > 1e-9:
        raise ValidationError("measure must be normalized")
    return nu
