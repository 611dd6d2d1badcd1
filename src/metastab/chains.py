"""Reversible Markov chains on finite state spaces.

A chain is either discrete time (kernel rows sum to one) or continuous time
(generator rows sum to zero with nonnegative off-diagonal rates).  Both
conventions share the edge conductances w(x, y) = mu(x) p(x, y), and every
quadratic functional here is expressed through them, so downstream modules
work on either kind of chain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

ROW_TOL = 1e-12
MASS_TOL = 1e-12
BALANCE_RTOL = 1e-10
DENSE_STATIONARY_LIMIT = 4096
# the one tolerance that decides a report tag (``Certified.mode``)
EXACT_RTOL = 1e-12


class MetastabError(Exception):
    """Base class for package errors."""


class ValidationError(MetastabError, ValueError):
    """Bad input or a violated structural invariant (CLI exit code 1)."""


class InequalityViolation(MetastabError, AssertionError):
    """A theorem-backed inequality failed numerically (CLI exit code 2)."""


class BadRowSum(ValidationError):
    pass


class DetailedBalanceViolation(ValidationError):
    pass


class NotIrreducible(ValidationError):
    pass


class SolverNotConverged(MetastabError):
    pass


@dataclass(frozen=True)
class Certified:
    """A value and an interval [lower, upper] certified to hold what it
    computes (one-sided: an infinite end).  ``mode`` is its report tag:
    ``exact`` when the interval is at most EXACT_RTOL |value| wide."""

    value: float
    lower: float
    upper: float

    @property
    def mode(self):
        if self.upper - self.lower <= EXACT_RTOL * abs(self.value) < math.inf:
            return "exact"
        return "bound"

    def __truediv__(self, scale):
        return Certified(self.value / scale, self.lower / scale, self.upper / scale)


class ReversibleChain:
    """Finite reversible chain with a validated stationary measure.

    Parameters
    ----------
    states : sequence of hashable
        Opaque state identifiers, mapped to dense indices in given order.
    kernel : scipy sparse or dense matrix
        Transition probabilities (discrete time) or generator rates
        (continuous time).
    stationary : array_like
        Strictly positive probability vector, reversible for the kernel.
    discrete_time : bool
        Time convention flag.

    Instances are immutable after construction and safe to share; all
    operations on them are pure functions.  Two private slots are set later:
    ``potential`` memoises the last interior's component labels and solver,
    and ``rfcw`` gives its hypercube chains an elimination order of the
    states for ``potential.sym_factor``.
    """

    def __init__(self, states, kernel, stationary, discrete_time=True):
        self.states = tuple(states)
        self.index = {s: i for i, s in enumerate(self.states)}
        if len(self.index) != len(self.states):
            raise ValidationError("duplicate state identifiers")
        self.kernel = sp.csr_matrix(kernel)
        self.stationary = np.array(stationary, dtype=float)
        self.discrete_time = bool(discrete_time)
        self._build_conductances(*self._validate())
        # (mask bytes, solve, mask bytes, labels), see potential._spd_solver
        self._interior_solver = None
        # None, or a permutation of the states, see potential.sym_factor
        self._fill_order = None

    # -- construction helpers -------------------------------------------------

    @property
    def n_states(self):
        return len(self.states)

    def _validate(self):
        n = self.n_states
        if self.kernel.shape != (n, n):
            raise ValidationError("kernel shape does not match state count")
        if self.stationary.shape != (n,):
            raise ValidationError("stationary measure has wrong length")
        if not np.all(np.isfinite(self.kernel.data)):
            raise ValidationError("kernel has non-finite entries")
        mu = self.stationary
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0.0):
            raise ValidationError("stationary measure must be finite and positive")
        if abs(mu.sum() - 1.0) > MASS_TOL:
            raise ValidationError(
                f"stationary measure sums to {mu.sum()!r}, not 1 within {MASS_TOL}"
            )

        # one pass over the canonical triplets; row sums as csr.sum(axis=1)
        rows = _row_sums(self.kernel.data, self.kernel.indptr)
        kernel = self.kernel if self.kernel.has_canonical_format else self.kernel.copy()
        kernel.sum_duplicates()  # sorts the copy
        r = np.repeat(np.arange(n), np.diff(kernel.indptr))
        off = r != kernel.indices
        # int64 keys: scipy stores int32 indices, and c * n wraps past 46,340 states
        r, c, v = r[off], kernel.indices[off].astype(np.int64), kernel.data[off]
        if np.any(v < 0.0):
            raise BadRowSum("negative off-diagonal kernel entry")
        target = 1.0 if self.discrete_time else 0.0
        bad = np.abs(rows - target) > ROW_TOL
        if np.any(bad):
            i = int(np.argmax(np.abs(rows - target)))
            raise BadRowSum(
                f"row sum {rows[i]!r} at state {self.states[i]!r} "
                f"(expected {target})"
            )

        # detailed balance, edge by edge, relative tolerance; reverse entries
        # are looked up by key and read 0 if absent
        key, rkey = r * n + c, c * n + r
        pos = np.searchsorted(key, rkey)
        found = np.take(key, pos, mode="clip") == rkey
        lhs = mu[r] * v
        rev = np.where(found, np.take(lhs, pos, mode="clip"), 0.0)
        gap = np.abs(lhs - rev)
        tol = BALANCE_RTOL * np.maximum(lhs, rev) + 1e-300
        if np.any(gap > tol):
            k = int(np.argmax(gap - tol))
            raise DetailedBalanceViolation(
                f"mu(x)p(x,y) != mu(y)p(y,x) at edge "
                f"({self.states[r[k]]!r}, {self.states[c[k]]!r}): "
                f"{lhs[k]!r} vs {rev[k]!r}"
            )

        # self-loops do not change the strong components
        ncomp, _ = connected_components(kernel, directed=True, connection="strong")
        if ncomp != 1:
            raise NotIrreducible(f"kernel support has {ncomp} strong components")
        # W = (w + w^T) / 2 with w = mu(x) p(x, y): an edge with no reverse
        # entry (it passed under the 1e-300 floor) gains its mirror (y, x)
        return np.append(key, rkey[~found]), np.append(0.5 * (lhs + rev), 0.5 * lhs[~found])

    def _build_conductances(self, key, val):
        keep = np.argsort(key, kind="stable")  # sorted but for appended mirrors
        keep = keep[val[keep] != 0.0]
        key, val = key[keep], val[keep]
        n = self.n_states
        self.conductance = _csr(val, key, n)
        # the Laplacian deg - W, each nonzero degree in its column's place
        diag = np.arange(n) * (n + 1)
        at = np.searchsorted(key, diag)
        deg = _row_sums(val, self.conductance.indptr)
        lkey, lval = np.insert(key, at, diag), np.insert(-val, at, deg)
        self.laplacian = _csr(lval[lval != 0.0], lkey[lval != 0.0], n)
        r, c = np.divmod(key, n)
        upper = c > r
        self._edge_i, self._edge_j, self._edge_w = r[upper], c[upper], val[upper]

    # -- representation -------------------------------------------------------

    def __repr__(self):
        kind = "discrete" if self.discrete_time else "continuous"
        return f"ReversibleChain(n={self.n_states}, {kind})"

    def mass(self, mask):
        """Total stationary mass of a subset."""
        return float(self.stationary[np.asarray(mask, dtype=bool)].sum())


def _row_sums(data, indptr):
    """Row sums of CSR arrays, added in stored order as csr.sum(axis=1) does."""
    out = np.zeros(indptr.size - 1, dtype=data.dtype)
    rows = np.flatnonzero(np.diff(indptr))
    out[rows] = np.add.reduceat(data, indptr[rows])
    return out


def _csr(data, keys, n):
    """n x n CSR matrix of entries with sorted row-major keys row * n + col."""
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    return sp.csr_matrix((data, keys % n, indptr), shape=(n, n))


def subset_mask(chain, subset):
    """Normalize a subset specification to a boolean membership mask.

    Accepts a boolean mask, an iterable of state identifiers, or an iterable
    of integer indices.
    """
    n = chain.n_states
    try:
        arr = np.asarray(subset)
    except ValueError:  # ragged nesting: no mask, and no hashable state id
        raise ValidationError(f"unknown state in {subset!r}") from None
    if arr.dtype == bool:
        if arr.shape != (n,):
            raise ValidationError("membership mask has wrong length")
        return arr.copy()
    mask = np.zeros(n, dtype=bool)
    for s in subset:
        if isinstance(s, (int, np.integer)) and s not in chain.index:
            if not 0 <= int(s) < n:
                raise ValidationError(f"state index {s} out of range")
            mask[int(s)] = True
        else:
            try:
                mask[chain.index[s]] = True
            except (KeyError, TypeError):  # TypeError: an unhashable id
                raise ValidationError(f"unknown state {s!r}") from None
    return mask


def build_chain(states, edges, stationary=None, time="discrete"):
    """Assemble and validate a reversible chain from weighted edges.

    Edges are ``(x, y, p)`` triples.  For discrete time any missing diagonal
    mass is assigned to p(x, x) (the lazy remainder); for continuous time the
    diagonal is fixed by the zero row-sum convention.  If ``stationary`` is
    omitted it is computed by a dense solve of pi P = pi (discrete) or
    pi L = 0 (continuous), which requires at most 4096 states; the computed
    measure must satisfy detailed balance or the build fails.
    """
    states = list(states)
    n = len(states)
    if n == 0:
        raise ValidationError("empty state set")
    idx = {s: i for i, s in enumerate(states)}
    if len(idx) != n:
        raise ValidationError("duplicate state identifiers")
    if time not in ("discrete", "continuous"):  # compared by ==, safe for lists
        raise ValidationError(f"unknown time convention {time!r}")
    discrete = time == "discrete"

    entries = {}
    for x, y, p in edges:
        if x not in idx or y not in idx:
            raise ValidationError(f"edge ({x!r}, {y!r}) references unknown state")
        try:
            p = float(p)
        except (TypeError, ValueError):
            raise ValidationError(f"edge ({x!r}, {y!r}) has no numeric weight") from None
        key = (idx[x], idx[y])
        if key in entries:
            raise ValidationError(f"duplicate edge ({x!r}, {y!r})")
        if key[0] != key[1] and p < 0.0:
            raise BadRowSum(f"negative weight on edge ({x!r}, {y!r})")
        entries[key] = p

    diag = np.zeros(n)
    has_diag = np.zeros(n, dtype=bool)
    rows, cols, vals = [], [], []
    off_sum = np.zeros(n)
    for (i, j), p in entries.items():
        if i == j:
            diag[i] = p
            has_diag[i] = True
        else:
            rows.append(i)
            cols.append(j)
            vals.append(p)
            off_sum[i] += p

    if discrete:
        remainder = 1.0 - off_sum - diag
        if np.any(remainder < -1e-9):
            i = int(np.argmin(remainder))
            raise BadRowSum(
                f"off-diagonal mass {off_sum[i] + diag[i]!r} exceeds 1 "
                f"at state {states[i]!r}"
            )
        # keep an explicitly given, already consistent diagonal bit-exact
        diag = np.where(np.abs(remainder) > ROW_TOL, diag + remainder, diag)
    else:
        target = -off_sum
        bad = has_diag & (np.abs(diag - target) > 1e-9 * np.maximum(1.0, off_sum))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise BadRowSum(
                f"continuous-time diagonal at {states[i]!r} is {diag[i]!r}, "
                f"expected {target[i]!r}"
            )
        keep = has_diag & (np.abs(diag - target) <= ROW_TOL)
        diag = np.where(keep, diag, target)

    ii = np.concatenate([np.asarray(rows, dtype=int), np.arange(n)])
    jj = np.concatenate([np.asarray(cols, dtype=int), np.arange(n)])
    vv = np.concatenate([np.asarray(vals, dtype=float), diag])
    keep = vv != 0.0
    key = (ii * n + jj)[keep]
    order = np.argsort(key)  # the keys are unique
    kernel = _csr(vv[keep][order], key[order], n)

    if stationary is None:
        if n > DENSE_STATIONARY_LIMIT:
            raise ValidationError(
                f"{n} states exceeds the dense stationary solve limit "
                f"({DENSE_STATIONARY_LIMIT}); pass the measure explicitly"
            )
        stationary = _solve_stationary(kernel.toarray(), discrete)
    else:
        try:
            stationary = np.array(stationary, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError("stationary measure has a non-numeric entry") from None
        if not np.all(np.isfinite(stationary)) or np.any(stationary <= 0.0):
            raise ValidationError("stationary measure must be finite and positive")
        total = stationary.sum()
        if abs(total - 1.0) > MASS_TOL:  # keep normalized input bit-exact
            stationary = stationary / total

    return ReversibleChain(states, kernel, stationary, discrete_time=discrete)


def _solve_stationary(dense, discrete):
    n = dense.shape[0]
    if discrete:
        m = dense.T - np.eye(n)
    else:
        m = dense.T.copy()
    m[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(m, b)
    except np.linalg.LinAlgError as exc:
        raise NotIrreducible(f"stationary solve failed: {exc}") from exc
    if np.any(pi <= 0.0):
        raise NotIrreducible("computed stationary measure is not strictly positive")
    return pi / pi.sum()


# -- quadratic and entropic functionals ---------------------------------------


def dirichlet_form(chain, f):
    """Energy (1/2) sum mu(x) p(x,y) (f(x) - f(y))^2, always nonnegative."""
    f = _as_state_function(chain, f)
    d = f[chain._edge_i] - f[chain._edge_j]
    return float(np.dot(chain._edge_w, d * d))


def _phi_xlogx(u):
    # u ln u - u + 1 evaluated without cancellation near u = 1; both branches
    # run on every entry of a C-ordered copy, where numpy's vectorized log
    # gives each entry the bits it has alone
    u = np.ascontiguousarray(u, dtype=float)
    d = u - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(np.abs(d) < 0.5, (1.0 + d) * np.log1p(d) - d, u * np.log(u) - u + 1.0)
    out[u == 0.0] = 1.0
    return out


def entropy(mu, fsq):
    """Relative entropy Ent_mu[f^2] = E[f^2 ln f^2] - E[f^2] ln E[f^2].

    ``fsq`` holds the squared values; the 0 ln 0 = 0 convention applies.
    Evaluated through u ln u - u + 1 so that nearly constant arguments do
    not lose precision to cancellation.
    """
    mu = np.asarray(mu, dtype=float)
    fsq = np.asarray(fsq, dtype=float)
    if np.any(fsq < 0.0):
        raise ValidationError("entropy argument has a negative entry")
    m = float(np.dot(mu, fsq))
    if m <= 0.0:
        return 0.0
    val = m * float(np.dot(mu, _phi_xlogx(fsq / m)))
    return max(val, 0.0)


def entropy_gradient(mu, f):
    """Gradient of f -> Ent_mu[f^2]: entrywise 2 mu f ln(f^2 / E_mu[f^2]).

    ``f`` may also stack functions as the rows of a 2-d array; E_mu[f^2] is
    then a row-wise sum, so each row's gradient ignores the other rows.
    """
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    fsq = f * f
    m = (mu * fsq).sum(axis=-1, keepdims=True)
    out = np.zeros_like(f)
    ratio = fsq / np.where(m > 0.0, m, 1.0)
    # f ln f^2 -> 0: an entry whose ratio underflows to 0 keeps gradient 0
    nz = (ratio > 0.0) & (m > 0.0)
    out[nz] = (2.0 * mu * f)[nz] * np.log(ratio[nz])
    return out


def log_mean(alpha, beta):
    """Logarithmic mean (alpha - beta) / ln(alpha / beta), with L(a, a) = a."""
    if alpha <= 0.0 or beta <= 0.0:
        raise ValidationError("log_mean needs strictly positive arguments")
    if alpha == beta:
        return float(alpha)
    s = alpha + beta
    r = (alpha - beta) / s
    if abs(r) < 1e-7:
        return 0.5 * s * (1.0 - r * r / 3.0)
    return (alpha - beta) / (math.log(alpha) - math.log(beta))


def _as_state_function(chain, f):
    f = np.asarray(f, dtype=float)
    if f.shape != (chain.n_states,):
        raise ValidationError(
            f"state function has length {f.shape}, chain has {chain.n_states} states"
        )
    if not np.all(np.isfinite(f)):
        raise ValidationError("state function has non-finite entries")
    return f


# -- chain spec files ----------------------------------------------------------


def chain_to_dict(chain):
    """Serializable description; probabilities round-trip bit-exactly."""
    coo = chain.kernel.tocoo()
    order = np.lexsort((coo.col, coo.row))
    edges = [
        [chain.states[coo.row[k]], chain.states[coo.col[k]], float(coo.data[k])]
        for k in order
    ]
    return {
        "states": list(chain.states),
        "edges": edges,
        "mu": [float(v) for v in chain.stationary],
        "time": "discrete" if chain.discrete_time else "continuous",
    }


def chain_from_dict(d):
    try:
        states = list(d["states"])
        edges = [(x, y, p) for x, y, p in d["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed chain spec: {exc}") from exc
    # reports are JSON objects keyed by state with sorted keys, so the ids
    # must be finite and all strings or all numbers
    for s in states + [v for x, y, _ in edges for v in (x, y)]:
        bad_float = isinstance(s, float) and not math.isfinite(s)
        if bad_float or not isinstance(s, (str, int, float)):
            raise ValidationError(f"state identifier {s!r} is not a string or finite number")
    if len({isinstance(s, str) for s in states}) > 1:
        raise ValidationError("state identifiers mix strings and numbers")
    return build_chain(states, edges, d.get("mu"), d.get("time", "discrete"))


def save_chain(chain, path):
    with open(path, "w") as fh:
        json.dump(chain_to_dict(chain), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_chain(path):
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"chain spec is not valid JSON: {exc}") from exc
    return chain_from_dict(d)
