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

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

ROW_TOL = 1e-12
MASS_TOL = 1e-12
BALANCE_RTOL = 1e-10
DENSE_STATIONARY_LIMIT = 4096


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
    operations on them are pure functions.  The one mutable slot is a cache:
    ``potential`` memoises the solver of the last interior block it factored.
    """

    def __init__(self, states, kernel, stationary, discrete_time=True):
        self.states = tuple(states)
        self.index = {s: i for i, s in enumerate(self.states)}
        if len(self.index) != len(self.states):
            raise ValidationError("duplicate state identifiers")
        self.kernel = sp.csr_matrix(kernel)
        self.stationary = np.array(stationary, dtype=float)
        self.discrete_time = bool(discrete_time)
        self._validate()
        self._build_conductances()
        # (interior mask bytes, solve callable), see potential._spd_solver
        self._interior_solver = None

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

        coo = self.kernel.tocoo()
        off = coo.row != coo.col
        if np.any(coo.data[off] < 0.0):
            raise BadRowSum("negative off-diagonal kernel entry")
        rows = np.asarray(self.kernel.sum(axis=1)).ravel()
        target = 1.0 if self.discrete_time else 0.0
        bad = np.abs(rows - target) > ROW_TOL
        if np.any(bad):
            i = int(np.argmax(np.abs(rows - target)))
            raise BadRowSum(
                f"row sum {rows[i]!r} at state {self.states[i]!r} "
                f"(expected {target})"
            )

        # detailed balance, edge by edge, relative tolerance
        r, c, v = coo.row[off], coo.col[off], coo.data[off]
        lhs = mu[r] * v
        kt = self.kernel.T.tocsr()
        rev = np.asarray(kt[r, c]).ravel() * mu[c]
        gap = np.abs(lhs - rev)
        tol = BALANCE_RTOL * np.maximum(lhs, rev) + 1e-300
        if np.any(gap > tol):
            k = int(np.argmax(gap - tol))
            raise DetailedBalanceViolation(
                f"mu(x)p(x,y) != mu(y)p(y,x) at edge "
                f"({self.states[r[k]]!r}, {self.states[c[k]]!r}): "
                f"{lhs[k]!r} vs {rev[k]!r}"
            )

        support = sp.csr_matrix((np.ones_like(v), (r, c)), shape=(n, n))
        ncomp, _ = connected_components(support, directed=True, connection="strong")
        if ncomp != 1:
            raise NotIrreducible(f"kernel support has {ncomp} strong components")

    def _build_conductances(self):
        coo = self.kernel.tocoo()
        off = coo.row != coo.col
        r, c, v = coo.row[off], coo.col[off], coo.data[off]
        w = sp.csr_matrix((self.stationary[r] * v, (r, c)), shape=self.kernel.shape)
        # project onto the exactly reversible structure
        w = 0.5 * (w + w.T)
        w.eliminate_zeros()
        self.conductance = w.tocsr()
        deg = np.asarray(w.sum(axis=1)).ravel()
        self.laplacian = (sp.diags(deg) - w).tocsr()
        upper = sp.triu(w, k=1).tocoo()
        self._edge_i = upper.row
        self._edge_j = upper.col
        self._edge_w = upper.data

    # -- representation -------------------------------------------------------

    def __repr__(self):
        kind = "discrete" if self.discrete_time else "continuous"
        return f"ReversibleChain(n={self.n_states}, {kind})"

    def mass(self, mask):
        """Total stationary mass of a subset."""
        return float(self.stationary[np.asarray(mask, dtype=bool)].sum())

    def conditional(self, mask):
        """Conditional measure mu[. | mask] as a full-length vector."""
        mask = np.asarray(mask, dtype=bool)
        out = np.zeros(self.n_states)
        m = self.mass(mask)
        if m <= 0.0:
            raise ValidationError("conditioning on a zero-mass set")
        out[mask] = self.stationary[mask] / m
        return out


def subset_mask(chain, subset):
    """Normalize a subset specification to a boolean membership mask.

    Accepts a boolean mask, an iterable of state identifiers, or an iterable
    of integer indices.
    """
    n = chain.n_states
    arr = np.asarray(subset)
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
            except KeyError:
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
    kernel = sp.csr_matrix((vv[keep], (ii[keep], jj[keep])), shape=(n, n))

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


def dirichlet_gradient(chain, f):
    """Gradient of the Dirichlet form, 2 L_mu f with the weighted Laplacian."""
    f = _as_state_function(chain, f)
    return 2.0 * (chain.laplacian @ f)


def variance(mu, f):
    """Variance of f under the probability vector mu."""
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    m = float(np.dot(mu, f))
    d = f - m
    return float(np.dot(mu, d * d))


def _phi_xlogx(u):
    # u ln u - u + 1 evaluated without cancellation near u = 1
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    near = np.abs(u - 1.0) < 0.5
    d = u[near] - 1.0
    out[near] = (1.0 + d) * np.log1p(d) - d
    rest = u[~near]
    with np.errstate(divide="ignore", invalid="ignore"):
        v = rest * np.log(rest) - rest + 1.0
    v[rest == 0.0] = 1.0
    out[~near] = v
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
    nz = (fsq > 0.0) & (m > 0.0)
    ratio = fsq / np.where(m > 0.0, m, 1.0)
    out[nz] = (2.0 * mu * f)[nz] * np.log(ratio[nz])
    return out


def variance_gradient(mu, f):
    """Gradient of f -> Var_mu[f]: entrywise 2 mu (f - E_mu f)."""
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    return 2.0 * mu * (f - float(np.dot(mu, f)))


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
