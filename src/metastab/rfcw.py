"""Random field Curie-Weiss model at desk scale.

The microscopic Glauber chain lives on {-1, +1}^N (materialized for
N <= 13); the coarse-graining maps configurations to block magnetizations on
the mesoscopic lattice, where the free energy F drives everything: minima,
communication heights, the exactly lumpable comparison dynamics and the
capacity bounds.

Sign conventions.  With H(sigma) = -(1/2N)(sum sigma)^2 - sum h_i sigma_i the
mesoscopic energy is E(x) = -(1/2)(sum_l x_l)^2 - sum_l hbar_l x_l, so that
H = N E(rho(sigma)) - sum_i sigma_i htilde_i and F(x) = E(x) + entropy term
has its minima at the mean-field fixed points z = (1/N) sum tanh(beta(z+h_i)).
"""

from __future__ import annotations

import functools
import itertools
import heapq
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chains import (
    InequalityViolation,
    ReversibleChain,
    ValidationError,
)
from .potential import equilibrium_potential

# the largest N measured to run: ``metastab rfcw --N 13 --beta B --field
# uniform:0.2 --n 2 --materialize --seed 1`` took 3.8-4.3 s and 254 MB at
# B = 2, 15.8 s and 0.60 GB at B = 1.5 (the gap's inertia-count factors) and
# 23 s and 0.60 GB at B = 1.5,2,3 on a 2-vCPU VM; at N = 14 the 16,382 free
# states of the singleton rho pass ``metastable.SINGLETON_LIMIT``
MATERIALIZE_LIMIT = 13
# bound on the mesoscopic points prod(|block| + 1), checked before they are
# listed; one block of 16,383 spins, the slowest shape, takes 7.5 s and 83 MB
# for ``metastab rfcw`` on a 2-vCPU VM.  Every landscape of N spins has at
# least N + 1 points, so it bounds N as well.
POINT_LIMIT = 1 << 14
# bound on N (1 + h_inf), beta N (1 + h_inf) and 1/beta, far inside the float range
SCALE_LIMIT = 1e300
LN2 = math.log(2.0)


# -- model ---------------------------------------------------------------------


@dataclass
class RFCWModel:
    """The RFCW model and, when materialized, its micro Glauber chain's arrays.

    Configuration c has spin +1 at site i where bit i of c is set.
    ``flip_probs[c, i]`` is the chain's P(sigma, sigma^i), formed once by
    ``_glauber_rates``: the exact certificates read it through ``chain``,
    and the Monte Carlo samples it directly.
    """

    n_spins: int
    beta: float
    field: np.ndarray
    h_inf: float
    spins: np.ndarray | None = None          # (2^N, N) in {-1, +1}
    flip_index: np.ndarray | None = None     # (2^N, N) flipped-config indices
    flip_probs: np.ndarray | None = None     # (2^N, N) single-flip probabilities
    gibbs: np.ndarray | None = None

    @property
    def materialized(self):
        return self.spins is not None

    @functools.cached_property
    def chain(self):
        """The micro Glauber chain, None unless materialized.

        Assembled and validated on first use and kept: the Monte Carlo ops
        read only the arrays above, and a 2^N-state ``ReversibleChain`` is
        most of the cost of ``build_model``.
        """
        if not self.materialized:
            return None
        n = self.n_spins
        # one byte per site, read as an n-character label per configuration
        chars = np.where(self.spins > 0, ord("+"), ord("-")).astype(np.uint8)
        states = chars.view(f"S{n}").ravel().astype(str).tolist()
        return _glauber_chain(states, self.flip_index, self.flip_probs, self.gibbs)


def parse_field_spec(spec):
    """Normalize a field specification string to a dict.

    Accepted forms: ``zero``, ``uniform:H`` with 0 <= H <= SCALE_LIMIT,
    ``discrete:v1,v2,...`` and ``values:v1,v2,...`` with finite values.
    Anything else, a dict included, is a ValidationError.
    """
    if spec == "zero":
        return {"kind": "explicit", "values": None, "zero": True}
    kind, _, rest = str(spec).partition(":")
    if kind not in ("uniform", "discrete", "values"):
        raise ValidationError(f"unknown field spec {spec!r}")
    try:
        values = [float(v) for v in rest.split(",")]
    except ValueError:
        raise ValidationError(f"field spec {spec!r} has a non-numeric value") from None
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"field spec {spec!r} has a non-finite value")
    if kind == "uniform":
        if len(values) != 1:
            raise ValidationError(f"field spec {spec!r} needs one bound")
        if not 0.0 <= values[0] <= SCALE_LIMIT:
            raise ValidationError(f"field spec {spec!r} needs a bound in [0, {SCALE_LIMIT:g}]")
        return {"kind": "uniform", "h_inf": values[0]}
    if kind == "discrete":
        return {"kind": "discrete", "values": values}
    return {"kind": "explicit", "values": values}


def build_model(n_spins, beta, field_spec, seed=None, materialize=True):
    """Build the model: sampled or explicit field, Gibbs measure, Glauber chain.

    The micro chain is materialized only for N <= 13; larger N still supports
    the landscape-only operations, up to N < POINT_LIMIT.  Both limits are
    checked before the field is drawn.
    """
    if n_spins < 1:
        raise ValidationError("need at least one spin")
    if n_spins >= POINT_LIMIT:
        raise ValidationError(
            f"N = {n_spins} spins give more than the {POINT_LIMIT} mesoscopic points allowed"
        )
    if materialize and n_spins > MATERIALIZE_LIMIT:
        raise ValidationError(
            f"N={n_spins} exceeds the materialization limit "
            f"{MATERIALIZE_LIMIT}; pass materialize=False"
        )
    if not 0.0 <= beta < math.inf:
        raise ValidationError(f"beta must be finite and nonnegative, got {beta!r}")
    spec = parse_field_spec(field_spec)
    kind = spec.get("kind")
    rng = None
    if kind in ("uniform", "discrete"):
        if seed is None:
            raise ValidationError(f"field kind {kind!r} requires a seed")
        rng = np.random.default_rng(seed)
    if kind == "uniform":
        h_inf = float(spec["h_inf"])
        h = rng.uniform(-h_inf, h_inf, size=n_spins)
    elif kind == "discrete":
        values = np.asarray(spec["values"], dtype=float)
        h = rng.choice(values, size=n_spins)
        h_inf = float(np.max(np.abs(values)))
    else:
        if spec.get("zero"):
            h = np.zeros(n_spins)
        else:
            h = np.asarray(spec["values"], dtype=float)
            if h.shape != (n_spins,):
                raise ValidationError("explicit field length must equal N")
        h_inf = float(np.max(np.abs(h)))
    if n_spins * (1.0 + h_inf) * max(beta, 1.0) > SCALE_LIMIT or 0.0 < beta < 1.0 / SCALE_LIMIT:
        raise ValidationError(
            f"beta = {beta!r} with N = {n_spins} and h_inf = {h_inf!r} puts the energies, "
            f"beta times them or 1/beta beyond {SCALE_LIMIT:g}"
        )

    model = RFCWModel(
        n_spins=int(n_spins),
        beta=float(beta),
        field=np.asarray(h, dtype=float),
        h_inf=h_inf,
    )
    if materialize:
        _materialize(model)
    return model


def _materialize(model):
    n = model.n_spins
    configs = np.arange(1 << n, dtype=np.int64)
    bits = (configs[:, None] >> np.arange(n)[None, :]) & 1
    spins = (2 * bits - 1).astype(np.int8)
    m = spins.sum(axis=1).astype(np.int64)
    ham = -m.astype(float) ** 2 / (2.0 * n) - spins @ model.field

    flip_index = configs[:, None] ^ (1 << np.arange(n))[None, :]
    model.flip_probs, model.gibbs = _glauber_rates(ham, flip_index, model.beta)
    if not np.all(model.gibbs > 0.0):
        # the chain's own check, made here so that a model whose Gibbs weights
        # underflow fails at build time whether or not its chain is read
        raise ValidationError("stationary measure must be finite and positive")
    model.spins = spins
    model.flip_index = flip_index


def _glauber_rates(ham, flip_index, beta):
    """Single-flip Metropolis rates of the energy ``ham`` on the hypercube.

    p(sigma, sigma^i) = (1/N) exp(-beta [ham(sigma^i) - ham(sigma)]_+), where
    ``flip_index[sigma, i]`` is the index of sigma^i; they are reversible for
    the Gibbs weights exp(-beta ham).  Returns (flip_probs, gibbs).
    """
    n = flip_index.shape[1]
    dh = ham[flip_index] - ham[:, None]
    flip_probs = np.exp(-beta * np.maximum(dh, 0.0)) / n
    weights = np.exp(-beta * (ham - ham.min()))
    return flip_probs, weights / weights.sum()


def _glauber_chain(states, flip_index, flip_probs, gibbs):
    """The chain of ``_glauber_rates``: flips plus the holding diagonal."""
    size, n = flip_index.shape
    configs = np.arange(size, dtype=np.int64)
    diag = np.maximum(1.0 - flip_probs.sum(axis=1), 0.0)
    held = configs[diag > 0.0]
    kernel = sp.csr_matrix(
        (
            np.concatenate([flip_probs.ravel(), diag[held]]),
            (
                np.concatenate([np.repeat(configs, n), held]),
                np.concatenate([flip_index.ravel(), held]),
            ),
        ),
        shape=(size, size),
    )
    chain = ReversibleChain(states, kernel, gibbs, discrete_time=True)
    chain._fill_order = _cube_order(n)
    return chain


@functools.lru_cache
def _cube_order(n):
    """A fill-reducing elimination order of the 2^n states of the n-cube.

    SuperLU's minimum degree on A^T + A for (n + 1) I - adjacency, which has
    the pattern of every Glauber chain on the cube.  It is read off an
    incomplete factor that drops all fill: the ordering pass is that of
    ``sym_factor``, the numeric work a small part of a full factor's.
    Computed once per n and shared, read-only.
    """
    size = 1 << n
    flips = np.arange(size)[:, None] ^ (1 << np.arange(n))
    adjacency = sp.csc_matrix((np.ones(size * n), flips.ravel(), np.arange(0, size * n + 1, n)))
    cube = (n + 1.0) * sp.identity(size, format="csc") - adjacency
    ilu = spla.spilu(cube, drop_tol=1.0, fill_factor=1.0, permc_spec="MMD_AT_PLUS_A")
    order = np.argsort(ilu.perm_c)
    order.flags.writeable = False
    return order


# -- coarse graining -------------------------------------------------------------


@dataclass
class MesoscopicLandscape:
    """The lattice of block spin sums of a coarse-grained model, and F on it.

    Points are listed in mixed radix, last block fastest, so index order is
    lexicographic; minima, plateaus and paths read only ``neighbors``."""
    n_blocks: int
    blocks: list
    block_sizes: np.ndarray
    h_bar: np.ndarray
    h_tilde: np.ndarray
    eps_n: float
    points: np.ndarray          # (P, n_blocks) integer block spin sums
    point_ids: list
    site_block: np.ndarray      # (N,) block index of every site
    n_spins: int
    beta: float
    rho_of_config: np.ndarray | None = None

    @property
    def n_points(self):
        return len(self.point_ids)

    @functools.cached_property
    def free_energy(self):
        """F at every mesoscopic point, None at beta = 0; computed on first read.

        E per point plus, block by block, (|L_l|/N)/beta I_l from a table of
        one Newton solve (``_block_dual_entropy``) per value of the block's
        sum: the float operations of ``free_energy_continuous``.
        """
        if self.beta <= 0.0:
            return None
        n = self.n_spins
        total = np.array([meso_energy(self, k / n) for k in self.points])
        for l, s in enumerate(self.block_sizes):
            if s:
                th = self.beta * self.h_tilde[self.blocks[l]]
                y = np.clip(n * (np.arange(-s, s + 1, 2) / n) / s, -1.0, 1.0)
                table = np.array([_block_dual_entropy(th, v) for v in y])
                total += (s / n) / self.beta * table[(self.points[:, l] + s) // 2]
        return total

    def point_mask(self, point_indices):
        """Mask over the mesoscopic points selecting ``point_indices``."""
        sel = np.zeros(self.n_points, dtype=bool)
        sel[np.asarray(point_indices, dtype=int)] = True
        return sel

    def fiber_mask(self, point_indices):
        if self.rho_of_config is None:
            raise ValidationError("landscape was built without a micro chain")
        return self.point_mask(point_indices)[self.rho_of_config]

    def fiber_range(self, values):
        """Minimum and maximum of per-configuration ``values`` on every fiber."""
        lo = np.full(self.n_points, np.inf)
        hi = np.full(self.n_points, -np.inf)
        np.minimum.at(lo, self.rho_of_config, values)
        np.maximum.at(hi, self.rho_of_config, values)
        return lo, hi

    @functools.cached_property
    def strides(self):
        """The index step of one more up spin in each block, whose digit
        k // strides[l] % (|L_l| + 1) is its number of up spins."""
        radix = self.block_sizes + 1
        return np.append(np.cumprod(radix[:0:-1])[::-1], 1)

    @functools.cached_property
    def neighbors(self):
        """(P, 2 n_blocks) lattice neighbours, -1 where none: columns 2l and
        2l + 1 step block l's sum by -2 and +2, the index by ``strides[l]``."""
        k = np.arange(self.n_points)[:, None]
        digit = k // self.strides % (self.block_sizes + 1)
        down = np.where(digit > 0, k - self.strides, -1)
        up = np.where(digit < self.block_sizes, k + self.strides, -1)
        return np.stack([down, up], axis=2).reshape(self.n_points, -1)


def coarse_grain(model, n):
    """Partition the field range into n equal intervals and coarse grain.

    Block l collects the sites whose field lies in the l-th half-open
    interval (the last one closed); with h_inf = 0 every site lands in block
    0.  When the model is materialized the induced measure is aggregated
    exactly from the Gibbs weights; the free energy waits for its first
    read.  More than POINT_LIMIT points is a ValidationError raised before
    any point is listed.
    """
    if not 1 <= n <= model.n_spins:
        raise ValidationError(f"need between 1 and N = {model.n_spins} blocks, got {n}")
    h = model.field
    if model.h_inf == 0.0:
        idx = np.zeros(model.n_spins, dtype=int)
        eps = 0.0
    else:
        width = 2.0 * model.h_inf / n
        idx = np.minimum(((h + model.h_inf) / width).astype(int), n - 1)
        eps = width
    sizes = np.bincount(idx, minlength=n)
    if math.prod(int(s) + 1 for s in sizes) > POINT_LIMIT:
        raise ValidationError(f"{n} blocks give more than {POINT_LIMIT} mesoscopic points")
    blocks = [np.flatnonzero(idx == l) for l in range(n)]
    h_bar = np.array([h[b].mean() if b.size else 0.0 for b in blocks])
    h_tilde = h - h_bar[idx]
    if np.any(np.abs(h_tilde) > eps + 1e-12):
        raise ValidationError("block fluctuation exceeds eps(n)")

    values = [
        np.arange(-s, s + 1, 2, dtype=int) if s else np.zeros(1, dtype=int)
        for s in sizes
    ]
    points = np.array(list(itertools.product(*values)), dtype=int)
    ids = [",".join(str(int(v)) for v in row) for row in points]

    land = MesoscopicLandscape(
        n_blocks=n,
        blocks=blocks,
        block_sizes=sizes,
        h_bar=h_bar,
        h_tilde=h_tilde,
        eps_n=eps,
        points=points,
        point_ids=ids,
        site_block=idx,
        n_spins=model.n_spins,
        beta=model.beta,
    )
    if model.materialized:
        land.rho_of_config = (model.spins > 0) @ land.strides[idx]
    return land


def _log_cosh(t):
    t = np.abs(t)
    return t + np.log1p(np.exp(-2.0 * t)) - LN2


def _block_dual_entropy(th, y):
    """I_l(y): Legendre dual of t -> mean_{i in block} ln cosh(t + th_i).

    ``th`` holds beta htilde_i over the sites of a nonempty block and
    |y| <= 1: both free energies skip empty blocks and clamp y.  Newton on
    the strictly increasing slope map from the artanh guess, with a
    bisection safeguard; endpoints use the analytic limit ln 2 (the block
    fluctuations average to zero).
    """
    if abs(y) >= 1.0:
        return LN2

    t = math.atanh(max(min(y, 1.0 - 1e-15), -1.0 + 1e-15))
    span = float(np.max(np.abs(th))) + 2.0 + abs(t)
    lo, hi = t - span, t + span
    for _ in range(50):
        slope = float(np.mean(np.tanh(t + th)))
        if abs(slope - y) <= 1e-12:
            break
        with np.errstate(over="ignore"):  # sech^2 -> 0 where cosh overflows
            deriv = float(np.mean(1.0 / np.cosh(t + th) ** 2))
        if slope > y:
            hi = t
        else:
            lo = t
        step = (slope - y) / deriv if deriv > 0.0 else 0.0
        t_new = t - step
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
        t = t_new
    return t * y - float(np.mean(_log_cosh(t + th)))


def meso_energy(land, x):
    """E(x) = -(1/2)(sum x_l)^2 - sum hbar_l x_l."""
    x = np.asarray(x, dtype=float)
    s = x.sum()
    return -0.5 * s * s - float(np.dot(land.h_bar, x))


def free_energy_continuous(land, x):
    """F(x) = E(x) + (1/beta) sum_l (|L_l|/N) I_l(N x_l / |L_l|).

    ``x`` may be any point of the continuous box with |N x_l| <= |L_l|;
    coordinates of empty blocks must vanish.
    """
    if land.beta <= 0.0:
        raise ValidationError("free energy needs beta > 0")
    x = np.asarray(x, dtype=float)
    if x.shape != (land.n_blocks,):
        raise ValidationError("mesoscopic point has wrong dimension")
    n = land.n_spins
    total = meso_energy(land, x)
    for l in range(land.n_blocks):
        s = land.block_sizes[l]
        if s == 0:
            if abs(x[l]) > 1e-12:
                raise ValidationError("nonzero coordinate on an empty block")
            continue
        y = n * x[l] / s
        if abs(y) > 1.0 + 1e-12:
            raise ValidationError(f"coordinate {x[l]!r} outside block range")
        th = land.beta * land.h_tilde[land.blocks[l]]
        total += (s / n) / land.beta * _block_dual_entropy(th, min(max(y, -1.0), 1.0))
    return float(total)


# -- minima and communication heights --------------------------------------------


def bottleneck_height(values, neighbors, sources, targets):
    """Minimax path height between node sets on an explicit graph.

    ``values`` is the per-node height, ``neighbors`` a callable returning the
    adjacent node indices.  Returns min over connecting paths of the maximum
    height along the path, endpoints included.  Deterministic tie-breaking by
    node index.
    """
    targets = set(int(t) for t in targets)
    best = {}
    heap = []
    for s in sources:
        s = int(s)
        key = float(values[s])
        if key < best.get(s, np.inf):
            best[s] = key
            heapq.heappush(heap, (key, s))
    while heap:
        key, node = heapq.heappop(heap)
        if key > best.get(node, np.inf):
            continue
        if node in targets:
            return key
        for nb in neighbors(node):
            cand = max(key, float(values[nb]))
            if cand < best.get(nb, np.inf):
                best[nb] = cand
                heapq.heappush(heap, (cand, nb))
    raise ValidationError("no connecting path between the given sets")


def communication_height(land, a_points, b_points):
    """Minimax free energy over lattice paths connecting the two sets."""
    rows = land.neighbors.tolist()
    return bottleneck_height(
        land.free_energy, lambda k: [nb for nb in rows[k] if nb >= 0], a_points, b_points
    )


@dataclass
class MinimaOrdering:
    minima: list              # representative point index per component
    deltas: np.ndarray        # Delta_1 >= ... >= Delta_{K-1}
    phi: np.ndarray           # pairwise communication heights between minima
    degenerate: bool
    refined: list             # continuous critical-point refinements


def find_minima_and_order(model, land):
    """Local minima of F on the lattice, ordered by decreasing depth.

    Plateaus join points by steps of ``land.neighbors`` that move F by at
    most 1e-12 (1 + max|F|), labelled by their least point; a minimum is a
    plateau with no lower step.  The labels satisfy the greedy recursion
    Delta_{k-1} = Phi(m_k, M_{k-1}) - F(m_k), picked smallest-first from the
    top label downward, ties broken by lexicographic state order.  Every
    minimum also gets its continuous critical-point refinement.
    """
    if land.free_energy is None:
        raise ValidationError("free energy unavailable (beta = 0?)")
    F = land.free_energy
    P = land.n_points
    table = land.neighbors
    df = np.where(table >= 0, F[table] - F[:, None], np.inf)
    flat = np.abs(df) <= 1e-12 * (1.0 + np.max(np.abs(F)))
    label, prev = np.arange(P), None
    while not np.array_equal(label, prev):  # min-label propagation with pointer jumps
        prev = label
        label = np.where(flat, label[table], label[:, None]).min(axis=1)
        label = label[label]
    lower = np.zeros(P, dtype=bool)
    lower[label[np.any(~flat & (df < 0.0), axis=1)]] = True
    reps = np.flatnonzero((label == np.arange(P)) & ~lower).tolist()
    components = [np.flatnonzero(label == r) for r in reps]

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
            scored.append((depth, reps[c], c))
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


def _refine_minimum(model, land, point_index):
    """Continuous critical point nearest the lattice minimum.

    Solves z = (1/N) sum_i tanh(beta (z + h_i)) by safeguarded Newton from
    the lattice magnetization; a Newton step that leaves the bracket falls
    back to Brent's method (``_brentq``) on the sign change of a 2001-point
    grid nearest z.  Reports the per-block coordinates, the fixed point
    residual and both free-energy evaluations (the Legendre evaluator versus
    the closed form at critical points).
    """
    beta, h, n = model.beta, model.field, model.n_spins
    z = float(land.points[point_index].sum()) / n

    def g(v):
        return v - float(np.mean(np.tanh(beta * (v + h))))

    def gprime(v):
        with np.errstate(over="ignore"):  # sech^2 -> 0 where cosh overflows
            return 1.0 - beta * float(np.mean(1.0 / np.cosh(beta * (v + h)) ** 2))

    lo, hi = z - 1.0, z + 1.0
    for _ in range(200):
        gz = g(z)
        if abs(gz) <= 1e-14:
            break
        gp = gprime(z)
        step = gz / gp if gp != 0.0 else 0.0
        cand = z - step
        if not lo < cand < hi or gp <= 0.0:
            # fall back onto a local sign-change bracket
            grid = np.linspace(lo, hi, 2001)
            vals = grid - np.mean(np.tanh(beta * (grid[:, None] + h)), axis=1)
            sign = np.signbit(vals)
            flips = np.flatnonzero(sign[:-1] != sign[1:])
            if flips.size == 0:
                break
            pick = flips[np.argmin(np.abs(grid[flips] - z))]
            cand = _brentq(g, float(grid[pick]), float(grid[pick + 1]), xtol=1e-15)
        z = cand
    x = np.array(
        [
            np.tanh(beta * (z + h[b])).sum() / n if b.size else 0.0
            for b in land.blocks
        ]
    )
    f_eval = free_energy_continuous(land, x)
    f_closed = 0.5 * z * z - float(np.sum(_log_cosh(beta * (z + h)))) / (beta * n)
    return {
        "lattice_point": [int(v) for v in land.points[point_index]],
        "z": float(z),
        "x": x,
        "residual": abs(g(z)),
        "f_value": float(f_eval),
        "f_closed_form": float(f_closed),
    }


def _brentq(f, xa, xb, xtol=2e-12, rtol=4 * math.ulp(1.0), maxiter=100):
    """Root of f in [xa, xb] by Brent's method.

    A step-for-step port of scipy's ``brentq.c`` with its defaults and
    errors (``ValueError`` on equal end signs, ``RuntimeError`` after
    ``maxiter`` steps), so every root keeps scipy's bits without the
    import of scipy.optimize.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        # scipy also asks fpre, fcur != 0 here: fpre never is, and a zero
        # fcur returns below whichever end becomes the block
        if math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur:f}")


# -- mesoscopic and comparison dynamics -------------------------------------------


def mesoscopic_rates_and_chain(model, land):
    """Aggregated mesoscopic chain, reversible for the lumped Gibbs measure
    mu(x) = sum_{sigma in fiber x} mu(sigma), its ``stationary``.

    r(x, y) = (1/mu(x)) sum_{sigma in fiber x} mu(sigma) p(sigma, fiber y).
    """
    _need_materialized(model, land)
    return _lump(land, model.flip_index, model.flip_probs, model.gibbs)


def _lump(land, flip_index, flip_probs, mu):
    """Single-flip chain aggregated onto the mesoscopic points under ``mu``.

    ``flip_probs[sigma, i]`` is the probability of moving to
    ``flip_index[sigma, i]``; the lumped measure is the fiber sum of ``mu``.
    """
    P = land.n_points
    rho = land.rho_of_config
    n = flip_index.shape[1]
    w = (mu[:, None] * flip_probs).ravel()
    flow = sp.coo_matrix(
        (w, (np.repeat(rho, n), rho[flip_index.ravel()])), shape=(P, P)
    ).tocsr()
    flow = flow + sp.csr_matrix(
        (np.maximum(mu * (1.0 - flip_probs.sum(axis=1)), 0.0), (rho, rho)),
        shape=(P, P),
    )
    mu_lumped = np.bincount(rho, weights=mu, minlength=P)
    return ReversibleChain(
        land.point_ids, sp.diags(1.0 / mu_lumped) @ flow, mu_lumped, discrete_time=True
    )


def mesoscopic_dominance(model, land, meso_chain, a_points, b_points):
    """cap(fiber A, fiber B) <= meso cap(A, B), asserted and returned."""
    micro = equilibrium_potential(
        model.chain, land.fiber_mask(a_points), land.fiber_mask(b_points)
    ).capacity
    meso = equilibrium_potential(
        meso_chain, land.point_mask(a_points), land.point_mask(b_points)
    ).capacity
    if micro > meso + 1e-12 + 1e-9 * meso:
        raise InequalityViolation(
            f"mesoscopic capacity bound violated: micro {micro!r} > meso {meso!r}"
        )
    return {"micro": micro, "meso": meso}


def barred_chain(model, land):
    """Comparison dynamics driven by the mesoscopic energy alone.

    p_bar(sigma, sigma') = (1/N) exp(-beta N [E(rho sigma') - E(rho sigma)]_+)
    with mu_bar proportional to exp(-beta N E(rho sigma)) 2^{-N}.  Returns the
    barred micro chain, the exactly lumped chain on the lattice and the
    entrywise comparison certificates.
    """
    _need_materialized(model, land)
    n = model.n_spins
    point_e = np.array(
        [meso_energy(land, land.points[k] / n) for k in range(land.n_points)]
    )
    ham_bar = n * point_e[land.rho_of_config]
    flip_bar, mu_bar = _glauber_rates(ham_bar, model.flip_index, model.beta)
    barred = _glauber_chain(model.chain.states, model.flip_index, flip_bar, mu_bar)

    eps = land.eps_n
    beta = model.beta
    mu_log = np.abs(np.log(mu_bar / model.gibbs))
    mu_bound = 2.0 * beta * eps * n + 1e-9
    if np.max(mu_log) > mu_bound:
        raise InequalityViolation("mu_bar / mu outside the exp(2 beta eps N) band")
    ratio_log = np.abs(np.log(flip_bar / model.flip_probs))
    p_bound = 2.0 * beta * eps + 1e-9
    if np.max(ratio_log) > p_bound:
        raise InequalityViolation("p_bar / p outside the exp(2 beta eps) band")

    # ham_bar is constant on every fiber, so the barred chain lumps exactly
    lumped = _lump(land, model.flip_index, flip_bar, mu_bar)
    return {
        "barred": barred,
        "lumped": lumped,
        "mu_bar": mu_bar,
        "mu_meso_bar": lumped.stationary,
        "max_log_mu_ratio": float(np.max(mu_log)),
        "mu_ratio_bound": 2.0 * beta * eps * n,
        "max_log_p_ratio": float(np.max(ratio_log)),
        "p_ratio_bound": 2.0 * beta * eps,
    }


def hitting_value_function(chain, A, B):
    """P_x[tau_B < tau_A] for every state, first-return convention on A u B."""
    sol = equilibrium_potential(chain, B, A)
    return np.asarray(chain.kernel @ sol.potential).ravel()


def lumpability_certificate(model, land, barred, a_points, b_points):
    """Constancy of barred hitting probabilities across every fiber.

    Also certifies the one-sided capacity comparisons between the
    original, barred and lumped chains.
    """
    a = land.fiber_mask(a_points)
    b = land.fiber_mask(b_points)
    lo, hi = land.fiber_range(hitting_value_function(barred["barred"], a, b))
    worst = float(np.max(hi - lo))
    if worst > 1e-10:
        raise InequalityViolation(
            f"lumpability residual {worst!r} exceeds 1e-10"
        )

    n, beta, eps = model.n_spins, model.beta, land.eps_n
    factor = math.exp(-2.0 * beta * eps * (n + 1))
    cap = equilibrium_potential(model.chain, a, b).capacity
    cap_bar = equilibrium_potential(barred["barred"], a, b).capacity
    cap_lumped = equilibrium_potential(
        barred["lumped"], land.point_mask(a_points), land.point_mask(b_points)
    ).capacity
    if cap / cap_bar < factor * (1.0 - 1e-9):
        raise InequalityViolation("cap / cap_bar below the comparison factor")
    if abs(cap_bar - cap_lumped) > 1e-9 * cap_bar:
        raise InequalityViolation("lumped capacity disagrees with barred capacity")
    return {
        "max_fiber_spread": worst,
        "cap_micro": cap,
        "cap_barred": cap_bar,
        "cap_lumped": cap_lumped,
        "comparison_factor": factor,
    }


def _need_materialized(model, land):
    if not model.materialized or land.rho_of_config is None:
        raise ValidationError("operation requires a materialized micro chain")
