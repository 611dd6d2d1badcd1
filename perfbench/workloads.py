"""Workload cells of the metastab benchmark: inputs, ops and verification.

A cell is one op's input.  Every workload has three kinds of cells:

* ``warmup``: run once, untimed, as part of set-up;
* ``ledger``: run once at the start of every timed phase.  These are the
  heaviest one-off cells and the cells that fail at the seed, so each run
  carries the same failures and the same costly ops whatever its length;
* ``steady``: run in whole rounds, as many as fill the run's seconds at
  the latencies stored with the reference.

Inputs that vary come from a pool of ``POOL`` stored variants per cell
(field seeds, random chains, Orlicz inputs); the workload seed picks the
variants and the order of the cells (see ``Plan``).
Reference values for every variant live in ``reference.json`` (see
``reference.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time

import numpy as np

from metastab import chains as chains_mod
from metastab import cli as cli_mod
from metastab import coupling as coupling_mod
from metastab import oracle as oracle_mod
from metastab import orlicz as orlicz_mod
from metastab import rfcw as rfcw_mod
from metastab import sampling

POOL = 8
FIELD = "uniform:0.2"

WORKLOADS = ("rfcw_micro", "certify_small", "coupling_mc")

# tolerance of a stored reference value, by its tag
RTOL = {"exact": 1e-7, "bound": 1e-6}
# family-wise level of the chi-square screen of the coupled marginals
CHI_ALPHA = 1e-5
# absolute floors for values that are differences of O(1) numbers
ATOL = {"spectral_gap": 1e-13, "worst_margin": 1e-12, "free_energy": 1e-12}


class VerificationMiss(Exception):
    """An op's output failed an identity or a reference comparison."""


def _cell(key, kind, **params):
    return {"key": key, "kind": kind, "params": params}


# -- cell templates --------------------------------------------------------------
#
# Each template returns the cell for pool variant ``v``; templates without
# a variant ignore it.


def _lab(n_spins, beta):
    def make(v):
        return _cell(f"lab/N{n_spins}/b{beta}/f{v}", "lab",
                     N=n_spins, beta=beta, fseed=v)
    return make


def _well(cmd, n, beta, **extra):
    tag = "/".join(f"{k}{val}" for k, val in sorted(extra.items()))
    key = f"{cmd}/dw{n}/b{beta}" + (f"/{tag}" if tag else "")
    return lambda v: _cell(key, cmd, chain=("dw", n, beta), **extra)


def _rand(cmd, n, **extra):
    tag = "/".join(f"{k}{val}" for k, val in sorted(extra.items()))

    def make(v):
        key = f"{cmd}/rc{n}/v{v}" + (f"/{tag}" if tag else "")
        return _cell(key, cmd, chain=("rc", n, v), **extra)
    return make


def _couple(n_spins, beta, runs, dyn):
    def make(v):
        return _cell(f"couple/N{n_spins}/b{beta}/r{runs}/d{dyn}/s{v}", "couple",
                     N=n_spins, beta=beta, seed=v, runs=runs, dyn=dyn)
    return make


def _chi(n_spins, beta, runs, steps):
    def make(v):
        return _cell(f"chi/N{n_spins}/b{beta}/r{runs}/t{steps}/s{v}", "chi",
                     N=n_spins, beta=beta, seed=v, runs=runs, steps=steps)
    return make


def _bf(pair):
    return lambda v: _cell(f"bf/{pair}/v{v}", "bf", pair=pair, variant=v)


def _capineq(samples):
    return lambda v: _cell(f"capineq/n{samples}/s{v}", "capineq",
                           samples=samples, seed=v)


def _templates(workload):
    """(warmup, ledger, steady) template lists of a workload."""
    if workload == "rfcw_micro":
        warmup = [_lab(8, 1.5)]
        ledger = [_lab(11, 3.0), _lab(11, 6.0), _lab(10, 6.0), _lab(9, 2.0), _lab(9, 5.0)]
        # only N=10 cycles, so the median and the tail both sit inside
        # one cluster of op latencies instead of between N=9 and N=10
        steady = [_lab(10, b) for b in (1.5, 2.5, 3.5, 4.5)]
        return warmup, ledger, steady
    if workload == "certify_small":
        warmup = [_well("analyze", 11, 1.0)]
        ledger = [
            _well("capacity", 11, 4.0, A=0, B=10),
            _well("capacity", 11, 5.0, A=0, B=10),
            _well("analyze", 11, 4.0),
            _well("analyze", 11, 5.0),
            _well("analyze", 11, 1.0, S=1),  # sets {x0}, {x1}: not metastable
            _well("cpi", 11, 6.0),
            _well("orlicz", 11, 8.0),
            _well("orlicz", 15, 2.0),
            _rand("orlicz", 16),
            _capineq(200),
        ] + [_bf(p) for p in orlicz_mod.builtin_pairs()]
        steady = []
        for n, beta in ((11, 1.0), (11, 2.0), (11, 3.0), (15, 0.25), (15, 0.5)):
            lo, hi = 0, n - 1
            steady += [
                _well("capacity", n, beta, A=lo, B=hi),
                _well("capacity", n, beta, A=lo + 1, B=hi - 1),
                _well("capacity", n, beta, A=lo + 2, B=hi),
                _well("capacity", n, beta, A=lo, B=hi - 2),
                _well("cpi", n, beta),
                _well("cheeger", n, beta),
                _well("analyze", n, beta),
                _well("orlicz", n, beta),
            ]
        for n in (12, 13, 14):
            steady += [
                _rand("capacity", n, A=1, B=0),
                _rand("capacity", n, A=n - 1, B=0),
                _rand("capacity", n, A=n // 2, B=n - 1),
                _rand("capacity", n, A=2, B=n - 2),
                _rand("cpi", n),
                _rand("cheeger", n),
                _rand("orlicz", n),
            ]
        steady += [_well("clsi", 11, 2.0), _rand("clsi", 12)]
        return warmup, ledger, steady
    if workload == "coupling_mc":
        # one warm-up op per op kind: the first chi-square op imports scipy.stats
        warmup = [_couple(8, 1.0, 100, 5), _chi(8, 1.0, 50, 100)]
        ledger = [_couple(10, 1.5, 1000, 40), _couple(8, 2.0, 1000, 40)]
        steady = [
            _couple(8, 0.8, 1000, 60),
            _couple(8, 1.0, 1000, 50),
            _couple(8, 1.2, 1000, 40),
            _couple(8, 1.5, 1000, 30),
            _couple(10, 0.8, 1000, 40),
            _couple(10, 1.0, 1000, 35),
            _couple(10, 1.2, 1000, 30),
        ]
        # two chi-square cells per (N, beta): the short chi-square ops are the
        # majority, so the median sits inside their cluster and the tail
        # inside the cluster of couple ops, not on the boundary between them
        for _ in range(2):
            steady += [_chi(8, b, 150, 100) for b in (0.8, 1.0, 1.2, 1.5)]
            steady += [_chi(10, b, 120, 100) for b in (0.8, 1.0, 1.2, 1.5)]
        return warmup, ledger, steady
    raise ValueError(f"unknown workload {workload!r}")


class Plan:
    """The cells of one run, all chosen from the workload seed.

    A run's op list is fixed before it starts: the ledger cells, then
    ``rounds`` rounds of the steady cells.  The number of rounds comes from
    ``seconds`` and the stored costs (pool means, so it does not depend on
    the seed), and every seed runs the same templates the same number of
    times, so ``attempted`` and ``failed`` repeat exactly from seed to seed.
    The seed picks the order of the cells and, per template, the pool
    variant of the first round; each later round takes the next variant, so
    a run walks through the pool instead of drawing variants at random.
    ``costs`` maps cell keys to latencies in seconds.
    """

    def __init__(self, workload, seed, costs, seconds):
        rng = random.Random(f"{workload}:{seed}")
        warmup, ledger, steady = _templates(workload)
        # warm-up takes variant 0: its cost differs up to 5x between
        # variants, and set-up time should not depend on the seed
        self.warmup = [t(0) for t in warmup]
        self.ledger = [t(rng.randrange(POOL)) for t in ledger]
        rng.shuffle(self.ledger)
        self._steady = steady

        def mean_cost(template):
            return sum(costs[template(v)["key"]] for v in range(POOL)) / POOL

        ledger_s = sum(mean_cost(t) for t in ledger)
        round_s = sum(mean_cost(t) for t in steady)
        n_rounds = max(1, round((seconds - ledger_s) / round_s))
        first = [rng.randrange(POOL) for _ in steady]
        self.rounds = []
        for r in range(n_rounds):
            cells = [t((v + r) % POOL) for t, v in zip(steady, first)]
            rng.shuffle(cells)
            self.rounds.append(cells)

    def timed(self, trace):
        """The op list of the timed phase; a traced run takes one round."""
        rounds = self.rounds[:1] if trace else self.rounds
        return self.ledger + [c for r in rounds for c in r]

    def cells(self):
        """Every cell the run can execute."""
        steady = [t(v) for t in self._steady for v in range(POOL)]
        return self.warmup + self.ledger + steady


def all_cells(workload):
    """Every cell of every pool variant: the keys ``reference.json`` covers."""
    out = {}
    warmup, ledger, steady = _templates(workload)
    for t in warmup + ledger + steady:
        for v in range(POOL):
            cell = t(v)
            out[cell["key"]] = cell
    return list(out.values())


# -- inputs ---------------------------------------------------------------------


def _chain_of(spec):
    kind, n, arg = spec
    if kind == "dw":
        return sampling.double_well_chain(arg, n)
    rng = np.random.default_rng((20170515, n, arg))
    return sampling.random_reversible_chain(rng, n)


class Inputs:
    """Input files written at set-up, and the arrays the verifier reads."""

    def __init__(self, workdir, cells):
        self.chains = {}  # spec -> (path, states, dense kernel, mu)
        self.sets = {}  # (spec, pair) -> path of an ``analyze`` sets file
        for cell in cells:
            spec = cell["params"].get("chain")
            if spec is None:
                continue
            if spec not in self.chains:
                chain = _chain_of(spec)
                path = os.path.join(workdir, "chain-{}-{}-{}.json".format(*spec))
                chains_mod.save_chain(chain, path)
                self.chains[spec] = (
                    path,
                    list(chain.states),
                    chain.kernel.toarray(),
                    np.asarray(chain.stationary, dtype=float),
                )
            if cell["kind"] == "analyze":
                states = self.chains[spec][1]
                pair = _sets_pair(cell["params"], states)
                path = os.path.join(workdir, "sets-{}-{}-{}-{}-{}.json".format(*spec, *pair))
                with open(path, "w") as fh:
                    json.dump({"sets": [[states[pair[0]]], [states[pair[1]]]]}, fh)
                self.sets[(spec, pair)] = path


def bf_inputs(variant):
    """Orlicz cross-check input of a pool variant: f, nu, K on two states."""
    rng = np.random.default_rng((20170515, 6, variant))
    nu = sampling.random_probability(rng, 2)
    f = np.abs(rng.normal(size=2))
    k_val = float(rng.uniform(0.5, 4.0))
    return f, nu, k_val


# -- running one op -----------------------------------------------------------------


def _cli(argv):
    """Run ``metastab`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_mod.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects an argument
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


class ExitStatus(Exception):
    """The command exited 1 or 2; carries the JSON error kind from stderr."""

    def __init__(self, code, stderr):
        self.code = code
        try:
            self.kind = json.loads(stderr.strip().splitlines()[-1])["error"]["kind"]
        except (ValueError, KeyError, IndexError, TypeError):
            self.kind = "unknown"
        super().__init__(f"exit {code}: {stderr.strip()[:200]}")


def _checked_cli(argv):
    rc, out, err = _cli(argv)
    if rc != 0:
        raise ExitStatus(rc, err)
    return out


def _lab_op(p):
    text = _checked_cli([
        "rfcw", "--N", p["N"], "--beta", p["beta"], "--field", FIELD,
        "--n", 2, "--materialize", "--seed", p["fseed"],
    ])
    model = rfcw_mod.build_model(p["N"], p["beta"], FIELD, seed=p["fseed"],
                                 materialize=True)
    land = rfcw_mod.coarse_grain(model, 2)
    order = rfcw_mod.find_minima_and_order(model, land)
    m1, m2 = order.minima[0], order.minima[1]
    meso = rfcw_mod.mesoscopic_rates_and_chain(model, land)
    dom = rfcw_mod.mesoscopic_dominance(model, land, meso, [m1], [m2])
    bar = rfcw_mod.barred_chain(model, land)
    lump = rfcw_mod.lumpability_certificate(model, land, bar, [m1], [m2])
    hit = coupling_mod.hitting_lower_bound_check(model, land, [m1], [m2])
    return {
        "report": text,
        "dominance": dom,
        "lumpability": lump,
        "hitting": hit,
    }


def _sets_pair(p, states):
    """Metastable sets of an ``analyze`` cell: both ends, or {x0}, {x1}."""
    return (0, 1) if p.get("S") else (0, len(states) - 1)


def _chain_cli(cell, inputs):
    p = cell["params"]
    spec = p["chain"]
    path, states = inputs.chains[spec][:2]
    cmd = cell["kind"]
    if cmd == "capacity":
        argv = ["capacity", "--chain", path, "--A", states[p["A"]], "--B", states[p["B"]]]
    elif cmd == "analyze":
        argv = ["analyze", "--chain", path, "--sets",
                inputs.sets[(spec, _sets_pair(p, states))],
                "--exact", "--seed", 1]
    elif cmd == "orlicz":
        argv = ["orlicz", "--chain", path, "--pair", "ent", "--K", "e2", "--B", states[-1]]
    elif cmd in ("cpi", "cheeger"):
        argv = ["oracle", "--chain", path, "--what", cmd]
    elif cmd == "clsi":
        argv = ["oracle", "--chain", path, "--what", "clsi", "--seed", 1]
    else:
        raise ValueError(cmd)
    return {"report": _checked_cli(argv)}


def run_op(cell, inputs):
    """Execute one cell against the program; raises on any failure."""
    kind = cell["kind"]
    p = cell["params"]
    if kind == "lab":
        return _lab_op(p)
    if kind in ("capacity", "analyze", "orlicz", "cpi", "cheeger", "clsi"):
        return _chain_cli(cell, inputs)
    if kind == "capineq":
        return {"report": _checked_cli(["capineq", "--samples", p["samples"], "--seed", p["seed"]])}
    if kind == "bf":
        f, nu, k_val = bf_inputs(p["variant"])
        pair = orlicz_mod.builtin_pairs()[p["pair"]]
        dual = orlicz_mod.orlicz_norm(f, nu, pair, k_val)
        brute = oracle_mod.brute_force_orlicz(f, nu, pair, k_val)
        return {"dual": dual, "brute": brute}
    if kind == "couple":
        return {"report": _checked_cli([
            "couple", "--N", p["N"], "--beta", p["beta"], "--field", FIELD, "--n", 2,
            "--runs", p["runs"], "--dynamics-runs", p["dyn"], "--seed", p["seed"],
        ])}
    if kind == "chi":
        model = rfcw_mod.build_model(p["N"], p["beta"], FIELD, seed=p["seed"])
        land = rfcw_mod.coarse_grain(model, 2)
        res = coupling_mod.marginal_chi_square(
            model, land, runs=p["runs"], steps=p["steps"], seed=p["seed"]
        )
        return {"paths": res}
    raise ValueError(f"unknown cell kind {kind!r}")


def output_bytes(out):
    """Canonical bytes of an op's output, for the traced/untraced comparison."""
    return json.dumps(out, sort_keys=True, default=_jsonable, allow_nan=True).encode()


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(type(obj).__name__)


# -- verification -----------------------------------------------------------------------
#
# Each check derives the op's tagged values (compared with reference.json)
# and tests one identity computed independently of the program where the
# input is small enough: dense Dirichlet solves and eigendecompositions in
# plain numpy, the birth-death series formula for the double wells.


def tagged_values(report):
    """Every ``{"value", "mode"}`` leaf of a report, keyed by its path."""
    found = {}

    def walk(node, path):
        if isinstance(node, dict):
            if "value" in node and "mode" in node and not isinstance(node["value"], (dict, list)):
                found[path] = [node["value"], node["mode"], node.get("sigma")]
                return
            for k in sorted(node):
                walk(node[k], f"{path}.{k}" if path else str(k))
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{path}[{i}]")

    walk(report, "")
    return found


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _need(ok, what):
    if not ok:
        raise VerificationMiss(what)


def dense_capacity(P, mu, a_idx, b_idx):
    """cap(A, B) = sum_{x in A} mu(x) (I - P) h (x) from a dense solve."""
    n = mu.size
    a = np.zeros(n, dtype=bool)
    a[list(a_idx)] = True
    b = np.zeros(n, dtype=bool)
    b[list(b_idx)] = True
    lap = np.eye(n) - P
    h = np.zeros(n)
    h[a] = 1.0
    free = ~(a | b)
    if free.any():
        h[free] = np.linalg.solve(lap[np.ix_(free, free)], -lap[np.ix_(free, a)].sum(axis=1))
    return float(np.dot(mu[a], (lap @ h)[a]))


def series_capacity(P, mu, i, j):
    """Birth-death capacity between sites i < j: 1 / sum 1/(mu(k) p(k, k+1))."""
    i, j = min(i, j), max(i, j)
    return 1.0 / sum(1.0 / (mu[k] * P[k, k + 1]) for k in range(i, j))


def dense_gap(P, mu):
    root = np.sqrt(mu)
    sym = root[:, None] * P / root[None, :]
    vals = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    return float(1.0 - vals[-2])


def _verify_chain_cli(cell, out, inputs):
    p = cell["params"]
    spec = p["chain"]
    _path, states, P, mu = inputs.chains[spec]
    rep = json.loads(out["report"])
    values = tagged_values(rep)
    cmd = cell["kind"]
    if cmd == "capacity":
        cap = rep["capacity"]["value"]
        if spec[0] == "dw":
            want = series_capacity(P, mu, p["A"], p["B"])
        else:
            want = dense_capacity(P, mu, [p["B"]], [p["A"]])  # cap(B, A) = cap(A, B)
        _need(_close(cap, want, 1e-7), f"capacity {cap!r} vs independent {want!r}")
    elif cmd == "analyze":
        caps = np.asarray(rep["capacities"], dtype=float)
        want = series_capacity(P, mu, *_sets_pair(p, states))
        _need(_close(caps[0, 1], want, 1e-7) and _close(caps[1, 0], want, 1e-7),
              f"set capacity {caps[0, 1]!r} vs series formula {want!r}")
        values["capacities"] = [caps[0, 1], "exact", None]
    elif cmd == "orlicz":
        pick = [states.index(s) for s in rep["argmax"]]
        mass = float(mu[pick].sum())
        cap = dense_capacity(P, mu, pick, [len(states) - 1])
        norm = orlicz_mod.indicator_orlicz_norm(mass, orlicz_mod.entropy_pair(), math.exp(2.0))
        c_psi = rep["c_psi"]["value"]
        _need(_close(c_psi, norm / cap, 1e-7),
              f"c_psi {c_psi!r} vs ratio at its argmax {norm / cap!r}")
    elif cmd == "cpi":
        gap = rep["spectral_gap"]["value"]
        want = dense_gap(P, mu)
        _need(_close(gap, want, 1e-7, 1e-13), f"gap {gap!r} vs eigvalsh {want!r}")
        _need(_close(rep["c_pi"]["value"] * gap, 1.0, 1e-12), "c_pi * gap != 1")
    elif cmd == "cheeger":
        val = rep["c_cheeger"]["value"]
        inside = np.isin(states, rep["argmax"])
        cut = float(np.sum((mu[:, None] * P)[np.ix_(inside, ~inside)]))
        m = float(mu[inside].sum())
        _need(_close(val, m * (1.0 - m) / cut, 1e-9), "c_cheeger is not the ratio at its argmax")
        c_pi = 1.0 / dense_gap(P, mu)
        _need(val <= c_pi * (1.0 + 1e-9), f"Cheeger {val!r} above C_PI {c_pi!r}")
    elif cmd == "clsi":
        val = rep["c_lsi_lower"]["value"]
        c_pi = 1.0 / dense_gap(P, mu)
        _need(val >= 2.0 * c_pi * (1.0 - 1e-3), f"C_LSI bound {val!r} below 2 C_PI {2 * c_pi!r}")
    return values


def _verify_lab(out):
    rep = json.loads(out["report"])
    entry = rep["runs"][0]
    values = tagged_values(entry)
    dom, lump, hit = out["dominance"], out["lumpability"], out["hitting"]
    cb, cl = lump["cap_barred"], lump["cap_lumped"]
    _need(_close(cb, cl, 1e-9), f"barred capacity {cb!r} != lumped {cl!r}")
    _need(_close(entry["cap_m1_m2"]["value"], lump["cap_micro"], 1e-12),
          "CLI and library capacities of the two deepest minima differ")
    _need(dom["micro"] <= dom["meso"] * (1.0 + 1e-9), "mesoscopic dominance fails")
    for k in ("micro", "meso"):
        values[f"dominance.{k}"] = [dom[k], "exact", None]
    for k in ("cap_barred", "cap_lumped"):
        values[f"lumpability.{k}"] = [lump[k], "exact", None]
    values["hitting.worst_margin"] = [hit["worst_margin"], "exact", None]
    values["minima"] = [entry["minima"], "exact", None]
    return values


def _verify_couple(out):
    rep = json.loads(out["report"])
    exp = rep["experiment"]
    values = tagged_values(rep)
    emp, th = exp["p_A_empirical"], exp["p_A_theory"]["value"]
    _need(abs(emp["value"] - th) <= 3.0 * emp["sigma"], "p_A outside three sigma")
    _need(exp["sync_violations"] == 0 and exp["containment_violations"] == 0,
          "coupling synchrony or containment violated")
    tail = rep["tail_bound"]
    _need(tail["within_3sigma"] and tail["domination_ok"], "tail bound check fails")
    if "eta" in rep:
        eta = rep["eta"]
        _need(eta["var_exact"] <= eta["var_bound"] + 1e-10, "eta regularity bound fails")
        values["eta.var_exact"] = [eta["var_exact"], "exact", None]
        values["hitting.worst_margin"] = [rep["hitting_bound"]["worst_margin"], "exact", None]
    return values


def verify(cell, out, inputs):
    """Check one op's output; returns its tagged values, raises VerificationMiss."""
    kind = cell["kind"]
    if kind == "lab":
        return _verify_lab(out)
    if kind in ("capacity", "analyze", "orlicz", "cpi", "cheeger", "clsi"):
        return _verify_chain_cli(cell, out, inputs)
    if kind == "capineq":
        rep = json.loads(out["report"])
        _need(rep["violations"] == 0 and rep["max_ratio"]["value"] <= 1.0 + 1e-10,
              "capacitary inequality violated")
        return tagged_values(rep)
    if kind == "bf":
        dual, brute = out["dual"], out["brute"]
        _need(_close(dual, brute, 1e-4), f"dual Orlicz norm {dual!r} vs brute force {brute!r}")
        return {"dual": [dual, "exact", None], "brute": [brute, "bound", None]}
    if kind == "couple":
        return _verify_couple(out)
    if kind == "chi":
        # The library's own test rejects at family-wise 0.01 per path, so a
        # correct sampler fails it in ~2% of cells (3 of 64 pool variants
        # when the reference was written, each within 3x of its threshold).
        # Verification screens at family-wise CHI_ALPHA instead, a level
        # that only a broken kernel reaches.
        for r in out["paths"]:
            _need(r["states_tested"] > 0, f"{r['path']}: no state visited often enough")
            floor = CHI_ALPHA / r["states_tested"]
            _need(r["min_pvalue"] >= floor,
                  f"{r['path']}: chi-square p {r['min_pvalue']:.3g} below {floor:.3g}")
        return {}
    raise ValueError(kind)


def compare_reference(values, ref_values):
    """Raise VerificationMiss where a tagged value leaves its reference tolerance."""
    for path, (ref, mode, ref_sigma) in ref_values.items():
        if path not in values:
            raise VerificationMiss(f"{path}: missing (reference {ref!r})")
        got, _mode, sigma = values[path]
        if isinstance(ref, (list, bool, str)) or ref is None:
            _need(got == ref, f"{path}: {got!r} != reference {ref!r}")
            continue
        if mode == "mc":
            tol = 3.0 * math.hypot(sigma or 0.0, ref_sigma or 0.0)
            _need(abs(got - ref) <= tol, f"{path}: {got!r} vs reference {ref!r} (mc, {tol:.3g})")
            continue
        name = "free_energy" if path.startswith("free_energy.") else path.rsplit(".", 1)[-1]
        atol = ATOL.get(name, 0.0)
        _need(_close(got, ref, RTOL.get(mode, RTOL["exact"]), atol),
              f"{path}: {got!r} vs reference {ref!r} ({mode})")


# -- one attempt: run, time, classify, verify ---------------------------------------------


def attempt(cell, inputs, reference, span=contextlib.nullcontext):
    """Run and check one cell.

    Returns ``(record, output)``.  The record holds the status (``ok``,
    ``exit1``, ``exit2``, ``uncaught`` or ``verify``), the error class or
    JSON error kind, the op's latency in seconds (verification is not
    timed) and whether the reference ledger expected the cell to fail.
    ``reference`` is the cell's entry of ``reference.json``, or None while
    the reference itself is being written.
    """
    out = error = values = None
    t0 = time.perf_counter()
    try:
        with span():
            out = run_op(cell, inputs)
        status = "ok"
    except ExitStatus as exc:
        status, error = f"exit{exc.code}", exc.kind
    except Exception as exc:  # every uncaught exception is a ledger entry
        status, error = "uncaught", type(exc).__name__
    latency = time.perf_counter() - t0
    if status == "ok":
        try:
            values = verify(cell, out, inputs)
            if reference is not None and reference["status"] == "ok":
                compare_reference(values, reference["values"])
        except VerificationMiss as exc:
            status, error = "verify", str(exc)[:300]
    record = {
        "key": cell["key"],
        "status": status,
        "error": error,
        "latency": latency,
        "expected_failure": reference is not None and reference["status"] != "ok",
        "values": values,
    }
    return record, out
