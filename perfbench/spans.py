"""Opt-in call tracer for the metastab modules, installed from outside ``src/``.

``Tracer.install()`` wraps every public function of the eight layer modules
(plus ``ReversibleChain.__init__``) and rebinds each wrapper in every
``metastab.*`` namespace that holds the original, so calls between modules
are caught too.  Spans are not kept one by one: each function aggregates its
calls, inclusive time, self time (duration minus traced children) and the
calls that ended by raising, and each (caller, callee) edge aggregates its
calls and time.  Memory therefore stays bounded however often a function runs
(``capacity_dense`` runs ~10^5 times per workload).

The wrapper's own bookkeeping is timed and charged to ``overhead_s`` instead
of the caller, so for every root span

    root duration = sum of self times (layers + benchmark) + tracer overhead.

A few counters are computed from call arguments, not measured: the largest
chain size seen by ``potential``, dense matrix bytes 8 n^2 implied by chain
sizes, and the coupled steps requested from ``run_coupling`` (the sum of T).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "chains",
    "potential",
    "orlicz",
    "metastable",
    "oracle",
    "rfcw",
    "coupling",
    "cli",
)

ROOT = "bench.op"


def _chain_states(args):
    """States of the chain passed first, or None when the first arg is no chain."""
    if args and hasattr(args[0], "n_states") and hasattr(args[0], "stationary"):
        return int(args[0].n_states)
    return None


def _dense_bytes(args):
    """8 n^2: bytes of one dense float64 matrix over the chain passed first."""
    n = _chain_states(args)
    return None if n is None else 8 * n * n


def _potential_states(args):
    states = _chain_states(args)
    if states is None and len(args) >= 2 and hasattr(args[1], "size"):
        return int(args[1].size)  # capacity_dense(ctx, a, b): masks span the chain
    return states


class Tracer:
    """Aggregating span recorder; one instance per traced run."""

    def __init__(self):
        self.stack = []  # [key, child_time] frames of the open spans
        self.stats = {}  # key -> [calls, total_s, self_s, errors]
        self.edges = {}  # (parent, child) -> [calls, total_s]
        self.computed = {
            "potential.states_max": 0,
            "metastable.dense_bytes_max": 0,
            "oracle.exact_cpi.dense_bytes_max": 0,
            "coupling.steps": 0,
        }
        self.overhead_s = 0.0
        self.wrapped = set()  # keys of the functions that were found and wrapped
        self._restore = []  # (owner, attribute, original)

    # -- installation ---------------------------------------------------------

    def install(self):
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"metastab.{layer}")
            for name, obj in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                key = f"{layer}.{name}"
                originals[id(obj)] = (obj, self._wrap(key, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "metastab" or mod_name.startswith("metastab.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        chains = importlib.import_module("metastab.chains")
        cls = chains.ReversibleChain
        init = cls.__dict__["__init__"]
        self._restore.append((cls, "__init__", init))
        cls.__init__ = self._wrap("chains.ReversibleChain", init)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _counter_for(self, key, fn):
        """Computed counter updated from the call's arguments, or None."""
        layer = key.split(".", 1)[0]
        computed = self.computed
        if key == "coupling.run_coupling":
            sig = inspect.signature(fn)

            def count(args, kwargs):
                computed["coupling.steps"] += int(sig.bind(*args, **kwargs).arguments["T"])

            return count
        if key == "oracle.exact_cpi":
            return self._max_counter("oracle.exact_cpi.dense_bytes_max", _dense_bytes)
        if layer == "potential":
            return self._max_counter("potential.states_max", _potential_states)
        if layer == "metastable":
            return self._max_counter("metastable.dense_bytes_max", _dense_bytes)
        return None

    def _max_counter(self, name, size):
        computed = self.computed

        def count(args, kwargs):
            n = size(args)
            if n is not None and n > computed[name]:
                computed[name] = n

        return count

    def _wrap(self, key, fn):
        self.wrapped.add(key)
        self.stats[key] = [0, 0.0, 0.0, 0]
        stat = self.stats[key]
        stack = self.stack
        edges = self.edges
        count = self._counter_for(key, fn)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside every root span: not part of a measured op
                return fn(*args, **kwargs)
            t_in = clock()
            if count is not None:
                count(args, kwargs)
            frame = [key, 0.0]
            stack.append(frame)
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if raised:
                    stat[3] += 1
                parent = stack[-1]
                edge = edges.get((parent[0], key))
                if edge is None:
                    edges[(parent[0], key)] = [1, dur]
                else:
                    edge[0] += 1
                    edge[1] += dur
                t_out = clock()
                parent[1] += t_out - t_in
                tracer.overhead_s += (t_out - t_in) - dur

        return traced

    # -- root spans -------------------------------------------------------------

    def root(self):
        """Context manager for one op: the benchmark's own root span."""
        return _RootSpan(self)

    # -- reporting --------------------------------------------------------------

    def layer_totals(self, layer):
        calls = total_self = errors = 0
        prefix = layer + "."
        for key, (n, _total, self_s, err) in self.stats.items():
            if key.startswith(prefix):
                calls += n
                total_self += self_s
                errors += err
        return calls, total_self, errors

    def hottest_children(self, limit=3):
        """Per caller, its ``limit`` most expensive callees by inclusive time."""
        by_parent = {}
        for (parent, child), (calls, total) in self.edges.items():
            by_parent.setdefault(parent, []).append((total, calls, child))
        out = {}
        for parent, rows in sorted(by_parent.items()):
            rows.sort(reverse=True)
            out[parent] = [
                {"callee": child, "calls": calls, "total_s": total}
                for total, calls, child in rows[:limit]
            ]
        return out


class _RootSpan:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        tracer = self.tracer
        if tracer.stack:
            raise RuntimeError("root spans do not nest")
        self.frame = [ROOT, 0.0]
        tracer.stack.append(self.frame)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dur = time.perf_counter() - self.t0
        tracer = self.tracer
        tracer.stack.pop()
        stat = tracer.stats.setdefault(ROOT, [0, 0.0, 0.0, 0])
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - self.frame[1]
        if exc_type is not None:
            stat[3] += 1
        return False
