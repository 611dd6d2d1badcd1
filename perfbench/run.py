"""Run one metastab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rfcw_micro --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported in-process from
``src/``; the workload seed picks every input (see ``workloads.py``).

``--trace 0`` measures the end-to-end metrics: set-up (import, inputs and
one warm-up op; the median of this process and two fresh set-up processes),
then a closed loop over a fixed op list, each op checked.  The list is sized
so that it takes about ``--seconds`` at the latencies stored in
``reference.json``, and it is the same length for every seed, so
``attempted`` and ``failed`` repeat exactly.  ``--trace 1`` wraps the
program's public functions (``spans.py``) and runs the workload's ledger
cells and one round of its steady cells, to give per-layer calls, self
time, errors and computed counters.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the details: machine record, failure ledger, tail percentile and, when
tracing, the hottest nested calls and the names found absent.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 2  # fresh processes that repeat set-up, for a median of three
TAIL_BEYOND = 10  # the tail percentile leaves at least this many ops above it
GUARD_FACTOR = 3  # give up when a run's fixed op list takes this many times --seconds


class BenchError(Exception):
    """The benchmark itself cannot run: no result is printed."""


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def machine_record():
    """Hardware, versions and thread settings of this run."""
    import numpy as np
    import scipy

    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = {}
    for name, mod in (("numpy", np), ("scipy", scipy)):
        with contextlib.suppress(Exception):  # show_config layout varies by version
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[name] = f"{dep.get('name')} {dep.get('version')}"
    threads = {
        k: v
        for k, v in os.environ.items()
        if k.endswith("_NUM_THREADS") or k in ("OPENBLAS_CORETYPE", "METASTAB_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": threads,
    }


def setup(workload, seed, seconds):
    """Import the program, write the inputs, run one warm-up op: (seconds, state)."""
    t0 = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "metastab", "__init__.py")):
        raise BenchError(f"no metastab sources under {SRC}")
    sys.path.insert(0, SRC)
    import metastab

    if not os.path.abspath(metastab.__file__).startswith(SRC + os.sep):
        raise BenchError(f"metastab imported from {metastab.__file__}, not {SRC}")
    import workloads as wl

    reference = load_reference()
    plan = wl.Plan(workload, seed, costs_of(reference), seconds)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        inputs = wl.Inputs(workdir, plan.cells())
        for cell in plan.warmup:
            record, _ = wl.attempt(cell, inputs, reference_of(reference, cell))
            if record["status"] != "ok":
                raise BenchError(f"warm-up op {cell['key']} failed: {record['error']}")
    except BaseException:
        remove_workdir(workdir)
        raise
    return time.perf_counter() - t0, (wl, plan, inputs, reference, workdir)


def remove_workdir(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(WORK)  # only when no other run is using it


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def costs_of(reference):
    """Latency of every cell when the reference was written."""
    return {key: entry["cost_s"] for key, entry in reference["cells"].items()}


def reference_of(reference, cell):
    try:
        return reference["cells"][cell["key"]]
    except KeyError:
        raise BenchError(f"reference.json has no entry for {cell['key']}") from None


def probe_setup(args):
    """Set-up time of fresh processes, run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def rank_value(sorted_lat, index, censor):
    """Latency at a rank; a failed op (+inf) reads as the timed phase's length."""
    value = sorted_lat[index]
    return (censor, True) if math.isinf(value) else (value, False)


def end_to_end(records, setup_samples):
    lat = sorted(r["latency"] if r["status"] == "ok" else math.inf for r in records)
    k = len(lat)
    ok = sum(r["status"] == "ok" for r in records)
    op_time = sum(r["latency"] for r in records)
    # lower median for an even count, so one failed op cannot make it +inf alone
    p50, p50_censored = rank_value(lat, (k - 1) // 2, op_time)
    index = k - 1 - TAIL_BEYOND if k > TAIL_BEYOND else k - 1
    tail, tail_censored = rank_value(lat, index, op_time)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": ok / op_time,
        "op_p50_s": p50,
        "op_tail_s": tail,
        "fail_frac": (k - ok) / k,
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": statistics.median(setup_samples),
    }
    detail = {
        "ops": k,
        "ok": ok,
        "op_time_s": op_time,
        "tail_percentile": 100.0 * (index + 1) / k,
        "tail_ops_beyond": k - 1 - index,
        "censored": {"op_p50_s": p50_censored, "op_tail_s": tail_censored},
        "setup_samples_s": setup_samples,
    }
    return metrics, detail


def per_layer(names, tracer, cpu_s):
    from spans import LAYERS, ROOT as ROOT_SPAN

    root = tracer.stats.get(ROOT_SPAN, [0, 0.0, 0.0, 0])
    run_coupling = tracer.stats.get("coupling.run_coupling", [0, 0.0, 0.0, 0])
    steps = tracer.computed["coupling.steps"]
    special = {
        **tracer.computed,
        "coupling.steps_per_s": steps / run_coupling[1] if run_coupling[1] > 0 else 0.0,
        "cli.uncaught": tracer.stats.get("cli.main", [0, 0.0, 0.0, 0])[3],
        "trace.overhead_frac": tracer.overhead_s / root[1] if root[1] > 0 else 0.0,
        "trace.op_s": root[1],
        "bench.self_s": root[2],
        "process.cpu_s": cpu_s,
    }
    fields = {"calls": 0, "self_s": 2, "errors": 3}
    values, absent = {}, []
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        key, _, field = name.rpartition(".")
        if field not in fields:
            raise BenchError(f"per-layer metric {name} has no source")
        if key in LAYERS:
            calls, self_s, errors = tracer.layer_totals(key)
            values[name] = {"calls": calls, "self_s": self_s, "errors": errors}[field]
        elif key in tracer.wrapped:
            values[name] = tracer.stats[key][fields[field]]
        else:  # the program no longer has this function
            values[name] = 0
            absent.append(name)
    return values, absent


def ledger(records):
    """Failure ledger: every cell that failed, with status and error class."""
    failed = {}
    for r in records:
        if r["status"] == "ok":
            continue
        entry = failed.setdefault(r["key"], {"count": 0, "expected": r["expected_failure"]})
        entry["count"] += 1
        entry.setdefault("statuses", {})[r["status"]] = r["error"]
    return {
        "failed": failed,
        "ok_ops": sum(r["status"] == "ok" for r in records),
        "cells": len({r["key"] for r in records}),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_at_start = os.getloadavg()

    spec = _load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    setup_s, (wl, plan, inputs, reference, workdir) = setup(args.workload, args.seed, args.seconds)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # set-up time is an end-to-end metric: the traced run needs no probes
        setup_samples = [setup_s] + ([] if args.trace else probe_setup(args))

        tracer = None
        span = contextlib.nullcontext
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            span = tracer.root
        cpu0 = time.process_time()
        records = []

        def run(cell):
            record, _ = wl.attempt(cell, inputs, reference_of(reference, cell), span)
            record.pop("values")
            records.append(record)

        t_start = time.perf_counter()
        for cell in plan.timed(args.trace):
            if time.perf_counter() - t_start > GUARD_FACTOR * args.seconds:
                raise BenchError(f"the op list ran past {GUARD_FACTOR} x --seconds")
            run(cell)
        elapsed = time.perf_counter() - t_start
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()

        e2e, detail = end_to_end(records, setup_samples)
        detail.update(
            workload=args.workload,
            seed=args.seed,
            trace=args.trace,
            elapsed_s=elapsed,
            load_at_start=load_at_start,
            machine=machine_record(),
            ledger=ledger(records),
        )
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values, absent = per_layer(names, tracer, cpu_s)
            detail["trace"] = {
                "absent": absent,
                "computed": sorted(tracer.computed),
                "overhead_s": tracer.overhead_s,
                "hottest": tracer.hottest_children(),
            }
        else:
            names = [m["name"] for m in spec["end_to_end"]]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            values = e2e
        unexpected = [
            r["key"] for r in records if r["status"] != "ok" and not r["expected_failure"]
        ]
        detail["unexpected_failures"] = unexpected
        print(json.dumps({"detail": detail}, sort_keys=True))
        result = {
            "correct": not unexpected,
            "attempted": len(records),
            "failed": sum(r["status"] != "ok" for r in records),
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
        }
        print(json.dumps(result))
        return 0
    finally:
        remove_workdir(workdir)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        sys.exit(2)
