"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

1. Tracing never changes a report: a few cells of every workload run
   untraced and then traced, and their outputs must be byte-identical.
2. The trace accounts for the op time: per root span, the self times of
   every traced function plus the benchmark's own self time plus the
   measured tracer overhead add up to the span's duration.
3. Smoke pass: light cells of every workload go through verification and
   the reference comparison, and end as the reference ledger expects.

Exits 0 when every check holds.
"""

from __future__ import annotations

import os
import sys
import tempfile

import run


def light_cells(wl, workload):
    """The warm-up cell, one cell that fails at the seed, two light steady cells."""
    reference = run.load_reference()
    costs = run.costs_of(reference)
    plan = wl.Plan(workload, 0, costs, 1.0)
    failing = [c for c in plan.ledger
               if run.reference_of(reference, c)["status"] != "ok"
               and c["params"].get("N", 0) < 11][:1]
    steady = sorted(plan.rounds[0], key=lambda c: costs[c["key"]])
    return plan.warmup + failing + steady[:2]


def main():
    sys.path.insert(0, run.SRC)
    import workloads as wl
    from spans import ROOT, Tracer

    reference = run.load_reference()
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    problems = []
    try:
        cells = [c for w in wl.WORKLOADS for c in light_cells(wl, w)]
        inputs = wl.Inputs(workdir, cells)
        plain = {}
        for cell in cells:
            record, out = wl.attempt(cell, inputs, run.reference_of(reference, cell))
            plain[cell["key"]] = (record["status"], record["error"], wl.output_bytes(out))
            if record["status"] != "ok" and not record["expected_failure"]:
                problems.append(f"smoke: {cell['key']} {record['status']} {record['error']}")
            print(f"smoke {cell['key']}: {record['status']}")

        tracer = Tracer()
        tracer.install()
        try:
            for cell in cells:
                before = tracer.overhead_s + sum(s[2] for s in tracer.stats.values())
                root_before = tracer.stats.get(ROOT, [0, 0.0])[1]
                record, out = wl.attempt(cell, inputs, run.reference_of(reference, cell),
                                         tracer.root)
                traced = (record["status"], record["error"], wl.output_bytes(out))
                if traced != plain[cell["key"]]:
                    problems.append(f"tracing changed the output of {cell['key']}")
                accounted = tracer.overhead_s + sum(s[2] for s in tracer.stats.values()) - before
                span = tracer.stats[ROOT][1] - root_before
                if abs(accounted - span) > 1e-6 * span + 1e-9:
                    problems.append(f"{cell['key']}: self times {accounted} != span {span}")
                print(f"traced {cell['key']}: identical={traced == plain[cell['key']]}")
        finally:
            tracer.uninstall()
        if not tracer.wrapped or tracer.stats["cli.main"][0] == 0:
            problems.append("the tracer caught no cli.main calls")
    finally:
        run.remove_workdir(workdir)
    for p in problems:
        print("FAIL", p)
    print("selftest", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
