"""Write ``reference.json``: the status and tagged values of every cell.

    python3 perfbench/reference.py [--workload NAME ...] [--missing]

Runs every cell of every pool variant once, untraced, and stores what the
program returned: the failure status and error class of the cells that
fail (the failure ledger's expectations), and the tagged values of the
cells that pass, which later runs must reproduce within the tolerance of
each value's ``exact|bound|mc`` tag.  Regenerate only when the benchmark's
cells change, never to absorb a change of the program's results.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import run

OUT = os.path.join(run.HERE, "reference.json")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--missing", action="store_true",
                        help="only run cells that have no entry yet")
    args = parser.parse_args(argv)
    sys.path.insert(0, run.SRC)
    import workloads as wl

    data = {"pool": wl.POOL, "cells": {}}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            data = json.load(fh)
    os.makedirs(run.WORK, exist_ok=True)
    for workload in args.workload or wl.WORKLOADS:
        cells = [c for c in wl.all_cells(workload)
                 if not (args.missing and c["key"] in data["cells"])]
        workdir = tempfile.mkdtemp(prefix="reference-", dir=run.WORK)
        try:
            inputs = wl.Inputs(workdir, cells)
            for cell in cells:
                record, _ = wl.attempt(cell, inputs, None)
                entry = {"status": record["status"], "cost_s": record["latency"]}
                if record["status"] == "ok":
                    entry["values"] = record["values"]
                else:
                    entry["error"] = record["error"]
                data["cells"][cell["key"]] = entry
                print(f"{workload} {cell['key']} {record['status']} "
                      f"{record['error'] or ''} {record['latency']:.3f}s", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    current = {c["key"] for w in wl.WORKLOADS for c in wl.all_cells(w)}
    data["cells"] = {k: v for k, v in data["cells"].items() if k in current}
    write(data)
    return 0


def write(data):
    """One cell per line, so a regenerated reference diffs cell by cell."""
    cells = ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
        for key, entry in sorted(data["cells"].items())
    )
    with open(OUT, "w") as fh:
        fh.write(f'{{"pool": {data["pool"]}, "cells": {{\n{cells}\n}}}}\n')


if __name__ == "__main__":
    sys.exit(main())
