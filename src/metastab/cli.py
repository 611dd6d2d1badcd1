"""Command-line surface: reproducible experiments over the library modules.

Reports are JSON with a provenance block (version, seed, mode, tolerances)
and deterministic byte-for-byte given the same arguments and seed.  Exit
codes: 0 success, 1 bad input (error kind ``validation``) or a solve that
failed its checks (kind ``solver``), 2 failed theorem-backed inequalities.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .chains import (
    InequalityViolation,
    MetastabError,
    SolverNotConverged,
    ValidationError,
    load_chain,
    subset_mask,
)
from . import coupling as coupling_mod
from . import metastable as meta_mod
from . import oracle as oracle_mod
from . import orlicz as orlicz_mod
from . import rfcw as rfcw_mod
from .potential import equilibrium_potential
from .sampling import random_reversible_chain, random_state_function


def tagged(value, mode, sigma=None):
    """Report numeric tagged with its evaluation mode (exact | bound | mc)."""
    out = {"value": value, "mode": mode}
    if sigma is not None:
        out["sigma"] = sigma
    return out


def _provenance(args, mode=None, tolerances=None):
    return {
        "tool": "metastab",
        "version": __version__,
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "mode": mode,
        "tolerances": tolerances or {},
    }


def _emit(args, report):
    text = json.dumps(report, indent=1, sort_keys=True, allow_nan=False)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _need_seed(args):
    if args.seed is None:
        raise ValidationError(f"command {args.command!r} requires --seed")


def _number(flag, text):
    """``text`` as a finite float; a ValidationError naming ``flag`` otherwise."""
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"{flag} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{flag} must be finite, got {text!r}")
    return value


def _sets_from_file(chain, path):
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        if "sets" not in data:
            raise ValidationError(f"sets file {path!r} has no 'sets' key")
        data = data["sets"]
    if not isinstance(data, list) or not all(isinstance(s, list) for s in data):
        raise ValidationError(f"sets file {path!r} must hold a list of lists of states")
    return [subset_mask(chain, s) for s in data]


def _states_mask(chain, text):
    """Mask of the comma-separated ids in ``text``, each read as in the
    chain's JSON: a string id by its text, a numeric id as a JSON number."""
    ids = {s if isinstance(s, str) else json.dumps(s): s for s in chain.states}
    try:
        return subset_mask(chain, [ids[token] for token in text.split(",")])
    except KeyError as exc:
        raise ValidationError(f"unknown state {exc.args[0]!r}") from None


def _mask_to_ids(chain, mask):
    return [chain.states[i] for i in np.flatnonzero(mask)]


# -- command handlers ------------------------------------------------------------


def cmd_capacity(args):
    chain = load_chain(args.chain)
    a = _states_mask(chain, args.A)
    b = _states_mask(chain, args.B)
    sol = equilibrium_potential(chain, a, b)
    return {
        "provenance": _provenance(args, mode="exact"),
        "A": _mask_to_ids(chain, a),
        "B": _mask_to_ids(chain, b),
        "capacity": tagged(sol.capacity, "exact"),
        "capacity_from_energy": tagged(sol.capacity_from_energy, "exact"),
        "potential": dict(zip(chain.states, sol.potential.tolist())),
        "equilibrium_measure": {
            s: float(v)
            for s, v in zip(chain.states, sol.equilibrium_measure)
            if bool(a[chain.index[s]])
        },
        "last_exit": {
            s: float(v)
            for s, v in zip(chain.states, sol.last_exit)
            if bool(a[chain.index[s]])
        },
    }


def cmd_analyze(args):
    chain = load_chain(args.chain)
    sets = _sets_from_file(chain, args.sets)
    _need_seed(args)
    mode = "exact" if args.exact else "auto"
    structure = meta_mod.build_structure(chain, sets, mode=mode, seed=args.seed)
    estimates = meta_mod.pi_lsi_estimates(chain, structure)
    exits = {}
    for i in range(structure.n_sets):
        try:
            exits[str(i)] = meta_mod.mean_exit_asymptotics(chain, structure, i)
        except MetastabError:
            exits[str(i)] = None
    report = {
        "provenance": _provenance(args, mode=structure.rho_certificate.mode),
        "sets": [_mask_to_ids(chain, m) for m in structure.sets],
        "partition": [_mask_to_ids(chain, p) for p in structure.partition],
        "rho": tagged(
            structure.rho,
            "exact" if structure.rho_certificate.mode == "exact" else "bound",
        ),
        "eta": tagged(structure.eta, "exact"),
        "c_mass": tagged(structure.c_mass, "exact"),
        "cpi_local": [tagged(v, "exact") for v in structure.cpi_local.tolist()],
        "clsi_local": [tagged(v, "bound") for v in structure.clsi_local.tolist()],
        "cpi_M": tagged(structure.cpi_M, "exact"),
        "clsi_M": tagged(structure.clsi_M, "bound"),
        "mu_sets": structure.mu_sets.tolist(),
        "mu_parts": structure.mu_parts.tolist(),
        "capacities": structure.caps.tolist(),
        "pi_lsi": {
            "pi_lower": tagged(estimates["pi_lower"], "exact"),
            "pi_upper": tagged(estimates["pi_upper"], "exact"),
            "lsi_lower": tagged(estimates["lsi_lower"], "exact"),
            "lsi_upper": tagged(estimates["lsi_upper"], "exact"),
            "diag_pi_error_factor": estimates["diag_pi_error_factor"],
            "diag_lsi_error_factor": estimates["diag_lsi_error_factor"],
            "k2_point_estimates": estimates.get("k2_point_estimates"),
        },
        "mean_exit": exits,
    }
    return report


def cmd_orlicz(args):
    chain = load_chain(args.chain)
    b = _states_mask(chain, args.B)
    pair = orlicz_mod.get_pair(args.pair)
    k_val = float(np.exp(2.0)) if args.K == "e2" else _number("--K", args.K)
    scan = orlicz_mod.measure_capacity_constant(
        chain, chain.stationary, b, pair, k_val
    )
    return {
        "provenance": _provenance(args, mode=scan["mode"]),
        "pair": pair.name,
        "K": k_val,
        "B": _mask_to_ids(chain, b),
        "c_psi": tagged(
            scan["c_psi"], "exact" if scan["mode"] == "exact" else "bound"
        ),
        "argmax": _mask_to_ids(chain, scan["argmax"]),
    }


def cmd_capineq(args):
    _need_seed(args)
    _check_counts(("--samples", args.samples, 1))
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    violations = 0
    for _ in range(args.samples):
        n = int(rng.integers(3, 24))
        chain = random_reversible_chain(rng, n)
        b = np.zeros(n, dtype=bool)
        b[rng.integers(0, n)] = True
        f = random_state_function(rng, chain)
        f[b] = 0.0
        lhs, rhs = orlicz_mod.capacitary_integral(chain, f, b)
        if lhs > rhs + 1e-10:
            violations += 1
        if rhs > 0.0:
            worst = max(worst, lhs / rhs)
    return {
        "provenance": _provenance(
            args, mode="exact", tolerances={"slack": 1e-10}
        ),
        "samples": args.samples,
        "violations": violations,
        "max_ratio": tagged(worst, "exact"),
    }


def cmd_oracle(args):
    chain = load_chain(args.chain)
    if args.what == "cpi":
        rep = oracle_mod.exact_cpi(chain)
        mode = "exact" if rep.certificate.exact else "bound"
        return {
            "provenance": _provenance(args, mode=mode),
            "c_pi": tagged(rep.c_pi_exact, mode),
            "spectral_gap": tagged(rep.spectral_gap, mode),
            "eigenvalues": rep.eigenvalues.tolist(),
        }
    if args.what == "clsi":
        _need_seed(args)
        rep = oracle_mod.estimate_clsi(chain, seed=args.seed)
        return {
            "provenance": _provenance(args, mode="bound"),
            "c_lsi_lower": tagged(rep.c_lsi_lower, "bound"),
            "multistarts": rep.multistarts,
            "converged": rep.converged,
        }
    if args.what == "cheeger":
        val, mask = oracle_mod.cheeger_constant(chain)
        return {
            "provenance": _provenance(args, mode="exact"),
            "c_cheeger": tagged(val, "exact"),
            "argmax": _mask_to_ids(chain, mask),
        }
    raise ValidationError(f"unknown oracle {args.what!r}")


def cmd_rfcw(args):
    betas = [_number("--beta", b) for b in str(args.beta).split(",")]
    spec = rfcw_mod.parse_field_spec(args.field)
    if spec.get("kind") in ("uniform", "discrete"):
        _need_seed(args)
    per_beta = []
    for beta in betas:
        model = rfcw_mod.build_model(
            args.N, beta, args.field, seed=args.seed, materialize=args.materialize
        )
        land = rfcw_mod.coarse_grain(model, args.n)
        ordering = rfcw_mod.find_minima_and_order(model, land)
        entry = {
            "beta": beta,
            "minima": [land.point_ids[k] for k in ordering.minima],
            "deltas": ordering.deltas.tolist(),
            "degenerate": ordering.degenerate,
            "free_energy": {
                land.point_ids[k]: tagged(float(land.free_energy[k]), "exact")
                for k in range(land.n_points)
            },
            "refined_minima": [
                {
                    "z": r["z"],
                    "x": [float(v) for v in r["x"]],
                    "residual": r["residual"],
                    "f_value": r["f_value"],
                    "f_closed_form": r["f_closed_form"],
                }
                for r in ordering.refined
            ],
        }
        if model.materialized and not ordering.degenerate:
            sets = [land.fiber_mask([k]) for k in ordering.minima[:2]]
            cert = meta_mod.rho_metastability(model.chain, sets, mode="singleton")
            entry["rho"] = tagged(cert.rho, "bound")
            sol = equilibrium_potential(model.chain, *sets)
            entry["cap_m1_m2"] = tagged(sol.capacity, "exact")
            cert = oracle_mod.certified_gap(model.chain, sol.potential)
            entry["spectral_gap"] = tagged(cert.gap, "exact" if cert.exact else "bound")
        per_beta.append(entry)
    return {
        "provenance": _provenance(args, mode="exact"),
        "N": args.N,
        "n": args.n,
        "field": args.field,
        "materialized": args.materialize,
        "runs": per_beta,
    }


def _check_counts(*limits):
    """Raise for the first (flag, value, least) whose value is below ``least``."""
    for flag, value, least in limits:
        if value is not None and value < least:
            raise ValidationError(f"{flag} must be at least {least}, got {value}")


def cmd_couple(args):
    _need_seed(args)
    _check_counts(
        ("--runs", args.runs, 1),
        ("--dynamics-runs", args.dynamics_runs, 1),
        ("--M", args.M, 0),
        ("--T", args.T, 0),
    )
    if args.dynamics_runs is not None and args.dynamics_runs > args.runs:
        raise ValidationError("--dynamics-runs must not exceed --runs")
    model = rfcw_mod.build_model(args.N, args.beta, args.field, seed=args.seed)
    land = rfcw_mod.coarse_grain(model, args.n)
    M = args.M if args.M is not None else args.N
    report = coupling_mod.coupling_experiment(
        model,
        land,
        runs=args.runs,
        seed=args.seed,
        M=M,
        T=args.T,
        dynamics_runs=args.dynamics_runs,
    )
    tail = coupling_mod.tail_bound_check(
        model, samples=min(args.runs, 500), seed=args.seed
    )
    ordering = rfcw_mod.find_minima_and_order(model, land)
    out = {
        "provenance": _provenance(args, mode="mc"),
        "experiment": {
            **{
                k: v
                for k, v in report.items()
                if k not in ("p_A_empirical", "p_A_theory")
            },
            "p_A_empirical": tagged(
                report["p_A_empirical"], "mc", sigma=report["p_A_sigma"]
            ),
            "p_A_theory": tagged(report["p_A_theory"], "exact"),
        },
        "tail_bound": tail,
    }
    if not ordering.degenerate:
        out["hitting_bound"] = coupling_mod.hitting_lower_bound_check(
            model, land, [ordering.minima[0]], [ordering.minima[1]]
        )
        try:
            out["eta"] = coupling_mod.eta_from_coupling(
                model, land, ordering.minima[0], ordering.minima[1]
            )
        except coupling_mod.BoundOutOfRange as exc:
            out["eta_skipped"] = str(exc)
    if not report["p_A_within_3sigma"]:
        raise InequalityViolation("gate-event frequency outside three sigma")
    return out


def _tagged_value(node, key):
    """``node[key]["value"]``, a number; None where ``key`` is absent or null."""
    tag = node.get(key)
    if tag is None:
        return None
    if not isinstance(tag, dict) or not isinstance(tag.get("value"), (int, float)):
        raise ValidationError(f"report entry {key!r} is not a tagged number")
    return tag["value"]


def cmd_export(args):
    with open(args.report) as fh:
        report = json.load(fh)
    if args.what not in ("landscape", "trend"):
        raise ValidationError(f"unknown export key {args.what!r}")
    runs = report.get("runs") if isinstance(report, dict) else None
    if not runs or not isinstance(runs, list) or not all(isinstance(e, dict) for e in runs):
        raise ValidationError(f"report carries no {args.what} data")
    if args.what == "landscape":
        free_energy = runs[0].get("free_energy")
        if not isinstance(free_energy, dict):
            raise ValidationError("report entry 'free_energy' is not an object")
        header = ["x", "F"]
        rows = [[key, repr(_tagged_value(free_energy, key))] for key in sorted(free_energy)]
    else:
        header = ["beta", "rho", "gap"]
        rows = []
        for entry in runs:
            if not isinstance(entry.get("beta"), (int, float)):
                raise ValidationError("report entry 'beta' is not a number")
            rho = _tagged_value(entry, "rho")
            gap = _tagged_value(entry, "spectral_gap")
            rows.append([repr(entry["beta"]), repr(rho), repr(gap)])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    target = args.out
    args.out = None  # the CSV owns the path; the summary goes to stdout
    return {
        "provenance": _provenance(args, mode="exact"),
        "rows": len(rows),
        "out": target,
    }


# -- wiring ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors take the exit-1 JSON path."""

    def error(self, message):
        raise ValidationError(message)


@functools.cache
def build_parser():
    """The one ``metastab`` parser of the process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="metastab",
        description="Potential-theoretic toolkit for metastable reversible chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, out=True):
        if seed:
            p.add_argument("--seed", type=int, default=None)
        if out:
            p.add_argument("--out", default=None)

    p = sub.add_parser("capacity")
    p.add_argument("--chain", required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    common(p)

    p = sub.add_parser("analyze")
    p.add_argument("--chain", required=True)
    p.add_argument("--sets", required=True)
    p.add_argument("--exact", action="store_true")
    common(p)

    p = sub.add_parser("orlicz")
    p.add_argument("--chain", required=True)
    p.add_argument("--pair", default="ent")
    p.add_argument("--K", default="e2")
    p.add_argument("--B", required=True)
    common(p)

    p = sub.add_parser("capineq")
    p.add_argument("--samples", type=int, default=1000)
    common(p)

    p = sub.add_parser("oracle")
    p.add_argument("--chain", required=True)
    p.add_argument("--what", choices=["cpi", "clsi", "cheeger"], required=True)
    common(p)

    p = sub.add_parser("rfcw")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--field", default="zero")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--materialize", action="store_true")
    common(p)

    p = sub.add_parser("couple")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--field", default="zero")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--runs", type=int, default=10000)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--dynamics-runs", dest="dynamics_runs", type=int, default=None)
    common(p)

    p = sub.add_parser("export")
    p.add_argument("--report", required=True)
    p.add_argument("--what", required=True)
    p.add_argument("--out", required=True)
    common(p, out=False)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        _check_counts(("--seed", getattr(args, "seed", None), 0))
        if getattr(args, "T", None) is None and args.command == "couple":
            args.T = 50 * args.N
        # looked up per call, so a rebound handler is the one that runs
        _emit(args, globals()[f"cmd_{args.command}"](args))
    except InequalityViolation as exc:
        return _fail("inequality", exc, 2)
    except SolverNotConverged as exc:
        return _fail("solver", exc, 1)
    except (MetastabError, OSError, json.JSONDecodeError) as exc:
        return _fail("validation", exc, 1)
    return 0


def _fail(kind, exc, code):
    sys.stderr.write(json.dumps({"error": {"kind": kind, "message": str(exc)}}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
