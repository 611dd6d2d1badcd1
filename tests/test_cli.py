import contextlib
import copy
import hashlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metastab import oracle as oracle_mod
from metastab import rfcw as rfcw_mod
from metastab import SolverNotConverged, build_chain, rho_metastability, save_chain
from metastab.chains import InequalityViolation
from metastab.cli import build_parser, main
from metastab.potential import birth_death_generator_chain, equilibrium_potential
from metastab.sampling import double_well_chain, random_reversible_chain

# resolution of a dense symmetric eigensolve: GAP_DIGITS_FACTOR n eps max|lambda|
GAP_DIGITS_FACTOR = 64


@pytest.fixture()
def two_state_file(tmp_path, two_state):
    path = tmp_path / "twostate.json"
    save_chain(two_state, path)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_capacity_command(capsys, two_state_file):
    code, out, _ = run_cli(
        capsys, ["capacity", "--chain", two_state_file, "--A", "a", "--B", "b"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["capacity"]["value"] == pytest.approx(0.075, rel=1e-12)
    assert rep["capacity"]["mode"] == "exact"
    assert rep["provenance"]["version"]


def test_analyze_command(capsys, tmp_path, two_state_file):
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"sets": [["a"], ["b"]]}))
    code, out, _ = run_cli(
        capsys,
        [
            "analyze",
            "--chain",
            two_state_file,
            "--sets",
            str(sets),
            "--seed",
            "1",
        ],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["pi_lsi"]["pi_lower"]["value"] == pytest.approx(2.5, rel=1e-10)


def test_malformed_chain_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": ["a"], "edges": "nope"}')
    code, _, err = run_cli(
        capsys, ["capacity", "--chain", str(bad), "--A", "a", "--B", "a"]
    )
    assert code == 1
    assert "error" in err


def test_missing_seed_is_error(capsys):
    code, _, err = run_cli(capsys, ["capineq", "--samples", "5"])
    assert code == 1
    assert "seed" in err


def test_capineq_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, ["capineq", "--samples", "10", "--seed", "7"])
    code2, out2, _ = run_cli(capsys, ["capineq", "--samples", "10", "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["violations"] == 0


def test_rfcw_command_and_exports(capsys, tmp_path):
    report_path = tmp_path / "rfcw.json"
    code, out, _ = run_cli(
        capsys,
        [
            "rfcw",
            "--N",
            "10",
            "--beta",
            "1.5,2.0",
            "--field",
            "zero",
            "--n",
            "1",
            "--materialize",
            "--seed",
            "42",
            "--out",
            str(report_path),
        ],
    )
    assert code == 0
    rep = json.loads(report_path.read_text())
    assert len(rep["runs"]) == 2
    assert len(rep["runs"][0]["free_energy"]) == 11

    csv_path = tmp_path / "landscape.csv"
    code, out, _ = run_cli(
        capsys,
        [
            "export",
            "--report",
            str(report_path),
            "--what",
            "landscape",
            "--out",
            str(csv_path),
        ],
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 12  # header + 11 lattice points

    trend_path = tmp_path / "trend.csv"
    code, _, _ = run_cli(
        capsys,
        [
            "export",
            "--report",
            str(report_path),
            "--what",
            "trend",
            "--out",
            str(trend_path),
        ],
    )
    assert code == 0
    rows = trend_path.read_text().strip().splitlines()
    assert rows[0] == "beta,rho,gap"
    rhos = [float(r.split(",")[1]) for r in rows[1:]]
    assert rhos[0] > rhos[1]


def test_rfcw_determinism(capsys):
    args = [
        "rfcw",
        "--N",
        "6",
        "--beta",
        "1.5",
        "--field",
        "uniform:0.2",
        "--n",
        "2",
        "--materialize",
        "--seed",
        "42",
    ]
    code1, out1, _ = run_cli(capsys, args)
    code2, out2, _ = run_cli(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_couple_determinism(capsys):
    args = [
        "couple",
        "--N",
        "6",
        "--beta",
        "1.0",
        "--field",
        "uniform:0.2",
        "--n",
        "2",
        "--runs",
        "2000",
        "--M",
        "4",
        "--dynamics-runs",
        "50",
        "--seed",
        "42",
    ]
    code1, out1, _ = run_cli(capsys, args)
    code2, out2, _ = run_cli(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["experiment"]["sync_violations"] == 0


def test_oracle_command(capsys, two_state_file):
    code, out, _ = run_cli(
        capsys, ["oracle", "--chain", two_state_file, "--what", "cpi"]
    )
    assert code == 0
    assert json.loads(out)["c_pi"]["value"] == pytest.approx(2.5, abs=1e-12)


def _oracle_cpi(capsys, tmp_path, chain):
    path = tmp_path / "chain.json"
    save_chain(chain, path)
    return run_cli(capsys, ["oracle", "--chain", str(path), "--what", "cpi"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n,beta,mode", [(11, 2.0, "exact"), (11, 12.0, "bound"),
                                         (15, 25.0, "bound")])
def test_oracle_cpi_takes_its_tags_from_the_certificate(capsys, tmp_path, n, beta, mode):
    # dw11 at beta 12 reports a gap 1.2e-3 off the mpmath one; at dw15 beta
    # 25 the lambda_3 estimate overflows and gives no floor
    chain = double_well_chain(beta, n)
    code, out, _ = _oracle_cpi(capsys, tmp_path, chain)
    assert code == 0
    rep = json.loads(out)
    cert = oracle_mod.exact_cpi(chain).certificate
    assert cert.exact == (mode == "exact")
    assert rep["c_pi"] == {"value": 1.0 / cert.gap, "mode": mode}
    assert rep["spectral_gap"] == {"value": cert.gap, "mode": mode}
    assert rep["provenance"]["mode"] == mode


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oracle_cpi_overflow_is_a_solver_error(capsys, tmp_path):
    # inverse iteration on dw15 at beta 30 overflows: the input is valid
    code, out, err = _oracle_cpi(capsys, tmp_path, double_well_chain(30.0, 15))
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"]["kind"] == "solver"


def test_dense_eigensolve_failure_exits_solver(capsys, tmp_path, monkeypatch):
    def eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic dsyevr failure")

    monkeypatch.setattr(oracle_mod.scipy.linalg, "eigh", eigh)
    code, out, err = _oracle_cpi(capsys, tmp_path, double_well_chain(2.0))
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "solver" and "synthetic dsyevr failure" in error["message"]


def test_numeric_state_ids_resolve_by_their_json_text(capsys, tmp_path):
    mu = np.random.default_rng(5).uniform(0.2, 2.0, size=5)
    chain = birth_death_generator_chain(mu / mu.sum())  # ids 0..4
    path = tmp_path / "bd5.json"
    save_chain(chain, path)
    code, out, _ = run_cli(capsys, ["capacity", "--chain", str(path), "--A", "4", "--B", "0"])
    assert code == 0
    rep = json.loads(out)
    assert rep["A"] == [4] and rep["B"] == [0]
    assert rep["capacity"]["value"] == equilibrium_potential(chain, [4], [0]).capacity
    code, out, _ = run_cli(capsys, ["orlicz", "--chain", str(path), "--B", "0,1"])
    assert code == 0 and json.loads(out)["B"] == [0, 1]
    for token in ("5", "x4", "4.0", ""):
        code, out, err = run_cli(capsys, ["capacity", "--chain", str(path), "--A", token,
                                          "--B", "0"])
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "validation" and error["message"] == f"unknown state {token!r}"


def test_orlicz_command(capsys, two_state_file):
    code, out, _ = run_cli(
        capsys,
        ["orlicz", "--chain", two_state_file, "--pair", "ent", "--K", "e2", "--B", "b"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["c_psi"]["value"] == pytest.approx(11.398561364684474, rel=1e-9)


def test_inequality_violation_maps_to_exit_2(capsys, monkeypatch):
    # main looks the handler global up per call, so the patched one runs and
    # a failed paper inequality surfaces as exit code 2
    def boom(args):
        raise InequalityViolation("synthetic")

    monkeypatch.setattr("metastab.cli.cmd_capineq", boom)
    code = main(["capineq", "--samples", "1", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "inequality" in err


def test_config_round_trip():
    parser = build_parser()
    argv = ["capineq", "--samples", "10", "--seed", "7"]
    args = parser.parse_args(argv)
    rebuilt = ["capineq", "--samples", str(args.samples), "--seed", str(args.seed)]
    again = parser.parse_args(rebuilt)
    assert vars(args) == vars(again)


COUPLE = ["couple", "--N", "6", "--beta", "1.0", "--field", "uniform:0.2", "--n", "2",
          "--seed", "3"]


@pytest.mark.parametrize(
    "extra",
    [
        ["--runs", "0"],
        ["--dynamics-runs", "0"],
        ["--runs", "-3"],
        ["--M", "-1"],
        ["--T", "-5"],
        ["--dynamics-runs", "-1"],
        ["--runs", "10", "--dynamics-runs", "20"],
    ],
)
def test_couple_rejects_bad_counts(capsys, extra):
    code, out, err = run_cli(capsys, COUPLE + extra)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["kind"] == "validation"


@pytest.mark.parametrize("field", ["uniform:abc", "uniform:nan", "values:0.1,x", "uniform:",
                                   "uniform:-0.5"])
def test_couple_rejects_bad_field(capsys, field):
    argv = list(COUPLE)
    argv[argv.index("--field") + 1] = field
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["kind"] == "validation"


def test_couple_without_gates(capsys):
    code, out, _ = run_cli(
        capsys, COUPLE + ["--runs", "200", "--dynamics-runs", "20", "--M", "0"]
    )
    assert code == 0
    exp = json.loads(out)["experiment"]
    assert exp["M"] == 0 and exp["p_A_empirical"]["value"] == 1.0
    assert exp["sync_violations"] == 0


def test_couple_skips_eta_out_of_float_range(capsys):
    code, out, _ = run_cli(
        capsys,
        ["couple", "--N", "8", "--beta", "2.0", "--field", "uniform:0.2", "--n", "2",
         "--runs", "100", "--dynamics-runs", "5", "--seed", "0"],
    )
    assert code == 0
    rep = json.loads(out)
    assert "eta" not in rep and "hitting_bound" in rep
    assert "float range" in rep["eta_skipped"]


def test_couple_at_full_flip_rate_reports_null_rate(capsys):
    # at beta = 1e-17 every flip is accepted: alpha = 1 and the rate is +inf
    argv = list(COUPLE)
    argv[argv.index("--beta") + 1] = "1e-17"
    code, out, _ = run_cli(capsys, argv + ["--runs", "20", "--dynamics-runs", "5"])
    assert code == 0
    tail = json.loads(out)["tail_bound"]
    assert tail["alpha"] == 1.0 and tail["rate"] is None and tail["bound"] == 0.0


def test_rfcw_far_below_the_critical_temperature(capsys):
    # beta |z + h_i| passes 710, where cosh overflows and sech^2 is 0
    code, out, _ = run_cli(capsys, ["rfcw", "--N", "4", "--beta", "200", "--field", "uniform:5",
                                    "--seed", "1"])
    assert code == 0
    assert json.loads(out)["runs"][0]["refined_minima"]


def test_analyze_without_error_term(capsys, tmp_path):
    # {x0}, {x1} of the 11-state well at beta = 1 are not metastable: rho
    # exceeds C_ratio and the error form is undefined
    chain = tmp_path / "dw11.json"
    save_chain(double_well_chain(1.0), chain)
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"sets": [["x0"], ["x1"]]}))
    code, out, _ = run_cli(
        capsys,
        ["analyze", "--chain", str(chain), "--sets", str(sets), "--exact", "--seed", "1"],
    )
    assert code == 0
    exits = json.loads(out)["mean_exit"]
    assert [e["error_form"] for e in exits.values() if e is not None] == [None]


SETS_DOC = ["analyze", "--chain", "{chain}", "--sets", "{doc}", "--seed", "1"]
LANDSCAPE_DOC = ["export", "--report", "{doc}", "--what", "landscape", "--out", "{dir}/x.csv"]
TREND_DOC = LANDSCAPE_DOC[:4] + ["trend"] + LANDSCAPE_DOC[5:]


@pytest.mark.parametrize(
    "argv,doc,names",
    [
        (SETS_DOC, {"set": [["a"], ["b"]]}, "'sets'"),
        (["orlicz", "--chain", "{chain}", "--B", "b", "--pair", "p:abc"], None, "p:abc"),
        (["orlicz", "--chain", "{chain}", "--B", "b", "--K", "abc"], None, "--K"),
        (["orlicz", "--chain", "{chain}", "--B", "b", "--K", "inf"], None, "--K"),
        (["rfcw", "--N", "6", "--beta", "1,abc"], None, "--beta"),
        (["rfcw", "--N", "6", "--beta", "nan"], None, "--beta"),
        (["rfcw", "--N", "6", "--beta", "inf"], None, "--beta"),
        (COUPLE[:4] + ["nan"] + COUPLE[5:], None, "beta must be finite"),
        (COUPLE[:4] + ["inf"] + COUPLE[5:], None, "beta must be finite"),
        (["capacity", "--chain", "{doc}", "--A", "b", "--B", "c"],
         {"states": [["a"], "b", "c"], "edges": [["b", "c", 0.5], ["c", "b", 0.5]]}, "['a']"),
        (["capacity", "--chain", "{doc}", "--A", "a", "--B", "b"],
         {"states": ["a", "b"], "edges": [[{"x": 1}, "b", 0.3], ["b", "a", 0.1]]}, "{'x': 1}"),
        (SETS_DOC, [[["a"]], ["b"]], "unknown state ['a']"),
        (SETS_DOC, {"sets": 5}, "list of lists"),
        (SETS_DOC, {"sets": None}, "list of lists"),
        (SETS_DOC, [1, 2], "list of lists"),
        (SETS_DOC, None, "list of lists"),
        (SETS_DOC, 5, "list of lists"),
        (LANDSCAPE_DOC, {"runs": 5}, "no landscape data"),
        (TREND_DOC, [1, 2], "no trend data"),
        (LANDSCAPE_DOC, {"runs": [{"free_energy": 3}]}, "'free_energy'"),
        (TREND_DOC, {"runs": [{"beta": 1, "rho": 5}]}, "'rho'"),
        (["capineq", "--samples", "-1", "--seed", "1"], None, "--samples"),
        (["capineq", "--samples", "1", "--seed", "-1"], None, "--seed"),
        (["rfcw", "--N", "6", "--beta", "1", "--field", "uniform:0.2", "--seed", "-1"], None,
         "--seed"),
        (COUPLE[:-1] + ["-2"], None, "--seed"),
        (["oracle", "--chain", "{chain}", "--what", "clsi", "--seed", "-1"], None, "--seed"),
        (SETS_DOC[:-1] + ["-1"], {"sets": [["a"], ["b"]]}, "--seed"),
        (["rfcw", "--N", "6", "--beta", "1", "--field", "uniform:-1", "--seed", "1"], None,
         "uniform:-1"),
        (["rfcw", "--N", "6", "--beta", "1", "--field", "uniform:1e308", "--seed", "1"], None,
         "uniform:1e308"),
        (["rfcw", "--N", "6", "--beta", "1e308"], None, "beta = 1e+308"),
        (["rfcw", "--N", "6", "--beta", "5e-324"], None, "1/beta"),
        (["orlicz", "--chain", "{chain}", "--B", "b", "--K", "1e308"], None, "overflows"),
        (["rfcw", "--N", "4", "--beta", "1", "--n", "5"], None, "between 1 and N = 4"),
        (["rfcw", "--N", "x", "--beta", "1"], None, "--N"),
        (["rfcw", "--beta", "1"], None, "--N"),
        (["--threads", "2", "capineq", "--samples", "1", "--seed", "1"], None, "invalid choice"),
    ],
    ids=["no-sets-key", "pair", "K", "K-inf", "beta-list", "beta-nan", "beta-inf",
         "couple-nan", "couple-inf", "list-state", "object-endpoint", "sets-nested",
         "sets-int", "sets-null", "sets-int-list", "sets-doc-null", "sets-doc-int",
         "runs-int", "report-list", "free-energy-int", "rho-int", "samples-negative",
         "capineq-seed", "rfcw-seed", "couple-seed", "oracle-seed", "analyze-seed",
         "field-negative", "field-huge", "beta-huge", "beta-tiny", "K-huge", "n-above-N", "N-int",
         "N-missing", "threads"],
)
def test_malformed_arguments_exit_1(capsys, tmp_path, two_state_file, argv, doc, names):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [a.format(chain=two_state_file, doc=path, dir=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "validation" and names in error["message"]


@pytest.mark.parametrize(
    "argv,names",
    [
        (["rfcw", "--N", str(10**9), "--beta", "1", "--field", "uniform:0.2", "--seed", "1"],
         "N = 1000000000 spins"),
        (COUPLE[:2] + [str(10**9)] + COUPLE[3:], "N = 1000000000 spins"),
        (["rfcw", "--N", "28", "--beta", "1", "--field", "uniform:0.2", "--n", "14", "--seed", "1"],
         "14 blocks give more than 16384"),
        (["rfcw", "--N", "14", "--beta", "1", "--field", "uniform:0.2", "--materialize",
          "--seed", "1"], "N=14 exceeds the materialization limit 13"),
    ],
    ids=["rfcw-N", "couple-N", "rfcw-points", "rfcw-materialize"],
)
def test_size_limits_exit_1_before_allocating(capsys, argv, names):
    # at 1e9 spins the field alone is 8 GB; the 14 blocks of 28 spins have
    # 691,200 points, whose landscape took 50 s and 829 MB before the limit;
    # the materialized chain at N = 14 would hold two 2 GiB dense copies
    build_parser()  # built once per process, outside the measured peak
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "validation" and names in error["message"]
    assert peak < 1 << 20


def test_threads_variable_is_ignored(capsys, monkeypatch):
    # the command runs serially; a thread-count variable in the environment,
    # even a malformed one, changes nothing in the report
    argv = ["capineq", "--samples", "1", "--seed", "1"]
    monkeypatch.delenv("METASTAB_THREADS", raising=False)
    code, want, _ = run_cli(capsys, argv)
    monkeypatch.setenv("METASTAB_THREADS", "x")
    assert run_cli(capsys, argv) == (0, want, "")
    assert code == 0 and "threads" not in want


# a three-state path; mu(x) p(x, y) = mu(y) p(y, x) on both edges
CHAIN_SPEC = {
    "states": ["a", "b", "c"],
    "edges": [["a", "b", 0.3], ["b", "a", 0.1], ["b", "c", 0.2], ["c", "b", 0.4]],
    "mu": [2.0 / 11.0, 6.0 / 11.0, 3.0 / 11.0],
    "time": "discrete",
}


def _run_on_spec(argv, spec, doc=None):
    """Exit code, stdout and stderr of ``main`` on ``spec`` and ``doc`` written as JSON.

    ``{chain}`` and ``{doc}`` in ``argv`` name the two files, ``{dir}`` their
    directory.
    """
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"chain": Path(tmp) / "chain.json", "doc": Path(tmp) / "doc.json"}
        paths["chain"].write_text(json.dumps(spec))  # NaN and Infinity as JSON extensions
        paths["doc"].write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.format(dir=tmp, **paths) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _assert_exit_contract(code, out, err):
    if code == 0:
        json.loads(out)
    else:
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["kind"] in ("validation", "solver")


CAPACITY = ["capacity", "--chain", "{chain}", "--A", "a", "--B", "b"]


@pytest.mark.parametrize(
    "path,value",
    [
        (("edges", 0, 2), "x"),
        (("edges", 0, 2), None),
        (("mu", 0), "x"),
        (("mu", 0), None),
        (("mu", 0), float("nan")),
        (("mu", 0), float("inf")),
        (("time",), [1]),
    ],
    ids=["edge-string", "edge-null", "mu-string", "mu-null", "mu-nan", "mu-inf",
         "time-list"],
)
def test_malformed_chain_spec_exits_1(path, value):
    spec = copy.deepcopy(CHAIN_SPEC)
    _mutate(spec, "set", path, value)
    code, out, err = _run_on_spec(CAPACITY, spec)
    assert code == 1
    _assert_exit_contract(code, out, err)


def _spec_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        if isinstance(child, (dict, list)):
            yield from _spec_paths(child, prefix + (key,))
        else:
            yield prefix + (key,)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats()
    | st.text(max_size=3)
    | st.sampled_from(["a", "b", "c", "continuous", "0.5"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)
MUTATIONS = st.tuples(
    st.sampled_from(["set", "drop", "rename"]),
    st.sampled_from(list(_spec_paths(CHAIN_SPEC))[1:]),
    JSON_VALUES,
)


def _mutate(spec, kind, path, value):
    """Apply one mutation in place; paths that no longer exist are skipped."""
    if kind == "rename":  # the state named at ``path`` is renamed everywhere
        states, edges = spec.get("states"), spec.get("edges")
        if len(path) != 2 or path[0] != "states" or not isinstance(states, list):
            return
        old = CHAIN_SPEC["states"][path[1]]
        edges = [e for e in edges if isinstance(e, list)] if isinstance(edges, list) else []
        for node in [states] + edges:
            for i, v in enumerate(node):
                if v == old:
                    node[i] = value
        return
    node = spec
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    if not isinstance(node, (dict, list)) or (isinstance(node, list) and key >= len(node)):
        return
    if kind == "set":
        node[key] = value
    elif isinstance(node, list) or key in node:
        del node[key]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(MUTATIONS, min_size=1, max_size=3),
       st.sampled_from([CAPACITY, ["oracle", "--chain", "{chain}", "--what", "cpi"]]))
def test_mutated_chain_specs_take_the_exit_contract(mutations, argv):
    spec = copy.deepcopy(CHAIN_SPEC)
    for kind, path, value in mutations:
        _mutate(spec, kind, path, value)
    _assert_exit_contract(*_run_on_spec(argv, spec))


REPORT_SPEC = {"runs": [{"beta": 1.0, "free_energy": {"1": {"value": -0.5, "mode": "exact"}},
                         "rho": {"value": 0.01, "mode": "bound"},
                         "spectral_gap": {"value": 0.1, "mode": "exact"}}]}
# a valid sets file and export report, each with a command that reads it
DOC_CASES = [({"sets": [["a"], ["c"]]}, SETS_DOC), (REPORT_SPEC, LANDSCAPE_DOC),
             (REPORT_SPEC, TREND_DOC)]


def _mutated(base):
    """A whole JSON value, or ``base`` after 0-3 mutations."""
    mutations = st.lists(
        st.tuples(st.sampled_from(["set", "drop"]),
                  st.sampled_from(list(_spec_paths(base))[1:]), JSON_VALUES),
        max_size=3,
    )

    def apply(muts):
        doc = copy.deepcopy(base)
        for kind, path, value in muts:
            _mutate(doc, kind, path, value)
        return doc

    return JSON_VALUES | mutations.map(apply)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(DOC_CASES).flatmap(
    lambda case: st.tuples(_mutated(case[0]), st.just(case[1]))))
def test_mutated_sets_files_and_reports_take_the_exit_contract(case):
    doc, argv = case
    _assert_exit_contract(*_run_on_spec(argv, CHAIN_SPEC, doc))


def _count(lo, hi, huge=()):
    # huge counts only where they are bad input, not a request for a long run
    return [str(k) for k in range(lo, hi + 1)], ["-1", "-2", "nan", "1e3", "1.5", "x", "", *huge]


BAD_REALS = ["-1", "0", "1e308", "-1e308", "5e-324", "nan", "inf", "-inf", "x", "", "1,,2"]
FIELD = (["zero", "uniform:0.2", "uniform:0", "discrete:-0.3,0.3"],
         ["uniform:-1", "uniform:-0.5", "uniform:1e308", "uniform:nan", "uniform:x", "uniform:",
          "discrete:", "values:0.1", "bogus", ""])
CHAIN_FILE = (["{chain}"], ["{dir}/missing.json"])
DOC_FILE = (["{doc}"], ["{dir}/missing.json"])
# flag -> (valid values, bad values) for each subcommand; None marks a
# switch.  A valid --N is at most 8, so no run materializes more than 256
# states; 10^9 spins must fail before the field is drawn.
ARGV_FLAGS = {
    "capacity": {"--chain": CHAIN_FILE, "--A": (["a", "b", "a,b"], ["z", "", "a,a"]),
                 "--B": (["c", "b", "b,c"], ["z", "", "a,b,c"])},
    "analyze": {"--chain": CHAIN_FILE, "--sets": DOC_FILE, "--exact": None},
    "orlicz": {"--chain": CHAIN_FILE, "--B": (["a", "c", "b,c"], ["z", "", "a,b,c"]),
               "--K": (["e2", "0.5", "2", "10"], BAD_REALS),
               "--pair": (["ent", "l1", "p:2", "p:1.5"],
                          ["p:-1", "p:0.5", "p:nan", "p:1e308", "p:x", "bogus", ""])},
    "capineq": {"--samples": _count(1, 3)},
    "oracle": {"--chain": CHAIN_FILE, "--what": (["cpi", "clsi", "cheeger"], ["bogus", ""])},
    "rfcw": {"--N": _count(1, 8, [str(10**9)]), "--beta": (["0.5", "1", "2", "0.5,1.5"], BAD_REALS),
             "--field": FIELD, "--n": _count(1, 3, [str(10**9)]), "--materialize": None},
    "couple": {"--N": _count(1, 8, [str(10**9)]), "--beta": (["0.5", "1", "1.5"], BAD_REALS), "--field": FIELD,
               "--n": _count(1, 3, [str(10**9)]), "--runs": _count(10, 20),
               "--dynamics-runs": _count(1, 10), "--M": _count(0, 8), "--T": _count(0, 40)},
    "export": {"--report": DOC_FILE, "--out": (["{dir}/x.csv"], ["{dir}/missing/x.csv"]),
               "--what": (["landscape", "trend"], ["bogus", ""])},
}
SEEDS = ([str(k) for k in range(6)], ["-1", "-3", str(2**70), str(-(2**70)), "nan", "x", ""])
OUT = ([], ["{dir}/missing/out.json"])  # a report file in place of stdout only as bad input


@st.composite
def _argvs(draw):
    """A valid ``metastab`` argv with up to two flags spoilt: given a bad
    value or left out."""
    command = draw(st.sampled_from(sorted(ARGV_FLAGS)))
    flags = {"--out": OUT, **ARGV_FLAGS[command], "--seed": SEEDS}
    spoilt = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = [command]
    for flag, values in flags.items():
        if values is None:
            argv += [flag] if draw(st.booleans()) else []
        elif flag in spoilt:
            # left out, except where the default runs for seconds
            omit = [None] if flag not in ("--samples", "--runs") else []
            value = draw(st.sampled_from(values[1] + omit))
            argv += [] if value is None else [flag, value]
        elif values[0]:
            argv += [flag, draw(st.sampled_from(values[0]))]
    return argv


@settings(max_examples=250, derandomize=True, deadline=None)
@given(_argvs())
def test_fuzzed_argv_takes_the_exit_contract(argv):
    doc = REPORT_SPEC if "export" in argv else {"sets": [["a"], ["c"]]}
    code, out, err = _run_on_spec(argv, CHAIN_SPEC, doc)
    if code == 2:  # a failed theorem-backed inequality, e.g. a 3-sigma miss
        assert out == "" and json.loads(err)["error"]["kind"] == "inequality"
    else:
        _assert_exit_contract(code, out, err)


def cut_path_chain(n):
    """Path chain with uniform mu whose edges at n // 3 and 2n // 3 have
    p = 5e-324: the kernel stays irreducible, but their conductance mu p
    rounds to 0, so every interior block that spans a cut is singular."""
    states = [f"x{i}" for i in range(n)]
    edges = []
    for i in range(n - 1):
        p = 5e-324 if i in (n // 3, 2 * n // 3) else 0.25
        edges += [(states[i], states[i + 1], p), (states[i + 1], states[i], p)]
    return build_chain(states, edges, stationary=np.full(n, 1.0 / n))


@pytest.mark.parametrize(
    "argv,make",
    [
        # the well's interior blocks turn exactly singular in double
        # precision in the capacity scan at beta = 40
        (["orlicz", "--chain", "{chain}", "--B", "x10"], lambda: double_well_chain(40.0, 11)),
        # SuperLU factors of the potential solve and of the oracle's
        # grounded Laplacian
        (["capacity", "--chain", "{chain}", "--A", "x0", "--B", "x599"],
         lambda: cut_path_chain(600)),
        (["oracle", "--chain", "{chain}", "--what", "cpi"], lambda: cut_path_chain(50)),
        (["oracle", "--chain", "{chain}", "--what", "cpi"], lambda: cut_path_chain(600)),
    ],
    ids=["orlicz-scan", "capacity-cut600", "cpi-cut50", "cpi-cut600"],
)
def test_singular_interior_block_exits_1(capsys, tmp_path, argv, make):
    path = tmp_path / "chain.json"
    save_chain(make(), path)
    code, out, err = run_cli(capsys, [a.format(chain=path) for a in argv])
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "solver" and "singular interior block" in error["message"]


def test_non_finite_scan_capacity_exits_1_without_warning(capsys, tmp_path):
    # the exact rho scan on dw15 at beta = 30 solves blocks to inf and NaN;
    # the kernel raises for the NaN capacity, and nothing but the JSON error
    # reaches stderr (a RuntimeWarning would fail the suite)
    chain = double_well_chain(30.0, 15)
    with pytest.raises(SolverNotConverged, match="capacity nan of a scanned set"):
        rho_metastability(chain, [["x0"], ["x14"]], mode="exact")
    path = tmp_path / "dw.json"
    save_chain(chain, path)
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"sets": [["x0"], ["x14"]]}))
    code, out, err = run_cli(capsys, ["analyze", "--chain", str(path), "--sets", str(sets),
                                      "--exact", "--seed", "1"])
    assert code == 1 and out == "" and err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["kind"] == "solver" and "capacity nan" in error["message"]


@pytest.mark.parametrize("beta,n", [(8.0, 11), (2.0, 15)], ids=["dw11", "dw15"])
def test_analyze_keeps_partial_report(capsys, tmp_path, exit_time_series, beta, n):
    # a second hitting-time solve lost every digit on these wells and their
    # mean exit times were written as null; E_mu[h] / cap solves both
    chain = double_well_chain(beta, n)
    path = tmp_path / "dw.json"
    save_chain(chain, path)
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"sets": [["x0"], [f"x{n - 1}"]]}))
    code, out, _ = run_cli(capsys, ["analyze", "--chain", str(path), "--sets", str(sets),
                                    "--exact", "--seed", "1"])
    assert code == 0
    rep = json.loads(out)
    for key, forward in (("0", True), ("1", False)):
        want = exit_time_series(chain, forward)
        assert abs(rep["mean_exit"][key]["exact"] - want) <= 1e-12 * want
    assert rep["rho"]["value"] > 0.0 and rep["capacities"][0][1] > 0.0
    assert rep["pi_lsi"]["pi_lower"]["value"] > 0.0


REPORT_CHAINS = {
    "dw11-b1": lambda: double_well_chain(1.0),
    "dw11-b3": lambda: double_well_chain(3.0),
    "dw15-b0.5": lambda: double_well_chain(0.5, 15),
    "rc13-v0": lambda: random_reversible_chain(np.random.default_rng((20170515, 13, 0)), 13),
    "dw11-b2": lambda: double_well_chain(2.0),
}

# sha256 of the stdout of each command.  The analyze, capineq and orlicz
# entries were frozen from the per-pair scans before the batched kernel,
# which keeps every capacity's bits; the couple, rfcw and oracle entries pin
# the coupling, RFCW and LSI-ascent reports.  The oracle entry was frozen
# again for the lockstep ascent, whose row-wise sums moved c_lsi_lower from
# 1810775.4864646776 to 1810775.4864734244.  The three double-well analyze
# entries were frozen again when the mean exit time became E_mu[h] / cap;
# only their mean_exit exact and relative_error lines changed, and the new
# exact values agree with a 60-digit birth-death series to 1e-15 (dw11 beta
# 3: 746804138.9071395 and 746804142.4775343 became 746804140.3904873 and
# 746804140.3904874).  All twelve were frozen again when the provenance
# block lost its "threads" key: each new hash is the sha256 of the former
# stdout with its one line '  "threads": null,' removed.  The rfcw entry was
# frozen again when its gap came from inverse iteration started at h_{M1,M2}
# (``oracle.certified_gap``) instead of at the dense eigenvector: only the
# two spectral_gap values moved, 0.015230389945650416 -> ...650647 at beta
# 1.5 and 0.00019986703318970565 -> ...70576 at beta 3.  A 40-digit mpmath
# eigsy of D^-1/2 Lap D^-1/2 from the chain's conductances gives
# 0.015230389945650414144 and 0.00019986703318970569188: the new gaps are
# within 1.5e-14 and 3.5e-16 of it, inside their Kato-Temple intervals.
REPORT_GOLDENS = {
    ("analyze", "dw11-b1"): "97efd52455b3f3a37b4dd8e37c606e8b3b6fdff0cb6e53c794be0cdfca9f3f5a",
    ("analyze", "dw11-b3"): "5c140ac2b40f2669202aca0f239b6e2a60e0916b96fa1e0206b16cbe9e1ab4bd",
    ("analyze", "dw15-b0.5"): "8f332915371330450662467e789b81aa597245f514ad125ea360e37f70334765",
    ("analyze", "rc13-v0"): "7003fd046de95b1f4bc9fb1ad10cd758abf02fb3db56416fba77321aee9350f3",
    ("capineq", "5"): "4166dfaf8a827d3dc2732e93cafe2f6ab3fc15e878a7596e4335f5e2f3b4590d",
    ("couple", "N8"): "bf7ba8fc905bdf64e412459e0eac6a2657c7a3abeb3b1346eba6582518172ccf",
    ("oracle", "dw11-b2"): "e9b9b0a9ae9829f5a593c4752ed5d191ffdfba1e2ad92e160ae95894fd65fe26",
    ("orlicz", "dw11-b1"): "7f3ac1bd1096d1327a7b0b37e7e99cfb343fa61159943c469184583d306f56f7",
    ("orlicz", "dw11-b3"): "4ee9aa7d737a1f0eb72a9925dbfe4023c21ec5a09dd6121fad2c85fd3c125e97",
    ("orlicz", "dw15-b0.5"): "bd11b6cdf18d54b21dd8a629245cc826a9071e951511999feaed1ba944f29113",
    ("orlicz", "rc13-v0"): "6e132543a32ca7430ce6c8b5a83543c6b0b1250afe0f21896051fff4fd98a603",
    ("rfcw", "N8"): "c80040fde06f84d22bda9560ff297f9215b0a7433383c3f0939fb5b72c96d9a9",
}


def _report_argv(tmp_path, cmd, name):
    if cmd == "capineq":
        return ["capineq", "--samples", "100", "--seed", name]
    if cmd == "couple":
        return ["couple", "--N", "8", "--beta", "1.0", "--field", "uniform:0.2", "--n", "2",
                "--runs", "2000", "--dynamics-runs", "100", "--seed", "5"]
    if cmd == "rfcw":
        return ["rfcw", "--N", "8", "--beta", "1.5,3", "--field", "uniform:0.2", "--n", "2",
                "--materialize", "--seed", "7"]
    chain = REPORT_CHAINS[name]()
    path = tmp_path / "chain.json"
    save_chain(chain, path)
    if cmd == "orlicz":
        return ["orlicz", "--chain", str(path), "--B", chain.states[-1]]
    if cmd == "oracle":
        return ["oracle", "--chain", str(path), "--what", "clsi", "--seed", "1"]
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"sets": [[chain.states[0]], [chain.states[-1]]]}))
    return ["analyze", "--chain", str(path), "--sets", str(sets), "--exact", "--seed", "1"]


@pytest.mark.parametrize("cmd,name", sorted(REPORT_GOLDENS))
def test_scan_reports_match_frozen_hashes(capsys, tmp_path, cmd, name):
    code, out, _ = run_cli(capsys, _report_argv(tmp_path, cmd, name))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_GOLDENS[(cmd, name)]


def test_rfcw_gap_needs_no_dense_eigensolve(capsys, tmp_path, monkeypatch):
    def dense(chain):
        raise RuntimeError("the rfcw gap called the dense eigensolve")

    monkeypatch.setattr(oracle_mod, "exact_cpi", dense)
    code, out, _ = run_cli(capsys, _report_argv(tmp_path, "rfcw", "N8"))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_GOLDENS[("rfcw", "N8")]


def test_rfcw_gap_uncertified_at_low_temperature(capsys):
    # at beta 20 the residual's rounding leaves the Kato-Temple interval
    # wider than 1e-12 relative: the gap is a Rayleigh quotient, a bound
    code, out, _ = run_cli(capsys, ["rfcw", "--N", "10", "--beta", "20", "--field", "zero",
                                    "--n", "2", "--materialize"])
    assert code == 0
    gap = json.loads(out)["runs"][0]["spectral_gap"]
    assert gap["mode"] == "bound"
    chain = rfcw_mod.build_model(10, 20.0, "zero", materialize=True).chain
    dense = oracle_mod.exact_cpi(chain)
    res = GAP_DIGITS_FACTOR * chain.n_states * np.finfo(float).eps * np.abs(dense.eigenvalues).max()
    assert gap["value"] >= dense.spectral_gap - res
