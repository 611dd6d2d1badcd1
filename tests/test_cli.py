import contextlib
import copy
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metastab import save_chain
from metastab.chains import InequalityViolation
from metastab.cli import build_parser, main
from metastab.sampling import double_well_chain, random_reversible_chain


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


def test_orlicz_command(capsys, two_state_file):
    code, out, _ = run_cli(
        capsys,
        ["orlicz", "--chain", two_state_file, "--pair", "ent", "--K", "e2", "--B", "b"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["c_psi"]["value"] == pytest.approx(11.398561364684474, rel=1e-9)


def test_inequality_violation_maps_to_exit_2(capsys, monkeypatch):
    # main rebuilds the parser, so the handler global is looked up after the
    # patch and a failed paper inequality surfaces as exit code 2
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


@pytest.mark.parametrize("field", ["uniform:abc", "uniform:nan", "values:0.1,x", "uniform:"])
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


@pytest.mark.parametrize(
    "argv,names",
    [
        (["analyze", "--chain", "{chain}", "--sets", "{nosets}", "--seed", "1"], "'sets'"),
        (["orlicz", "--chain", "{chain}", "--B", "b", "--pair", "p:abc"], "p:abc"),
        (["orlicz", "--chain", "{chain}", "--B", "b", "--K", "abc"], "--K"),
        (["orlicz", "--chain", "{chain}", "--B", "b", "--K", "inf"], "--K"),
        (["rfcw", "--N", "6", "--beta", "1,abc"], "--beta"),
        (["rfcw", "--N", "6", "--beta", "nan"], "--beta"),
        (["rfcw", "--N", "6", "--beta", "inf"], "--beta"),
        (COUPLE[:4] + ["nan"] + COUPLE[5:], "beta must be finite"),
        (COUPLE[:4] + ["inf"] + COUPLE[5:], "beta must be finite"),
        (["capacity", "--chain", "{liststate}", "--A", "b", "--B", "c"], "['a']"),
        (["capacity", "--chain", "{objedge}", "--A", "a", "--B", "b"], "{'x': 1}"),
    ],
    ids=["no-sets-key", "pair", "K", "K-inf", "beta-list", "beta-nan", "beta-inf",
         "couple-nan", "couple-inf", "list-state", "object-endpoint"],
)
def test_malformed_arguments_exit_1(capsys, tmp_path, two_state_file, argv, names):
    nosets = tmp_path / "nosets.json"
    nosets.write_text(json.dumps({"set": [["a"], ["b"]]}))
    liststate = tmp_path / "liststate.json"
    liststate.write_text(json.dumps(
        {"states": [["a"], "b", "c"], "edges": [["b", "c", 0.5], ["c", "b", 0.5]]}
    ))
    objedge = tmp_path / "objedge.json"
    objedge.write_text(json.dumps(
        {"states": ["a", "b"], "edges": [[{"x": 1}, "b", 0.3], ["b", "a", 0.1]]}
    ))
    argv = [
        a.format(chain=two_state_file, nosets=nosets, liststate=liststate, objedge=objedge)
        for a in argv
    ]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "validation" and names in error["message"]


# a three-state path; mu(x) p(x, y) = mu(y) p(y, x) on both edges
CHAIN_SPEC = {
    "states": ["a", "b", "c"],
    "edges": [["a", "b", 0.3], ["b", "a", 0.1], ["b", "c", 0.2], ["c", "b", 0.4]],
    "mu": [2.0 / 11.0, 6.0 / 11.0, 3.0 / 11.0],
    "time": "discrete",
}


def _run_on_spec(argv, spec):
    """Exit code, stdout and stderr of ``main`` on ``spec`` written as JSON."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.json"
        path.write_text(json.dumps(spec))  # NaN and Infinity as JSON extensions
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.format(chain=path) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _assert_exit_contract(code, out, err):
    if code == 0:
        json.loads(out)
    else:
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["kind"] == "validation"


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


@pytest.mark.parametrize(
    "argv,chain",
    [(["orlicz", "--chain", "{chain}", "--B", "x10"], (40.0, 11))],
    ids=["orlicz-scan"],
)
def test_singular_interior_block_exits_1(capsys, tmp_path, argv, chain):
    # the well's interior blocks turn exactly singular in double precision
    # in the capacity scan at beta = 40
    path = tmp_path / "dw.json"
    save_chain(double_well_chain(*chain), path)
    code, out, err = run_cli(capsys, [a.format(chain=path) for a in argv])
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "validation" and "singular interior block" in error["message"]


@pytest.mark.parametrize("beta,n,unsolved", [(8.0, 11, ["0", "1"]), (2.0, 15, ["1"])],
                         ids=["dw11", "dw15"])
def test_analyze_keeps_partial_report(capsys, tmp_path, beta, n, unsolved):
    # a mean exit time whose solve is singular or loses its sign becomes null;
    # the rest of the report, computed before it, is kept
    path = tmp_path / "dw.json"
    save_chain(double_well_chain(beta, n), path)
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"sets": [["x0"], [f"x{n - 1}"]]}))
    code, out, _ = run_cli(capsys, ["analyze", "--chain", str(path), "--sets", str(sets),
                                    "--exact", "--seed", "1"])
    assert code == 0
    rep = json.loads(out)
    assert [k for k, v in rep["mean_exit"].items() if v is None] == unsolved
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
# 1810775.4864646776 to 1810775.4864734244.
REPORT_GOLDENS = {
    ("analyze", "dw11-b1"): "94a03382a187859ed65214ec55165253cf81001b768023f58498b5153582959e",
    ("analyze", "dw11-b3"): "8c499b3511f6221e05c69bde76b038132e19b8414ed7cb1cde45af331cceae1e",
    ("analyze", "dw15-b0.5"): "b025268f5c9898d9c701d62a16a05f91dfc31de2d79bec919a6bc6abf1ebbdb1",
    ("analyze", "rc13-v0"): "fa48dd6a17581769b7a27f2ae8651d71f41afaf0de8b5ca476a687af6502c0da",
    ("capineq", "5"): "9e9226edce4875e0d56b93cb63ae90aa4dc20048dba1eab92e6f1c21fcab11b6",
    ("couple", "N8"): "459caa34a9b106135c43263ec201f2aff2b35015ef96103493e2dcb8aebf5780",
    ("oracle", "dw11-b2"): "94fb2966370f5478c20fb6db17468996dcad98d69ed4a4ba59c53a6e50205ec5",
    ("orlicz", "dw11-b1"): "7ebefcecbf46261ab8f5bbde0acaebb0da66de5fea0d7556bcc215d6fae62933",
    ("orlicz", "dw11-b3"): "9c7d4035382fb6eb54785ee251a1eb591524c1a9429313bb66aeb18ec7c34bbf",
    ("orlicz", "dw15-b0.5"): "89087fe683dcbe92930e66813aa2a60ca1732325548c80a5b925b1b0499d60ef",
    ("orlicz", "rc13-v0"): "1d2aceccafb6efd5ad17e6be0a9f76cd99e351b7675aaa2245c5922a34c757db",
    ("rfcw", "N8"): "7e4a822a870082b79362b27db9efaf6f37e26eb33e5aca513295b5edab3c12c4",
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
