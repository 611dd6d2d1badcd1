import json

import numpy as np
import pytest

from metastab import save_chain
from metastab.chains import InequalityViolation
from metastab.cli import build_parser, main
from metastab.sampling import double_well_chain


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
