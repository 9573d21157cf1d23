"""Exit-code contract, report schema, and byte determinism of the runner."""

import json

import pytest

from qazb import __version__
from qazb.cli import main


def run(args):
    return main(args)


def test_fq_table_passes(tmp_path):
    out = tmp_path / "r.json"
    assert run(["--out", str(out), "fq-table"]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"experiment", "config", "rows", "pass", "version"}
    assert report["experiment"] == "fq-table"
    assert report["pass"] is True
    assert report["version"] == __version__
    assert report["config"]["q"] == 0.5 and report["config"]["M"] == 8
    kinds = {row["kind"] for row in report["rows"]}
    assert kinds == {"grid", "special", "continuity"}


def test_exp_identity_small_sweep(tmp_path):
    out = tmp_path / "r.json"
    assert run(["--out", str(out), "exp-identity", "--M-list", "8,12"]) == 0
    report = json.loads(out.read_text())
    cols = set(report["rows"][0])
    assert {"q", "M", "margin", "weyl_residual", "exp_residual",
            "exp_residual_swapped", "sum_defect", "gamma_distance"} <= cols


def test_verify_pair_exit_codes(tmp_path):
    assert run(["--out", str(tmp_path / "a.json"), "verify-pair"]) == 0
    assert run(["--out", str(tmp_path / "b.json"), "verify-pair", "--pair", "xx"]) == 1
    report = json.loads((tmp_path / "b.json").read_text())
    weyl_rows = [r for r in report["rows"] if r["condition"].startswith("weyl")]
    assert weyl_rows and not any(r["pass"] for r in weyl_rows)


def test_roundtrip_command(tmp_path):
    out = tmp_path / "r.json"
    assert run(["--seed", "7", "--out", str(out), "roundtrip", "--h-dim", "4"]) == 0
    report = json.loads(out.read_text())
    assert report["rows"][0]["err_b"] < 1e-8
    assert report["rows"][0]["err_a"] < 1e-8


def test_corep_command(tmp_path):
    out = tmp_path / "r.json"
    assert run(["-M", "4", "--samples", "8", "--out", str(out), "corep", "--M-list", "4"]) == 0


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["--q", "1.5", "fq-table"], id="q"),
        pytest.param(["exp-identity", "--M-list", ""], id="exp-identity-empty-M-list"),
        pytest.param(["corep", "--M-list", ""], id="corep-empty-M-list"),
        pytest.param(["roundtrip", "--trials", "0"], id="roundtrip-no-trials"),
        pytest.param(["roundtrip", "--h-dim", "0"], id="roundtrip-h-dim-0"),
        pytest.param(["roundtrip", "--h-dim", "-3"], id="roundtrip-h-dim-negative"),
        pytest.param(["--margin", "2", "corep", "--M-list", "4"], id="corep-empty-window"),
        pytest.param(["-M", "4", "--margin", "2", "verify-pair"], id="verify-pair-empty-window"),
        pytest.param(["-M", "2", "verify-pair"], id="verify-pair-M2-default-margin"),
        pytest.param(["--margin", "4", "exp-identity", "--M-list", "8"], id="exp-identity-empty-window"),
    ],
)
def test_invalid_q_is_usage_error(tmp_path, capsys, args):
    out = tmp_path / "x.json"
    assert run(["--out", str(out)] + args) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["--format", "csv", "--out", str(out), "verify-pair"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "condition"
    assert len(lines) > 3


@pytest.mark.parametrize(
    "args",
    [
        ["fq-table"],
        ["verify-pair"],
        ["exp-identity", "--M-list", "8"],
        ["--samples", "8", "corep", "--M-list", "4"],
        ["--seed", "3", "roundtrip", "--h-dim", "4"],
    ],
)
def test_reports_byte_identical(tmp_path, args):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["--out", str(a)] + args) in (0, 1)
    assert run(["--out", str(b)] + args) in (0, 1)
    assert a.read_bytes() == b.read_bytes()
