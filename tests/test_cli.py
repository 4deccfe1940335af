"""Tests for the command-line verification suites."""

import argparse
import json
import subprocess
import sys

import pytest

from ebcompose import cli
from ebcompose.report import Report, from_json

FAST_COMMANDS = [
    ["verify-example", "rank3"],
    ["verify-example", "holevo-werner", "--d", "3", "--p", "0.25"],
    ["verify-example", "holevo-werner", "--d", "2", "--p", "0.9"],
    ["verify-example", "antisym", "--d", "2"],
    ["verify-example", "antisym", "--d", "3"],
    ["verify-example", "tau-n", "--d", "2", "--n", "2"],
    ["verify-example", "tau-n", "--d", "3", "--n", "1"],
    ["verify-example", "choi-witness"],
    ["verify-example", "switch", "--d", "2", "--seed", "3"],
    ["gaussian", "--n", "1", "--seed", "4"],
    ["gaussian", "--n", "2", "--seed", "5"],
]


# A flag that a suite does not read is not declared for it.
UNREAD_FLAGS = [
    ["verify-example", "rank3", "--d", "4"],
    ["verify-example", "rank3", "--seed", "1"],
    ["verify-example", "holevo-werner", "--n", "2"],
    ["verify-example", "holevo-werner", "--seed", "1"],
    ["verify-example", "antisym", "--p", "0.5"],
    ["verify-example", "tau-n", "--seed", "1"],
    ["verify-example", "choi-witness", "--d", "4"],
    ["verify-example", "switch", "--n", "2"],
    ["gaussian", "--p", "0.3"],
    ["gaussian", "--d", "2"],
]


class TestCommands:
    @pytest.mark.parametrize("argv", FAST_COMMANDS, ids=" ".join)
    def test_suites_pass(self, argv, capsys):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_inconclusive_split_reports_fail(self, monkeypatch, capsys):
        capped = cli.sdp.SdpResult(cli.sdp.INCONCLUSIVE, None, None, {"iterations": 1.0},
                                   "iteration limit reached")
        monkeypatch.setattr(cli.gaussian, "is_eb", lambda C: capped)
        assert cli.main(["gaussian", "--n", "1", "--seed", "4"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] composition-eb" in out
        assert "iteration limit reached" in out

    def test_domain_error_exits_2(self, capsys):
        assert cli.main(["verify-example", "tau-n", "--d", "3", "--n", "3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_parameter_exits_2(self, capsys):
        assert cli.main(["verify-example", "holevo-werner", "--p", "1.5"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=" ".join)
    def test_unread_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_unknown_example_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["verify-example", "mystery"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_boundary_p_skips_sharp_checks(self, capsys):
        d = 4
        assert cli.main(["verify-example", "holevo-werner", "--d", "4", "--p", str(1.0 / d)]) == 0
        assert "[SKIP] cocp-at-p" in capsys.readouterr().out


class TestJsonReport:
    def test_report_shape(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["verify-example", "rank3", "--json-out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["kind"] == "Report"
        assert report["op"] == "verify-example:rank3"
        assert report["status"] == "pass"
        assert report["tolerances"] == {"tol_psd": 1e-9}
        assert len(report["evidence"]) == 4
        assert all({"name", "passed", "data"} <= set(c) for c in report["evidence"])
        back = from_json(report)
        assert isinstance(back, Report)
        # rank3 takes no --seed, so its report names no seed
        assert back.status == "pass" and back.seed is None

    def test_seeded_suite_reports_its_seed(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["verify-example", "switch", "--d", "2", "--seed", "3",
                         "--json-out", str(out)]) == 0
        capsys.readouterr()
        assert from_json(json.loads(out.read_text())).seed == 3

    def test_sym_separable_reports_term_count(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["verify-example", "antisym", "--d", "2", "--json-out", str(out)]) == 0
        capsys.readouterr()
        checks = {c["name"]: c for c in from_json(json.loads(out.read_text())).evidence}
        data = checks["sym-separable"]["data"]
        assert checks["sym-separable"]["passed"]
        assert isinstance(data["terms"], int) and data["terms"] > 0
        assert data["residual"] <= 1e-7

    def test_failing_suite_reports_fail(self, tmp_path, capsys):
        args = argparse.Namespace(json_out=str(tmp_path / "bad.json"), seed=0, tol_psd=1e-9)
        code = cli._run("demo", lambda a: [{"name": "x", "passed": False, "data": {}}], args)
        assert code == 1
        assert "CHECKS FAILED" in capsys.readouterr().out
        assert from_json(json.loads((tmp_path / "bad.json").read_text())).status == "fail"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ebcompose.cli", "verify-example", "switch", "--d", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "all checks passed" in proc.stdout
