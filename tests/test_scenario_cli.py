"""Scenario files, matrix exchange formats, and the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from varbound import cli, matrixio, parse_scenario
from varbound.errors import (
    AsymmetricInput,
    DimensionError,
    ParseError,
    ValidationError,
)
from varbound.scenario import builtin_scenario_path, resolve_config_path
from conftest import B_MINNORM


class TestMatrixIo:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trip_exact(self, tmp_path, fmt):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(5, 5)) * np.exp(rng.uniform(-20, 20, size=(5, 5)))
        M = (M + M.T) / 2
        path = tmp_path / f"m.{fmt}"
        matrixio.write_matrix(M, path, fmt)
        back = matrixio.read_matrix(path)
        assert np.array_equal(back, M)

    def test_nonsquare_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3,4\n5,6,7,8\n9,10,11,12\n")
        with pytest.raises(DimensionError):
            matrixio.read_matrix(path)

    def test_asymmetric_rejected(self, tmp_path):
        M = np.eye(3)
        M[0, 1] = 1e-3
        path = tmp_path / "m.csv"
        matrixio.write_matrix(M, path)
        with pytest.raises(AsymmetricInput):
            matrixio.read_matrix(path)
        # permitted when symmetry is not required
        got = matrixio.read_matrix(path, symmetric=False)
        assert got[0, 1] == 1e-3

    def test_bad_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\nfoo,4\n")
        with pytest.raises(ParseError):
            matrixio.read_matrix(path)

    def test_vector_round_trip(self, tmp_path):
        v = np.array([1.5, -2.25, 3e-17])
        path = tmp_path / "v.csv"
        matrixio.write_vector(v, path)
        assert np.array_equal(matrixio.read_vector(path), v)


class TestScenarioParsing:
    def test_builtin_illustration(self):
        scn = parse_scenario(builtin_scenario_path("illustration"))
        assert scn.n == 2
        assert scn.design.kind == "explicit"
        assert scn.model.rule == "spillover"
        assert scn.estimator.kind == "horvitz-thompson"
        assert scn.objective is not None

    def test_missing_design_reported_with_pointer(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"n": 2, "exposure": {"rule": "identity"},
                                    "estimator": {"kind": "horvitz-thompson"}}))
        with pytest.raises(ValidationError) as info:
            parse_scenario(path)
        assert any(ptr == "/design" for ptr, _ in info.value.findings)

    def test_bad_adjacency_index(self, tmp_path):
        doc = {
            "n": 2,
            "design": {"kind": "bernoulli", "p": 0.5},
            "exposure": {"rule": "spillover", "adjacency": [[5], [0]]},
            "estimator": {"kind": "horvitz-thompson"},
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as info:
            parse_scenario(path)
        assert any("exposure" in ptr for ptr, _ in info.value.findings)

    def test_findings_aggregate(self, tmp_path):
        doc = {
            "n": 3,
            "design": {"kind": "mystery"},
            "exposure": {"rule": "identity"},
            "estimator": {"kind": "nope"},
            "threshold_c": -1,
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as info:
            parse_scenario(path)
        pointers = {ptr for ptr, _ in info.value.findings}
        assert {"/design/kind", "/estimator", "/threshold_c"} <= pointers

    def test_realized_outcomes_convert_from_one_based(self, tmp_path):
        doc = {
            "n": 2,
            "design": {"kind": "explicit", "assignments": [[1, 0], [0, 1]],
                        "probabilities": [0.5, 0.5]},
            "exposure": {"rule": "spillover", "adjacency": [[1], [0]]},
            "estimator": {"kind": "horvitz-thompson"},
            "realized": {"z": [1, 0], "outcomes": {"1": 3.25, "4": -0.5}},
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        scn = parse_scenario(path)
        assert scn.realized.outcomes == {0: 3.25, 3: -0.5}

    def test_not_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            parse_scenario(path)

    def test_composite_objective_with_limit_exponent(self, tmp_path):
        import math

        doc = {
            "n": 2,
            "design": {"kind": "complete-randomization", "m": 1},
            "exposure": {"rule": "identity"},
            "estimator": {"kind": "horvitz-thompson"},
            "objective": {
                "terms": [
                    {"weight": 1.0, "term": "schatten", "p": "inf"},
                    {"weight": 0.01, "term": "frobenius-squared"},
                    {"weight": 0.5, "term": "targeted",
                     "W": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
                ]
            },
            "solver": {"rho": 2.0, "max_iterations": 1000},
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        scn = parse_scenario(path)
        weights = [w for w, _ in scn.objective.terms]
        assert weights == [1.0, 0.01, 0.5]
        assert math.isinf(scn.objective.terms[0][1].p)
        assert scn.solver.rho == 2.0
        assert scn.solver.max_iterations == 1000

    def test_unknown_solver_key_flagged(self, tmp_path):
        doc = {
            "n": 2,
            "design": {"kind": "bernoulli", "p": 0.5},
            "exposure": {"rule": "identity"},
            "estimator": {"kind": "horvitz-thompson"},
            "solver": {"momentum": 0.9},
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as info:
            parse_scenario(path)
        assert any(ptr == "/solver/momentum" for ptr, _ in info.value.findings)

    def test_resolve_config_falls_back_to_builtin(self, tmp_path):
        assert resolve_config_path("illustration").name == "illustration.json"
        with pytest.raises(ParseError):
            resolve_config_path(tmp_path / "missing.json")


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


class TestCli:
    def test_demo_illustration(self, capsys):
        assert run_cli("demo", "illustration") == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out

    def test_unknown_demo(self):
        assert run_cli("demo", "nope") == 2

    def test_no_command_is_usage_error(self):
        assert run_cli() == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run_cli("bound") == 1
        assert "error" in capsys.readouterr().err

    def test_help_exits_cleanly(self, capsys):
        assert run_cli("--help") == 0
        assert "probe" in capsys.readouterr().out

    def test_probe_and_bound_outputs(self, tmp_path):
        out = tmp_path / "probe"
        assert run_cli("probe", "-c", "illustration", "-o", out) == 0
        A = matrixio.read_matrix(out / "A.csv")
        assert A.shape == (4, 4)
        omega = json.loads((out / "omega.json").read_text())
        assert omega["indexing"] == "1-based"
        assert [1, 3] in omega["pairs"]

        bout = tmp_path / "bound"
        assert run_cli("bound", "-c", "illustration", "-o", bout) == 0
        B = matrixio.read_matrix(bout / "B.csv")
        assert np.abs(B - B_MINNORM).max() < 1e-5
        report = json.loads((bout / "report.json").read_text())
        assert report["metrics"]["design_compatible"] is True
        assert report["metrics"]["conservative"] is True

    def test_bound_metrics_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_cli("bound", "-c", "illustration", "-o", out1)
        run_cli("bound", "-c", "illustration", "-o", out2)
        m1 = json.loads((out1 / "report.json").read_text())["metrics"]
        m2 = json.loads((out2 / "report.json").read_text())["metrics"]
        assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)

    def test_admissible_exit_codes(self, tmp_path):
        bout = tmp_path / "bound"
        run_cli("bound", "-c", "illustration", "-o", bout)
        assert run_cli("admissible", "-c", "illustration", "--slack", bout / "S.csv") == 0

        # pairwise slack for the two-voter example is dominated
        A = matrixio.read_matrix(tmp_path / "bound" / "B.csv") * 0
        from varbound import aronow_samii_slack
        from conftest import A_ILLU, OMEGA_ILLU

        S = aronow_samii_slack(A_ILLU, OMEGA_ILLU)
        spath = tmp_path / "Sas.csv"
        matrixio.write_matrix(S, spath)
        assert run_cli("admissible", "-c", "illustration", "--slack", spath) == 3

    def test_estimate_with_realized_data(self, tmp_path, capsys):
        doc = json.loads(builtin_scenario_path("illustration").read_text())
        doc["realized"] = {"z": [1, 0], "outcomes": {"1": 1.0, "4": 4.0}}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "est"
        assert run_cli("estimate", "-c", path, "-o", out) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        # (1/4) * (2*1/0.5 + 2*16/0.5 - 2*2*4/0.5) = 9
        assert payload["bound_estimate"] == pytest.approx(9.0, abs=1e-4)
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["opnorm_cov_R"] > 0

    def test_estimate_reports_theta_diagnostics(self, tmp_path, capsys):
        doc = json.loads(builtin_scenario_path("illustration").read_text())
        doc["theta"] = [1.0, 2.0, 3.0, 4.0]
        doc["realized"] = {"z": [1, 0], "outcomes": {"1": 1.0, "4": 4.0}}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "est"
        assert run_cli("estimate", "-c", path, "-o", out) == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["bound_value_at_theta"] == pytest.approx(5.0, abs=1e-4)
        assert report["metrics"]["empirical_mse_at_theta"] == pytest.approx(16.0, abs=1e-3)

    def test_bad_config_is_computation_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert run_cli("probe", "-c", path, "-o", tmp_path / "x") == 2

    def test_json_format_outputs(self, tmp_path):
        out = tmp_path / "probe"
        assert run_cli("probe", "-c", "illustration", "-o", out, "--format", "json") == 0
        A = matrixio.read_matrix(out / "A.json")
        assert A.shape == (4, 4)

    def test_mc_mode_with_threads_is_deterministic(self, tmp_path):
        doc = {
            "n": 3,
            "design": {"kind": "bernoulli", "p": 0.5},
            "exposure": {"rule": "identity"},
            "estimator": {"kind": "horvitz-thompson"},
            "mode": {"kind": "mc", "count": 20000, "seed": 11},
            "objective": {"terms": [{"weight": 1.0, "term": "frobenius-squared"}]},
        }
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(doc))
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli("bound", "-c", path, "-o", out, "--threads", "2") == 0
            outs.append(json.loads((out / "report.json").read_text())["metrics"])
        assert json.dumps(outs[0], sort_keys=True) == json.dumps(outs[1], sort_keys=True)
        assert outs[0]["seed"] == 11
        assert outs[0]["design_compatible"] is True

    def test_seed_flag_overrides_scenario_seed(self, tmp_path):
        doc = {
            "n": 2,
            "design": {"kind": "bernoulli", "p": 0.5},
            "exposure": {"rule": "identity"},
            "estimator": {"kind": "horvitz-thompson"},
            "mode": {"kind": "mc", "count": 5000, "seed": 1},
        }
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "probe"
        assert run_cli("probe", "-c", path, "-o", out, "--seed", "42") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["seed"] == 42

    def test_estimate_with_incompatible_bound_fails_cleanly(self, tmp_path, capsys):
        doc = json.loads(builtin_scenario_path("illustration").read_text())
        doc["realized"] = {"z": [1, 0], "outcomes": {"1": 1.0, "4": 4.0}}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        bad = tmp_path / "bad.csv"
        matrixio.write_matrix(np.ones((4, 4)), bad)  # weight on unobservable pairs
        assert run_cli("estimate", "-c", path, "--bound", bad) == 2
        assert "error" in capsys.readouterr().err

    def test_paired_design_parses(self, tmp_path):
        doc = {
            "n": 4,
            "design": {"kind": "paired", "pairs": [[0, 1], [2, 3]]},
            "exposure": {"rule": "identity"},
            "estimator": {"kind": "difference-in-means"},
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        scn = parse_scenario(path)
        assert scn.design.kind == "paired"
        out = tmp_path / "probe"
        assert run_cli("probe", "-c", path, "-o", out) == 0

    def test_console_entry_point(self):
        # the child process imports the same varbound as this one
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "varbound.cli", "demo", "illustration"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "[FAIL]" not in proc.stdout
