"""Scenario files, matrix exchange formats, and the command-line front end."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from varbound import (
    build_variance_problem,
    cli,
    estimation,
    linalg,
    matrixio,
    pair_observation_probabilities,
    parse_scenario,
    r_covariance_opnorm,
    solver,
)
from varbound.errors import (
    AsymmetricInput,
    DimensionMismatch,
    ParseError,
    SingularRegression,
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
        with pytest.raises(DimensionMismatch):
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

    @pytest.mark.parametrize("fmt, text, match", [
        ("csv", "1,inf\ninf,1\n", "not finite"),
        ("csv", "1,0\n0,nan\n", "not finite"),
        ("json", "[[1.0, NaN], [NaN, 1.0]]\n", "not finite"),
        ("json", "[[-Infinity, 0], [0, 1]]\n", "not finite"),
        ("json", "[[1, 0], [0]]\n", "ragged rows"),
        ("json", "[[1, true], [true, 1]]\n", "true is not a JSON number"),
        ("json", '[[1, "1"], ["1", 1]]\n', '"1" is not a JSON number'),
    ], ids=["csv-inf", "csv-nan", "json-nan", "json-inf", "json-ragged", "json-bool",
            "json-text"])
    def test_non_finite_entries_rejected(self, tmp_path, fmt, text, match):
        # JSON matrix files take JSON numbers only, as inline scenario values do
        path = tmp_path / f"m.{fmt}"
        path.write_text(text)
        with pytest.raises(ParseError, match=match):
            matrixio.read_matrix(path)
        with pytest.raises(ParseError, match=match):
            matrixio.read_matrix(path, symmetric=False)
        assert run_cli("admissible", "-c", "illustration", "--slack", path) == 2

    def test_non_finite_vector_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.0\nnan\n3.0\n")
        with pytest.raises(ParseError, match="entry 2 .* not finite"):
            matrixio.read_vector(path)

    def test_vector_round_trip(self, tmp_path):
        v = np.array([1.5, -2.25, 3e-17])
        path = tmp_path / "v.csv"
        matrixio.write_vector(v, path)
        assert np.array_equal(matrixio.read_vector(path), v)

    def test_text_is_17_significant_digits_of_each_entry(self, tmp_path):
        # the text formatting numpy scalars one by one gives, byte for byte
        rng = np.random.default_rng(9)
        M = rng.normal(size=(4, 5)) * np.exp(rng.uniform(-30, 30, size=(4, 5)))
        M[0, :4] = [-0.0, 5e-324, 2.5e-310, 1e300]
        M[1, :3] = [3.0, -7.0, 0.0]
        matrixio.write_matrix(M, tmp_path / "m.csv")
        expected = "\n".join(",".join(f"{x:.17g}" for x in row) for row in M) + "\n"
        assert (tmp_path / "m.csv").read_bytes() == expected.encode()
        back = matrixio.read_matrix(tmp_path / "m.csv", symmetric=False)
        assert back.tobytes() == M.tobytes()
        v = M.ravel()
        matrixio.write_vector(v, tmp_path / "v.csv")
        assert (tmp_path / "v.csv").read_bytes() == ("\n".join(f"{x:.17g}" for x in v) + "\n").encode()
        assert matrixio.read_vector(tmp_path / "v.csv").tobytes() == v.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (40, 40), (0, 3)])
    def test_row_template_writes_the_per_number_text(self, tmp_path, shape):
        # one "%.17g" template per row (one joined template per vector) gives
        # the bytes of formatting every Python float on its own, specials too
        rng = np.random.default_rng(sum(shape))
        M = rng.normal(size=shape) * np.exp(rng.uniform(-700, 700, size=shape))
        specials = [0.0, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan]
        k = min(M.size, len(specials))
        M.flat[rng.choice(M.size, size=k, replace=False)] = specials[:k]
        matrixio.write_matrix(M, tmp_path / "m.csv")
        rows = "\n".join(",".join(f"{x:.17g}" for x in row) for row in M.tolist())
        assert (tmp_path / "m.csv").read_bytes() == (rows + "\n").encode()
        v = M.ravel()
        matrixio.write_vector(v, tmp_path / "v.csv")
        text = "\n".join(f"{x:.17g}" for x in v.tolist()) + "\n"
        assert (tmp_path / "v.csv").read_bytes() == text.encode()


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

    @pytest.mark.parametrize("patch, pointer", [
        ({"n": True}, "/n"),
        ({"threshold_c": True}, "/threshold_c"),
        ({"design": {"kind": "complete-randomization", "m": True}}, "/design/m"),
        ({"design": {"kind": "bernoulli", "p": False}}, "/design/p"),
        ({"design": {"kind": "bernoulli", "p": [0.5, True]}}, "/design/p/1"),
        ({"objective": {"terms": [{"weight": True, "term": "frobenius-squared"}]}},
         "/objective/terms/0/weight"),
        ({"objective": {"terms": [{"term": "schatten", "p": True}]}}, "/objective/terms/0/p"),
        ({"exposure": {"rule": "spillover", "adjacency": [[True], [False]]}},
         "/exposure/adjacency"),
        ({"theta": [1.0, True, 0.0, 0.0]}, "/theta"),
        ({"realized": {"z": [1, 0], "outcomes": {"1": True}}}, "/realized/outcomes/1"),
        ({"realized": {"z": [True, False], "outcomes": {"1": 1.0}}}, "/realized/z"),
        ({"design": {"kind": "explicit", "assignments": [[True, False], [0, 1]],
                     "probabilities": [0.5, 0.5]}}, "/design/assignments"),
        ({"objective": {"terms": [{"term": "targeted",
                                   "W": [[1, 0, 0, 0], [0, True, 0, 0], [0, 0, 1, 0],
                                         [0, 0, 0, 1]]}]}}, "/objective/terms/0/W"),
        ({"estimator": {"kind": "ols", "covariates": [[1.0], [True]]}},
         "/estimator/covariates"),
        ({"design": {"kind": "cluster", "clusters": [[0], [True]], "m": 1}}, "/design/clusters"),
    ], ids=["n", "threshold", "m", "p", "p-list", "weight", "schatten-p", "adjacency", "theta",
            "outcome", "realized-z", "assignments", "W", "covariates", "clusters"])
    def test_boolean_is_not_a_number(self, tmp_path, patch, pointer):
        # Python reads a JSON boolean as the integer 0 or 1
        doc = {
            "n": 2,
            "design": {"kind": "bernoulli", "p": 0.5},
            "exposure": {"rule": "identity"},
            "estimator": {"kind": "horvitz-thompson"},
            **patch,
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as info:
            parse_scenario(path)
        assert [ptr for ptr, _ in info.value.findings] == [pointer]
        out = tmp_path / "out"
        assert run_cli("probe", "-c", path, "-o", out) == 2
        assert not out.exists()

    @pytest.mark.parametrize("design", [
        {"kind": "bernoulli", "p": 0.5}, {"kind": "complete-randomization", "m": 1},
    ], ids=["bernoulli", "complete"])
    def test_huge_n_is_a_finding(self, tmp_path, capsys, design):
        # 2n x 2n matrices are indexed by intp: past that n is a finding at
        # /n, not an OverflowError from building the design
        largest = math.isqrt(np.iinfo(np.intp).max) // 2
        doc = {"design": design, "exposure": {"rule": "identity"},
               "estimator": {"kind": "horvitz-thompson"}}
        path = tmp_path / "s.json"
        for n in (largest + 1, 10**30):
            path.write_text(json.dumps({"n": n, **doc}))
            with pytest.raises(ValidationError) as info:
                parse_scenario(path)
            assert [ptr for ptr, _ in info.value.findings] == ["/n"]
            assert run_cli("probe", "-c", path, "-o", tmp_path / "out") == 2
            assert "/n: " in capsys.readouterr().err
        if design["kind"] != "bernoulli":  # a Bernoulli design lists one p per unit
            path.write_text(json.dumps({"n": largest, **doc}))
            assert parse_scenario(path).design.support_size() == largest

    def test_infinite_objective_weight_is_a_finding(self, tmp_path, capsys):
        doc = json.loads(builtin_scenario_path("illustration").read_text())
        doc["objective"] = {"terms": [{"weight": math.inf, "term": "frobenius-squared"}]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))  # the weight is written as Infinity
        with pytest.raises(ValidationError) as info:
            parse_scenario(path)
        assert [ptr for ptr, _ in info.value.findings] == ["/objective"]
        assert run_cli("bound", "-c", path, "-o", tmp_path / "out") == 2
        assert "/objective: term weights must be positive and finite" in capsys.readouterr().err

    def test_repeated_key_is_an_error(self, tmp_path):
        # JSON readers keep the last value of a repeated key: n would read 3
        text = builtin_scenario_path("illustration").read_text().replace('"n": 2', '"n": 2, "n": 3')
        path = tmp_path / "s.json"
        path.write_text(text)
        with pytest.raises(ParseError, match="key 'n' is repeated"):
            parse_scenario(path)
        assert run_cli("bound", "-c", path, "-o", tmp_path / "out") == 2

    def test_repeated_key_in_realized_file_is_a_finding(self, tmp_path):
        doc = json.loads(builtin_scenario_path("illustration").read_text())
        doc["realized"] = "realized.json"
        (tmp_path / "realized.json").write_text(
            '{"z": [1, 0], "outcomes": {"1": 1.0, "4": 4.0}, "z": [0, 1]}')
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as info:
            parse_scenario(path)
        assert [ptr for ptr, _ in info.value.findings] == ["/realized"]
        assert "key 'z' is repeated" in info.value.findings[0][1]
        assert run_cli("estimate", "-c", path, "-o", tmp_path / "out") == 2

    def test_repeated_outcome_coordinate_is_a_finding(self, tmp_path, capsys):
        # "01" names coordinate 1 again: the last value must not silently win
        doc = json.loads(builtin_scenario_path("illustration").read_text())
        doc["realized"] = {"z": [1, 0], "outcomes": {"1": 5.0, "01": 7.0, "4": 2.0}}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as info:
            parse_scenario(path)
        assert [ptr for ptr, _ in info.value.findings] == ["/realized/outcomes/01"]
        assert run_cli("estimate", "-c", path, "-o", tmp_path / "est") == 2
        captured = capsys.readouterr()
        assert "/realized/outcomes/01" in captured.err
        assert "bound_estimate" not in captured.out

    @pytest.mark.parametrize("assignments, probabilities", [
        ([[1, 0], [0, 1], [1, 1]], [0.5, 0.5]),
        ([[1, 0], [0, 1]], [0.5, 0.5, 0.0]),
    ], ids=["extra-assignment", "extra-probability"])
    def test_explicit_design_rows_must_pair_up(self, tmp_path, assignments, probabilities):
        # zip() would drop the unpaired rows and build a different design
        doc = json.loads(builtin_scenario_path("illustration").read_text())
        doc["design"].update(assignments=assignments, probabilities=probabilities)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as info:
            parse_scenario(path)
        assert [ptr for ptr, _ in info.value.findings] == ["/design"]
        assert run_cli("probe", "-c", path, "-o", tmp_path / "out") == 2

    @pytest.mark.parametrize("again", [[1, 0], [1.0, 0]], ids=["same", "integral-float"])
    def test_repeated_table_assignment_is_a_finding(self, tmp_path, again):
        # the last entry must not silently win
        doc = json.loads(builtin_scenario_path("illustration").read_text())
        doc["exposure"] = {"rule": "table", "labels": ["a", "b"], "contrast": ["a", "b"],
                           "entries": [{"assignment": [1, 0], "labels": ["a", "b"]},
                                       {"assignment": [0, 1], "labels": ["b", "a"]},
                                       {"assignment": again, "labels": ["b", "b"]}]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as info:
            parse_scenario(path)
        assert [ptr for ptr, _ in info.value.findings] == ["/exposure/entries/2/assignment"]
        assert run_cli("probe", "-c", path, "-o", tmp_path / "out") == 2

    TABLE = {"rule": "table", "labels": ["a", "b"], "contrast": ["a", "b"],
             "entries": [{"assignment": [1, 0], "labels": ["a", "b"]},
                         {"assignment": [0, 1], "labels": ["b", "a"]}]}

    @pytest.mark.parametrize("patch, pointer", [
        ({"labels": "ab"}, "/exposure/labels"),
        ({"contrast": "ab"}, "/exposure/contrast"),
        ({"entries": [{"assignment": [1, 0], "labels": "ab"},
                      {"assignment": [0, 1], "labels": ["b", "a"]}]}, "/exposure/entries/0/labels"),
        ({"entries": [{"assignment": [1, 0], "labels": ["a", "b"]},
                      {"assignment": [0, 1], "labels": "ba"}]}, "/exposure/entries/1/labels"),
        ({"labels": [True, "b"], "contrast": [1, "b"],
          "entries": [{"assignment": [1, 0], "labels": [1, "b"]},
                      {"assignment": [0, 1], "labels": ["b", 1]}]}, "/exposure/labels"),
        ({"labels": [1, "b"], "contrast": [True, "b"],
          "entries": [{"assignment": [1, 0], "labels": [1, "b"]},
                      {"assignment": [0, 1], "labels": ["b", 1]}]}, "/exposure/contrast"),
        ({"labels": [1, "b"], "contrast": [1, "b"],
          "entries": [{"assignment": [1, 0], "labels": [True, "b"]},
                      {"assignment": [0, 1], "labels": ["b", 1]}]}, "/exposure/entries/0/labels"),
        ({"labels": 5}, "/exposure/labels"),
        ({"labels": [None, "a", "b"]}, "/exposure/labels"),
        ({"labels": [["a"], "a", "b"]}, "/exposure/labels"),
        ({"rule": "spillover", "adjacency": [[1], [0]], "contrast": "direct"},
         "/exposure/contrast"),
        ({"rule": "spillover", "adjacency": [[1], [0]],
          "contrast": ["direct", "indirect", "isolated"]}, "/exposure/contrast"),
    ], ids=["labels-text", "contrast-text", "entry-text", "entry-text-reversed", "labels-bool",
            "contrast-bool", "entry-bool", "labels-number", "labels-null", "labels-nested",
            "spillover-contrast-text", "spillover-contrast-three"])
    def test_exposure_labels_are_arrays_of_strings_or_numbers(self, tmp_path, patch, pointer):
        # tuple() read a string as its characters, and JSON true as the label
        # 1; a number or a bare contrast string crashed at /exposure
        doc = json.loads(builtin_scenario_path("illustration").read_text())
        doc["exposure"] = {**self.TABLE, **patch}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as info:
            parse_scenario(path)
        assert [ptr for ptr, _ in info.value.findings] == [pointer]
        assert run_cli("probe", "-c", path, "-o", tmp_path / "out") == 2

    @pytest.mark.parametrize("patch", [
        {}, {"labels": [1, 0], "contrast": [1, 0],
             "entries": [{"assignment": [1, 0], "labels": [1, 0]},
                         {"assignment": [0, 1], "labels": [0, 1.0]}]},
        {"rule": "spillover", "adjacency": [[1], [0]], "contrast": ["direct", "isolated"]},
    ], ids=["strings", "numbers", "spillover"])
    def test_exposure_labels_that_parse(self, tmp_path, patch):
        doc = json.loads(builtin_scenario_path("illustration").read_text())
        doc["exposure"] = {**self.TABLE, **patch}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        scn = parse_scenario(path)
        assert scn.model.contrast == tuple(doc["exposure"]["contrast"])

    @pytest.mark.parametrize("key, written", [
        ("1", "+1"), ("1", " 1"), ("1", "\uff11"), ("10", "1_0"),
    ], ids=["plus", "space", "fullwidth", "underscore"])
    def test_outcome_key_is_ascii_digits(self, tmp_path, key, written):
        # Python's int() reads each of these as a coordinate
        doc = _identity_estimate_doc(5, [1, 0, 0, 0, 0], {"kind": "exact"})
        outcomes = doc["realized"]["outcomes"]
        outcomes[written] = outcomes.pop(key)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as info:
            parse_scenario(path)
        assert [ptr for ptr, _ in info.value.findings] == [f"/realized/outcomes/{written}"]
        assert run_cli("estimate", "-c", path, "-o", tmp_path / "est") == 2

    def test_readme_scenario_parses(self, tmp_path):
        # the scenario document README shows, with the theta file it names
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("A scenario is one JSON document:", 1)[1]
        text = block.split("```json\n", 1)[1].split("```", 1)[0]
        doc = json.loads(text)
        matrixio.write_vector(np.arange(2 * doc["n"], dtype=float), tmp_path / doc["theta"])
        path = tmp_path / "s.json"
        path.write_text(text)
        scn = parse_scenario(path)
        assert scn.n == doc["n"] and scn.theta.tolist() == list(range(2 * doc["n"]))
        assert scn.realized.z == tuple(doc["realized"]["z"])

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

    @pytest.mark.parametrize("patch, pointer", [
        ({"mode": {"kind": "mc", "count": 0}}, "/mode/count"),
        ({"mode": {"kind": "mc", "count": "many"}}, "/mode/count"),
        ({"mode": {"kind": "mc", "count": 100, "seed": -1}}, "/mode/seed"),
        ({"solver": {"rho": 0}}, "/solver"),
        ({"solver": {"rho": "abc"}}, "/solver/rho"),
        ({"solver": {"max_iterations": 2.7}}, "/solver/max_iterations"),
        ({"solver": {"max_iterations": True}}, "/solver/max_iterations"),
        ({"solver": {"max_iterations": "3"}}, "/solver/max_iterations"),
        ({"solver": {"max_iterations": 0}}, "/solver/max_iterations"),
        ({"solver": {"rho": True}}, "/solver/rho"),
        ({"solver": {"eps_abs": "1e-9"}}, "/solver/eps_abs"),
        ({"objective": [1]}, "/objective"),
        ({"objective": {"terms": [1]}}, "/objective/terms/0"),
        ({"realized": {"z": [1, 0], "outcomes": [1, 2]}}, "/realized/outcomes"),
        ({"design": {"kind": "complete-randomization", "m": 2.7}}, "/design/m"),
        ({"design": {"kind": "complete-randomization", "m": "1"}}, "/design/m"),
        ({"exposure": {"rule": "spillover", "adjacency": [[1.5], [0]]}}, "/exposure/adjacency"),
        ({"exposure": {"rule": "spillover", "adjacency": [["1"], [0]]}}, "/exposure/adjacency"),
        ({"design": {"kind": "bernoulli", "p": "0.5"}}, "/design/p"),
        ({"theta": ["1", 2, 3, 4]}, "/theta"),
        ({"realized": {"z": [1, 0], "outcomes": {"1": "3"}}}, "/realized/outcomes/1"),
    ], ids=["count-zero", "count-text", "seed-negative", "rho-zero", "rho-text",
            "iterations-fraction", "iterations-bool", "iterations-text", "iterations-zero",
            "rho-bool", "eps-text", "objective-list", "term-number", "outcomes-list",
            "m-fraction", "m-text", "adjacency-fraction", "adjacency-text", "p-text",
            "theta-text", "outcome-text"])
    def test_bad_mode_or_solver_value_is_a_finding(self, tmp_path, patch, pointer):
        doc = {
            "n": 2,
            "design": {"kind": "bernoulli", "p": 0.5},
            "exposure": {"rule": "identity"},
            "estimator": {"kind": "horvitz-thompson"},
            **patch,
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as info:
            parse_scenario(path)
        assert pointer in {ptr for ptr, _ in info.value.findings}
        assert run_cli("probe", "-c", path, "-o", tmp_path / "out") == 2

    @pytest.mark.parametrize("patch, pointer", [
        ({"threshold_c": math.nan}, "/threshold_c"),
        ({"threshold_c": math.inf}, "/threshold_c"),
        ({"solver": {"eps_abs": math.inf}}, "/solver"),
        ({"estimator": {"kind": "ols", "covariates": [[1.0], [math.inf]]}},
         "/estimator/covariates"),
        ({"objective": {"terms": [{"weight": 1.0, "term": "targeted",
                                   "W": np.diag([1.0, math.nan, 1.0, 1.0]).tolist()}]}},
         "/objective/terms/0/W"),
    ], ids=["threshold-nan", "threshold-inf", "eps-inf", "covariates-inf", "W-nan"])
    def test_non_finite_number_is_a_finding(self, tmp_path, patch, pointer):
        # json.dumps writes the bare NaN / Infinity tokens, which json.loads reads back
        doc = {
            "n": 2,
            "design": {"kind": "bernoulli", "p": 0.5},
            "exposure": {"rule": "identity"},
            "estimator": {"kind": "horvitz-thompson"},
            **patch,
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as info:
            parse_scenario(path)
        assert pointer in {ptr for ptr, _ in info.value.findings}
        assert run_cli("bound", "-c", path, "-o", tmp_path / "out") == 2

    def test_integral_float_iterations_are_accepted(self, tmp_path):
        doc = {
            "n": 2,
            "design": {"kind": "bernoulli", "p": 0.5},
            "exposure": {"rule": "identity"},
            "estimator": {"kind": "horvitz-thompson"},
            "solver": {"max_iterations": 300.0, "rho": 2},
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        solver = parse_scenario(path).solver
        assert solver.max_iterations == 300 and type(solver.max_iterations) is int
        assert solver.rho == 2.0

    def test_covariates_from_csv_json_or_inline_agree(self, tmp_path):
        # n = 6, m = 3: Lin's six regressors are identified under every
        # assignment (see test_lin_with_more_regressors_than_units_is_singular)
        X = np.random.default_rng(4).normal(size=(6, 2))
        matrixio.write_matrix(X, tmp_path / "X.csv")
        matrixio.write_matrix(X, tmp_path / "X.json")
        problems = []
        for covariates in ("X.csv", "X.json", X.tolist()):
            doc = {
                "n": 6,
                "design": {"kind": "complete-randomization", "m": 3},
                "exposure": {"rule": "identity"},
                "estimator": {"kind": "lin", "covariates": covariates},
            }
            path = tmp_path / "s.json"
            path.write_text(json.dumps(doc))
            scn = parse_scenario(path)
            assert np.array_equal(scn.estimator.covariates, X)
            problems.append(build_variance_problem(scn.design, scn.model, scn.estimator)[0])
        assert all(np.array_equal(p.A, problems[0].A) for p in problems)

    def test_lin_with_more_regressors_than_units_is_singular(self, tmp_path):
        # Lin with two covariates has six regressors; with n = 4 units no
        # design matrix identifies the contrast coefficient
        doc = {
            "n": 4,
            "design": {"kind": "complete-randomization", "m": 2},
            "exposure": {"rule": "identity"},
            "estimator": {"kind": "lin",
                          "covariates": np.random.default_rng(4).normal(size=(4, 2)).tolist()},
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        scn = parse_scenario(path)
        with pytest.raises(SingularRegression, match="null space"):
            build_variance_problem(scn.design, scn.model, scn.estimator)

    def test_resolve_config_falls_back_to_builtin(self, tmp_path):
        assert resolve_config_path("illustration").name == "illustration.json"
        with pytest.raises(ParseError):
            resolve_config_path(tmp_path / "missing.json")


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def _identity_estimate_doc(n, z, mode):
    """An estimate scenario: Bernoulli(0.5), identity exposure, Horvitz-Thompson,
    realized z with outcome 1 + i at unit i's revealed coordinate."""
    return {"n": n, "design": {"kind": "bernoulli", "p": 0.5}, "exposure": {"rule": "identity"},
            "estimator": {"kind": "horvitz-thompson"}, "mode": mode,
            "realized": {"z": z, "outcomes": {str(i + 1 + (0 if z[i] else n)): 1.0 + i
                                              for i in range(n)}}}


def _ring12_estimate_doc():
    """An exact estimate scenario on the n = 12 ring: Bernoulli(0.5), spillover
    exposure, Horvitz-Thompson. Unit 3k is treated and reveals 3k; its
    neighbours reveal 3k +- 1 + n."""
    n = 12
    return {"n": n, "design": {"kind": "bernoulli", "p": 0.5},
            "exposure": {"rule": "spillover",
                         "adjacency": [[(i - 1) % n, (i + 1) % n] for i in range(n)]},
            "estimator": {"kind": "horvitz-thompson"}, "mode": {"kind": "exact"},
            "realized": {"z": [1, 0, 0] * 4,
                         "outcomes": {str(i + 1 + (0 if i % 3 == 0 else n)): 1.0 + i
                                      for i in range(n)}}}


def _estimate_with_bound(tmp_path, capsys, doc, **mode):
    """Run ``estimate`` on ``doc`` with the bound 0.5 on every jointly observed
    pair plus the identity; ``mode`` rebuilds the scenario's P2. Returns the
    scenario, P2 table, bound and report metrics."""
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    scn = parse_scenario(path)
    table = pair_observation_probabilities(scn.design, scn.model, **mode)
    B = np.where(table.P2 > 0, 0.5, 0.0) + np.eye(2 * scn.n)
    matrixio.write_matrix(B, tmp_path / "B.csv")
    out = tmp_path / "est"
    assert run_cli("estimate", "-c", path, "--bound", tmp_path / "B.csv", "-o", out) == 0
    capsys.readouterr()
    return scn, table, B, json.loads((out / "report.json").read_text())["metrics"]


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

    @pytest.mark.parametrize("flags", [["--threads", "2"], ["--seed", "-1"]],
                             ids=["threads", "negative-seed"])
    def test_bad_flag_is_usage_error(self, tmp_path, capsys, flags):
        assert run_cli("bound", "-c", "illustration", "-o", tmp_path, *flags) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["W", "theta", "slack", "bound", "realized"])
    def test_missing_matrix_file_is_computation_error(self, tmp_path, capsys, missing):
        doc = json.loads(builtin_scenario_path("illustration").read_text())
        doc["realized"] = {"z": [1, 0], "outcomes": {"1": 1.0, "4": 4.0}}
        command = ["estimate"]
        if missing == "W":
            doc["objective"] = {"terms": [{"weight": 1.0, "term": "targeted", "W": "gone.csv"}]}
        elif missing == "theta":
            doc["theta"] = "gone.csv"
        elif missing == "slack":
            command = ["admissible", "--slack", tmp_path / "gone.csv"]
        elif missing == "bound":
            command = ["estimate", "--bound", tmp_path / "gone.csv"]
        else:
            del doc["realized"]
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        assert run_cli(*command, "-c", path) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [{"kind": "exact"}, {"kind": "mc", "count": 500, "seed": 1}],
                             ids=["exact", "mc"])
    def test_non_finite_explicit_probability_is_an_error(self, tmp_path, capsys, mode):
        doc = json.loads(builtin_scenario_path("illustration").read_text())
        doc["design"]["probabilities"] = [math.nan, 1.0]
        doc["mode"] = mode
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        assert run_cli("probe", "-c", path, "-o", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "error:" in err and "not finite" in err

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

    def test_one_report_writer(self, tmp_path, capsys, monkeypatch):
        doc = json.loads(builtin_scenario_path("illustration").read_text())
        doc["realized"] = {"z": [1, 0], "outcomes": {"1": 1.0, "4": 4.0}}
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(doc))
        runs = {  # bound first: admissible tests its slack
            "bound": (["-c", cfg], {"config"}),
            "probe": (["-c", cfg], {"config"}),
            "admissible": (["-c", cfg, "--slack", tmp_path / "bound" / "S.csv"],
                           {"config", "slack"}),
            "estimate": (["-c", cfg], {"config"}),
            "demo": (["illustration"], set()),
        }
        for command, (argv, inputs) in runs.items():
            assert run_cli(command, *argv, "-o", tmp_path / command) == 0
            report = json.loads((tmp_path / command / "report.json").read_text())
            assert set(report) == {"command", "inputs", "outputs", "metrics", "wall_time_s"}
            assert report["command"] == command and set(report["inputs"]) == inputs
            assert report["metrics"] and report["wall_time_s"] >= 0
        # without -o, nothing is written, here or in the default "out"
        quiet = tmp_path / "quiet"
        quiet.mkdir()
        monkeypatch.chdir(quiet)
        for command in ("admissible", "estimate", "demo"):
            assert run_cli(command, *runs[command][0]) == 0
        assert not any(quiet.iterdir())
        # an error exit writes nothing
        ones = tmp_path / "ones.csv"
        matrixio.write_matrix(np.ones((4, 4)), ones)  # weight on unobservable pairs
        assert run_cli("estimate", "-c", cfg, "--bound", ones, "-o", tmp_path / "failed") == 2
        assert not (tmp_path / "failed").exists()
        capsys.readouterr()

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

    def test_admissible_report_carries_rank_and_omega_size(self, tmp_path):
        from conftest import A_ILLU, B_PAIRWISE

        spath = tmp_path / "S.csv"
        matrixio.write_matrix(B_PAIRWISE - A_ILLU, spath)
        out = tmp_path / "adm"
        assert run_cli("admissible", "-c", "illustration", "--slack", spath, "-o", out) == 3
        metrics = json.loads((out / "report.json").read_text())["metrics"]
        assert metrics["slack_rank"] == int(np.sum(np.linalg.eigvalsh(B_PAIRWISE - A_ILLU) > 1e-7))
        assert metrics["omega_size"] == 4

    def test_reports_carry_the_rho_path(self, tmp_path):
        bout, aout = tmp_path / "bound", tmp_path / "adm"
        assert run_cli("bound", "-c", "illustration", "-o", bout) == 0
        assert run_cli("admissible", "-c", "illustration", "--slack", bout / "S.csv",
                       "-o", aout) == 0
        bound = json.loads((bout / "report.json").read_text())["metrics"]
        adm = json.loads((aout / "report.json").read_text())["metrics"]
        for changes, rho in ((bound["rho_changes"], bound["final_rho"]),
                             (adm["solver_rho_changes"], adm["solver_final_rho"])):
            assert isinstance(changes, int) and changes >= 0
            assert 1e-2 <= rho <= 1e2

    def test_admissible_builds_omega_without_a(self, tmp_path, monkeypatch, capsys):
        # difference-in-means on complete randomization: a full build would
        # take the coefficient pass, the admissibility test needs Omega only
        n = 6
        doc = {"n": n, "design": {"kind": "complete-randomization", "m": 3},
               "exposure": {"rule": "spillover",
                            "adjacency": [[(i - 1) % n, (i + 1) % n] for i in range(n)]},
               "estimator": {"kind": "difference-in-means"},
               "mode": {"kind": "mc", "count": 4000, "seed": 3}}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        assert run_cli("bound", "-c", path, "-o", tmp_path / "bound") == 0
        scn = parse_scenario(path)
        problem, _ = build_variance_problem(scn.design, scn.model, scn.estimator,
                                            mode="mc", count=4000, seed=3)
        S_opt = matrixio.read_matrix(tmp_path / "bound" / "S.csv")
        # a PSD bump off Omega makes the slack dominated
        S_bump = S_opt + np.diag(np.eye(2 * n)[0])
        expected = [solver.test_admissibility(S, problem.omega, scn.solver) for S in (S_opt, S_bump)]
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("admissible took the coefficient pass")

        monkeypatch.setattr("varbound.experiment._batch_coefficients", refuse)
        for name, S, verdict in zip(("opt", "bump"), (S_opt, S_bump), expected):
            spath = tmp_path / f"{name}.csv"
            matrixio.write_matrix(S, spath)
            code = run_cli("admissible", "-c", path, "--slack", spath, "-o", tmp_path / name)
            assert code == (0 if verdict.admissible else 3)
            metrics = json.loads((tmp_path / name / "report.json").read_text())["metrics"]
            assert metrics["alpha"] == verdict.alpha
            assert metrics["admissible"] is verdict.admissible
            assert metrics["omega_size"] == len(problem.omega)
        assert expected[0].admissible and not expected[1].admissible

    def test_estimate_with_bound_builds_p2_without_a(self, tmp_path, monkeypatch, capsys):
        # Hajek on complete randomization: a full build would take the
        # coefficient pass; the estimate and Cov(R) read P2 alone
        n = 6
        doc = {"n": n, "design": {"kind": "complete-randomization", "m": 3},
               "exposure": {"rule": "spillover",
                            "adjacency": [[(i - 1) % n, (i + 1) % n] for i in range(n)]},
               "estimator": {"kind": "hajek"},
               "theta": np.linspace(1.0, 3.0, 2 * n).tolist(),
               "realized": {"z": [1, 1, 0, 1, 0, 0],
                            "outcomes": {"1": 1.0, "2": 2.0, "4": 1.5, "9": 0.5, "11": 3.0,
                                         "12": 2.5}}}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        assert run_cli("bound", "-c", path, "-o", tmp_path / "bound") == 0
        scn = parse_scenario(path)
        _, table = build_variance_problem(scn.design, scn.model, scn.estimator)
        B = matrixio.read_matrix(tmp_path / "bound" / "B.csv")
        diag = r_covariance_opnorm(scn.design, scn.model, B, table)
        expected = {
            "bound_estimate": estimation.ht_bound_estimate(B, scn.realized, table, n),
            "opnorm_cov_R": diag.opnorm_cov_R,
            "opnorm_cov_R_mode": "exact",
            "opnorm_cov_R_pairs": diag.provenance["pairs"],
            "opnorm_cov_R_matvecs": diag.provenance["matvecs"],
            "empirical_mse_at_theta": estimation.empirical_mse(
                scn.design, scn.model, B, table, scn.theta),
        }
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("estimate --bound took the coefficient pass")

        monkeypatch.setattr("varbound.experiment._batch_coefficients", refuse)
        out = tmp_path / "est"
        assert run_cli("estimate", "-c", path, "--bound", tmp_path / "bound" / "B.csv",
                       "-o", out) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        metrics = json.loads((out / "report.json").read_text())["metrics"]
        assert payload["bound_estimate"] == expected["bound_estimate"]
        assert {k: metrics[k] for k in expected} == expected

    @pytest.mark.parametrize("size", [2, 5])
    def test_admissible_slack_shape_checked(self, tmp_path, capsys, size):
        spath = tmp_path / "S.csv"
        matrixio.write_matrix(np.eye(size), spath)
        assert run_cli("admissible", "-c", "illustration", "--slack", spath) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "(4, 4)" in err

    def test_admissible_rejects_a_non_finite_slack(self, tmp_path, capsys):
        S = np.eye(4)
        S[0, 0] = np.inf
        spath = tmp_path / "S.csv"
        matrixio.write_matrix(S, spath)
        assert run_cli("admissible", "-c", "illustration", "--slack", spath) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "not finite" in captured.err
        assert "alpha" not in captured.out

    @pytest.mark.parametrize("case", ["outcome", "theta", "theta-file"])
    def test_estimate_rejects_non_finite_data(self, tmp_path, capsys, case):
        doc = json.loads(builtin_scenario_path("illustration").read_text())
        outcome = math.nan if case == "outcome" else 1.0
        doc["realized"] = {"z": [1, 0], "outcomes": {"1": outcome, "4": 4.0}}
        if case == "theta":
            doc["theta"] = [1.0, 2.0, math.inf, 4.0]
        elif case == "theta-file":
            (tmp_path / "theta.csv").write_text("1\n2\nnan\n4\n")
            doc["theta"] = "theta.csv"
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))  # writes the bare NaN / Infinity tokens
        with pytest.raises(ValidationError) as info:
            parse_scenario(path)
        expected = "/realized/outcomes/1" if case == "outcome" else "/theta"
        assert [ptr for ptr, _ in info.value.findings] == [expected]
        out = tmp_path / "est"
        assert run_cli("estimate", "-c", path, "-o", out) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and expected in captured.err
        assert "bound_estimate" not in captured.out
        assert not (out / "report.json").exists()

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

    @pytest.mark.parametrize("outcomes", [
        {"1": 1.0, "4": 4.0, "2": 7.0},  # coordinate 2 is not observed under z = [1, 0]
        {"1": 1.0},  # coordinate 4 is
    ], ids=["extra-key", "missing-key"])
    def test_estimate_rejects_outcomes_off_the_observation_set(self, tmp_path, capsys, outcomes):
        doc = json.loads(builtin_scenario_path("illustration").read_text())
        doc["realized"] = {"z": [1, 0], "outcomes": outcomes}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        assert run_cli("estimate", "-c", path, "-o", tmp_path / "est") == 2
        captured = capsys.readouterr()
        assert "observation set" in captured.err
        assert "bound_estimate" not in captured.out

    def test_estimate_rejects_z_entries_other_than_0_or_1(self, tmp_path, capsys):
        doc = json.loads(builtin_scenario_path("illustration").read_text())
        doc["realized"] = {"z": [1.9, 0.2], "outcomes": {"1": 1.0, "4": 4.0}}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as info:
            parse_scenario(path)
        assert [ptr for ptr, _ in info.value.findings] == ["/realized/z"]
        assert run_cli("estimate", "-c", path, "-o", tmp_path / "est") == 2
        captured = capsys.readouterr()
        assert "/realized/z" in captured.err
        assert "bound_estimate" not in captured.out

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
            assert run_cli("bound", "-c", path, "-o", out) == 0
            outs.append(json.loads((out / "report.json").read_text())["metrics"])
        assert json.dumps(outs[0], sort_keys=True) == json.dumps(outs[1], sort_keys=True)
        assert outs[0]["seed"] == 11
        assert outs[0]["design_compatible"] is True

    def test_estimate_draws_cov_r_with_the_scenario_seed(self, tmp_path, capsys):
        # 2^15 = 32,768 assignments are more rows than 20,000 draws, so
        # estimate takes Cov(R) by Monte Carlo; the draws must come from the
        # scenario's seed
        n = 15
        doc = _identity_estimate_doc(n, [1, 0] * 7 + [1], {"kind": "mc", "count": 2000, "seed": 5})
        scn, table, B, metrics = _estimate_with_bound(tmp_path, capsys, doc,
                                                      mode="mc", count=2000, seed=5)
        expected = r_covariance_opnorm(scn.design, scn.model, B, table,
                                       mode="mc", count=20000, seed=5)
        assert metrics["seed"] == 5
        assert metrics["opnorm_cov_R_mode"] == "mc"
        assert metrics["opnorm_cov_R"] == expected.opnorm_cov_R
        assert metrics["opnorm_cov_R_pairs"] == expected.provenance["pairs"]
        assert metrics["opnorm_cov_R_matvecs"] == expected.provenance["matvecs"]

    @pytest.mark.parametrize("case", ["ring12-exact", "complete16-mc"])
    def test_estimate_counts_cov_r_exactly_up_to_the_draw_count(self, tmp_path, capsys, case):
        # 4,096 and C(16, 8) = 12,870 assignments are fewer rows than 20,000
        # draws, so Cov(R) counts the support, whatever the scenario's mode
        if case == "ring12-exact":
            doc, mode = _ring12_estimate_doc(), {}
        else:
            n = 16
            doc = _identity_estimate_doc(n, [1, 0] * 8, {"kind": "mc", "count": 2000, "seed": 5})
            doc["design"] = {"kind": "complete-randomization", "m": 8}
            mode = {"mode": "mc", "count": 2000, "seed": 5}
        scn, table, B, metrics = _estimate_with_bound(tmp_path, capsys, doc, **mode)
        expected = r_covariance_opnorm(scn.design, scn.model, B, table)
        assert metrics["opnorm_cov_R_mode"] == "exact"
        assert metrics["opnorm_cov_R"] == expected.opnorm_cov_R
        assert metrics["opnorm_cov_R_pairs"] == expected.provenance["pairs"]
        assert metrics["opnorm_cov_R_matvecs"] == expected.provenance["matvecs"]

    def test_estimate_reports_mc_mse_past_the_draw_count(self, tmp_path, capsys):
        # 2^21 assignments are more rows than 20,000 draws: the empirical MSE
        # at theta comes from Cov(R)'s draws, in its mode and with its seed
        n = 21
        doc = _identity_estimate_doc(n, [1, 0] * 10 + [1], {"kind": "mc", "count": 500, "seed": 5})
        doc["theta"] = np.linspace(1.0, 2.0, 2 * n).tolist()
        scn, table, B, metrics = _estimate_with_bound(tmp_path, capsys, doc,
                                                      mode="mc", count=500, seed=5)
        assert metrics["empirical_mse_at_theta"] == estimation.empirical_mse(
            scn.design, scn.model, B, table, scn.theta,
            mode="mc", count=estimation.RCOV_DRAWS, seed=5)
        assert metrics["bound_value_at_theta"] == pytest.approx(
            linalg.quadratic_form_value(B, scn.theta, n))
        assert metrics["opnorm_cov_R_mode"] == "mc"

    def test_estimate_takes_one_moment_pass(self, tmp_path, capsys, monkeypatch):
        # Cov(R) and the empirical MSE at theta read one pass of R moments
        doc = _ring12_estimate_doc()
        doc["theta"] = np.linspace(-1.0, 2.0, 24).tolist()
        calls, moments = [], estimation._weighted_moments
        monkeypatch.setattr(estimation, "_weighted_moments",
                            lambda *args: calls.append(1) or moments(*args))
        scn, table, B, metrics = _estimate_with_bound(tmp_path, capsys, doc)
        assert len(calls) == 1
        assert metrics["empirical_mse_at_theta"] == estimation.empirical_mse(
            scn.design, scn.model, B, table, scn.theta)
        assert metrics["empirical_mse_at_theta"] > 0.0

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

    @staticmethod
    def run_child(*args):
        # the child process imports the same varbound as this one
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )

    def test_console_entry_point(self):
        proc = self.run_child("-m", "varbound.cli", "demo", "illustration")
        assert proc.returncode == 0
        assert "[FAIL]" not in proc.stdout

    def test_python_dash_m_varbound(self):
        proc = self.run_child("-m", "varbound", "demo", "illustration")
        assert proc.returncode == 0, proc.stderr
        assert "[FAIL]" not in proc.stdout
        assert self.run_child("-m", "varbound").returncode == 1

    def test_varbound_log_debug_shows_solver_progress(self, monkeypatch):
        monkeypatch.setenv("VARBOUND_LOG", "debug")
        proc = self.run_child("-m", "varbound.cli", "demo", "illustration")
        assert proc.returncode == 0
        assert "DEBUG varbound.solver: consensus ADMM converged after" in proc.stderr
        assert ("DEBUG varbound.experiment: build: mode exact, path enumerated, 2 rows "
                "(2 counted), passes 1, "
                "A from P2") in proc.stderr

    def test_estimate_imports_no_scipy(self, tmp_path, monkeypatch):
        # scipy is not a dependency, and importing its sparse solvers alone
        # costs a few tenths of a second of start-up
        doc = json.loads(builtin_scenario_path("illustration").read_text())
        doc["realized"] = {"z": [1, 0], "outcomes": {"1": 1.0, "4": 4.0}}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setenv("VARBOUND_LOG", "debug")
        code = ("import sys; from varbound.cli import main; code = main(sys.argv[1:]); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
                "sys.exit(code)")
        proc = self.run_child("-c", code, "estimate", "-c", str(path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        assert "DEBUG varbound.estimation: Cov(R): mode exact, 2 rows (2 counted)," in proc.stderr

    def test_gamma_sweep_script(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "gamma_sweep.py"
        proc = self.run_child(str(script), "4")
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()[2:]]
        assert len(rows) == 7
        opnorms = [float(row[1]) for row in rows]
        # the exact path is constant on this instance; allow solver precision
        for earlier, later in zip(opnorms, opnorms[1:]):
            assert later <= earlier + 1e-6
