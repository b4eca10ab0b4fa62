"""Scenario configuration: a JSON document describing the experiment, the
objective, and optional data, validated with JSON-pointer style findings.

Schema sketch::

    {
      "n": 2,
      "design":    {"kind": "bernoulli", "p": 0.5}
                 | {"kind": "complete-randomization", "m": 1}
                 | {"kind": "cluster", "clusters": [[0,1],[2,3]], "m": 1}
                 | {"kind": "paired", "pairs": [[0,1],[2,3]]}
                 | {"kind": "explicit", "assignments": [[1,0],[0,1]],
                    "probabilities": [0.5, 0.5]},
      "exposure":  {"rule": "identity"}
                 | {"rule": "spillover", "adjacency": [[1],[0]],
                    "contrast": ["direct", "indirect"]}
                 | {"rule": "table", "labels": [...], "contrast": [a, b],
                    "entries": [{"assignment": [...], "labels": [...]}, ...]},
      "estimator": {"kind": "horvitz-thompson", "covariates": "X.csv" | [[...]]},
      "threshold_c": 0.0,
      "mode": {"kind": "exact"} | {"kind": "mc", "count": 100000, "seed": 1},
      "objective": {"terms": [{"weight": 1.0, "term": "schatten", "p": 2},
                              {"weight": 0.01, "term": "targeted", "W": "W.csv"},
                              {"weight": 0.1, "term": "frobenius-squared"}]},
      "solver": {"rho": 1.0, "max_iterations": 50000, "eps_abs": 1e-9,
                 "eps_rel": 1e-7, "feasibility_tol": 1e-7},
      "theta": "theta.csv" | [...],
      "realized": "data.json" | {"z": [1,0], "outcomes": {"1": 3.2, "4": -0.5}}
    }

Adjacency lists are 0-based. Realized outcome keys are 1-based, matching the
theta coordinate convention used in reports, and convert to 0-based inside.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import matrixio
from .errors import InvalidDesign, ParseError, ValidationError, VarboundError
from .estimation import RealizedData
from .experiment import Design, EstimatorSpec, ExposureModel
from .solver import (
    FrobeniusSquaredTerm,
    Objective,
    SchattenTerm,
    SolverConfig,
    TargetedTerm,
)


@dataclass(frozen=True, eq=False)
class Scenario:
    n: int
    design: Design
    model: ExposureModel
    estimator: EstimatorSpec
    threshold_c: float = 0.0
    mode: dict = field(default_factory=lambda: {"kind": "exact"})
    objective: Objective | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    theta: np.ndarray | None = None
    realized: RealizedData | None = None


def builtin_scenario_path(name):
    """Path of a scenario shipped with the package (e.g. 'illustration')."""
    stem = name[:-5] if name.endswith(".json") else name
    ref = resources.files("varbound").joinpath(f"scenarios/{stem}.json")
    if not ref.is_file():
        raise ParseError(f"no built-in scenario named {name!r}")
    return Path(str(ref))


def resolve_config_path(spec):
    """An existing path, or the name of a shipped scenario."""
    path = Path(spec)
    if path.exists():
        return path
    try:
        return builtin_scenario_path(str(spec))
    except ParseError:
        raise ParseError(f"config {spec!r} is neither a file nor a built-in scenario")


class _Findings:
    """Collects (json-pointer, message) validation findings."""

    def __init__(self):
        self.items = []

    def add(self, pointer, message):
        self.items.append((pointer, str(message)))

    def raise_if_any(self):
        if self.items:
            raise ValidationError(self.items)


def _load_json(path):
    """The JSON document at ``path``; a key repeated within one object is an error."""

    def unique_keys(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"key {key!r} is repeated within one object")
            seen.add(key)
        return dict(pairs)

    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=unique_keys)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or a repeated key
        raise ParseError(f"{path}: {exc}") from exc


def _resolve_matrix(value, base, pointer, findings, symmetric=True):
    """A matrix given inline as nested arrays or as a path relative to the
    config; a file must hold a symmetric square matrix unless ``symmetric`` is
    false."""
    try:
        if isinstance(value, str):
            return matrixio.read_matrix(_relative(base, value), symmetric=symmetric)
        M = np.asarray(value, dtype=float)
        if not np.all(np.isfinite(M)):
            raise ValueError("entries must be finite")
        return M
    except (VarboundError, ValueError) as exc:
        findings.add(pointer, exc)
        return None


def _relative(base, value):
    path = Path(value)
    return path if path.is_absolute() else Path(base).parent / path


def _has_bool(value):
    """Whether a JSON value is, or nests, a boolean (which Python takes as 0 or 1)."""
    return isinstance(value, bool) or isinstance(value, list) and any(map(_has_bool, value))


def _parse_design(doc, n, findings):
    raw = doc.get("design")
    if not isinstance(raw, dict):
        findings.add("/design", "missing or not an object")
        return None
    kind = raw.get("kind")
    for key in ("p", "m", "clusters", "pairs", "probabilities"):
        if _has_bool(raw.get(key)):
            findings.add("/design", f"{key} must hold numbers, got {raw[key]!r}")
            return None
    try:
        if kind == "bernoulli":
            return Design.bernoulli(n, raw.get("p", 0.5))
        if kind == "complete-randomization":
            return Design.complete(n, int(raw["m"]))
        if kind == "cluster":
            return Design.cluster(raw["clusters"], int(raw["m"]))
        if kind == "paired":
            return Design.paired(raw["pairs"])
        if kind == "explicit":
            return Design.explicit(list(zip(raw["assignments"], raw["probabilities"])))
        findings.add("/design/kind", f"unknown design kind {kind!r}")
    except KeyError as exc:
        findings.add("/design", f"missing field {exc}")
    except (VarboundError, TypeError, ValueError) as exc:
        findings.add("/design", exc)
    return None


def _parse_exposure(doc, n, findings):
    raw = doc.get("exposure")
    if not isinstance(raw, dict):
        findings.add("/exposure", "missing or not an object")
        return None
    rule = raw.get("rule")
    try:
        if rule == "identity":
            return ExposureModel.identity(n)
        if rule == "spillover":
            adjacency = raw["adjacency"]
            if _has_bool(adjacency):
                findings.add("/exposure/adjacency", f"must hold unit indices, got {adjacency!r}")
                return None
            if len(adjacency) != n:
                findings.add("/exposure/adjacency", f"has {len(adjacency)} rows, expected {n}")
                return None
            contrast = tuple(raw.get("contrast", ("direct", "indirect")))
            return ExposureModel.spillover(adjacency, contrast)
        if rule == "table":
            entries = raw["entries"]
            table = {tuple(e["assignment"]): tuple(e["labels"]) for e in entries}
            return ExposureModel.from_table(
                n, tuple(raw["labels"]), table, tuple(raw["contrast"])
            )
        findings.add("/exposure/rule", f"unknown exposure rule {rule!r}")
    except KeyError as exc:
        findings.add("/exposure", f"missing field {exc}")
    except (VarboundError, TypeError, ValueError) as exc:
        findings.add("/exposure", exc)
    return None


def _parse_estimator(doc, base, findings):
    raw = doc.get("estimator")
    if not isinstance(raw, dict):
        findings.add("/estimator", "missing or not an object")
        return None
    covariates = None
    if "covariates" in raw:
        covariates = _resolve_matrix(raw["covariates"], base, "/estimator/covariates", findings,
                                     symmetric=False)
    try:
        return EstimatorSpec(kind=raw.get("kind", ""), covariates=covariates)
    except VarboundError as exc:
        findings.add("/estimator", exc)
        return None


def _parse_p(value, pointer, findings):
    if value in ("inf", "Infinity", "infinity"):
        return math.inf
    if type(value) in (int, float):  # a number, not a boolean or a string
        return float(value)
    findings.add(pointer, f"bad Schatten exponent {value!r}")
    return None


def _parse_objective(doc, base, findings):
    raw = doc.get("objective")
    if raw is None:
        return None
    terms = raw.get("terms")
    if not isinstance(terms, list) or not terms:
        findings.add("/objective/terms", "must be a nonempty list")
        return None
    parsed = []
    for i, item in enumerate(terms):
        ptr = f"/objective/terms/{i}"
        weight = item.get("weight", 1.0)
        if type(weight) not in (int, float):  # nor a boolean
            findings.add(f"{ptr}/weight", f"must be a number, got {weight!r}")
            return None
        name = item.get("term")
        try:
            if name == "schatten":
                p = _parse_p(item.get("p", 2), f"{ptr}/p", findings)
                if p is None:
                    return None
                parsed.append((float(weight), SchattenTerm(p=p)))
            elif name == "targeted":
                W = _resolve_matrix(item.get("W"), base, f"{ptr}/W", findings)
                if W is None:
                    return None
                parsed.append((float(weight), TargetedTerm(W=W)))
            elif name == "frobenius-squared":
                parsed.append((float(weight), FrobeniusSquaredTerm()))
            else:
                findings.add(f"{ptr}/term", f"unknown term {name!r}")
                return None
        except (VarboundError, TypeError, ValueError) as exc:
            findings.add(ptr, exc)
            return None
    try:
        return Objective.composite(parsed)
    except VarboundError as exc:
        findings.add("/objective", exc)
        return None


_SOLVER_KEYS = ("rho", "max_iterations", "eps_abs", "eps_rel", "feasibility_tol")


def _parse_solver(doc, findings):
    raw = doc.get("solver", {})
    if not isinstance(raw, dict):
        findings.add("/solver", "must be an object")
        return SolverConfig()
    values = {}
    for key, value in raw.items():
        pointer = f"/solver/{key}"
        if key not in _SOLVER_KEYS:
            findings.add(pointer, "unknown solver option")
        elif key == "max_iterations":
            values[key] = _integer(value, 1, pointer, findings)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            values[key] = float(value)
        else:
            findings.add(pointer, f"must be a number, got {value!r}")
    try:
        return SolverConfig(**{key: v for key, v in values.items() if v is not None})
    except ValueError as exc:
        findings.add("/solver", exc)
        return SolverConfig()


def _integer(value, low, pointer, findings):
    """``value`` as an int of at least ``low`` (an integral JSON number), or a
    finding and None."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if integral and not isinstance(value, bool) and value >= low:
        return int(value)
    findings.add(pointer, f"must be an integer >= {low}, got {value!r}")
    return None


def _parse_mode(doc, findings):
    raw = doc.get("mode", {"kind": "exact"})
    if not isinstance(raw, dict) or raw.get("kind") not in ("exact", "mc"):
        findings.add("/mode", "must be {'kind': 'exact'} or {'kind': 'mc', ...}")
        return {"kind": "exact"}
    if raw["kind"] == "mc":
        out = {"kind": "mc"}
        if "count" not in raw:
            findings.add("/mode/count", "mc mode needs a sample count")
        else:
            out["count"] = _integer(raw["count"], 1, "/mode/count", findings)
        out["seed"] = _integer(raw.get("seed", 0), 0, "/mode/seed", findings)
        return out
    return {"kind": "exact"}


def _parse_realized(doc, base, n, findings):
    raw = doc.get("realized")
    if raw is None:
        return None
    if isinstance(raw, str):
        try:
            raw = _load_json(_relative(base, raw))
        except ParseError as exc:
            findings.add("/realized", exc)
            return None
    try:
        z = raw["z"]
        outcomes = raw["outcomes"]
        if len(z) != n:
            findings.add("/realized/z", f"length {len(z)} != n = {n}")
            return None
        # outcome keys are 1-based in files
        converted = {}
        for key, value in outcomes.items():
            k = int(key)
            if not 1 <= k <= 2 * n:
                findings.add(f"/realized/outcomes/{key}", f"index out of range 1..{2 * n}")
                return None
            if k - 1 in converted:
                findings.add(f"/realized/outcomes/{key}", f"coordinate {k} given twice")
                return None
            converted[k - 1] = float(value)
            if not math.isfinite(converted[k - 1]):
                findings.add(f"/realized/outcomes/{key}", f"must be finite, got {value!r}")
                return None
        return RealizedData(z=tuple(z), outcomes=converted)
    except InvalidDesign as exc:  # raised for z alone: entries other than 0 or 1
        findings.add("/realized/z", exc)
        return None
    except (KeyError, TypeError, ValueError) as exc:
        findings.add("/realized", exc)
        return None


def parse_scenario(path):
    """Parse and fully validate a scenario file.

    Raises ParseError for malformed JSON and ValidationError carrying every
    finding (JSON-pointer, message) otherwise.
    """
    path = Path(path)
    doc = _load_json(path)
    findings = _Findings()
    if not isinstance(doc, dict):
        findings.add("", "scenario must be a JSON object")
        findings.raise_if_any()
    n = doc.get("n")
    if type(n) is not int or n < 1:  # type, not isinstance: a JSON boolean is an int
        findings.add("/n", f"must be a positive integer, got {n!r}")
        findings.raise_if_any()

    design = _parse_design(doc, n, findings)
    model = _parse_exposure(doc, n, findings)
    estimator = _parse_estimator(doc, path, findings)
    threshold_c = doc.get("threshold_c", 0.0)
    if type(threshold_c) not in (int, float) or not 0 <= threshold_c < math.inf:  # nor a boolean
        findings.add("/threshold_c", f"must be a finite nonnegative number, got {threshold_c!r}")
        threshold_c = 0.0
    mode = _parse_mode(doc, findings)
    objective = _parse_objective(doc, path, findings)
    solver = _parse_solver(doc, findings)

    theta = None
    if "theta" in doc:
        raw_theta = doc["theta"]
        try:
            if isinstance(raw_theta, str):
                theta = matrixio.read_vector(_relative(path, raw_theta))
            else:
                theta = np.asarray(raw_theta, dtype=float)
            if theta.shape != (2 * n,):
                findings.add("/theta", f"length {theta.shape} != 2n = {2 * n}")
            elif not np.all(np.isfinite(theta)):
                findings.add("/theta", "entries must be finite")
        except (VarboundError, ValueError) as exc:
            findings.add("/theta", exc)

    realized = _parse_realized(doc, path, n, findings)

    if design is not None and design.n != n:
        findings.add("/design", f"design is for {design.n} units, scenario says {n}")
    if model is not None and model.n != n:
        findings.add("/exposure", f"exposure model is for {model.n} units, scenario says {n}")
    if (
        estimator is not None
        and estimator.covariates is not None
        and estimator.covariates.shape[0] != n
    ):
        findings.add(
            "/estimator/covariates",
            f"{estimator.covariates.shape[0]} rows, expected {n}",
        )

    findings.raise_if_any()
    return Scenario(
        n=n, design=design, model=model, estimator=estimator,
        threshold_c=float(threshold_c), mode=mode, objective=objective,
        solver=solver, theta=theta, realized=realized,
    )
