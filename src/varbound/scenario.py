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

Three readers decide what a value is, and raise a finding at the value's
pointer when it is not: an object; a number, a JSON int or float (not a
boolean, a numeric string or null) or arrays of them; an integer, an integral
JSON number (2.0 reads as 2, 2.7 and "2" do not). What counts as a JSON number
is matrixio's rule, which inline matrices and theta share with matrix files.
Findings are raised where they are found; ``_Findings.read`` records them,
and records a library constructor's error or a missing field at the pointer of
the section it reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from . import matrixio
from .errors import ParseError, ValidationError, VarboundError
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


def _finding(pointer, message):
    return ValidationError([(pointer, str(message))])


def _at(pointer, parse, *args, **kwargs):
    """``parse(*args, **kwargs)``, raising what it raises as a finding: a
    reader's at the pointer it names, a missing field or any other error at
    ``pointer``."""
    try:
        return parse(*args, **kwargs)
    except ValidationError:
        raise
    except KeyError as exc:
        raise _finding(pointer, f"missing field {exc}") from None
    except (VarboundError, TypeError, ValueError) as exc:
        raise _finding(pointer, exc) from None


class _Findings:
    """Collects (json-pointer, message) validation findings."""

    def __init__(self):
        self.items = []

    def read(self, pointer, parse, *args, **kwargs):
        """``_at(pointer, parse, ...)``, or None with its finding recorded."""
        try:
            return _at(pointer, parse, *args, **kwargs)
        except ValidationError as exc:
            self.items += exc.findings
            return None

    def raise_if_any(self):
        if self.items:
            raise ValidationError(self.items)


def _object(value, pointer):
    if type(value) is dict:
        return value
    raise _finding(pointer, f"must be an object, got {value!r}")


def _number(value, pointer):
    """A JSON number, or arrays of them with each entry read at its own pointer."""
    if type(value) is list:
        return [_number(x, f"{pointer}/{i}") for i, x in enumerate(value)]
    if matrixio._is_number(value):
        return value
    raise _finding(pointer, f"must be a number, got {value!r}")


def _integer(value, pointer, low=0, depth=0):
    """An integral JSON number of at least ``low``, as an int; with ``depth``,
    arrays of them nested that deep, read at ``pointer`` as a whole."""
    if depth and type(value) is list:
        return [_integer(x, pointer, low, depth - 1) for x in value]
    if not depth and matrixio._is_number(value) and value % 1 == 0 and value >= low:
        return int(value)
    raise _finding(pointer, f"must be {'an array' if depth else f'an integer >= {low}'}, "
                            f"got {value!r}")


def _labels(value, pointer, length=None):
    """An array of exposure labels, JSON strings or numbers (no booleans, null
    or nested arrays), of ``length`` entries when given, as a tuple."""
    if (type(value) is list and (length is None or len(value) == length)
            and all(type(x) is str or matrixio._is_number(x) for x in value)):
        return tuple(value)
    size = "an array" if length is None else f"an array of {length}"
    raise _finding(pointer, f"must be {size} strings or numbers, got {value!r}")


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


def _relative(base, value):
    path = Path(value)
    return path if path.is_absolute() else Path(base).parent / path


def _matrix(value, base, pointer, symmetric=True):
    """A matrix given inline as nested arrays or as a path relative to the
    config; a file must hold a symmetric square matrix unless ``symmetric`` is
    false. A reader: what the matrix fails is a finding at ``pointer``."""
    if isinstance(value, str):
        return _at(pointer, matrixio.read_matrix, _relative(base, value), symmetric=symmetric)
    return _at(pointer, matrixio._json_array, value)


def _design(raw, n):
    raw = _object(raw, "/design")
    kind = raw.get("kind")
    if kind == "bernoulli":
        design = Design.bernoulli(n, _number(raw.get("p", 0.5), "/design/p"))
    elif kind == "complete-randomization":
        design = Design.complete(n, _integer(raw["m"], "/design/m"))
    elif kind == "cluster":
        design = Design.cluster(_integer(raw["clusters"], "/design/clusters", depth=2),
                                _integer(raw["m"], "/design/m"))
    elif kind == "paired":
        design = Design.paired(_integer(raw["pairs"], "/design/pairs", depth=2))
    elif kind == "explicit":
        assignments = _integer(raw["assignments"], "/design/assignments", depth=2)
        probabilities = _number(raw["probabilities"], "/design/probabilities")
        design = Design.explicit(list(zip(assignments, probabilities, strict=True)))
    else:
        raise _finding("/design/kind", f"unknown design kind {kind!r}")
    if design.n != n:
        raise ValueError(f"design is for {design.n} units, scenario says {n}")
    return design


def _exposure(raw, n):
    raw = _object(raw, "/exposure")
    rule = raw.get("rule")
    if rule == "identity":
        return ExposureModel.identity(n)
    if rule == "spillover":
        adjacency = _integer(raw["adjacency"], "/exposure/adjacency", depth=2)
        if len(adjacency) != n:
            raise _finding("/exposure/adjacency", f"has {len(adjacency)} rows, expected {n}")
        contrast = _labels(raw.get("contrast", ["direct", "indirect"]), "/exposure/contrast", 2)
        return ExposureModel.spillover(adjacency, contrast)
    if rule == "table":
        table = {}
        for i, entry in enumerate(raw["entries"]):
            pointer = f"/exposure/entries/{i}"
            z = tuple(_integer(_object(entry, pointer)["assignment"], f"{pointer}/assignment",
                               depth=1))
            if z in table:
                raise _finding(f"{pointer}/assignment", f"assignment {list(z)} is given twice")
            table[z] = _labels(entry["labels"], f"{pointer}/labels")
        return ExposureModel.from_table(n, _labels(raw["labels"], "/exposure/labels"), table,
                                        _labels(raw["contrast"], "/exposure/contrast", 2))
    raise _finding("/exposure/rule", f"unknown exposure rule {rule!r}")


def _estimator(raw, base, n):
    raw = _object(raw, "/estimator")
    covariates = None
    if "covariates" in raw:
        covariates = _matrix(raw["covariates"], base, "/estimator/covariates", symmetric=False)
        if len(covariates) != n:
            raise _finding("/estimator/covariates", f"{len(covariates)} rows, expected {n}")
    return EstimatorSpec(kind=raw.get("kind", ""), covariates=covariates)


def _threshold(value):
    c = _number(value, "/threshold_c")
    if not 0 <= c < math.inf:
        raise ValueError(f"must be a finite nonnegative number, got {c!r}")
    return float(c)


def _mode(raw):
    kind = _object(raw, "/mode").get("kind")
    if kind == "exact":
        return {"kind": "exact"}
    if kind != "mc":
        raise ValueError("must be {'kind': 'exact'} or {'kind': 'mc', ...}")
    if "count" not in raw:
        raise _finding("/mode/count", "mc mode needs a sample count")
    return {"kind": "mc", "count": _integer(raw["count"], "/mode/count", 1),
            "seed": _integer(raw.get("seed", 0), "/mode/seed")}


def _term(item, pointer, base):
    """One (weight, term) pair of the objective."""
    item = _object(item, pointer)
    weight = float(_number(item.get("weight", 1.0), f"{pointer}/weight"))
    name = item.get("term")
    if name == "schatten":
        p = item.get("p", 2)
        p = math.inf if p in ("inf", "Infinity", "infinity") else _number(p, f"{pointer}/p")
        return weight, SchattenTerm(p=float(p))
    if name == "targeted":
        return weight, TargetedTerm(W=_matrix(item.get("W"), base, f"{pointer}/W"))
    if name == "frobenius-squared":
        return weight, FrobeniusSquaredTerm()
    raise _finding(f"{pointer}/term", f"unknown term {name!r}")


def _objective(raw, base):
    terms = _object(raw, "/objective").get("terms")
    if not isinstance(terms, list) or not terms:
        raise _finding("/objective/terms", "must be a nonempty list")
    return Objective.composite(
        [_at(f"/objective/terms/{i}", _term, item, f"/objective/terms/{i}", base)
         for i, item in enumerate(terms)])


def _solver_option(key, value):
    pointer = f"/solver/{key}"
    if key not in {f.name for f in fields(SolverConfig)}:
        raise _finding(pointer, "unknown solver option")
    if key == "max_iterations":
        return _integer(value, pointer, 1)
    return float(_number(value, pointer))


def _theta(value, base, n):
    theta = (matrixio.read_vector(_relative(base, value)) if isinstance(value, str)
             else matrixio._json_array(value))
    if theta.shape != (2 * n,):
        raise ValueError(f"length {theta.shape} != 2n = {2 * n}")
    return theta


def _realized(raw, base, n):
    """Realized data inline or in a JSON file; outcome keys are 1-based
    coordinates in ASCII digits ("01" names coordinate 1 again)."""
    raw = _object(_load_json(_relative(base, raw)) if isinstance(raw, str) else raw, "/realized")
    z = _integer(raw["z"], "/realized/z", depth=1)
    if len(z) != n:
        raise _finding("/realized/z", f"length {len(z)} != n = {n}")
    outcomes = {}
    for key, value in _object(raw["outcomes"], "/realized/outcomes").items():
        pointer = f"/realized/outcomes/{key}"
        k = int(key) if key.isascii() and key.isdigit() else 0  # int() reads "1_0" and " 1"
        if not 1 <= k <= 2 * n:
            raise _finding(pointer, f"must name a coordinate 1..{2 * n} in decimal digits")
        if k - 1 in outcomes:
            raise _finding(pointer, f"coordinate {k} given twice")
        outcomes[k - 1] = float(_number(value, pointer))
        if not math.isfinite(outcomes[k - 1]):
            raise _finding(pointer, f"must be finite, got {value!r}")
    return _at("/realized/z", RealizedData, z=tuple(z), outcomes=outcomes)  # only z can fail


def parse_scenario(path):
    """Parse and fully validate a scenario file.

    Raises ParseError for malformed JSON and ValidationError carrying every
    finding (JSON-pointer, message) otherwise; a bad ``n`` stops the parse.
    """
    path = Path(path)
    doc = _object(_load_json(path), "")
    n = _integer(doc.get("n"), "/n", 1)
    if (2 * n) ** 2 > np.iinfo(np.intp).max:
        raise _finding("/n", f"{n} units are too many: a {2 * n} x {2 * n} matrix "
                             "cannot be indexed")
    findings = _Findings()
    read = findings.read
    design = read("/design", _design, doc.get("design"), n)
    model = read("/exposure", _exposure, doc.get("exposure"), n)
    estimator = read("/estimator", _estimator, doc.get("estimator"), path, n)
    threshold_c = read("/threshold_c", _threshold, doc.get("threshold_c", 0.0))
    mode = read("/mode", _mode, doc.get("mode", {"kind": "exact"}))
    objective = (read("/objective", _objective, doc["objective"], path)
                 if "objective" in doc else None)
    options = read("/solver", _object, doc.get("solver", {}), "/solver") or {}
    options = {key: read(f"/solver/{key}", _solver_option, key, v) for key, v in options.items()}
    solver = read("/solver", SolverConfig, **{k: v for k, v in options.items() if v is not None})
    theta = read("/theta", _theta, doc["theta"], path, n) if "theta" in doc else None
    realized = (read("/realized", _realized, doc["realized"], path, n)
                if "realized" in doc else None)
    findings.raise_if_any()
    return Scenario(
        n=n, design=design, model=model, estimator=estimator, threshold_c=threshold_c,
        mode=mode, objective=objective, solver=solver, theta=theta, realized=realized,
    )
