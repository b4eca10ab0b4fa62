"""Tracing from outside the program, for the traced run (``--trace 1``).

``Tracer.install`` replaces every public function of the traced modules with a
timing and counting wrapper, in every ``varbound`` namespace that binds it:
``estimation`` imports ``enumerate_assignments`` and friends from
``experiment`` by name, and the package ``__init__`` re-exports them, so
patching the defining module alone would miss those calls.

Each call made while a job is open becomes a span (id, parent id, name, start,
end, self time, attributes), kept in memory and written out when the run ends.
The per-assignment scalar functions run hundreds of thousands of times per
job; their calls are folded into per-job counts and times instead of spans.
Self time is a span's duration minus the time of its traced children.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import threading
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

TRACED_MODULES = ("experiment", "solver", "linalg", "estimation", "scenario", "matrixio")
LAYERS = ("cli",) + TRACED_MODULES

FOLDED = frozenset({
    "experiment.compute_exposures",
    "experiment.observation_indices",
    "experiment.coefficient_vector",
    "experiment.estimator_value",
    "estimation.observe",
})
SCALAR = ("experiment.compute_exposures", "experiment.observation_indices",
          "experiment.coefficient_vector")
EIG = ("linalg.sym_eig", "linalg.eigenvalues")

# one value per metric and job; the run reports the median over its jobs
PER_LAYER = {
    "experiment.build_s": "s",
    "experiment.enumerate_s": "s",
    "experiment.sample_s": "s",
    "experiment.scalar_calls": "count",
    "experiment.support_passes_per_build": "count",
    "experiment.self_s": "s",
    "solver.bound_s": "s",
    "solver.bound_iterations": "count",
    "solver.s_per_iteration": "s",
    "solver.admissibility_s": "s",
    "solver.admissibility_iterations": "count",
    "solver.validate_s": "s",
    "solver.objective_value": "value",
    "solver.min_eig_slack": "value",
    "solver.alpha": "value",
    "solver.self_s": "s",
    "linalg.eig_calls": "count",
    "linalg.eig_s": "s",
    "linalg.eig_share": "ratio",
    "linalg.check_symmetric_calls": "count",
    "linalg.check_symmetric_s": "s",
    "linalg.project_psd_calls": "count",
    "linalg.prox_schatten_calls": "count",
    "linalg.self_s": "s",
    "estimation.rcov_s": "s",
    "estimation.rcov_gram_bytes": "bytes",
    "estimation.rcov_peak_mb": "MB",
    "estimation.rcov_matvecs": "count",
    "estimation.empirical_mse_s": "s",
    "estimation.ht_estimate_calls": "count",
    "estimation.ht_estimate_s": "s",
    "estimation.self_s": "s",
    "scenario.parse_s": "s",
    "scenario.self_s": "s",
    "matrixio.read_s": "s",
    "matrixio.write_s": "s",
    "matrixio.bytes_written": "bytes",
    "matrixio.self_s": "s",
    "cli.self_s": "s",
    "trace.job_s": "s",
}


def _dim(args, kwargs, result):
    return {"dim": int(np.shape(args[0])[0])}


def _build(args, kwargs, result):
    problem, _ = result
    return {"n": problem.n, "mode": kwargs.get("mode", "exact"), "estimator": args[2].kind}


def _bound(args, kwargs, result):
    r = result.report
    terms = "+".join(type(t).__name__ for _, t in args[1].terms)
    return {"dim": int(result.S_star.shape[0]), "objective": terms,
            "iterations": r.iterations, "objective_value": r.objective_value,
            "min_eig_slack": r.min_eig_slack}


def _admissibility(args, kwargs, result):
    return {"dim": int(result.witness.shape[0]), "iterations": result.report.iterations,
            "alpha": result.alpha}


def _written(args, kwargs, result):
    return {"bytes": result.stat().st_size}


ANNOTATE = {
    "experiment.build_variance_problem": _build,
    "solver.solve_optvb": _bound,
    "solver.test_admissibility": _admissibility,
    "linalg.sym_eig": _dim,
    "linalg.eigenvalues": _dim,
    "matrixio.write_matrix": _written,
    "matrixio.write_vector": _written,
}


def _rcov_probe(fn, args, kwargs):
    """Peak traced memory inside the call, and the bytes of the dense Gram and
    R matrices as computed from their shapes (not measured)."""
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    tracemalloc.start()
    tracemalloc.reset_peak()

    def done():
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        n, mode = call.arguments["model"].n, call.arguments["mode"]
        attrs = {"n": n, "mode": mode, "peak_mb": peak / 2**20, "gram_bytes": 0}
        if mode == "mc":
            dim = (2 * n) ** 2
            attrs["gram_bytes"] = 8 * dim * dim + 8 * int(call.arguments["count"]) * dim
        return attrs

    return done


PROBES = {"estimation.r_covariance_opnorm": _rcov_probe}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, self_s, attrs)
        self.folded = defaultdict(lambda: [0, 0.0, 0.0])  # (job id, name) -> calls, total, self
        self._stack = []  # open frames: [id, name, start, child_s, attrs]
        self._ids = itertools.count(1)
        self._patched = []
        self._thread = threading.get_ident()

    # -- spans ----------------------------------------------------------------

    def open(self, name, **attrs):
        frame = [next(self._ids), name, perf_counter(), 0.0, attrs]
        self._stack.append(frame)
        return frame

    def close(self, frame, end=None):
        end = perf_counter() if end is None else end
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        span_id, name, start, child, attrs = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if name in FOLDED:
            agg = self.folded[(self._stack[0][0], name)]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child
        else:
            self.spans.append((span_id, parent[0] if parent else None, name, start, end,
                               dur - child, attrs or None))
        return dur

    def _wrap(self, name, fn):
        annotate = ANNOTATE.get(name)
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            frame = self.open(name)
            done = probe(fn, args, kwargs) if probe else None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                frame[4]["raised"] = type(exc).__name__
                if done:
                    frame[4].update(done())
                self.close(frame, end)
                raise
            end = perf_counter()
            if done:
                frame[4].update(done())
            if annotate:
                frame[4].update(annotate(args, kwargs, result))
            self.close(frame, end)
            return result

        return wrapper

    def _count_matvecs(self, fn):
        """Power iteration is private to estimation; count its matvecs into the
        enclosing Cov(R) span."""

        @functools.wraps(fn)
        def wrapper(matvec, dim, *args, **kwargs):
            if not self._stack:
                return fn(matvec, dim, *args, **kwargs)
            attrs = self._stack[-1][4]
            attrs.setdefault("matvecs", 0)

            def counted(v):
                attrs["matvecs"] += 1
                return matvec(v)

            return fn(counted, dim, *args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self):
        from varbound import estimation

        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"varbound.{short}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "varbound" or name.startswith("varbound."))]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        original = estimation._power_iteration_opnorm
        self._patched.append((estimation, "_power_iteration_opnorm", original))
        estimation._power_iteration_opnorm = self._count_matvecs(original)
        return self

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ----------------------------------------------------------------

    def jobs(self):
        """Spans grouped by the job span at the root of their tree."""
        root, grouped = {}, defaultdict(dict)
        # a parent opens before its children, so it has the smaller id
        for span in sorted(self.spans):
            sid, parent = span[0], span[1]
            root[sid] = sid if parent is None else root[parent]
            grouped[root[sid]][sid] = span
        return grouped


def _ancestor_names(span, members):
    names = []
    parent = span[1]
    while parent in members:
        names.append(members[parent][2])
        parent = members[parent][1]
    return names


def job_metrics(tracer, members, job_id):
    """Per-layer numbers of one traced job; ``members`` maps span id to span
    for the job span and all its descendants."""
    spans = list(members.values())
    folded = {name: agg for (jid, name), agg in tracer.folded.items() if jid == job_id}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)

    def named(*names):
        return [s for name in names for s in by_name[name]]

    def total(*names):
        return sum(s[4] - s[3] for s in named(*names))

    def attrs(name, key):
        return [s[6][key] for s in named(name) if s[6] and key in s[6]]

    def attr_sum(name, key):
        return sum(attrs(name, key))

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s[2].split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += s[5]
    for name, (_, _, self_s) in folded.items():
        layer_self[name.split(".", 1)[0]] += self_s

    builds = named("experiment.build_variance_problem")
    passes = [s for s in named("experiment.enumerate_assignments", "experiment.sample_assignments")
              if "experiment.build_variance_problem" in _ancestor_names(s, members)]
    iterations = attr_sum("solver.solve_optvb", "iterations")
    solver_spans = [s for s in spans if s[2].startswith("solver.")
                    and not any(a.startswith("solver.") for a in _ancestor_names(s, members))]
    solver_s = sum(s[4] - s[3] for s in solver_spans)
    eig_in_solver = sum(s[5] for s in named(*EIG)
                        if any(a.startswith("solver.") for a in _ancestor_names(s, members)))
    job = members[job_id]

    return {
        "experiment.build_s": total("experiment.build_variance_problem"),
        "experiment.enumerate_s": total("experiment.enumerate_assignments"),
        "experiment.sample_s": total("experiment.sample_assignments"),
        "experiment.scalar_calls": sum(folded.get(n, (0,))[0] for n in SCALAR),
        "experiment.support_passes_per_build": len(passes) / len(builds) if builds else 0.0,
        "solver.bound_s": total("solver.solve_optvb"),
        "solver.bound_iterations": iterations,
        "solver.s_per_iteration": total("solver.solve_optvb") / iterations if iterations else 0.0,
        "solver.admissibility_s": total("solver.test_admissibility"),
        "solver.admissibility_iterations": attr_sum("solver.test_admissibility", "iterations"),
        "solver.validate_s": total("solver.validate_bound"),
        "solver.objective_value": attr_sum("solver.solve_optvb", "objective_value"),
        "solver.min_eig_slack": min(attrs("solver.solve_optvb", "min_eig_slack"), default=0.0),
        "solver.alpha": max(attrs("solver.test_admissibility", "alpha"), default=0.0),
        "linalg.eig_calls": len(named(*EIG)),
        "linalg.eig_s": sum(s[5] for s in named(*EIG)),
        "linalg.eig_share": eig_in_solver / solver_s if solver_s else 0.0,
        "linalg.check_symmetric_calls": len(named("linalg.check_symmetric")),
        "linalg.check_symmetric_s": total("linalg.check_symmetric"),
        "linalg.project_psd_calls": len(named("linalg.project_psd")),
        "linalg.prox_schatten_calls": len(named("linalg.prox_schatten")),
        "estimation.rcov_s": total("estimation.r_covariance_opnorm"),
        "estimation.rcov_gram_bytes": attr_sum("estimation.r_covariance_opnorm", "gram_bytes"),
        "estimation.rcov_peak_mb": max(attrs("estimation.r_covariance_opnorm", "peak_mb"),
                                       default=0.0),
        "estimation.rcov_matvecs": attr_sum("estimation.r_covariance_opnorm", "matvecs"),
        "estimation.empirical_mse_s": total("estimation.empirical_mse"),
        "estimation.ht_estimate_calls": len(named("estimation.ht_bound_estimate")),
        "estimation.ht_estimate_s": total("estimation.ht_bound_estimate"),
        "scenario.parse_s": total("scenario.parse_scenario"),
        "matrixio.read_s": total("matrixio.read_matrix", "matrixio.read_vector"),
        "matrixio.write_s": total("matrixio.write_matrix", "matrixio.write_vector"),
        "matrixio.bytes_written": attr_sum("matrixio.write_matrix", "bytes")
        + attr_sum("matrixio.write_vector", "bytes"),
        "trace.job_s": job[4] - job[3],
        **{f"{layer}.self_s": v for layer, v in layer_self.items()},
    }


def eig_by_dim(tracer):
    """Per-call self time of sym_eig / eigenvalues (eigh or eigvalsh plus
    ordering), grouped by matrix dimension, over every traced job."""
    groups = defaultdict(list)
    for s in tracer.spans:
        if s[2] in EIG and s[6] and "dim" in s[6]:
            groups[s[6]["dim"]].append(s[5])
    return {
        dim: {"calls": len(v), "median_ms": 1e3 * statistics.median(v),
              "p90_ms": 1e3 * float(np.percentile(v, 90)), "max_ms": 1e3 * max(v),
              "total_s": sum(v)}
        for dim, v in sorted(groups.items())
    }


def baseline_points(tracer):
    """The ROADMAP baseline points this run contains, as medians over its spans."""
    points = {}
    done = [(s, s[6]) for s in tracer.spans if s[6] and "raised" not in s[6]]

    def add(key, spans, fields):
        if spans:
            points[key] = {"calls": len(spans),
                           "seconds": statistics.median(s[4] - s[3] for s in spans)}
            for f in fields:
                points[key][f] = statistics.median(s[6][f] for s in spans)

    add("exact A+P2 build, ring HT n=16",
        [s for s, a in done if s[2] == "experiment.build_variance_problem"
         and a["n"] == 16 and a["mode"] == "exact" and a["estimator"] == "horvitz-thompson"], ())
    for label, dim, objective in (
        ("composite opnorm+0.01*frobenius^2 bound, n=40", 80, "SchattenTerm+FrobeniusSquaredTerm"),
        ("frobenius^2 bound, n=80", 160, "FrobeniusSquaredTerm"),
    ):
        add(label, [s for s, a in done if s[2] == "solver.solve_optvb"
                    and a["dim"] == dim and a["objective"] == objective], ("iterations",))
    add("Cov(R), MC 20,000 draws, n=20",
        [s for s, a in done if s[2] == "estimation.r_covariance_opnorm"
         and a["n"] == 20 and a["mode"] == "mc"],
        ("gram_bytes", "matvecs", "peak_mb"))
    return points
