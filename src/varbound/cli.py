"""Batch command-line front end.

Commands::

    varbound probe      -c scenario.json -o out/    # A, P2, Omega, pi
    varbound bound      -c scenario.json -o out/    # slack, bound, report
    varbound admissible -c scenario.json --slack S.csv [-o out/]
    varbound estimate   -c scenario.json [--bound B.csv] -o out/
    varbound demo illustration [-o out/]

Exit codes: 0 success (admissible), 1 usage error, 2 computation error,
3 inadmissible. Set VARBOUND_LOG to error, info, or debug.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import estimation, experiment, linalg, matrixio, solver
from .errors import DimensionMismatch, VarboundError
from .scenario import builtin_scenario_path, parse_scenario, resolve_config_path

log = logging.getLogger("varbound")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ERROR = 2
EXIT_INADMISSIBLE = 3


def _setup_logging():
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("VARBOUND_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _seed(scn, args):
    """The run's Monte Carlo seed: --seed, else the scenario's, else 0."""
    return args.seed if args.seed is not None else scn.mode.get("seed", 0)


def _mode_kwargs(scn, args):
    if scn.mode["kind"] == "exact":
        return {"mode": "exact"}
    return {"mode": "mc", "count": scn.mode["count"], "seed": _seed(scn, args)}


def _omega_json(omega):
    # pairs are 1-based on disk, matching the theta coordinate convention
    return {
        "indexing": "1-based",
        "pairs": sorted([k + 1, l + 1] for k, l in omega),
    }


def _build(scn, args):
    kwargs = _mode_kwargs(scn, args)
    problem, table = experiment.build_variance_problem(
        scn.design, scn.model, scn.estimator, threshold_c=scn.threshold_c, **kwargs
    )
    return problem, table, kwargs


def cmd_probe(scn, args, out_dir, inputs):
    problem, table, kwargs = _build(scn, args)
    fmt = args.format
    outputs = {
        "A": str(matrixio.write_matrix(problem.A, Path(out_dir) / f"A.{fmt}", fmt)),
        "P2": str(matrixio.write_matrix(table.P2, Path(out_dir) / f"P2.{fmt}", fmt)),
        "pi": str(matrixio.write_vector(table.pi, Path(out_dir) / "pi.csv")),
    }
    omega_path = Path(out_dir) / "omega.json"
    omega_path.write_text(json.dumps(_omega_json(problem.omega), indent=2) + "\n")
    outputs["omega"] = str(omega_path)
    metrics = {
        "n": problem.n,
        "mode": kwargs["mode"],
        "seed": kwargs.get("seed"),
        "omega_size": len(problem.omega),
        "trace_A": float(np.trace(problem.A)),
        "min_eig_A": linalg.min_eigenvalue(problem.A),
    }
    return EXIT_OK, outputs, metrics


def _solve(scn, problem):
    objective = scn.objective or solver.Objective.frobenius_squared()
    return solver.solve_optvb(problem, objective, scn.solver)


def cmd_bound(scn, args, out_dir, inputs):
    problem, table, kwargs = _build(scn, args)
    result = _solve(scn, problem)
    fmt = args.format
    outputs = {
        "S": str(matrixio.write_matrix(result.S_star, Path(out_dir) / f"S.{fmt}", fmt)),
        "B": str(matrixio.write_matrix(result.B_star, Path(out_dir) / f"B.{fmt}", fmt)),
    }
    check = solver.validate_bound(problem.A, result.B_star, problem.omega)
    metrics = {
        "mode": kwargs["mode"],
        "seed": kwargs.get("seed"),
        **result.report.as_dict(),
        **check.as_dict(),
    }
    return EXIT_OK, outputs, metrics


def cmd_admissible(scn, args, out_dir, inputs):
    S = matrixio.read_matrix(args.slack)
    inputs["slack"] = _digest(args.slack)
    if S.shape != (2 * scn.n, 2 * scn.n):
        raise DimensionMismatch(
            f"slack shape {S.shape} does not match the scenario: n = {scn.n} needs "
            f"({2 * scn.n}, {2 * scn.n})")
    # the verdict depends on S and Omega alone: build P2, not A
    table = experiment.pair_observation_probabilities(
        scn.design, scn.model, **_mode_kwargs(scn, args))
    omega = experiment.unobservable_pairs(table, scn.threshold_c)
    verdict = solver.test_admissibility(S, omega, scn.solver)
    metrics = {
        "alpha": verdict.alpha,
        "admissible": verdict.admissible,
        "slack_rank": verdict.slack_rank,
        "omega_size": len(omega),
        **{f"solver_{k}": v for k, v in verdict.report.as_dict().items()},
    }
    outputs = {}
    if out_dir is not None:
        path = Path(out_dir) / f"witness.{args.format}"
        outputs["witness"] = str(matrixio.write_matrix(verdict.witness, path, args.format))
    print(json.dumps({"alpha": verdict.alpha, "admissible": verdict.admissible}))
    return (EXIT_OK if verdict.admissible else EXIT_INADMISSIBLE), outputs, metrics


def cmd_estimate(scn, args, out_dir, inputs):
    if scn.realized is None:
        raise VarboundError("estimate needs realized data in the scenario")
    estimation.validate_realized(scn.realized, scn.model)
    if args.bound is None:
        problem, table, kwargs = _build(scn, args)
        B = _solve(scn, problem).B_star
    else:
        # the estimate and its diagnostics read P2 alone: build P2, not A
        kwargs = _mode_kwargs(scn, args)
        table = experiment.pair_observation_probabilities(scn.design, scn.model, **kwargs)
        B = matrixio.read_matrix(args.bound)
        inputs["bound"] = _digest(args.bound)
    estimate = estimation.ht_bound_estimate(
        B, scn.realized, table, scn.n, threshold_c=scn.threshold_c
    )
    metrics = {
        "mode": kwargs["mode"],
        "seed": kwargs.get("seed"),
        "bound_estimate": estimate,
    }
    # Cov(R) counts the support when it has no more rows than the draws would
    if scn.design.support_size() <= estimation.RCOV_DRAWS:
        rcov = {"mode": "exact"}
    else:
        rcov = {"mode": "mc", "count": estimation.RCOV_DRAWS, "seed": _seed(scn, args)}
    # ht_bound_estimate has checked B at threshold_c; Cov(R) refuses only P2 = 0
    diag = estimation.r_covariance_opnorm(scn.design, scn.model, B, table, **rcov, theta=scn.theta)
    sup_obs = max((abs(v) for v in scn.realized.outcomes.values()), default=0.0)
    metrics["opnorm_cov_R"] = diag.opnorm_cov_R
    metrics["opnorm_cov_R_mode"] = diag.provenance.get("mode")
    metrics["opnorm_cov_R_pairs"] = diag.provenance.get("pairs")
    metrics["opnorm_cov_R_matvecs"] = diag.provenance.get("matvecs")
    # outcome scale is unknown; the largest observed magnitude is a plug-in
    metrics["sup_theta_observed"] = sup_obs
    metrics["mse_upper_bound_plugin"] = estimation.mse_upper_bound(
        diag, sup_obs, B, scn.n
    )
    metrics["estimation_gamma_plugin"] = estimation.estimation_gamma(diag, sup_obs)
    if scn.theta is not None:
        # full outcome vector supplied: report oracle diagnostics too
        metrics["bound_value_at_theta"] = linalg.quadratic_form_value(B, scn.theta, scn.n)
        metrics["empirical_mse_at_theta"] = diag.empirical_mse
    print(json.dumps({"bound_estimate": estimate}))
    return EXIT_OK, {}, metrics


def _print_matrix(name, M):
    print(f"{name} =")
    print(np.array2string(np.asarray(M), precision=6, suppress_small=True))


def cmd_demo(args):
    """Reproduce the two-voter worked example end to end and check every step."""
    if args.name != "illustration":
        raise VarboundError(f"unknown demo {args.name!r}; available: illustration")
    checks = {}

    def check(label, ok):
        checks[label] = bool(ok)
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")

    scn = parse_scenario(builtin_scenario_path("illustration"))
    problem, table, _ = _build(scn, args)

    u = np.array([1.0, -1.0, 1.0, -1.0])
    expected_A = np.outer(u, u)
    _print_matrix("A", problem.A)
    check("covariance matrix equals the rank-one worked example",
          np.allclose(problem.A, expected_A, atol=1e-12))

    B_frob = np.array([[2.0, 0, 0, -2], [0, 2, -2, 0], [0, -2, 2, 0], [-2, 0, 0, 2]])
    B_pair = np.array([[3.0, 0, 0, -1], [0, 3, -1, 0], [0, -1, 3, 0], [-1, 0, 0, 3]])
    result = _solve(scn, problem)
    _print_matrix("B (frobenius objective)", result.B_star)
    check("frobenius objective returns the minimum-norm bound",
          np.allclose(result.B_star, B_frob, atol=1e-5))

    S_as = solver.aronow_samii_slack(problem.A, problem.omega)
    _print_matrix("B (pairwise Young slack)", problem.A + S_as)
    check("pairwise Young slack reproduces the second worked bound",
          np.allclose(problem.A + S_as, B_pair, atol=1e-12))
    _print_matrix("difference of the two bounds", (problem.A + S_as) - result.B_star)

    for name, B in (("minimum-norm", B_frob), ("pairwise", B_pair)):
        v = solver.validate_bound(problem.A, B, problem.omega, 1e-8)
        check(f"{name} bound is conservative and design compatible", v.valid)

    verdict_pair = solver.test_admissibility(S_as, problem.omega, scn.solver)
    print(f"alpha (pairwise slack) = {verdict_pair.alpha:.6f}")
    check("pairwise bound is dominated (alpha = 4)",
          not verdict_pair.admissible and abs(verdict_pair.alpha - 4.0) < 1e-4)
    verdict_frob = solver.test_admissibility(B_frob - problem.A, problem.omega, scn.solver)
    check("minimum-norm bound is admissible", verdict_frob.admissible)

    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(5):
        theta = rng.normal(size=4)
        target = linalg.quadratic_form_value(result.B_star, theta, 2)
        mean = sum(
            prob * estimation.ht_bound_estimate(
                result.B_star, estimation.observe(scn.model, z, theta), table, 2
            )
            for z, prob in experiment.enumerate_assignments(scn.design)
        )
        worst = max(worst, abs(mean - target))
    check(f"bound estimator is unbiased by enumeration (max gap {worst:.2e})",
          worst < 1e-10)

    return (EXIT_OK if all(checks.values()) else EXIT_ERROR), {}, checks


def _seed_arg(text):
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Argparse that exits with the usage code on bad invocations."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser():
    parser = _Parser(
        prog="varbound",
        description="Design-compatible variance bounds: build, test, estimate.",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, config=True):
        if config:
            p.add_argument("-c", "--config", required=True, help="scenario JSON")
        p.add_argument("-o", "--out", default=None, help="output directory")
        p.add_argument("--seed", type=_seed_arg, default=None, help="Monte Carlo seed override")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="matrix output format")

    common(sub.add_parser("probe", help="write A, P2, Omega, pi"))
    common(sub.add_parser("bound", help="solve for a variance bound"))
    adm = sub.add_parser("admissible", help="test a slack matrix for admissibility")
    common(adm)
    adm.add_argument("--slack", required=True, help="slack matrix file")
    est = sub.add_parser("estimate", help="estimate a bound from realized data")
    common(est)
    est.add_argument("--bound", default=None, help="bound matrix file (else solve)")
    demo = sub.add_parser("demo", help="run a built-in reproduction")
    demo.add_argument("name", help="demo name (illustration)")
    common(demo, config=False)
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    started = time.monotonic()
    out_dir, inputs = args.out, {}
    try:
        if args.command == "demo":
            code, outputs, metrics = cmd_demo(args)
        else:
            config_path = resolve_config_path(args.config)
            scn = parse_scenario(config_path)
            inputs["config"] = _digest(config_path)
            if out_dir is None and args.command in ("probe", "bound"):
                out_dir = "out"
            handler = {"probe": cmd_probe, "bound": cmd_bound, "admissible": cmd_admissible,
                       "estimate": cmd_estimate}[args.command]
            code, outputs, metrics = handler(scn, args, out_dir, inputs)
        if out_dir is not None:  # the one report.json of every command
            report = {"command": args.command, "inputs": inputs, "outputs": outputs,
                      "metrics": metrics, "wall_time_s": time.monotonic() - started}
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            (Path(out_dir) / "report.json").write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n")
        log.info("%s finished with exit code %d", args.command, code)
        return code
    except VarboundError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
