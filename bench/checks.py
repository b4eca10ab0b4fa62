"""Output checks. A job fails when any of its steps returns an unexpected exit
code or leaves an output that breaks one of these checks.

The bound check reads ``B.csv`` and ``S.csv`` back from disk instead of
trusting the report's own flags alone, so an output corrupted after the solver
ran is caught too.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SYMMETRY_TOL = 1e-9  # relative to 1 + max |entry|
PSD_TOL = 1e-6  # relative to max(1, Frobenius norm)
OBJECTIVE_RTOL = 1e-8
CLOSED_FORM_TOL = 1e-6


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _report(out):
    return json.loads((Path(out) / "report.json").read_text())["metrics"]


def _last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1])


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _min_eig(M):
    return float(np.linalg.eigvalsh((M + M.T) / 2.0)[0])


def objective_value(objective, B):
    """The objective of a bound recomputed from B, term by term."""
    total = 0.0
    for term in objective["terms"]:
        w, kind = float(term["weight"]), term["term"]
        if kind == "frobenius-squared":
            total += w * float(np.sum(B * B))
        elif kind == "schatten":
            lam = np.abs(np.linalg.eigvalsh((B + B.T) / 2.0))
            p = float(term["p"])
            total += w * (float(lam.max()) if math.isinf(p) else float((lam**p).sum() ** (1 / p)))
        else:
            raise ValueError(f"no check for objective term {kind!r}")
    return total


def check_bound(step):
    problems = []
    m = _report(step.out)
    for flag in ("converged", "conservative", "design_compatible"):
        if m.get(flag) is not True:
            problems.append(f"report {flag} is {m.get(flag)!r}")
    if not _finite(m.get("objective_value")):
        problems.append(f"objective_value {m.get('objective_value')!r} is not finite")
        return problems
    B = _read_csv(step.out / "B.csv")
    S = _read_csv(step.out / "S.csv")
    n = step.n
    if B.shape != (2 * n, 2 * n) or S.shape != B.shape:
        return problems + [f"B is {B.shape} and S is {S.shape}, expected {(2 * n, 2 * n)}"]
    if not (np.isfinite(B).all() and np.isfinite(S).all()):
        return problems + ["B or S has a non-finite entry"]
    scale = 1.0 + float(np.abs(B).max())
    if float(np.abs(B - B.T).max()) > SYMMETRY_TOL * scale:
        problems.append("B is not symmetric")
    # every within-unit pair (i, i + n) is unobservable, so the bound must vanish there
    within = float(np.abs(B[np.arange(n), np.arange(n) + n]).max())
    if within > SYMMETRY_TOL * scale:
        problems.append(f"B is {within:.3e} on a within-unit pair")
    for name, M in (("S", S), ("A = B - S", B - S)):
        low = _min_eig(M)
        if low < -PSD_TOL * max(1.0, float(np.linalg.norm(M))):
            problems.append(f"{name} has eigenvalue {low:.3e}")
    again = objective_value(step.objective, B)
    if abs(again - m["objective_value"]) > OBJECTIVE_RTOL * max(1.0, abs(again)):
        problems.append(f"objective {m['objective_value']!r} but B.csv gives {again!r}")
    return problems


def check_admissible(step, code, stdout):
    verdict = _last_json(stdout)
    problems = []
    if code != 0 or verdict.get("admissible") is not True:
        problems.append(f"exit {code}, verdict {verdict}: the optimal slack must be admissible")
    if not _finite(verdict.get("alpha")):
        problems.append(f"alpha {verdict.get('alpha')!r} is not finite")
    if _report(step.out).get("admissible") is not True:
        problems.append("report disagrees with the printed verdict")
    return problems


def check_estimate(step, stdout):
    m = _report(step.out)
    problems = []
    if not _finite(m.get("bound_estimate")):
        problems.append(f"bound_estimate {m.get('bound_estimate')!r} is not finite")
    elif _last_json(stdout).get("bound_estimate") != m["bound_estimate"]:
        problems.append("printed bound_estimate differs from the report")
    cov = m.get("opnorm_cov_R")
    if not (_finite(cov) and cov >= 0.0):
        problems.append(f"opnorm_cov_R {cov!r} is not a finite nonnegative number")
    if step.expect_theta and not _finite(m.get("empirical_mse_at_theta")):
        problems.append(f"empirical_mse_at_theta {m.get('empirical_mse_at_theta')!r} is not finite")
    return problems


def check_step(step, code, stdout):
    """Problems found in one step's exit code and outputs (empty when it passed)."""
    if step.kind == "admissible":
        try:
            return check_admissible(step, code, stdout)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]
    if code != 0:
        return [f"exit code {code}"]
    try:
        if step.kind == "bound":
            return check_bound(step)
        return check_estimate(step, stdout)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]


def once_per_run(run_cli, work):
    """Untimed checks made once per run; returns a list of problems.

    ``demo illustration`` checks the paper's worked example itself. The shipped
    ``bernoulli3_targeted`` scenario has Omega equal to the within-unit pairs
    and a diagonal W, so its optimum is the closed form A + generalized
    pairwise slack.
    """
    from varbound import scenario, solver

    problems = []
    code, _, _ = run_cli(["demo", "illustration"])
    if code != 0:
        problems.append(f"demo illustration: exit {code}")
    out = Path(work) / "bernoulli3"
    name = "bernoulli3_targeted"
    for command in ("probe", "bound"):
        code, _, stderr = run_cli([command, "-c", name, "-o", str(out)])
        if code != 0:
            return problems + [f"{command} {name}: exit {code}: {stderr.strip()}"]
    try:
        A = _read_csv(out / "A.csv")
        B = _read_csv(out / "B.csv")
        omega = {(k - 1, l - 1) for k, l in json.loads((out / "omega.json").read_text())["pairs"]}
        doc = json.loads(scenario.builtin_scenario_path(name).read_text())
        W = np.asarray(doc["objective"]["terms"][0]["W"], dtype=float)
        gap = float(np.abs(B - (A + solver.generalized_as_slack(A, omega, W))).max())
    except Exception as exc:  # any failure here is a failed check, not a crashed run
        return problems + [f"{name}: {exc!r}"]
    if gap > CLOSED_FORM_TOL:
        problems.append(f"{name}: bound differs from the closed form by {gap:.3e}")
    return problems
