"""Cross-validation of the native splitting solver against an independent
conic solver. Skipped when cvxpy is not installed; the rest of the suite does
not depend on it."""

import numpy as np
import pytest

cp = pytest.importorskip("cvxpy")

from varbound import (
    Objective,
    SolverConfig,
    build_variance_problem,
    solve_optvb,
)
from varbound import test_admissibility as admissibility_of
from conftest import random_scenario

CONFIG = SolverConfig(eps_rel=1e-8, max_iterations=200_000)


def reference_solve(A, omega, objective):
    dim = A.shape[0]
    S = cp.Variable((dim, dim), symmetric=True)
    constraints = [S >> 0]
    for k, l in omega:
        constraints.append(S[k, l] == -A[k, l])
    if isinstance(objective, str) and objective == "frobenius":
        goal = cp.Minimize(cp.sum_squares(A + S))
    elif isinstance(objective, str) and objective == "trace":
        goal = cp.Minimize(cp.trace(S))
    else:
        goal = cp.Minimize(cp.trace(S @ objective))
    problem = cp.Problem(goal, constraints)
    problem.solve(solver=cp.SCS, eps=1e-9, max_iters=200_000)
    return S.value, problem.value


def reference_alpha(S, omega):
    dim = S.shape[0]
    T = cp.Variable((dim, dim), symmetric=True)
    constraints = [T >> 0, S - T >> 0]
    for k, l in omega:
        constraints.append(T[k, l] == S[k, l])
    problem = cp.Problem(cp.Maximize(cp.trace(S - T)), constraints)
    problem.solve(solver=cp.SCS, eps=1e-9, max_iters=200_000)
    return problem.value


@pytest.mark.parametrize("seed", range(5))
def test_frobenius_solutions_match(seed):
    rng = np.random.default_rng(seed)
    design, model, spec = random_scenario(rng)
    problem, _ = build_variance_problem(design, model, spec)
    ours = solve_optvb(problem, Objective.frobenius_squared(), CONFIG)
    ref_S, _ = reference_solve(problem.A, problem.omega, "frobenius")
    assert np.abs(ours.S_star - ref_S).max() < 2e-4


@pytest.mark.parametrize("seed", range(5))
def test_trace_objective_values_match(seed):
    # the trace optimum need not be unique, so compare objective values
    rng = np.random.default_rng(100 + seed)
    design, model, spec = random_scenario(rng)
    problem, _ = build_variance_problem(design, model, spec)
    ours = solve_optvb(problem, Objective.schatten(1), CONFIG)
    _, ref_value = reference_solve(problem.A, problem.omega, "trace")
    ours_trace = float(np.trace(ours.S_star))
    assert abs(ours_trace - ref_value) < 1e-5 * (1 + abs(ref_value))


@pytest.mark.parametrize("seed", range(5))
def test_targeted_objective_values_match(seed):
    rng = np.random.default_rng(200 + seed)
    design, model, spec = random_scenario(rng)
    problem, _ = build_variance_problem(design, model, spec)
    dim = 2 * model.n
    G = rng.normal(size=(dim, dim))
    W = G @ G.T + 0.5 * np.eye(dim)
    ours = solve_optvb(problem, Objective.targeted(W), CONFIG)
    _, ref_value = reference_solve(problem.A, problem.omega, W)
    assert abs(ours.report.objective_value - ref_value) < 1e-5 * (1 + abs(ref_value))


@pytest.mark.parametrize("seed", range(4))
def test_admissibility_alpha_matches(seed):
    rng = np.random.default_rng(300 + seed)
    design, model, spec = random_scenario(rng)
    problem, _ = build_variance_problem(design, model, spec)
    # inflate a solved slack so alpha is nontrivial; the identity component
    # keeps the sandwich strictly feasible (the base optimum is singular,
    # and a rank-one bump alone would leave the program without an interior)
    base = solve_optvb(problem, Objective.frobenius_squared(), CONFIG).S_star
    bump = np.zeros_like(base)
    bump[0, 0] = float(rng.uniform(0.5, 2.0))
    S = base + bump + 0.05 * np.eye(base.shape[0])
    ours = admissibility_of(S, problem.omega, CONFIG)
    ref = reference_alpha(S, problem.omega)
    assert ours.alpha == pytest.approx(ref, abs=2e-4)
    assert not ours.admissible