"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from varbound import (
    Design,
    EstimatorSpec,
    ExposureModel,
    Objective,
    SolverConfig,
    aronow_samii_slack,
    build_variance_problem,
    enumerate_assignments,
    generalized_as_slack,
    ht_bound_estimate,
    linalg,
    mse_upper_bound,
    neyman_bound,
    observe,
    r_covariance_opnorm,
    solve_optvb,
    validate_bound,
)
from varbound import test_admissibility as admissibility_of
from varbound.solver import FrobeniusSquaredTerm, SchattenTerm
from conftest import (
    A_ILLU,
    B_MINNORM,
    B_PAIRWISE,
    illustration_parts,
    random_scenario,
)

TIGHT = SolverConfig(eps_rel=1e-9, max_iterations=400_000)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance {num:02d}] {label}: FAIL")
        raise
    print(f"[acceptance {num:02d}] {label}: PASS")


@pytest.fixture(scope="module")
def illu():
    design, model, spec = illustration_parts()
    problem, table = build_variance_problem(design, model, spec)
    return design, model, spec, problem, table


def test_01_illustration_covariance(illu):
    with criterion(1, "exact covariance matrix of the two-voter scenario"):
        _, _, _, problem, _ = illu
        assert problem.A.shape == (4, 4)
        assert np.abs(problem.A - A_ILLU).max() <= 1e-12


def _grid_refine_oracle(objective_fn, span=6.0, rounds=10, points=61):
    """Brute-force the symmetric two-parameter family of feasible bounds.

    The family has diagonal d and anti-diagonal e; feasibility of the slack
    is d - e >= 4 and d + e >= 0. Refines the grid around the incumbent until
    the spacing is far below 1e-6.
    """
    center, width = (span / 2, 0.0), span
    best = None
    for _ in range(rounds):
        ds = np.linspace(center[0] - width, center[0] + width, points)
        es = np.linspace(center[1] - width, center[1] + width, points)
        best_val = np.inf
        for d in ds:
            for e in es:
                if d - e < 4.0 or d + e < 0.0:
                    continue
                val = objective_fn(d, e)
                if val < best_val:
                    best_val, best = val, (d, e)
        center, width = best, width / 5.0
    return best, best_val


def test_02_frobenius_and_trace_recover_minimum_bound(illu):
    with criterion(2, "frobenius and trace programs return the minimum-norm bound"):
        _, _, _, problem, _ = illu
        for objective in (Objective.frobenius_squared(), Objective.schatten(1)):
            res = solve_optvb(problem, objective, TIGHT)
            assert np.abs(res.B_star - B_MINNORM).max() <= 1e-5

        (d_f, e_f), _ = _grid_refine_oracle(lambda d, e: 4 * d * d + 4 * e * e)
        assert abs(d_f - 2.0) <= 1e-6 and abs(e_f + 2.0) <= 1e-6
        (d_t, e_t), _ = _grid_refine_oracle(lambda d, e: 4 * d)
        assert abs(d_t - 2.0) <= 1e-6


def test_03_pairwise_bound_and_admissibility_test(illu):
    with criterion(3, "pairwise slack matrix and the admissibility verdicts"):
        _, _, _, problem, _ = illu
        S_as = aronow_samii_slack(problem.A, problem.omega)
        assert np.array_equal(problem.A + S_as, B_PAIRWISE)

        verdict = admissibility_of(S_as, problem.omega, TIGHT)
        assert not verdict.admissible
        assert abs(verdict.alpha - 4.0) <= 1e-4
        gap = S_as - verdict.witness
        assert linalg.min_eigenvalue(linalg.symmetrize(gap)) >= -1e-7

        verdict_min = admissibility_of(B_MINNORM - problem.A, problem.omega, TIGHT)
        assert verdict_min.alpha <= 1e-5


def test_04_weighted_pairwise_closed_form():
    with criterion(4, "targeted program matches the weighted pairwise closed form"):
        design = Design.bernoulli(3, 0.5)
        model = ExposureModel.identity(3)
        problem, _ = build_variance_problem(design, model, EstimatorSpec(kind="horvitz-thompson"))
        W = np.diag(np.arange(1.0, 7.0))
        res = solve_optvb(problem, Objective.targeted(W), TIGHT)
        closed = generalized_as_slack(problem.A, problem.omega, W)
        assert np.abs(res.S_star - closed).max() <= 1e-4
        w = np.diag(W)
        target = 2.0 * sum(
            abs(problem.A[k, l]) * math.sqrt(w[k] * w[l]) for k, l in problem.omega
        )
        assert abs(res.report.objective_value - target) <= 1e-6


def test_05_unbiasedness_by_enumeration():
    with criterion(5, "bound estimator is unbiased by enumeration"):
        scenarios = [
            illustration_parts(),
            (Design.complete(4, 2), ExposureModel.identity(4),
             EstimatorSpec(kind="difference-in-means")),
            (Design.bernoulli(3, 0.5), ExposureModel.identity(3),
             EstimatorSpec(kind="horvitz-thompson")),
        ]
        rng = np.random.default_rng(55)
        for design, model, spec in scenarios:
            problem, table = build_variance_problem(design, model, spec)
            B = solve_optvb(problem, Objective.frobenius_squared(), TIGHT).B_star
            support = enumerate_assignments(design)
            for _ in range(20):
                theta = rng.normal(size=2 * model.n)
                target = linalg.quadratic_form_value(B, theta, model.n)
                mean = sum(
                    p * ht_bound_estimate(B, observe(model, z, theta), table, model.n)
                    for z, p in support
                )
                assert abs(mean - target) <= 1e-10


def test_06_schatten_monotonicity():
    with criterion(6, "schatten objectives are strictly monotone (limit case flat)"):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            G = rng.normal(size=(dim, dim))
            Q = G @ G.T
            H = rng.normal(size=(dim, int(rng.integers(1, dim + 1))))
            P = H @ H.T
            for p in (1, 2, 3):
                assert linalg.schatten_norm(Q, p) < linalg.schatten_norm(Q + P, p)
            assert (
                linalg.schatten_norm(Q, math.inf)
                <= linalg.schatten_norm(Q + P, math.inf) + 1e-12
            )


def test_07_targeted_solutions_are_admissible():
    with criterion(7, "targeted programs with positive definite W pass the test"):
        started = time.monotonic()
        # default tolerances resolve alpha far below the decision scale
        config = SolverConfig()
        rng = np.random.default_rng(99)
        done = 0
        while done < 20:
            design, model, spec = random_scenario(
                rng, estimators=("horvitz-thompson", "difference-in-means")
            )
            if model.n > 4:
                continue
            problem, _ = build_variance_problem(design, model, spec)
            dim = 2 * model.n
            G = rng.normal(size=(dim, dim))
            W = G @ G.T + 0.1 * np.eye(dim)
            res = solve_optvb(problem, Objective.targeted(W), config)
            verdict = admissibility_of(res.S_star, problem.omega, config)
            slack_scale = 1e-5 * (1.0 + float(np.trace(res.S_star)))
            assert verdict.alpha <= slack_scale, (design.kind, model.rule, verdict.alpha)
            done += 1
        assert time.monotonic() - started < 300.0


def test_08_operator_norm_regularization_path(illu):
    with criterion(8, "regularized worst-case path is monotone and settles"):
        _, _, _, problem, _ = illu
        slacks, opnorms = [], []
        for gamma in (1.0, 0.1, 0.01, 0.001):
            objective = Objective.composite(
                [(1.0, SchattenTerm(p=math.inf)), (gamma, FrobeniusSquaredTerm())]
            )
            res = solve_optvb(problem, objective, TIGHT)
            slacks.append(res.S_star)
            opnorms.append(linalg.schatten_norm(res.B_star, math.inf))
        for earlier, later in zip(opnorms, opnorms[1:]):
            assert later <= earlier + 1e-4
        dists = [np.linalg.norm(b - a) for a, b in zip(slacks, slacks[1:])]
        # the exact path is constant on this instance (the quadratic optimum
        # already minimizes the worst case), so successive steps must collapse
        # to solver precision rather than grow
        for earlier, later in zip(dists, dists[1:]):
            assert later <= max(earlier, 1e-4)
        assert max(dists) <= 1e-4
        assert np.abs(slacks[-1] - (B_MINNORM - A_ILLU)).max() <= 1e-4


def test_09_mse_bound_dominates_and_independent_design_value():
    with criterion(9, "error bound dominates the exact error; coin design value"):
        rng = np.random.default_rng(31)
        pool = [illustration_parts()]
        while len(pool) < 6:
            design, model, spec = random_scenario(rng)
            if model.n <= 4:
                pool.append((design, model, spec))
        for design, model, spec in pool:
            problem, table = build_variance_problem(design, model, spec)
            B = solve_optvb(problem, Objective.frobenius_squared(), TIGHT).B_star
            diag = r_covariance_opnorm(design, model, B, table)
            for _ in range(5):
                theta = rng.uniform(-1.0, 1.0, size=2 * model.n)
                theta /= np.abs(theta).max()  # uniform-form scale: sup = 1
                mse = r_covariance_opnorm(design, model, B, table, theta=theta).empirical_mse
                cap = mse_upper_bound(diag, float(np.abs(theta).max()), B, model.n)
                assert model.n**2 * mse <= cap + 1e-9

        design = Design.bernoulli(2, 0.5)
        model = ExposureModel.identity(2)
        problem, table = build_variance_problem(design, model, EstimatorSpec(kind="horvitz-thompson"))
        B = solve_optvb(problem, Objective.frobenius_squared(), TIGHT).B_star
        # the minimum-norm bound here is twice the identity; its support is
        # structural, so entries at solver precision do not count
        assert np.abs(B - 2.0 * np.eye(4)).max() <= 1e-6
        diag = r_covariance_opnorm(design, model, B, table, support_tol=1e-6)
        assert abs(diag.opnorm_cov_R - 2.0) <= 1e-6


def test_10_neyman_comparison():
    with criterion(10, "classic balanced-design bound is valid and trace-matched"):
        n = 6
        design = Design.complete(n, 3)
        model = ExposureModel.identity(n)
        spec = EstimatorSpec(kind="difference-in-means")
        problem, _ = build_variance_problem(design, model, spec)
        B_ney = neyman_bound(n)
        check = validate_bound(problem.A, B_ney, problem.omega, 1e-7)
        assert check.conservative and check.design_compatible
        res = solve_optvb(problem, Objective.schatten(1), TIGHT)
        assert float(np.trace(res.B_star)) <= float(np.trace(B_ney)) + 1e-6


def test_readme_quick_start_runs(capsys):
    # the Library quick start of README.md, run as written: every name it
    # shows must exist, and it reaches the worked example's minimum-norm bound
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert np.abs(namespace["result"].B_star - B_MINNORM).max() <= 1e-6
    assert namespace["verdict"].admissible
    assert capsys.readouterr().out.count("\n") >= 3
