"""Bound construction, admissibility testing, closed forms, targeting."""

import logging
import math
import re
import tracemalloc
from types import SimpleNamespace

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
    generalized_as_slack,
    linalg,
    neyman_bound,
    solve_optvb,
    targeting_from_covariates,
    targeting_from_vectors,
    validate_bound,
)
from varbound.errors import (
    DimensionMismatch,
    Infeasible,
    InvalidN,
    MaxIterations,
    NonDiagonalW,
    NonPositiveWeight,
    NotASlackMatrix,
    UnsupportedObjective,
    VarboundError,
)
from varbound import test_admissibility as admissibility_of
from varbound import solver as solver_module
from varbound.experiment import VarianceProblem
from varbound.solver import FrobeniusSquaredTerm, SchattenTerm
from conftest import (
    A_ILLU,
    B_MINNORM,
    B_PAIRWISE,
    OMEGA_ILLU,
    random_scenario,
    ref_admissibility,
    ref_pairwise_slack,
)

TIGHT = SolverConfig(eps_abs=1e-11, eps_rel=1e-9, max_iterations=200_000)
WORST_CASE = Objective.composite(
    [(1.0, SchattenTerm(p=math.inf)), (0.01, FrobeniusSquaredTerm())]
)


def bernoulli_identity_problem(n=3):
    design = Design.bernoulli(n, 0.5)
    model = ExposureModel.identity(n)
    spec = EstimatorSpec(kind="horvitz-thompson")
    problem, table = build_variance_problem(design, model, spec)
    return problem, table


class TestObjective:
    def test_weights_must_be_positive(self):
        with pytest.raises(UnsupportedObjective):
            Objective.composite([(0.0, FrobeniusSquaredTerm())])
        with pytest.raises(UnsupportedObjective):
            Objective.composite([])

    def test_weights_must_be_finite(self):
        with pytest.raises(UnsupportedObjective, match="finite"):
            Objective.composite([(math.inf, FrobeniusSquaredTerm())])
        with pytest.raises(UnsupportedObjective, match="finite"):
            Objective.schatten(2, weight=math.inf)

    def test_terms_must_be_term_objects(self):
        # a term name is input for the scenario parser, not a term
        with pytest.raises(UnsupportedObjective, match="unknown objective term"):
            Objective.composite([(1.0, "frobenius-squared")])

    def test_schatten_exponent_validated(self):
        with pytest.raises(UnsupportedObjective):
            Objective.schatten(0.5)

    def test_schatten_exponent_nan_refused(self):
        with pytest.raises(UnsupportedObjective):
            Objective.schatten(math.nan)

    def test_monotonicity_classification(self):
        assert Objective.schatten(1).is_strictly_monotone()
        assert Objective.frobenius_squared().is_strictly_monotone()
        assert not Objective.schatten(math.inf).is_strictly_monotone()
        assert Objective.targeted(np.eye(4)).is_strictly_monotone()
        # rank-deficient targeting is monotone but not strictly
        P = np.zeros((4, 4))
        P[0, 0] = 1.0
        assert not Objective.targeted(P).is_strictly_monotone()

    def test_composite_value_strictly_increases_with_psd_bumps(self):
        rng = np.random.default_rng(4)
        A = np.eye(4)
        objectives = [
            Objective.schatten(1),
            Objective.schatten(3),
            Objective.frobenius_squared(),
            Objective.targeted(np.diag([1.0, 2.0, 3.0, 4.0])),
            Objective.composite(
                [(1.0, SchattenTerm(p=math.inf)), (0.05, FrobeniusSquaredTerm())]
            ),
        ]
        for _ in range(20):
            G = rng.normal(size=(4, 2))
            bump = G @ G.T
            S = np.abs(rng.normal()) * np.eye(4)
            for obj in objectives:
                assert obj.value(S + bump, A) > obj.value(S, A)


class TestSolveOptvb:
    def test_frobenius_recovers_minimum_norm_bound(self, illustration):
        res = solve_optvb(illustration["problem"], Objective.frobenius_squared(), TIGHT)
        assert np.abs(res.B_star - B_MINNORM).max() < 1e-5
        assert res.report.converged

    def test_trace_recovers_same_bound(self, illustration):
        res = solve_optvb(illustration["problem"], Objective.schatten(1), TIGHT)
        assert np.abs(res.B_star - B_MINNORM).max() < 1e-5

    def test_schatten_two_recovers_same_bound(self, illustration):
        res = solve_optvb(illustration["problem"], Objective.schatten(2), TIGHT)
        assert np.abs(res.B_star - B_MINNORM).max() < 1e-5

    def test_empty_omega_returns_zero_slack(self):
        problem = VarianceProblem(
            n=2,
            A=np.diag([2.0, 1.0, 1.0, 2.0]),
            omega=frozenset({(0, 2), (1, 3)}),
        )
        # diag A has zeros off-diagonal, so the constraint entries are zero and
        # the strictly monotone objective drives the slack to nothing
        res = solve_optvb(problem, Objective.schatten(1), TIGHT)
        assert np.abs(res.S_star).max() < 1e-6

    def test_targeted_matches_weighted_pairwise_closed_form(self):
        problem, _ = bernoulli_identity_problem(3)
        W = np.diag(np.arange(1.0, 7.0))
        res = solve_optvb(problem, Objective.targeted(W), TIGHT)
        closed = generalized_as_slack(problem.A, problem.omega, W)
        assert np.abs(res.S_star - closed).max() < 1e-4
        assert res.report.objective_value == pytest.approx(
            float(np.sum(W * closed)), abs=1e-6
        )

    def test_feasibility_report_on_random_scenarios(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            design, model, spec = random_scenario(rng)
            problem, _ = build_variance_problem(design, model, spec)
            res = solve_optvb(problem, Objective.frobenius_squared())
            assert res.report.max_omega_violation == 0.0
            assert res.report.min_eig_slack >= -1e-12 * np.linalg.norm(res.S_star, 2)
            check = validate_bound(problem.A, res.B_star, problem.omega, 1e-6)
            assert check.valid
            verdict = admissibility_of(res.S_star, problem.omega)
            k, l = np.array(sorted(problem.omega), dtype=int).reshape(-1, 2).T
            assert np.array_equal(verdict.witness[k, l], res.S_star[k, l])
            assert np.array_equal(verdict.witness[l, k], res.S_star[l, k])

    def test_operator_norm_alone_is_refused(self, illustration):
        with pytest.raises(UnsupportedObjective, match="frobenius"):
            solve_optvb(illustration["problem"], Objective.schatten(math.inf))

    def test_rank_deficient_targeting_alone_is_refused(self, illustration):
        P = np.zeros((4, 4))
        P[0, 0] = 1.0
        with pytest.raises(UnsupportedObjective):
            solve_optvb(illustration["problem"], Objective.targeted(P))

    def test_max_iterations_carries_best_iterate(self, illustration):
        config = SolverConfig(max_iterations=3)
        with pytest.raises(MaxIterations) as info:
            solve_optvb(illustration["problem"], Objective.frobenius_squared(), config)
        assert info.value.result is not None
        assert info.value.result.S_star.shape == (4, 4)

    def test_unobservable_diagonal_with_positive_variance_is_infeasible(self):
        problem = VarianceProblem(
            n=2,
            A=np.eye(4),
            omega=frozenset({(0, 2), (1, 3), (0, 0)}),
        )
        with pytest.raises(Infeasible):
            solve_optvb(problem, Objective.frobenius_squared())

    def test_repeated_solves_are_bitwise_equal(self):
        problem, _ = bernoulli_identity_problem(3)
        first = solve_optvb(problem, WORST_CASE)
        second = solve_optvb(problem, WORST_CASE)
        assert np.array_equal(first.S_star, second.S_star)
        assert first.report.iterations == second.report.iterations

    def test_answer_does_not_depend_on_units_of_A(self):
        n = 4
        ring = ExposureModel.spillover([[(i - 1) % n, (i + 1) % n] for i in range(n)])
        spec = EstimatorSpec(kind="horvitz-thompson")
        problem, _ = build_variance_problem(Design.bernoulli(n, 0.5), ring, spec)
        values = {}
        for c in (1e-3, 1.0, 1e3):
            scaled = VarianceProblem(n=n, A=c * problem.A, omega=problem.omega)
            res = solve_optvb(scaled, Objective.frobenius_squared())
            values[c] = res.report.objective_value / c**2
            verdict = admissibility_of(
                res.S_star, problem.omega, SolverConfig(max_iterations=5000)
            )
            assert verdict.admissible
        for c in (1e-3, 1e3):
            assert values[c] == pytest.approx(values[1.0], rel=1e-6)

    def test_limiting_regularization_path(self, illustration):
        # operator norm with a shrinking quadratic regularizer: the worst-case
        # size of the bound never grows and the path settles on the
        # minimum-norm bound. On this instance the quadratic term's own
        # optimum already minimizes the operator norm, so the exact path is
        # constant and successive steps can only reflect solver precision.
        gammas = [1.0, 0.1, 0.01, 0.001]
        slacks, opnorms = [], []
        for gamma in gammas:
            obj = Objective.composite(
                [(1.0, SchattenTerm(p=math.inf)), (gamma, FrobeniusSquaredTerm())]
            )
            res = solve_optvb(illustration["problem"], obj, TIGHT)
            slacks.append(res.S_star)
            opnorms.append(linalg.schatten_norm(res.B_star, math.inf))
        for earlier, later in zip(opnorms, opnorms[1:]):
            assert later <= earlier + 1e-4
        dists = [
            np.linalg.norm(s2 - s1) for s1, s2 in zip(slacks, slacks[1:])
        ]
        for earlier, later in zip(dists, dists[1:]):
            assert later <= max(earlier, 1e-4)
        assert max(dists) <= 1e-4
        assert np.abs(slacks[-1] - (B_MINNORM - A_ILLU)).max() < 1e-4


class TestAdmissibility:
    @pytest.mark.parametrize(
        "design",
        [
            Design.complete(2, 1),
            Design.paired([(0, 1), (2, 3)]),
            Design.cluster([(0, 1), (2, 3)], 1),
        ],
        ids=["complete", "paired", "cluster"],
    )
    def test_worst_case_bound_is_admissible_at_default_config(self, design):
        model = ExposureModel.identity(design.n)
        spec = EstimatorSpec(kind="horvitz-thompson")
        problem, _ = build_variance_problem(design, model, spec)
        res = solve_optvb(problem, WORST_CASE)
        verdict = admissibility_of(res.S_star, problem.omega)
        assert verdict.report.converged
        assert verdict.admissible

    def test_pairwise_bound_is_dominated(self, illustration):
        verdict = admissibility_of(B_PAIRWISE - A_ILLU, OMEGA_ILLU, TIGHT)
        assert not verdict.admissible
        assert verdict.alpha == pytest.approx(4.0, abs=1e-4)
        gap = (B_PAIRWISE - A_ILLU) - verdict.witness
        assert linalg.min_eigenvalue(linalg.symmetrize(gap)) >= -1e-7
        assert linalg.min_eigenvalue(linalg.symmetrize(verdict.witness)) >= -1e-7

    def test_minimum_norm_bound_is_admissible(self, illustration):
        verdict = admissibility_of(B_MINNORM - A_ILLU, OMEGA_ILLU, TIGHT)
        assert verdict.admissible
        assert verdict.alpha <= 1e-5

    def test_zero_slack_empty_omega(self):
        verdict = admissibility_of(np.zeros((4, 4)), frozenset(), TIGHT)
        assert verdict.admissible
        assert verdict.alpha == pytest.approx(0.0, abs=1e-9)

    def test_rejects_indefinite_input(self):
        with pytest.raises(NotASlackMatrix):
            admissibility_of(np.diag([1.0, -1.0]), frozenset())

    def test_max_iterations_carries_verdict(self, illustration):
        config = SolverConfig(max_iterations=2)
        with pytest.raises(MaxIterations) as info:
            admissibility_of(B_PAIRWISE - A_ILLU, OMEGA_ILLU, config)
        verdict = info.value.result
        assert verdict.witness.shape == (4, 4)
        assert not verdict.report.converged
        # the exit clips the iterate into the box: feasible after two steps
        assert sandwich_violation(B_PAIRWISE - A_ILLU, verdict.witness) <= 1e-7

    def test_full_solve_certifies_domination(self, illustration):
        verdict = admissibility_of(B_PAIRWISE - A_ILLU, OMEGA_ILLU, TIGHT)
        assert not verdict.admissible
        assert 0 < verdict.alpha <= 4.0 + 1e-6
        assert verdict.alpha == pytest.approx(4.0, abs=1e-4)
        # the pairwise slack of complete randomization of 3 units is dominated too
        design, model = Design.complete(3, 2), ExposureModel.identity(3)
        problem, _ = build_variance_problem(design, model, EstimatorSpec(kind="horvitz-thompson"))
        S = aronow_samii_slack(problem.A, problem.omega)
        full = admissibility_of(S, problem.omega, TIGHT)
        assert not full.admissible
        assert full.alpha > 0

    @pytest.mark.parametrize("pair", [(0, 5), (-1, 0), (4, 4)], ids=["high", "negative", "diagonal"])
    def test_omega_indices_checked(self, pair):
        omega = frozenset({(0, 2), (1, 3), pair})
        with pytest.raises(DimensionMismatch):
            admissibility_of(np.eye(4), omega)
        with pytest.raises(DimensionMismatch):
            validate_bound(np.zeros((4, 4)), np.eye(4), omega)
        with pytest.raises(DimensionMismatch):
            aronow_samii_slack(np.zeros((4, 4)), omega)
        problem = VarianceProblem(n=2, A=np.zeros((4, 4)), omega=omega)
        with pytest.raises(DimensionMismatch):
            solve_optvb(problem, Objective.frobenius_squared())

    def test_dominance_detection(self, illustration):
        # a bound above another valid bound in the semidefinite order is
        # always flagged, with the gap showing up in alpha
        problem = illustration["problem"]
        base = solve_optvb(problem, Objective.frobenius_squared(), TIGHT)
        bumped = base.S_star + np.diag([1.0, 0, 0, 0])
        assert linalg.loewner_dominates(bumped, base.S_star, 0.0)
        verdict = admissibility_of(bumped, problem.omega, TIGHT)
        assert not verdict.admissible
        assert verdict.alpha >= 0.9


class TestClosedForms:
    def test_neyman_two_units(self):
        expected = np.array(
            [[2.0, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]
        )
        assert np.allclose(neyman_bound(2), expected)

    def test_neyman_three_units_diagonal(self):
        B = neyman_bound(3)
        assert np.allclose(np.diag(B), 2.0)
        assert np.allclose(B[:3, 3:], 0.0)

    def test_neyman_rejects_single_unit(self):
        with pytest.raises(InvalidN):
            neyman_bound(1)

    def test_pairwise_slack_reproduces_worked_bound(self, illustration):
        S = aronow_samii_slack(A_ILLU, OMEGA_ILLU)
        assert np.array_equal(A_ILLU + S, B_PAIRWISE)

    def test_pairwise_slack_empty_omega(self):
        assert np.allclose(aronow_samii_slack(np.eye(4), frozenset()), 0.0)

    def test_pairwise_slack_ignores_pair_orientation(self):
        both = {(0, 1), (1, 0), (2, 3)}
        canonical = {(0, 1), (2, 3)}
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = -2.0
        A[2, 3] = A[3, 2] = 1.0
        assert np.array_equal(
            aronow_samii_slack(A, both), aronow_samii_slack(A, canonical)
        )

    def test_pairwise_slack_zero_when_already_compatible(self):
        A = np.diag([1.0, 2.0, 3.0, 4.0])
        S = aronow_samii_slack(A, frozenset({(0, 2), (1, 3)}))
        assert np.allclose(S, 0.0)

    def test_weighted_slack_reduces_to_pairwise_at_identity(self):
        problem, _ = bernoulli_identity_problem(3)
        S_unit = generalized_as_slack(problem.A, problem.omega, np.eye(6))
        assert np.allclose(S_unit, aronow_samii_slack(problem.A, problem.omega))

    def test_weighted_slack_block_arithmetic(self):
        A = np.zeros((4, 4))
        A[0, 2] = A[2, 0] = -1.0
        W = np.diag([1.0, 1.0, 4.0, 1.0])
        S = generalized_as_slack(A, frozenset({(0, 2)}), W)
        assert S[0, 0] == pytest.approx(2.0)
        assert S[0, 2] == pytest.approx(1.0)
        assert S[2, 2] == pytest.approx(0.5)

    def test_weighted_slack_objective_identity(self):
        problem, _ = bernoulli_identity_problem(3)
        W = np.diag([1.0, 2, 3, 4, 5, 6])
        S = generalized_as_slack(problem.A, problem.omega, W)
        w = np.diag(W)
        expected = 2 * sum(
            abs(problem.A[k, l]) * math.sqrt(w[k] * w[l]) for k, l in problem.omega
        )
        assert float(np.sum(W * S)) == pytest.approx(expected, abs=1e-12)
        assert linalg.min_eigenvalue(S) >= -1e-12

    @pytest.mark.parametrize("omega", [
        {(0, 0), (0, 1)}, {(1, 0), (0, 0)}, {(0, 0), (0, 1), (0, 2)}, {(0, 2), (0, 0), (1, 2)},
    ], ids=["diag-first", "flipped", "two-pairs", "other-pair"])
    def test_unobservable_diagonal_crossed_by_a_pair_is_refused(self, omega):
        # S_00 = -A_00 <= 0 forces row 0 of a PSD slack to 0, but the pair
        # fixes S_0l = -A_0l != 0; the slack used to overwrite S_00 with 0
        # beside S_01 = -1
        A = np.array([[0.0, 1.0, 0.5], [1.0, 2.0, 0.0], [0.5, 0.0, 2.0]])
        with pytest.raises(Infeasible, match="diagonal index 0"):
            aronow_samii_slack(A, omega)
        A[0, 0] = -1.0  # no covariance matrix; a PSD slack may exist
        with pytest.raises(VarboundError, match="closed form does not apply"):
            generalized_as_slack(A, omega, np.diag([1.0, 2.0, 3.0]))

    def test_unobservable_diagonal_with_positive_variance_is_refused(self):
        # unit 2 is treated with probability 0.05 <= c, so Omega pins (2, 2)
        # with A_22 = 19 while every pair through index 2 has A = 0; the
        # pairwise slack used to return S_22 = -19, which is not PSD
        problem, _ = build_variance_problem(
            Design.bernoulli(3, [0.5, 0.5, 0.05]), ExposureModel.spillover([[1], [0], []]),
            EstimatorSpec(kind="horvitz-thompson"), threshold_c=0.1)
        assert (2, 2) in problem.omega and problem.A[2, 2] == pytest.approx(19.0)
        message = r"diagonal index 2 is unobservable but A\[2,2\] = 1.900e\+01 > 0"
        with pytest.raises(Infeasible, match=message):
            aronow_samii_slack(problem.A, problem.omega)
        with pytest.raises(Infeasible, match=message):
            generalized_as_slack(problem.A, problem.omega, np.diag(np.arange(1.0, 7.0)))
        with pytest.raises(Infeasible, match=message):
            solve_optvb(problem, Objective.frobenius_squared())

    def test_unobservable_diagonal_without_pair_mass(self):
        # pairs through the pinned index with A = 0 book nothing on it
        A = np.array([[0.0, 0.0, 0.5], [0.0, 2.0, 1.0], [0.5, 1.0, 2.0]])
        S = aronow_samii_slack(A, {(0, 0), (0, 1), (1, 2)})
        expected = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])
        assert np.array_equal(S, expected)

    def test_weighted_slack_validation(self):
        A = np.eye(4)
        with pytest.raises(NonDiagonalW):
            generalized_as_slack(A, frozenset(), np.ones((4, 4)))
        with pytest.raises(NonPositiveWeight):
            generalized_as_slack(A, frozenset(), np.diag([1.0, -1.0, 1.0, 1.0]))


class TestTargeting:
    def test_single_vector_plus_ridge(self):
        W = targeting_from_vectors([(1.0, np.ones(4))], gamma=0.1)
        assert np.allclose(W, np.ones((4, 4)) + 0.1 * np.eye(4))

    def test_no_vectors_gives_identity(self):
        assert np.allclose(targeting_from_vectors([], gamma=1.0, dim=4), np.eye(4))

    def test_rank_deficient_warns(self):
        vecs = [(1.0, np.array([1.0, 0, 0, 0])), (1.0, np.array([0.0, 1, 0, 0]))]
        with pytest.warns(RuntimeWarning, match="positive definite"):
            W = targeting_from_vectors(vecs, gamma=0.0)
        assert np.allclose(W, np.diag([1.0, 1, 0, 0]))

    def test_covariate_targeting_closed_form(self):
        W = targeting_from_covariates(np.ones((2, 1)), sigma=1.0)
        block = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(W[:2, :2], block)
        assert np.allclose(W[2:, 2:], block)
        assert np.allclose(W[:2, 2:], 0.0)

    def test_large_sigma_dominates(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(3, 2))
        W = targeting_from_covariates(X, sigma=1e3)
        assert np.abs(W / 1e6 - np.eye(6)).max() < 1e-4

    def test_zero_covariates(self):
        W = targeting_from_covariates(np.zeros((2, 2)), sigma=2.0)
        assert np.allclose(W, 4.0 * np.eye(4))


class TestValidateBound:
    def test_worked_bounds_are_valid(self, illustration):
        for B in (B_MINNORM, B_PAIRWISE):
            v = validate_bound(A_ILLU, B, OMEGA_ILLU, 1e-8)
            assert v.conservative and v.design_compatible

    def test_raw_variance_matrix_is_not_compatible(self, illustration):
        v = validate_bound(A_ILLU, A_ILLU, OMEGA_ILLU, 1e-8)
        assert v.conservative
        assert not v.design_compatible
        assert v.max_omega_entry == pytest.approx(1.0)


class TestSolverConfig:
    @pytest.mark.parametrize("value", [2.7, True, "3", math.nan, math.inf, None])
    def test_non_integral_max_iterations_is_a_value_error(self, value):
        with pytest.raises(ValueError, match="max_iterations"):
            SolverConfig(max_iterations=value)

    @pytest.mark.parametrize("name", ["rho", "eps_abs", "eps_rel", "feasibility_tol"])
    @pytest.mark.parametrize("value", [0.0, math.nan, math.inf])
    def test_tolerances_and_rho_are_positive_and_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})

    def test_integral_float_max_iterations_becomes_int(self):
        config = SolverConfig(max_iterations=40.0)
        assert config.max_iterations == 40 and type(config.max_iterations) is int


def ring_ht_problem(n, count=None, seed=0):
    """The ladder's ring-spillover Bernoulli(0.5) HT problem: exact, or Monte
    Carlo with ``count`` draws."""
    ring = ExposureModel.spillover([[(i - 1) % n, (i + 1) % n] for i in range(n)])
    spec = EstimatorSpec(kind="horvitz-thompson")
    mode = {} if count is None else dict(mode="mc", count=count, seed=seed)
    problem, _ = build_variance_problem(Design.bernoulli(n, 0.5), ring, spec, **mode)
    return problem


def solver_log_lines(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "varbound.solver" and r.levelno == logging.DEBUG]


class TestAcceleration:
    """Anderson acceleration, the Frobenius² fold and the solver's debug log."""

    @staticmethod
    def direct_minimizer(prox_f, w, A, V, t):
        # proximal gradient on f(X) + [w ||X + A||^2 + ||X - V||^2 / (2t)]: the
        # bracket is a quadratic with curvature L = 2w + 1/t, and the step 1/(2L)
        # halves the distance to the minimizer every iteration
        L = 2.0 * w + 1.0 / t
        s = 0.5 / L
        X = V.copy()
        for _ in range(80):
            grad = 2.0 * w * (X + A) + (X - V) / t
            X = prox_f(X - s * grad, s)
        return X

    @pytest.mark.parametrize("kind", ["p1", "p2", "pinf", "targeted"])
    def test_folded_prox_equals_direct_minimization(self, kind):
        rng = np.random.default_rng(11)
        dim = 6
        A = linalg.symmetrize(rng.normal(size=(dim, dim)))
        V = linalg.symmetrize(rng.normal(size=(dim, dim)))
        W = linalg.symmetrize(rng.normal(size=(dim, dim)))
        weight, w, t = 0.7, 0.3, 0.9
        if kind == "targeted":
            term = (weight, solver_module.TargetedTerm(W=W))

            def prox_f(M, s):
                return M - s * weight * W
        else:
            p = {"p1": 1.0, "p2": 2.0, "pinf": math.inf}[kind]
            term = (weight, SchattenTerm(p=p))

            def prox_f(M, s):
                return linalg._prox_schatten(M + A, s * weight, p) - A

        objective = Objective.composite([term, (w, FrobeniusSquaredTerm())])
        blocks = solver_module._objective_blocks(objective, A)
        # the PSD projection, then the term with Frobenius² folded in
        assert len(blocks) == 2
        assert np.array_equal(blocks[0](V, t), linalg._project_psd(V))
        folded = blocks[1](V, t)
        direct = self.direct_minimizer(prox_f, w, A, V, t)
        assert np.abs(folded - direct).max() < 1e-10

    def test_frobenius_alone_runs_one_psd_block(self):
        rng = np.random.default_rng(5)
        dim = 6
        A = linalg.symmetrize(rng.normal(size=(dim, dim)))
        V = linalg.symmetrize(3.0 * rng.normal(size=(dim, dim)))
        w, t = 0.5, 2.0
        blocks = solver_module._objective_blocks(Objective.frobenius_squared(w), A)
        assert len(blocks) == 1
        folded = blocks[0](V, t)
        direct = self.direct_minimizer(lambda M, s: linalg._project_psd(M), w, A, V, t)
        assert 0 < np.linalg.matrix_rank(folded, tol=1e-9) < dim
        assert np.abs(folded - direct).max() < 1e-10

    def test_frobenius_alone_takes_fewer_evaluations(self):
        # with a separate closed-form Frobenius² block the solve took 28 map
        # evaluations; folded into the PSD projection it takes 16
        res = solve_optvb(ring_ht_problem(12, 2_000, 0), Objective.frobenius_squared())
        assert res.report.iterations <= 20

    def test_ring_ht_n12_converges_faster_than_unaccelerated(self):
        # Without acceleration (and without the fold) the same solves took 492
        # (composite) and 316 (admissibility) iterations; the fold alone gives
        # 330 and 316. Anderson acceleration must at least halve both.
        problem = ring_ht_problem(12, 2_000, 0)
        res = solve_optvb(problem, WORST_CASE)
        verdict = admissibility_of(res.S_star, problem.omega)
        assert verdict.admissible
        assert res.report.iterations <= 492 // 2
        assert verdict.report.iterations <= 316 // 2

    def test_iterates_stay_exactly_symmetric(self):
        problem = ring_ht_problem(6, 2_000, 0)
        res = solve_optvb(problem, WORST_CASE)
        assert np.array_equal(res.S_star, res.S_star.T)
        verdict = admissibility_of(res.S_star, problem.omega)
        assert np.array_equal(verdict.witness, verdict.witness.T)

    def test_one_debug_line_per_solve(self, caplog, illustration):
        caplog.set_level(logging.DEBUG, logger="varbound.solver")
        res = solve_optvb(illustration["problem"], WORST_CASE)
        verdict = admissibility_of(res.S_star, illustration["problem"].omega)
        lines = solver_log_lines(caplog)
        assert len(lines) == 2
        for line, report in zip(lines, (res.report, verdict.report)):
            assert line.startswith(f"consensus ADMM converged after {report.iterations} map evaluations")
            for field in ("accelerated steps accepted", "safeguard restarts", "rho changes",
                          "primal", "dual"):
                assert field in line
        assert lines[0].endswith(f", min_eig_slack {res.report.min_eig_slack:.3e}, "
                                 f"repair_norm {res.report.repair_norm:.3e}")
        tol = SolverConfig().feasibility_tol * max(1.0, float(np.linalg.norm(res.S_star)))
        rank = int(np.sum(np.linalg.eigvalsh(res.S_star) > tol))
        assert verdict.slack_rank == rank
        omega_size = len(illustration["problem"].omega)
        assert lines[1].endswith(f"; slack_rank {rank}, omega_size {omega_size}")

    def test_safeguard_restarts_on_the_random_pool(self, caplog):
        caplog.set_level(logging.DEBUG, logger="varbound.solver")
        rng = np.random.default_rng(2021)
        objectives = (Objective.frobenius_squared(), Objective.schatten(1), WORST_CASE)
        restarts = accepted = 0
        for _ in range(30):
            design, model, spec = random_scenario(rng)
            problem, _ = build_variance_problem(design, model, spec)
            for objective in objectives:
                res = solve_optvb(problem, objective)
                admissibility_of(res.S_star, problem.omega)
            text = "\n".join(solver_log_lines(caplog))
            restarts = sum(int(k) for k in re.findall(r"(\d+) safeguard restarts", text))
            accepted = sum(int(k) for k in re.findall(r"(\d+) accelerated steps", text))
            if restarts and accepted:
                break
        assert restarts > 0
        assert accepted > 0


def pool_problems(**mode):
    """The variance problems of the 30-draw random pool (rng 2021), exact or
    in the given Monte Carlo ``mode``."""
    rng = np.random.default_rng(2021)
    return [build_variance_problem(*random_scenario(rng), **mode)[0] for _ in range(30)]


class TestRhoBalancing:
    """rho set from the normalized residuals of the last accepted map value."""

    def test_ring_composite_at_n40(self):
        # 188, 138 and 165 map evaluations at Monte Carlo seeds 0-2; doubling
        # or halving rho at a tenfold residual imbalance took 245, 406 and 517
        counts = [solve_optvb(ring_ht_problem(40, 20_000, seed), WORST_CASE).report.iterations
                  for seed in range(3)]
        assert sum(counts) <= 600, counts

    # map evaluations over the pool per scale of A with the tenfold rule; the
    # balanced rule takes 2,544 / 534 / 2,465 (trace) and 5,081 / 1,256 /
    # 1,198 (composite)
    POOL_CAPS = {
        "trace": {1e-3: 9_782, 1.0: 534, 1e3: 8_901},
        "composite": {1e-3: 10_222, 1.0: 1_289, 1e3: 1_699},
    }

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("name", ["trace", "composite"])
    def test_bound_pool_in_any_units(self, name, scale):
        objective = {"trace": Objective.schatten(1), "composite": WORST_CASE}[name]
        total = 0
        for problem in pool_problems():
            scaled = VarianceProblem(n=problem.n, A=scale * problem.A, omega=problem.omega)
            total += solve_optvb(scaled, objective).report.iterations  # no MaxIterations
        assert total <= self.POOL_CAPS[name][scale]

    def test_bumped_slack_takes_as_many_evaluations_in_any_units(self):
        # pool draw 22's bumped pairwise slack: 57 and 58 map evaluations;
        # balancing on the current evaluation, often a rejected Anderson
        # candidate, took 57 and 104, and the tenfold rule 112 and 148
        problem = pool_problems()[22]
        S = bumped(aronow_samii_slack(problem.A, problem.omega))
        base, scaled = (admissibility_of(c * S, problem.omega).report.iterations
                        for c in (1.0, 1e3))
        assert abs(scaled - base) <= 0.1 * base, (base, scaled)

    def test_report_and_log_carry_the_rho_path(self, caplog):
        caplog.set_level(logging.DEBUG, logger="varbound.solver")
        problem = ring_ht_problem(12, 2_000, 0)
        res = solve_optvb(problem, WORST_CASE)
        verdict = admissibility_of(res.S_star, problem.omega)
        lines = solver_log_lines(caplog)
        assert len(lines) == 2
        for line, report in zip(lines, (res.report, verdict.report)):
            changes, final = re.search(r"(\d+) rho changes \(final rho ([^)]+)\)", line).groups()
            assert int(changes) == report.rho_changes
            assert float(final) == pytest.approx(report.final_rho, rel=1e-2)
            assert 1e-2 <= report.final_rho <= 1e2
        assert res.report.rho_changes >= 1
        assert res.report.final_rho != SolverConfig().rho

    def test_balanced_rho_rule(self):
        rule = solver_module._balanced_rho
        # rho * sqrt((r / ||Z||) / (s / (rho ||U||))) = 2 * sqrt(0.4 / 0.025)
        assert rule(2.0, 1.0, 4.0, 1.0, 10.0, 20.0) == pytest.approx(8.0)
        # unit-free: Z and r, or U and s, in other units give the same rho
        assert rule(2.0, 1.0, 4e3, 1e-3, 1e4, 2e-2) == pytest.approx(8.0)
        # no move within a factor 2 of rho
        assert rule(2.0, 1.0, 1.0, 1.0, 10.0, 20.0) is None
        # clipped to 100 times the starting rho either side
        assert rule(2.0, 1.0, 1e6, 1.0, 1.0, 1.0) == 100.0
        assert rule(2.0, 3.0, 1.0, 1e6, 1.0, 1.0) == pytest.approx(0.03)
        assert rule(100.0, 1.0, 1e6, 1.0, 1.0, 1.0) is None
        # nothing moves when a norm is 0
        for zero in range(4):
            norms = [1e6, 1.0, 1.0, 1.0]
            norms[zero] = 0.0
            assert rule(2.0, 1.0, *norms) is None


def bumped(S):
    """A slack above S in the semidefinite order: S + 0.5 e_0 e_0^T."""
    out = S.copy()
    out[0, 0] += 0.5
    return out


def sandwich_violation(S, T):
    """How far T leaves 0 <= T <= S: max(0, -lambda_min(T), -lambda_min(S - T))."""
    return max(0.0, -linalg.min_eigenvalue(T), -linalg.min_eigenvalue(linalg.symmetrize(S - T)))


def pool_slacks():
    """The 30-draw random pool (rng 2021), each draw with its Frobenius²
    OPT-VB slack, its pairwise slack and that slack bumped."""
    for i, problem in enumerate(pool_problems()):
        pairwise = aronow_samii_slack(problem.A, problem.omega)
        yield i, "frobenius", solve_optvb(problem, Objective.frobenius_squared()).S_star, problem.omega
        yield i, "pairwise", pairwise, problem.omega
        yield i, "bumped", bumped(pairwise), problem.omega


def check_against_oracle(S, omega, reference=None):
    """Compare the verdict on S with the reference program on d x d matrices.

    The verdicts agree, the witness lies in the sandwich 0 <= T <= S within
    tol and carries S's omega entries exactly, repeated runs are bitwise equal,
    and alpha agrees with the reference within 2e-6 (1 + tr S). A singular S
    leaves the sandwich no strictly feasible point, so a witness that leaves
    it by v can gain up to about sqrt(v ||S||_F) in trace. The reference's
    witness may sit its whole tolerance outside; the library solves on the
    range of S and stays inside. Where alpha falls short of the reference's
    by more than the gate, that reference witness must be outside the
    sandwich by enough to explain the gap. ``reference`` is the reference's
    result when already computed. Returns the verdict and whether it took
    that branch."""
    verdict = admissibility_of(S, omega)
    again = admissibility_of(S, omega)
    assert again.alpha == verdict.alpha
    assert np.array_equal(again.witness, verdict.witness)
    alpha_ref, witness_ref, admissible_ref = reference or ref_admissibility(S, omega)
    assert verdict.admissible == admissible_ref
    W = verdict.witness
    tol = SolverConfig().feasibility_tol * max(1.0, float(np.linalg.norm(S)))
    assert linalg.min_eigenvalue(W) >= -tol
    assert linalg.min_eigenvalue(S - W) >= -tol
    _, _, rows, cols = solver_module._omega_index(omega, len(S))
    assert np.array_equal(W[rows, cols], S[rows, cols])
    gate = 2e-6 * (1.0 + float(np.trace(S)))
    shortfall = alpha_ref - verdict.alpha
    assert shortfall >= -gate
    if shortfall <= gate:
        return verdict, False
    outside = max(-linalg.min_eigenvalue(witness_ref), -linalg.min_eigenvalue(S - witness_ref))
    assert shortfall <= math.sqrt(outside * float(np.linalg.norm(S)))
    return verdict, True


class TestRangeSpaceAdmissibility:
    """The admissibility program on the range of S against the d x d reference."""

    def test_matches_reference_on_the_random_pool(self):
        checked = inadmissible = 0
        degenerate = []
        references = {}  # some draws share their slack and omega
        for i, kind, S, omega in pool_slacks():
            key = (S.tobytes(), tuple(sorted(omega)))
            if key not in references:
                references[key] = ref_admissibility(S, omega)
            verdict, outside = check_against_oracle(S, omega, references[key])
            checked += 1
            inadmissible += not verdict.admissible
            if outside:
                degenerate.append((i, kind))
        assert checked == 90
        assert inadmissible >= 40
        # only the pairwise slacks of the two-unit Bernoulli spillover draws
        # (3, 11 and 14), whose singular S pins the sandwich: the reference
        # reads alpha 1.33397 with a witness 2.6e-7 outside, the library 4/3
        assert len(degenerate) <= 3
        assert {kind for _, kind in degenerate} <= {"pairwise"}

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_answer_does_not_depend_on_units_of_S(self, scale):
        for i, kind, S, omega in pool_slacks():
            if kind == "frobenius":
                continue
            base = admissibility_of(S, omega)
            verdict = admissibility_of(scale * S, omega)  # no MaxIterations
            assert verdict.admissible == base.admissible
            tol = SolverConfig().feasibility_tol * max(1.0, scale * float(np.linalg.norm(S)))
            assert sandwich_violation(scale * S, verdict.witness) <= tol, (i, kind)
            # alpha agrees to the solver's relative stopping tolerance
            gate = SolverConfig().eps_rel * (1.0 + np.trace(S))
            assert verdict.alpha / scale == pytest.approx(base.alpha, abs=gate)
            # the same program up to rounding, which can steer the safeguard
            # differently, but never into a scale-dependent stall
            ratio = verdict.report.iterations / base.report.iterations
            assert 1 / 1.5 <= ratio <= 1.5, (i, kind)

    def test_early_stop_leaves_the_sandwich_by_at_most_its_residual(self, monkeypatch):
        # the exit clips X into the box, so only the write-back of the omega
        # entries moves the witness, by about lambda_max(S) times the primal
        # residual; the singular pairwise draws leave it most
        admm, exits = solver_module._consensus_admm, []

        def recorded(*args, **kwargs):
            X, loop = admm(*args, **kwargs)
            exits.append(np.linalg.eigvalsh(X))
            return X, loop

        monkeypatch.setattr(solver_module, "_consensus_admm", recorded)
        worst, stopped = 0.0, 0
        for i, kind, S, omega in pool_slacks():
            try:
                verdict = admissibility_of(S, omega, SolverConfig(max_iterations=2))
            except MaxIterations as error:
                verdict, stopped = error.result, stopped + 1
            if verdict.slack_rank:
                assert -1e-12 <= exits[-1][0] and exits[-1][-1] <= 1.0 + 1e-12, (i, kind)
            tol = SolverConfig().feasibility_tol * max(1.0, float(np.linalg.norm(S)))
            reach = linalg.eigenvalues(S)[-1] * verdict.report.primal_residual
            violation = sandwich_violation(S, verdict.witness)
            assert violation <= reach + tol, (i, kind)
            worst = max(worst, violation / tol)
        assert stopped >= 40  # 48 of the 90 slacks
        assert worst > 1e3  # the bound is not vacuous on this pool

    def test_zero_slack_is_answered_in_closed_form(self, caplog):
        caplog.set_level(logging.DEBUG, logger="varbound.solver")
        S = np.zeros((4, 4))
        verdict, outside = check_against_oracle(S, OMEGA_ILLU)
        assert not outside
        assert verdict.slack_rank == 0
        assert verdict.alpha == 0.0
        assert verdict.report.iterations == 0
        assert np.array_equal(verdict.witness, S)
        assert "admissibility in closed form; slack_rank 0, omega_size 4" in solver_log_lines(caplog)

    def test_full_rank_slack(self):
        S = B_PAIRWISE - A_ILLU + np.eye(4)
        verdict, outside = check_against_oracle(S, OMEGA_ILLU)
        assert not outside
        assert verdict.slack_rank == 4
        assert not verdict.admissible

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    def test_eigenvalue_dust_inside_tol_is_dropped(self, sign, illustration):
        problem = illustration["problem"]
        clean = solve_optvb(problem, Objective.frobenius_squared(), TIGHT).S_star
        w, Q = np.linalg.eigh(clean)
        null = Q[:, np.abs(w) <= 1e-9]
        assert 0 < null.shape[1] < 4
        tol = SolverConfig().feasibility_tol * max(1.0, float(np.linalg.norm(clean)))
        S = linalg.symmetrize(clean + sign * 0.3 * tol * null @ null.T)
        verdict, outside = check_against_oracle(S, problem.omega)
        assert not outside
        assert verdict.slack_rank == 4 - null.shape[1]
        assert verdict.admissible
        assert verdict.report.iterations == admissibility_of(clean, problem.omega).report.iterations

    def test_rank_one_slacks_with_singular_gram(self):
        # the targeted solutions of the 20 draws of acceptance criterion 7
        # (paired, spillover and complete-randomization designs): most have
        # rank 1 with several omega pairs, so the Gram of the omega
        # constraints in X has rank 1 too
        rng = np.random.default_rng(99)
        rank_one = 0
        done = 0
        outside_draws = []
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
            S = solve_optvb(problem, Objective.targeted(W)).S_star
            verdict, outside = check_against_oracle(S, problem.omega)
            assert verdict.admissible
            if outside:
                outside_draws.append(done)
            rank_one += verdict.slack_rank == 1 and len(problem.omega) > 1
            done += 1
        assert rank_one >= 10
        # no draw needs the singular-sandwich branch; the hardest is draw 3
        # (complete randomization, n = 3, ||S||_F = 26, rank 3 above three
        # eigenvalues of S within tol), where the reference reads alpha 4.3e-7
        # and the library 3.7e-8
        assert outside_draws == []

    @pytest.mark.parametrize("kind", ["frobenius", "pairwise", "bumped"])
    def test_two_cluster_design_with_more_pairs_than_rows(self, kind):
        # n = 12 in two clusters: 144 omega pairs against d = 24, and the
        # Frobenius² slack has rank 1, so the 144 constraints on X are one
        problem, _ = build_variance_problem(
            Design.cluster([range(6), range(6, 12)], 1), ExposureModel.identity(12),
            EstimatorSpec(kind="horvitz-thompson"),
        )
        assert len(problem.omega) == 144
        pairwise = aronow_samii_slack(problem.A, problem.omega)
        S = {"frobenius": solve_optvb(problem, Objective.frobenius_squared()).S_star,
             "pairwise": pairwise, "bumped": bumped(pairwise)}[kind]
        verdict, outside = check_against_oracle(S, problem.omega)
        assert not outside
        assert verdict.admissible == (kind == "frobenius")
        if kind == "frobenius":
            assert verdict.slack_rank == 1

    def test_two_cluster_bump_takes_few_evaluations(self):
        # n = 40 in two clusters, the pairwise slack plus 0.5 ||S||_2 v v^T
        # with v a unit normal draw: 159 and 716 map evaluations with the
        # linear objective folded into the box projection; with the linear
        # prox as a block of its own 445 and 915 under a threaded BLAS, and
        # 476 and 2,447 on one BLAS thread
        problem, _ = build_variance_problem(
            Design.cluster([range(20), range(20, 40)], 1), ExposureModel.identity(40),
            EstimatorSpec(kind="horvitz-thompson"),
        )
        pairwise = aronow_samii_slack(problem.A, problem.omega)
        total = 0
        for seed in (0, 1):
            v = np.random.default_rng(seed).normal(size=80)
            v /= np.linalg.norm(v)
            S = pairwise + 0.5 * np.linalg.norm(pairwise, 2) * np.outer(v, v)
            verdict, outside = check_against_oracle(S, problem.omega)
            assert not outside
            assert not verdict.admissible
            total += verdict.report.iterations
        assert total <= 1_100, total

    def test_memory_does_not_grow_with_the_pairs(self):
        # n = 40 in two clusters has 1,600 omega pairs; the slice projection
        # works on d x d and r x r matrices, so the traced peak stays far
        # below one 1,600 x 1,600 float64 matrix (20.5 MB)
        problem, _ = build_variance_problem(
            Design.cluster([range(20), range(20, 40)], 1), ExposureModel.identity(40),
            EstimatorSpec(kind="horvitz-thompson"),
        )
        pairs = len(problem.omega)
        assert pairs == 1600
        for S in (solve_optvb(problem, Objective.frobenius_squared()).S_star,
                  aronow_samii_slack(problem.A, problem.omega)):
            tracemalloc.start()
            try:
                admissibility_of(S, problem.omega)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * pairs**2 / 4

    @pytest.mark.parametrize("n, count, objective", [
        (12, 2_000, WORST_CASE), (40, 2_000, Objective.frobenius_squared()),
    ], ids=["ring12", "ring40-mc"])
    def test_ring_ladder(self, n, count, objective):
        problem = ring_ht_problem(n, count, 0)
        S = solve_optvb(problem, objective).S_star
        verdict, outside = check_against_oracle(S, problem.omega)
        assert verdict.admissible
        assert not outside
        assert verdict.slack_rank < 2 * n


def two_cluster_problem(n):
    """Exact HT under two clusters of n / 2 units, one treated, with the
    identity rule: n^2 omega pairs, each coordinate in n of them."""
    problem, _ = build_variance_problem(
        Design.cluster([range(n // 2), range(n // 2, n)], 1), ExposureModel.identity(n),
        EstimatorSpec(kind="horvitz-thompson"),
    )
    return problem


def bitwise_equal(X, Y):
    return X.dtype == Y.dtype and X.shape == Y.shape and X.tobytes() == Y.tobytes()


class TestPairwiseSlackReference:
    """The pairwise slack equals the per-pair loop of
    ``conftest.ref_pairwise_slack`` bit for bit, and refuses as it does."""

    @staticmethod
    def check(problem, rng):
        A, omega = problem.A, problem.omega
        W = np.diag(rng.uniform(0.1, 10.0, len(A)))
        assert bitwise_equal(generalized_as_slack(A, omega, W), ref_pairwise_slack(A, omega, W))
        assert bitwise_equal(aronow_samii_slack(A, omega),
                             ref_pairwise_slack(A, omega, np.eye(len(A))))

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_random_pool(self, mode):
        kwargs = {} if mode == "exact" else dict(mode="mc", count=2_000, seed=0)
        rng = np.random.default_rng(290)
        for problem in pool_problems(**kwargs):
            self.check(problem, rng)

    def test_two_cluster_n40(self):
        problem = two_cluster_problem(40)
        assert len(problem.omega) == 1_600
        self.check(problem, np.random.default_rng(291))

    def test_three_cluster_ring_n12(self):
        n = 12
        ring = ExposureModel.spillover([[(i - 1) % n, (i + 1) % n] for i in range(n)])
        problem, _ = build_variance_problem(
            Design.cluster([range(4), range(4, 8), range(8, 12)], 1), ring,
            EstimatorSpec(kind="horvitz-thompson"))
        self.check(problem, np.random.default_rng(292))

    def test_refusals_match(self):
        # pinned diagonals of every sign, crossed by pairs with and without
        # mass: the same error, message and first offender as the reference
        rng = np.random.default_rng(293)
        seen = set()
        for _ in range(300):
            G = rng.normal(size=(6, 6))
            A = G + G.T
            A[rng.random((6, 6)) < 0.3] = 0.0
            A = np.triu(A) + np.triu(A, 1).T
            pinned = rng.choice(6, size=int(rng.integers(0, 3)), replace=False)
            A[pinned, pinned] *= rng.choice([-1.0, 0.0, 1.0], size=len(pinned))
            pairs = {tuple(rng.choice(6, size=2, replace=False)) for _ in range(4)}
            omega = pairs | {(k, k) for k in pinned.tolist()}
            W = np.diag(rng.uniform(0.5, 2.0, 6))
            got, expected = [self.outcome(f, A, omega, W)
                             for f in (generalized_as_slack, ref_pairwise_slack)]
            if isinstance(expected, np.ndarray):
                assert bitwise_equal(got, expected)
            else:
                assert got == expected
            seen.add(expected[0].__name__ if isinstance(expected, tuple) else "slack")
        assert seen == {"Infeasible", "VarboundError", "slack"}

    @staticmethod
    def outcome(f, *args):
        try:
            return f(*args)
        except VarboundError as exc:
            return type(exc), str(exc)


def objectives_at(dim):
    """Frobenius², trace (targeted at W = I) and the worst-case composite."""
    return {"frobenius": Objective.frobenius_squared(), "trace": Objective.targeted(np.eye(dim)),
            "composite": WORST_CASE}


def repair(Z, omega):
    ks, ls, rows, cols = solver_module._omega_index(omega, len(Z))
    return solver_module._repair(Z, ks, ls, rows, cols)


class TestExactlyValidOutputs:
    """OPT-VB stops on its residuals and repairs once: every output is
    positive semidefinite up to rounding, carries -A bitwise on omega, and
    costs at most 1e-6 relative in objective against a tight solve."""

    TIGHT_STOP = SolverConfig(eps_rel=1e-10, eps_abs=1e-12, max_iterations=200_000)

    def check_valid(self, problem, objective):
        res = solve_optvb(problem, objective)
        S = res.S_star
        bound = 1e-12 * np.linalg.norm(S, 2)
        assert np.linalg.eigvalsh(S)[0] >= -bound
        assert res.report.min_eig_slack >= -bound
        _, _, rows, cols = solver_module._omega_index(problem.omega, len(S))
        assert np.array_equal(S[rows, cols], -problem.A[rows, cols])
        assert res.report.max_omega_violation == 0.0
        tight = solve_optvb(problem, objective, self.TIGHT_STOP).report.objective_value
        assert res.report.objective_value == pytest.approx(tight, rel=1e-6)
        return res

    @pytest.mark.parametrize("objective", ["frobenius", "trace", "composite"])
    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_random_pool(self, mode, objective):
        kwargs = {} if mode == "exact" else dict(mode="mc", count=2_000, seed=0)
        for problem in pool_problems(**kwargs):
            self.check_valid(problem, objectives_at(len(problem.A))[objective])

    @pytest.mark.parametrize("objective", ["frobenius", "trace", "composite"])
    @pytest.mark.parametrize("count", [None, 20_000], ids=["exact", "mc"])
    def test_ring_n40(self, count, objective):
        self.check_valid(ring_ht_problem(40, count), objectives_at(80)[objective])

    @pytest.mark.parametrize("objective", ["frobenius", "trace", "composite"])
    def test_outputs_are_admissible_on_the_exact_ring_n40(self, objective):
        # the paper's proposition at ladder size: under a strictly monotone
        # objective every OPT-VB output is admissible (15, 2 and 17 map
        # evaluations)
        problem = ring_ht_problem(40)
        S = solve_optvb(problem, objectives_at(80)[objective]).S_star
        assert admissibility_of(S, problem.omega).admissible

    def test_repair_keeps_admissibility_cheap(self):
        # the composite of mc-solve's job 13 at workload seed 3003: shifting
        # the slack by delta I, delta = -lambda_min, lifted its null space to
        # about 6e-7, right at the rank cut feasibility_tol * max(1, ||S||_F),
        # and the admissibility test then ran to 50,000 map evaluations; after
        # the repair it takes 27
        problem = ring_ht_problem(40, 20_000, 2176654626)
        S = solve_optvb(problem, WORST_CASE).S_star
        verdict = admissibility_of(S, problem.omega, SolverConfig(max_iterations=100))
        assert verdict.admissible


class TestRepair:
    """``solver._repair``: the nearest PSD matrix plus PSD 2x2 blocks that
    give the omega entries back."""

    OMEGA = {(0, 4), (1, 5), (2, 6), (3, 7), (0, 1), (2, 3), (6, 6), (6, 7)}

    def test_random_symmetric_matrices(self):
        rng = np.random.default_rng(28)
        ks, ls, rows, cols = solver_module._omega_index(self.OMEGA, 8)
        free = np.ones((8, 8), dtype=bool)
        free[rows, cols] = False
        for _ in range(50):
            G = rng.normal(size=(8, 8))
            Z = G + G.T
            # (6, 6) is pinned: its own entry and the pairs through it are 0
            Z[6, 6] = Z[2, 6] = Z[6, 2] = Z[6, 7] = Z[7, 6] = 0.0
            S, fields = repair(Z, self.OMEGA)
            assert np.array_equal(S, S.T)
            assert np.array_equal(S[rows, cols], Z[rows, cols])
            lam = np.linalg.eigvalsh(S)
            assert lam[0] >= -1e-12 * np.abs(lam).max()
            assert fields["min_eig_slack"] == lam[0]
            assert fields["repair_norm"] == np.linalg.norm(S - Z) > 0.0
            assert np.abs(S[6]).max() <= 1e-12 * np.abs(lam).max()
            # what the repair adds beyond the nearest PSD matrix is PSD
            pinned = Z.copy()
            pinned[6, free[6]] = pinned[free[:, 6], 6] = 0.0
            extra = S - linalg._project_psd(pinned)
            assert np.linalg.eigvalsh(extra)[0] >= -1e-12 * np.abs(lam).max()

    def test_psd_input_comes_back_unchanged(self):
        rng = np.random.default_rng(29)
        G = rng.normal(size=(8, 8))
        Z = G @ G.T + np.eye(8)
        S, fields = repair(Z, self.OMEGA - {(6, 6)})
        assert np.array_equal(S, Z)
        assert fields["repair_norm"] == 0.0
        assert fields["min_eig_slack"] == np.linalg.eigh(Z)[0][0]

    def test_indices_in_several_omega_pairs(self):
        # two clusters of three units: each coordinate sits in six omega
        # pairs, so each repaired diagonal sums six terms. The old
        # construction moved N_kl onto the diagonals in its own order; the
        # omega entries agree bitwise, the diagonals up to rounding
        omega = two_cluster_problem(6).omega
        ks, ls, rows, cols = solver_module._omega_index(omega, 12)
        k, l = ks[ks != ls], ls[ks != ls]
        assert np.bincount(np.r_[k, l]).min() == 6
        rng = np.random.default_rng(2929)
        for _ in range(50):
            G = rng.normal(size=(12, 12))
            Z = G + G.T
            S, _ = repair(Z, omega)
            w, Q = linalg._eigh(Z)
            N = -linalg._from_eig(np.minimum(w, 0.0), Q)
            a = np.abs(N[k, l])
            N[k, l] = N[l, k] = 0.0
            np.add.at(N, (np.r_[k, l], np.r_[k, l]), np.r_[a, a])
            old = Z + N
            old[rows, cols] = Z[rows, cols]
            assert bitwise_equal(S[rows, cols], old[rows, cols])
            np.testing.assert_allclose(S, old, rtol=1e-15, atol=0)
            assert np.linalg.eigvalsh(S)[0] >= -1e-12 * np.linalg.norm(S, 2)

    def test_omega_is_indexed_once_per_solve(self, monkeypatch):
        # the start and the repair both take the pairwise slack on the
        # solve's one index; pool draw 0's Frobenius² slack needs the repair
        problem = pool_problems()[0]
        calls = {"_omega_index": 0, "_pairwise_slack": 0}
        for name in calls:
            inner = getattr(solver_module, name)

            def counted(*args, inner=inner, name=name):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(solver_module, name, counted)
        assert solve_optvb(problem, Objective.frobenius_squared()).report.repair_norm > 0.0
        assert calls == {"_omega_index": 1, "_pairwise_slack": 2}

    def test_solve_with_a_pinned_row(self):
        # test_unobservable_diagonal_without_pair_mass's A: omega pins (0, 0)
        # and (0, 1), so PSD forces the free S_02 to 0, against the pull of
        # A_02 = 0.5; the minimum-norm slack is the pairwise one
        A = np.array([[0.0, 0.0, 0.5], [0.0, 2.0, 1.0], [0.5, 1.0, 2.0]])
        problem = SimpleNamespace(A=A, omega=frozenset({(0, 0), (0, 1), (1, 2)}))
        res = solve_optvb(problem, Objective.frobenius_squared(), TIGHT)
        S = res.S_star
        assert S[0, 0] == S[0, 1] == 0.0 and S[1, 2] == -1.0
        assert abs(S[0, 2]) <= 1e-12
        assert np.linalg.eigvalsh(S)[0] >= -1e-12 * np.linalg.norm(S, 2)
        assert np.abs(S - aronow_samii_slack(A, problem.omega)).max() < 1e-5


class TestRelabelingAtLadderSize:
    """Renaming the units permutes A and omega; on the exact n = 40 ring and
    two-cluster problems the OPT-VB objectives stay within 1e-9 relative (1e-8
    on the clusters, see below) and every admissibility verdict stays the
    same."""

    @staticmethod
    def outputs(problem):
        """Objective and verdict of each OPT-VB slack; the verdicts of the
        pairwise slack (admissible on the ring, not on the clusters) and of it
        plus the rank-one bump 0.5 * 1 1^T (admissible on neither), with 0.0
        in place of an objective."""
        out = {}
        for name, objective in objectives_at(len(problem.A)).items():
            res = solve_optvb(problem, objective)
            out[name] = (res.report.objective_value,
                         admissibility_of(res.S_star, problem.omega).admissible)
        pairwise = aronow_samii_slack(problem.A, problem.omega)
        for name, S in (("pairwise", pairwise), ("bumped", pairwise + 0.5)):
            out[name] = (0.0, admissibility_of(S, problem.omega).admissible)
        return out

    # On the clusters the trace slack moves by 6e-9 relative between
    # labelings, at the default stop and at eps_rel 1e-10 alike: the repair
    # books the pairwise slack of N, 2 sum |N_kl| over 1,600 pairs, on the
    # trace, and N comes out of a different rounding path (repair_norm 3.7e-8
    # unrenamed, 9.4e-8 renamed)
    @pytest.mark.parametrize("problem_of, rel", [(ring_ht_problem, 1e-9),
                                                 (two_cluster_problem, 1e-8)],
                             ids=["ring", "two-cluster"])
    def test_objectives_and_verdicts_at_n40(self, problem_of, rel):
        n = 40
        problem = problem_of(n)
        expected = self.outputs(problem)
        rng = np.random.default_rng(2940)
        for _ in range(2):
            perm = rng.permutation(n)
            coords = np.concatenate([perm, perm + n])
            new = np.argsort(coords)
            moved = SimpleNamespace(
                A=problem.A[np.ix_(coords, coords)],
                omega=frozenset((int(new[k]), int(new[l])) for k, l in problem.omega))
            got = self.outputs(moved)
            assert got.keys() == expected.keys()
            for name, (value, admissible) in expected.items():
                assert got[name][0] == pytest.approx(value, rel=rel, abs=0)
                assert got[name][1] == admissible
