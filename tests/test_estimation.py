"""Bound estimation from realized data and its precision diagnostics."""

import math

import numpy as np
import pytest

from varbound import (
    Design,
    EstimatorSpec,
    ExposureModel,
    Objective,
    RealizedData,
    SolverConfig,
    build_variance_problem,
    empirical_mse,
    enumerate_assignments,
    estimation_gamma,
    estimator_value,
    ht_bound_estimate,
    linalg,
    mse_upper_bound,
    observe,
    pair_observation_probabilities,
    r_covariance_opnorm,
    solve_optvb,
    validate_realized,
)
from varbound.errors import (
    IncompatibleBound,
    InvalidConjugatePair,
    MissingOutcome,
    SupportTooLarge,
)
from varbound.estimation import RDiagnostics, _r_vectors
from varbound.experiment import _AssignmentBlocks, _observation_matrix, _weighted_moments
from conftest import A_ILLU, B_MINNORM, random_scenario


def cluster_coin_design():
    """Two clusters of two units, each cluster an independent fair coin."""
    assignments = [
        ((0, 0, 0, 0), 0.25),
        ((0, 0, 1, 1), 0.25),
        ((1, 1, 0, 0), 0.25),
        ((1, 1, 1, 1), 0.25),
    ]
    return Design.explicit(assignments), ExposureModel.identity(4)


class TestHtBoundEstimate:
    def test_two_voter_direct_substitution(self, illustration):
        table = illustration["table"]
        model = illustration["model"]
        rng = np.random.default_rng(1)
        theta = rng.normal(size=4)
        est = ht_bound_estimate(B_MINNORM, observe(model, (1, 0), theta), table, 2)
        # observed pair probabilities are all one half, so the sum telescopes
        assert est == pytest.approx((theta[0] - theta[3]) ** 2, abs=1e-12)

    def test_two_voter_enumeration_average(self, illustration):
        table = illustration["table"]
        model = illustration["model"]
        theta = np.array([1.0, 2.0, 3.0, 4.0])
        est_10 = ht_bound_estimate(B_MINNORM, observe(model, (1, 0), theta), table, 2)
        est_01 = ht_bound_estimate(B_MINNORM, observe(model, (0, 1), theta), table, 2)
        assert est_10 == pytest.approx(9.0)
        assert est_01 == pytest.approx(1.0)
        mean = 0.5 * est_10 + 0.5 * est_01
        assert mean == pytest.approx(linalg.quadratic_form_value(B_MINNORM, theta, 2))

    def test_zero_bound(self, illustration):
        data = observe(illustration["model"], (1, 0), np.ones(4))
        assert ht_bound_estimate(np.zeros((4, 4)), data, illustration["table"], 2) == 0.0

    def test_incompatible_bound_rejected(self, illustration):
        data = observe(illustration["model"], (1, 0), np.ones(4))
        with pytest.raises(IncompatibleBound):
            ht_bound_estimate(A_ILLU, data, illustration["table"], 2)

    def test_threshold_refuses_rare_pairs(self):
        design = Design.bernoulli(2, 0.5)
        model = ExposureModel.identity(2)
        problem, table = build_variance_problem(design, model, EstimatorSpec(kind="horvitz-thompson"))
        B = np.zeros((4, 4))
        B[0, 1] = B[1, 0] = 1.0
        B[0, 0] = B[1, 1] = 1.0
        data = observe(model, (1, 1), np.ones(4))
        # P2[0, 1] = 1/4 is fine at c = 0 but refused at c = 0.3
        assert ht_bound_estimate(B, data, table, 2) > 0
        with pytest.raises(IncompatibleBound):
            ht_bound_estimate(B, data, table, 2, threshold_c=0.3)

    def test_outcome_key_range_checked(self, illustration):
        data = RealizedData(z=(1, 0), outcomes={0: 1.0, 9: 2.0})
        with pytest.raises(MissingOutcome):
            ht_bound_estimate(B_MINNORM, data, illustration["table"], 2)

    def test_validate_realized(self, illustration):
        model = illustration["model"]
        good = observe(model, (1, 0), np.ones(4))
        validate_realized(good, model)
        with pytest.raises(MissingOutcome):
            validate_realized(RealizedData(z=(1, 0), outcomes={0: 1.0}), model)


class TestUnbiasedness:
    def test_enumerable_scenarios(self):
        rng = np.random.default_rng(8)
        config = SolverConfig(eps_abs=1e-11, eps_rel=1e-9)
        for _ in range(4):
            design, model, spec = random_scenario(rng)
            problem, table = build_variance_problem(design, model, spec)
            B = solve_optvb(problem, Objective.frobenius_squared(), config).B_star
            support = enumerate_assignments(design)
            for _ in range(5):
                theta = rng.normal(size=2 * model.n)
                target = linalg.quadratic_form_value(B, theta, model.n)
                mean = sum(
                    p * ht_bound_estimate(B, observe(model, z, theta), table, model.n)
                    for z, p in support
                )
                assert mean == pytest.approx(target, abs=1e-10)

    def test_conservative_in_expectation(self):
        # expected estimate covers the true estimator variance
        rng = np.random.default_rng(9)
        config = SolverConfig(eps_abs=1e-11, eps_rel=1e-9)
        for _ in range(3):
            design, model, spec = random_scenario(rng)
            problem, table = build_variance_problem(design, model, spec)
            B = solve_optvb(problem, Objective.frobenius_squared(), config).B_star
            support = enumerate_assignments(design)
            pi = pair_observation_probabilities(design, model).pi
            for _ in range(5):
                theta = rng.normal(size=2 * model.n)
                mean_est = sum(
                    p * ht_bound_estimate(B, observe(model, z, theta), table, model.n)
                    for z, p in support
                )
                vals = np.array([
                    estimator_value(spec, model, z, pi, theta) for z, _ in support
                ])
                probs = np.array([p for _, p in support])
                true_var = probs @ (vals - probs @ vals) ** 2
                assert mean_est >= true_var - 1e-10


class TestRCovariance:
    def test_independent_exposures_value(self):
        # with independent exposures and a diagonal-support bound the
        # inverse-propensity indicators have operator norm exactly two
        design = Design.bernoulli(2, 0.5)
        model = ExposureModel.identity(2)
        problem, table = build_variance_problem(design, model, EstimatorSpec(kind="horvitz-thompson"))
        B = solve_optvb(problem, Objective.frobenius_squared()).B_star
        assert np.allclose(B, 2 * np.eye(4), atol=1e-6)
        # support is structural: ignore entries at solver precision
        diag = r_covariance_opnorm(design, model, B, table, support_tol=1e-6)
        assert diag.opnorm_cov_R == pytest.approx(2.0, abs=1e-6)

    def test_point_mass_design(self):
        design = Design.explicit([((1, 0), 1.0)])
        model = ExposureModel.identity(2)
        table = build_variance_problem(design, model, EstimatorSpec(kind="horvitz-thompson"))[1]
        B = np.diag([1.0, 0.0, 0.0, 1.0])
        diag = r_covariance_opnorm(design, model, B, table)
        assert diag.opnorm_cov_R == pytest.approx(0.0, abs=1e-12)

    def test_perfectly_correlated_clusters(self):
        # exposures perfectly correlated within clusters of two: the norm is
        # twice the cluster size for a bound supported on the diagonal
        design, model = cluster_coin_design()
        problem, table = build_variance_problem(design, model, EstimatorSpec(kind="horvitz-thompson"))
        B = 4.0 * np.eye(8)
        v = linalg.loewner_dominates(B, problem.A, 1e-10)
        assert v  # diagonal bound is valid here
        diag = r_covariance_opnorm(design, model, B, table)
        assert diag.opnorm_cov_R == pytest.approx(4.0, abs=1e-9)

    def test_mc_close_to_exact(self):
        design = Design.bernoulli(2, 0.5)
        model = ExposureModel.identity(2)
        _, table = build_variance_problem(design, model, EstimatorSpec(kind="horvitz-thompson"))
        B = 2 * np.eye(4)
        exact = r_covariance_opnorm(design, model, B, table).opnorm_cov_R
        mc = r_covariance_opnorm(
            design, model, B, table, mode="mc", count=60_000, seed=4
        ).opnorm_cov_R
        assert abs(mc - exact) < 0.05

    def test_table_computed_when_omitted(self):
        design = Design.bernoulli(2, 0.5)
        model = ExposureModel.identity(2)
        B = 2 * np.eye(4)
        assert r_covariance_opnorm(design, model, B).opnorm_cov_R == pytest.approx(2.0, abs=1e-9)
        mc = r_covariance_opnorm(design, model, B, mode="mc", count=30_000, seed=2)
        assert abs(mc.opnorm_cov_R - 2.0) < 0.1
        theta = np.array([1.0, 2.0, 3.0, 4.0])
        with_table = empirical_mse(
            design, model, B,
            build_variance_problem(design, model, EstimatorSpec(kind="horvitz-thompson"))[1],
            theta,
        )
        assert empirical_mse(design, model, B, theta=theta) == pytest.approx(with_table)

    def test_exact_unit_cap(self):
        n = 9
        design = Design.bernoulli(n, 0.5)
        model = ExposureModel.identity(n)
        table = build_variance_problem(design, model, EstimatorSpec(kind="horvitz-thompson"))[1]
        with pytest.raises(SupportTooLarge):
            r_covariance_opnorm(design, model, np.eye(2 * n), table)

    def test_mc_threads_deterministic(self):
        design = Design.bernoulli(3, 0.5)
        model = ExposureModel.identity(3)
        B = 2 * np.eye(6)
        runs = [
            r_covariance_opnorm(
                design, model, B, mode="mc", count=8000, seed=9, threads=3
            ).opnorm_cov_R
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


def _compatible_bound(rng, table):
    """A random symmetric matrix that vanishes on every never-jointly-observed pair."""
    M = rng.normal(size=table.P2.shape)
    return (M + M.T) * (table.P2 > 0)


class TestPerAssignmentOracle:
    """Batched estimation diagnostics against sums of ht_bound_estimate over the support."""

    def test_random_scenarios(self):
        rng = np.random.default_rng(14)
        for _ in range(8):
            design, model, _ = random_scenario(rng)
            n = model.n
            table = pair_observation_probabilities(design, model)
            B = _compatible_bound(rng, table)
            theta = rng.normal(size=2 * n)
            support = enumerate_assignments(design)
            probs = np.array([p for _, p in support])
            ests = np.array([
                ht_bound_estimate(B, observe(model, z, theta), table, n) for z, _ in support
            ])
            target = linalg.quadratic_form_value(B, theta, n)
            mse = float(probs @ (ests - target) ** 2)
            assert empirical_mse(design, model, B, table, theta) == pytest.approx(
                mse, rel=1e-12, abs=1e-14)
            # R . vec(B o theta theta') is n^2 times the estimate, so the
            # quadratic form of Cov(R) at that vector is n^4 Var(estimate)
            mean, second = _weighted_moments(
                _AssignmentBlocks(design),
                lambda Z: _r_vectors(B, table, _observation_matrix(model, Z)),
            )
            v = (B * np.outer(theta, theta)).ravel()
            cov_form = float(v @ second @ v - (mean @ v) ** 2)
            var = float(probs @ (ests - probs @ ests) ** 2) * n**4
            assert cov_form == pytest.approx(var, rel=1e-12, abs=1e-12 * float(v @ second @ v))


class TestMseUpperBound:
    def test_plugin_arithmetic(self):
        diag = RDiagnostics(opnorm_cov_R=2.0)
        value = mse_upper_bound(diag, 1.0, B_MINNORM, 2)
        # eight entries of magnitude two: frobenius norm squared is 32,
        # so the bound is 2 * 1 * 32 / 4
        assert value == pytest.approx(16.0)

    def test_zero_bound(self):
        diag = RDiagnostics(opnorm_cov_R=2.0)
        assert mse_upper_bound(diag, 1.0, np.zeros((4, 4)), 2) == 0.0

    def test_moment_form_matches_term_by_term(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(4, 4))
        B = (M + M.T) / 2
        theta = rng.normal(size=4)
        diag = RDiagnostics(opnorm_cov_R=1.7)
        got = mse_upper_bound(diag, theta, B, 2, p=2, q=2)
        expected = (
            1.7 * linalg.entrywise_norm(B, 4, 2) ** 2 * float(np.sum(theta**4)) / 4
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_moment_form_at_uniform_conjugates(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(4, 4))
        B = (M + M.T) / 2
        theta = rng.normal(size=4)
        diag = RDiagnostics(opnorm_cov_R=1.0)
        got = mse_upper_bound(diag, theta, B, 2, p=1, q=math.inf)
        expected = linalg.schatten_norm(B, 2) ** 2 * float(np.max(np.abs(theta))) ** 4 / 4
        assert got == pytest.approx(expected, rel=1e-12)

    def test_conjugate_validation(self):
        diag = RDiagnostics(opnorm_cov_R=1.0)
        with pytest.raises(InvalidConjugatePair):
            mse_upper_bound(diag, np.ones(4), np.eye(4), 2, p=2, q=3)
        with pytest.raises(InvalidConjugatePair):
            mse_upper_bound(diag, 1.0, np.eye(4), 2, p=2, q=2)


class TestEmpiricalMse:
    def test_two_voter_value(self, illustration):
        theta = np.array([1.0, 2.0, 3.0, 4.0])
        got = empirical_mse(
            illustration["design"], illustration["model"], B_MINNORM,
            illustration["table"], theta,
        )
        # estimates are 9 and 1 around a mean of 5
        assert got == pytest.approx(16.0)

    def test_point_mass_design(self):
        design = Design.explicit([((1, 0), 1.0)])
        model = ExposureModel.identity(2)
        table = build_variance_problem(design, model, EstimatorSpec(kind="horvitz-thompson"))[1]
        B = np.diag([1.0, 0.0, 0.0, 1.0])
        assert empirical_mse(design, model, B, table, np.ones(4)) == pytest.approx(0.0)

    def test_mc_mode_agrees_with_exact(self, illustration):
        theta = np.array([1.0, 2.0, 3.0, 4.0])
        exact = empirical_mse(
            illustration["design"], illustration["model"], B_MINNORM,
            illustration["table"], theta,
        )
        approx = empirical_mse(
            illustration["design"], illustration["model"], B_MINNORM,
            illustration["table"], theta, mode="mc", count=4000, seed=6,
        )
        # two equally likely estimates, so the sample mean has binomial error
        assert abs(approx - exact) < 1.5

    def test_mc_without_table_beyond_exact_cap(self):
        # n = 24 exceeds the exact support cap; the table must come from the
        # same draws, so the result equals the one with that table passed in
        n = 24
        design = Design.bernoulli(n, 0.5)
        model = ExposureModel.spillover([[(i - 1) % n, (i + 1) % n] for i in range(n)])
        B = np.eye(2 * n)
        theta = np.random.default_rng(3).normal(size=2 * n)
        mc = dict(mode="mc", count=2000, seed=11, threads=2)
        got = empirical_mse(design, model, B, theta=theta, **mc)
        table = pair_observation_probabilities(design, model, **mc)
        assert got == empirical_mse(design, model, B, table, theta, **mc)
        assert 0.0 < got < np.inf

    def test_dominated_by_error_bound(self, illustration):
        # normalized error never exceeds the uniform-form bound once the
        # outcome scale is one
        rng = np.random.default_rng(5)
        design, model = illustration["design"], illustration["model"]
        table = illustration["table"]
        diag = r_covariance_opnorm(design, model, B_MINNORM, table)
        for _ in range(10):
            theta = rng.uniform(-1, 1, size=4)
            theta /= np.abs(theta).max()
            mse = empirical_mse(design, model, B_MINNORM, table, theta)
            cap = mse_upper_bound(diag, 1.0, B_MINNORM, 2)
            assert 4.0 * mse <= cap + 1e-9


class TestEstimationGamma:
    def test_products(self):
        assert estimation_gamma(RDiagnostics(opnorm_cov_R=2.0), 1.0) == 2.0
        assert estimation_gamma(RDiagnostics(opnorm_cov_R=2.0), 3.0) == 6.0

    def test_zero_warns(self):
        with pytest.warns(RuntimeWarning, match="regularizer"):
            assert estimation_gamma(RDiagnostics(opnorm_cov_R=0.0), 5.0) == 0.0

    def test_estimation_aware_composite_end_to_end(self, illustration):
        # the gamma-weighted quadratic term regularizes a targeted objective;
        # the result stays valid and admissible
        from varbound import test_admissibility as admissibility_of
        from varbound.solver import FrobeniusSquaredTerm, TargetedTerm
        from varbound import targeting_from_vectors, validate_bound

        problem, table = illustration["problem"], illustration["table"]
        design, model = illustration["design"], illustration["model"]
        theta_guess = np.array([1.0, -1.0, 0.5, -0.5])
        W = targeting_from_vectors([(1.0, theta_guess)], gamma=0.05)
        B0 = solve_optvb(problem, Objective.targeted(W)).B_star
        diag = r_covariance_opnorm(design, model, B0, table, support_tol=1e-6)
        gamma = estimation_gamma(diag, float(np.abs(theta_guess).max()))
        assert gamma > 0
        objective = Objective.composite(
            [(1.0, TargetedTerm(W=W)), (gamma, FrobeniusSquaredTerm())]
        )
        res = solve_optvb(problem, objective)
        assert validate_bound(problem.A, res.B_star, problem.omega, 1e-6).valid
        verdict = admissibility_of(res.S_star, problem.omega)
        assert verdict.alpha <= 1e-5 * (1 + float(np.trace(res.S_star)))
