"""Designs, exposures, estimators, and the variance-problem construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbound import (
    Design,
    EstimatorSpec,
    ExposureModel,
    build_variance_problem,
    coefficient_covariance,
    coefficient_vector,
    compute_estimand,
    compute_exposures,
    enumerate_assignments,
    estimator_value,
    observation_indices,
    pair_observation_probabilities,
    sample_assignments,
    unobservable_pairs,
)
from varbound.errors import (
    DegenerateAssignment,
    IncompatibleEstimator,
    InvalidDesign,
    RuleUndefined,
    SingularRegression,
    SupportTooLarge,
    ZeroExposureProbability,
)
from varbound.experiment import BLOCK_ROWS, VarianceProblem, _batch_coefficients, _support_blocks
from conftest import A_ILLU, illustration_parts, random_scenario


class TestEnumerate:
    def test_complete_one_of_two(self):
        d = Design.complete(2, 1)
        assert enumerate_assignments(d) == [((0, 1), 0.5), ((1, 0), 0.5)]

    def test_bernoulli_half(self):
        d = Design.bernoulli(2, 0.5)
        out = enumerate_assignments(d)
        assert [z for z, _ in out] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(p == 0.25 for _, p in out)

    def test_complete_two_of_four(self):
        out = enumerate_assignments(Design.complete(4, 2))
        assert len(out) == 6
        assert all(p == pytest.approx(1 / 6) for _, p in out)
        assert all(sum(z) == 2 for z, _ in out)

    def test_support_cap(self):
        with pytest.raises(SupportTooLarge):
            enumerate_assignments(Design.bernoulli(30, 0.5))
        # explicit cap override
        with pytest.raises(SupportTooLarge):
            enumerate_assignments(Design.bernoulli(4, 0.5), max_support=8)

    def test_probabilities_sum_to_one(self):
        for d in (
            Design.bernoulli(4, [0.1, 0.5, 0.9, 0.4]),
            Design.cluster([[0, 1], [2], [3, 4]], 2),
            Design.cluster([[1, 4], [3], [0, 2]], 1),
            Design.paired([(0, 1), (2, 3)]),
            Design.paired([(3, 0), (1, 2)]),
        ):
            out = enumerate_assignments(d)
            assert sum(p for _, p in out) == pytest.approx(1.0, abs=1e-12)
            assert [z for z, _ in out] == sorted(z for z, _ in out)

    @pytest.mark.parametrize("design", [
        Design.bernoulli(13, 0.3),
        Design.complete(15, 7),
        Design.cluster([[i, 29 - i] for i in range(15)], 7),
        Design.paired([(i, 25 - i) for i in range(13)]),
    ], ids=["bernoulli", "complete", "cluster", "paired"])
    def test_support_spanning_several_blocks(self, design):
        blocks = list(_support_blocks(design))
        assert len(blocks) > 1 and all(len(Z) <= BLOCK_ROWS for Z, _ in blocks)
        out = enumerate_assignments(design)
        zs = [z for z, _ in out]
        assert len(out) == design.support_size() == len(set(zs))
        assert zs == sorted(zs)
        assert sum(p for _, p in out) == pytest.approx(1.0, abs=1e-12)

    def test_paired_always_one_treated_per_pair(self):
        out = enumerate_assignments(Design.paired([(0, 1), (2, 3)]))
        assert len(out) == 4
        for z, _ in out:
            assert z[0] + z[1] == 1 and z[2] + z[3] == 1

    def test_bernoulli_degenerate_probability_shrinks_support(self):
        out = enumerate_assignments(Design.bernoulli(2, [1.0, 0.5]))
        assert [z for z, _ in out] == [(1, 0), (1, 1)]

    def test_explicit_merges_duplicates(self):
        d = Design.explicit([((0, 1), 0.25), ((0, 1), 0.25), ((1, 0), 0.5)])
        assert enumerate_assignments(d) == [((0, 1), 0.5), ((1, 0), 0.5)]

    def test_invalid_designs(self):
        with pytest.raises(InvalidDesign):
            Design.explicit([((0, 1), 0.6), ((1, 0), 0.6)])
        with pytest.raises(InvalidDesign):
            Design.explicit([((0, 1), -0.2), ((1, 0), 1.2)])
        with pytest.raises(InvalidDesign):
            Design.bernoulli(2, 1.5)
        with pytest.raises(InvalidDesign):
            Design.complete(3, 4)
        with pytest.raises(InvalidDesign):
            Design.cluster([[0, 1], [1, 2]], 1)
        with pytest.raises(InvalidDesign):
            Design.paired([(0, 1), (1, 2)])


class TestSample:
    def test_deterministic(self):
        d = Design.bernoulli(3, 0.4)
        a = sample_assignments(d, seed=7, count=50)
        b = sample_assignments(d, seed=7, count=50)
        assert np.array_equal(a, b)
        c = sample_assignments(d, seed=8, count=50)
        assert not np.array_equal(a, c)

    def test_complete_support_constraint(self):
        Z = sample_assignments(Design.complete(2, 1), seed=7, count=4)
        assert np.all(Z.sum(axis=1) == 1)

    def test_bernoulli_frequencies(self):
        Z = sample_assignments(Design.bernoulli(2, 0.5), seed=1, count=100_000)
        freq_11 = np.mean((Z[:, 0] == 1) & (Z[:, 1] == 1))
        assert abs(freq_11 - 0.25) < 0.01

    def test_cluster_and_paired_constraints(self):
        Z = sample_assignments(Design.cluster([[0, 1], [2, 3]], 1), seed=3, count=64)
        assert np.all(Z[:, 0] == Z[:, 1]) and np.all(Z[:, 2] == Z[:, 3])
        assert np.all(Z.sum(axis=1) == 2)
        Zp = sample_assignments(Design.paired([(0, 1)]), seed=3, count=64)
        assert np.all(Zp.sum(axis=1) == 1)

    def test_explicit_matches_distribution(self):
        d = Design.explicit([((1, 0), 0.75), ((0, 1), 0.25)])
        Z = sample_assignments(d, seed=11, count=40_000)
        assert abs(np.mean(Z[:, 0]) - 0.75) < 0.01

    def test_count_validation(self):
        with pytest.raises(InvalidDesign):
            sample_assignments(Design.bernoulli(2, 0.5), seed=0, count=0)


class TestExposures:
    def test_two_voter_spillover(self):
        model = ExposureModel.spillover([[1], [0]])
        assert compute_exposures(model, (1, 0)) == ("direct", "indirect")
        assert compute_exposures(model, (0, 1)) == ("indirect", "direct")

    def test_identity(self):
        model = ExposureModel.identity(2)
        assert compute_exposures(model, (1, 0)) == (1, 0)

    def test_path_graph_labels(self):
        model = ExposureModel.spillover([[1], [0, 2], [1]])
        assert compute_exposures(model, (1, 0, 0)) == ("direct", "indirect", "isolated")

    def test_table_rule_and_missing_entry(self):
        model = ExposureModel.from_table(
            2, labels=("a", "b"), contrast=("a", "b"),
            table={(1, 0): ("a", "b"), (0, 1): ("b", "a")},
        )
        assert compute_exposures(model, (1, 0)) == ("a", "b")
        with pytest.raises(RuleUndefined):
            compute_exposures(model, (1, 1))

    def test_contrast_validation(self):
        with pytest.raises(InvalidDesign):
            ExposureModel.spillover([[1], [0]], contrast=("direct", "direct"))
        with pytest.raises(InvalidDesign):
            ExposureModel.spillover([[1], [0]], contrast=("direct", "nope"))
        with pytest.raises(InvalidDesign):
            ExposureModel.spillover([[2], [0]])


class TestObservationIndices:
    def test_two_voter(self):
        model = ExposureModel.spillover([[1], [0]])
        assert observation_indices(model, (1, 0)) == frozenset({0, 3})
        assert observation_indices(model, (0, 1)) == frozenset({1, 2})

    def test_identity_all_treated(self):
        model = ExposureModel.identity(3)
        assert observation_indices(model, (1, 1, 1)) == frozenset({0, 1, 2})

    def test_path_isolated_contributes_nothing(self):
        model = ExposureModel.spillover([[1], [0, 2], [1]])
        assert observation_indices(model, (1, 0, 0)) == frozenset({0, 4})


def _exact_pi(design, model):
    return pair_observation_probabilities(design, model).pi


class TestCoefficientVector:
    def test_ht_two_voter(self):
        design, model, spec = illustration_parts()
        pi = _exact_pi(design, model)
        V = coefficient_vector(spec, model, (1, 0), pi)
        assert np.allclose(V, [2.0, 0.0, 0.0, -2.0])

    def test_difference_in_means_reproduces_group_means(self):
        # with singleton groups the estimate is theta_0 - theta_3, so the
        # coefficients carry the n / group-size scaling
        model = ExposureModel.identity(2)
        spec = EstimatorSpec(kind="difference-in-means")
        pi = np.full(4, 0.5)
        V = coefficient_vector(spec, model, (1, 0), pi)
        theta = np.array([3.0, 5.0, 7.0, 11.0])
        assert (V @ theta) / 2 == pytest.approx(theta[0] - theta[3])
        assert np.allclose(V, [2.0, 0.0, 0.0, -2.0])

    def test_hajek_degenerate_group(self):
        model = ExposureModel.identity(2)
        spec = EstimatorSpec(kind="hajek")
        pi = np.full(4, 0.5)
        with pytest.raises(DegenerateAssignment):
            coefficient_vector(spec, model, (1, 1), pi)

    def test_zero_probability_rejected(self):
        model = ExposureModel.identity(2)
        spec = EstimatorSpec(kind="horvitz-thompson")
        pi = np.array([0.5, 0.5, 0.5, 0.0])
        with pytest.raises(ZeroExposureProbability):
            coefficient_vector(spec, model, (1, 0), pi)

    def test_hajek_matches_weighted_means(self):
        rng = np.random.default_rng(5)
        n = 4
        model = ExposureModel.identity(n)
        design = Design.bernoulli(n, [0.3, 0.5, 0.6, 0.7])
        pi = _exact_pi(design, model)
        z = (1, 0, 1, 0)
        theta = rng.normal(size=2 * n)
        got = estimator_value(EstimatorSpec(kind="hajek"), model, z, pi, theta)
        wa = np.array([1 / pi[0], 0, 1 / pi[2], 0])
        wb = np.array([0, 1 / pi[5], 0, 1 / pi[7]])
        expected = (wa @ theta[:n]) / wa.sum() - (wb @ theta[n:]) / wb.sum()
        assert got == pytest.approx(expected, abs=1e-12)

    def test_support_consistency_all_kinds(self):
        rng = np.random.default_rng(9)
        n = 4
        X = rng.normal(size=(n, 2))
        design = Design.complete(n, 2)
        model = ExposureModel.identity(n)
        pi = _exact_pi(design, model)
        for kind in ("horvitz-thompson", "difference-in-means", "hajek", "ols", "lin", "greg"):
            spec = EstimatorSpec(kind=kind, covariates=X)
            for z, _ in enumerate_assignments(design):
                V = coefficient_vector(spec, model, z, pi)
                S = observation_indices(model, z)
                off = [k for k in range(2 * n) if k not in S]
                assert np.allclose(V[off], 0.0)

    def test_regression_needs_two_label_exposures(self):
        model = ExposureModel.spillover([[1], [0, 2], [1]])
        design = Design.complete(3, 1)
        pi = _exact_pi(design, model)
        spec = EstimatorSpec(kind="ols", covariates=np.ones((3, 1)))
        with pytest.raises(IncompatibleEstimator):
            coefficient_vector(spec, model, (1, 0, 0), pi)

    def test_regression_needs_covariates(self):
        with pytest.raises(InvalidDesign):
            EstimatorSpec(kind="ols")


class TestRegressionOracles:
    """Regression coefficient vectors against direct least-squares fits."""

    def setup_method(self):
        self.rng = np.random.default_rng(12)
        self.n = 6
        self.X = self.rng.normal(size=(self.n, 2))
        self.design = Design.complete(self.n, 3)
        self.model = ExposureModel.identity(self.n)
        self.pi = _exact_pi(self.design, self.model)
        self.z = (1, 0, 1, 0, 1, 0)
        self.theta = self.rng.normal(size=2 * self.n)
        self.y = np.where(np.array(self.z) == 1, self.theta[: self.n], self.theta[self.n:])

    def test_ols(self):
        got = estimator_value(
            EstimatorSpec(kind="ols", covariates=self.X), self.model, self.z, self.pi, self.theta
        )
        Q = np.column_stack([np.ones(self.n), self.z, self.X])
        beta = np.linalg.lstsq(Q, self.y, rcond=None)[0]
        assert got == pytest.approx(beta[1], abs=1e-10)

    def test_lin(self):
        got = estimator_value(
            EstimatorSpec(kind="lin", covariates=self.X), self.model, self.z, self.pi, self.theta
        )
        Xdm = self.X - self.X.mean(axis=0)
        Q = np.column_stack([np.ones(self.n), self.z, Xdm, np.array(self.z)[:, None] * Xdm])
        beta = np.linalg.lstsq(Q, self.y, rcond=None)[0]
        assert got == pytest.approx(beta[1], abs=1e-10)

    def test_greg(self):
        got = estimator_value(
            EstimatorSpec(kind="greg", covariates=self.X), self.model, self.z, self.pi, self.theta
        )
        z = np.array(self.z)
        in_a, in_b = z == 1, z == 0
        beta_a = np.linalg.lstsq(self.X[in_a], self.y[in_a], rcond=None)[0]
        beta_b = np.linalg.lstsq(self.X[in_b], self.y[in_b], rcond=None)[0]
        pa, pb = self.pi[: self.n], self.pi[self.n:]
        expected = np.mean(
            self.X @ (beta_a - beta_b)
            + in_a * (self.y - self.X @ beta_a) / pa
            - in_b * (self.y - self.X @ beta_b) / pb
        )
        assert got == pytest.approx(expected, abs=1e-10)

    def test_singular_regression_detected(self):
        # all units treated makes the contrast column collinear with the intercept
        model = ExposureModel.identity(3)
        spec = EstimatorSpec(kind="ols", covariates=np.ones((3, 1)) * [[1.0], [2.0], [3.0]])
        pi = np.full(6, 0.5)
        with pytest.raises(SingularRegression):
            coefficient_vector(spec, model, (1, 1, 1), pi)
        with pytest.raises(SingularRegression):
            _batch_coefficients(spec, model, [(1, 0, 1), (1, 1, 1)], pi)

    def test_duplicated_covariate_warns(self):
        # a repeated covariate column leaves the contrast identified: the
        # pseudo-inverse cutoff applies and is reported, in both paths
        x = self.X[:, :1]
        spec = EstimatorSpec(kind="ols", covariates=np.hstack([x, x]))
        Z = np.array([z for z, _ in enumerate_assignments(self.design)])
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            batch = _batch_coefficients(spec, self.model, Z, self.pi)
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            scalar = coefficient_vector(spec, self.model, tuple(Z[0]), self.pi)
        assert np.allclose(batch[0], scalar, atol=1e-12)
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            coefficient_covariance(self.design, self.model, spec)


class TestEstimatorValue:
    def test_two_voter_values(self):
        design, model, spec = illustration_parts()
        pi = _exact_pi(design, model)
        theta = np.array([1.3, -0.4, 2.2, 0.9])  # (a1, a2, b1, b2)
        assert estimator_value(spec, model, (1, 0), pi, theta) == pytest.approx(
            theta[0] - theta[3]
        )
        assert estimator_value(spec, model, (0, 1), pi, theta) == pytest.approx(
            theta[1] - theta[2]
        )
        assert estimator_value(spec, model, (1, 0), pi, np.zeros(4)) == 0.0


class TestEstimand:
    def test_arithmetic(self):
        assert compute_estimand([1.0, 2.0, 3.0, 4.0], 2) == pytest.approx(-2.0)
        assert compute_estimand([5.0, 0, 0, 0, 0, 0], 3) == pytest.approx(5 / 3)

    def test_null_contrast(self):
        theta = np.array([1.0, 2.0, 1.0, 2.0])
        assert compute_estimand(theta, 2) == 0.0


class TestCovariance:
    def test_two_voter_is_rank_one(self, illustration):
        assert np.allclose(illustration["problem"].A, A_ILLU, atol=1e-12)

    def test_difference_in_means_gives_same_matrix(self):
        design, model, _ = illustration_parts()
        A, _ = coefficient_covariance(design, model, EstimatorSpec(kind="difference-in-means"))
        assert np.allclose(A, A_ILLU, atol=1e-12)

    def test_point_mass_design(self):
        design = Design.explicit([((1, 0), 1.0)])
        model = ExposureModel.identity(2)
        A, _ = coefficient_covariance(design, model, EstimatorSpec(kind="horvitz-thompson"))
        assert np.allclose(A, 0.0, atol=1e-12)

    def test_mc_close_to_exact(self):
        design, model, spec = illustration_parts()
        A_mc, prov = coefficient_covariance(design, model, spec, mode="mc", count=100_000, seed=3)
        assert np.abs(A_mc - A_ILLU).max() < 0.02
        assert prov == {"mode": "mc", "count": 100_000, "seed": 3}

    def test_mc_rate_improves_with_count(self):
        design, model, spec = illustration_parts()
        err = {}
        for count in (1_000, 100_000):
            A_mc, _ = coefficient_covariance(design, model, spec, mode="mc", count=count, seed=5)
            err[count] = np.abs(A_mc - A_ILLU).max()
        assert err[100_000] < err[1_000]
        # entrywise error at the larger count consistent with 1/sqrt(count)
        assert err[100_000] < 3.0 * 4.0 / math.sqrt(100_000)

    def test_mc_threads_deterministic(self):
        design, model, spec = illustration_parts()
        one = coefficient_covariance(design, model, spec, mode="mc", count=9_999, seed=2, threads=3)
        two = coefficient_covariance(design, model, spec, mode="mc", count=9_999, seed=2, threads=3)
        assert np.array_equal(one[0], two[0])

    @pytest.mark.parametrize(
        "kind", ["horvitz-thompson", "difference-in-means", "hajek", "ols", "lin", "greg"]
    )
    def test_batch_coefficients_match_scalar_path(self, kind):
        rng = np.random.default_rng(61)
        n = 4
        design = Design.complete(n, 2)
        if kind in ("ols", "lin", "greg"):
            # regression estimators need two-label exposures
            model = ExposureModel.identity(n)
        else:
            model = ExposureModel.spillover([[1, 3], [0, 2], [1, 3], [0, 2]])
        pi = _exact_pi(design, model)
        spec = EstimatorSpec(kind=kind, covariates=rng.normal(size=(n, 1)))
        Z = sample_assignments(design, seed=3, count=40)
        batch = _batch_coefficients(spec, model, Z, pi)
        for row, z in zip(batch, Z):
            assert np.allclose(row, coefficient_vector(spec, model, tuple(z), pi), atol=1e-12)

    @pytest.mark.parametrize("case", ["ring-ht", "complete-lin"])
    def test_matches_scalar_oracle_at_n10(self, case):
        n = 10
        if case == "ring-ht":
            design = Design.bernoulli(n, 0.5)
            model = ExposureModel.spillover([[(i - 1) % n, (i + 1) % n] for i in range(n)])
            spec = EstimatorSpec(kind="horvitz-thompson")
        else:
            design = Design.complete(n, 5)
            model = ExposureModel.identity(n)
            X = np.random.default_rng(4).normal(size=(n, 2))
            spec = EstimatorSpec(kind="lin", covariates=X)
        problem, table = build_variance_problem(design, model, spec)
        support = enumerate_assignments(design)
        P2 = np.zeros((2 * n, 2 * n))
        for z, p in support:
            s = np.zeros(2 * n)
            s[list(observation_indices(model, z))] = 1.0
            P2 += p * np.outer(s, s)
        pi = np.diag(P2).copy()
        second = np.zeros((2 * n, 2 * n))
        mean = np.zeros(2 * n)
        for z, p in support:
            V = coefficient_vector(spec, model, z, pi)
            second += p * np.outer(V, V)
            mean += p * V
        A = second - np.outer(mean, mean)
        assert np.abs(table.P2 - P2).max() <= 1e-11 * np.abs(P2).max()
        assert np.abs(problem.A - A).max() <= 1e-11 * np.abs(A).max()

    def test_ht_mean_coefficients_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            design, model, spec = random_scenario(rng)
            support = enumerate_assignments(design)
            pi = _exact_pi(design, model)
            mean = sum(
                p * coefficient_vector(EstimatorSpec(kind="horvitz-thompson"), model, z, pi)
                for z, p in support
            )
            n = model.n
            expected = np.concatenate([np.ones(n), -np.ones(n)])
            assert np.allclose(mean, expected, atol=1e-12)

    def test_variance_identity_random_scenarios(self):
        # enumeration of the estimator variance agrees with the quadratic form
        rng = np.random.default_rng(33)
        for _ in range(6):
            design, model, spec = random_scenario(
                rng, estimators=("horvitz-thompson", "difference-in-means")
            )
            support = enumerate_assignments(design)
            pi = _exact_pi(design, model)
            A, _ = coefficient_covariance(design, model, spec)
            n = model.n
            for _ in range(20):
                theta = rng.normal(size=2 * n)
                vals = np.array([
                    estimator_value(spec, model, z, pi, theta) for z, _ in support
                ])
                probs = np.array([p for _, p in support])
                mean = probs @ vals
                var = probs @ (vals - mean) ** 2
                assert var == pytest.approx(
                    float(theta @ A @ theta) / n**2, abs=1e-10
                )


class TestSecondOrder:
    def test_two_voter_table(self, illustration):
        P2 = illustration["table"].P2
        assert P2[0, 3] == pytest.approx(0.5)
        assert P2[1, 2] == pytest.approx(0.5)
        for k, l in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            assert P2[k, l] == 0.0
        assert np.allclose(np.diag(P2), 0.5)

    def test_identity_bernoulli(self):
        design = Design.bernoulli(2, 0.5)
        model = ExposureModel.identity(2)
        table = pair_observation_probabilities(design, model)
        assert table.P2[0, 1] == pytest.approx(0.25)
        assert table.P2[0, 2] == 0.0
        assert np.allclose(table.pi, 0.5)

    def test_identity_bernoulli_several_blocks(self):
        n = 13
        p = np.linspace(0.2, 0.8, n)
        table = pair_observation_probabilities(Design.bernoulli(n, p), ExposureModel.identity(n))
        marg = np.concatenate([p, 1 - p])
        expected = np.outer(marg, marg)
        np.fill_diagonal(expected, marg)
        units = np.arange(n)
        expected[units, units + n] = expected[units + n, units] = 0.0
        assert np.allclose(table.P2, expected, atol=1e-13)

    def test_mc_within_three_standard_errors(self):
        design, model, _ = illustration_parts()
        exact = pair_observation_probabilities(design, model).P2
        count = 50_000
        mc = pair_observation_probabilities(design, model, mode="mc", count=count, seed=17).P2
        se = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / count)
        assert np.all(np.abs(mc - exact) <= 3 * se + 1e-12)

    def test_mc_rate_improves_with_count(self):
        design, model, _ = illustration_parts()
        exact = pair_observation_probabilities(design, model).P2
        err = {}
        for count in (1_000, 100_000):
            mc = pair_observation_probabilities(
                design, model, mode="mc", count=count, seed=23
            ).P2
            err[count] = np.abs(mc - exact).max()
        assert err[100_000] < err[1_000]
        assert err[100_000] <= 3.0 * 0.5 / math.sqrt(100_000)


class TestOmega:
    def test_two_voter_pairs(self, illustration):
        assert illustration["problem"].omega == frozenset(
            {(0, 1), (2, 3), (0, 2), (1, 3)}
        )

    def test_identity_bernoulli_fundamentals_only(self):
        design = Design.bernoulli(2, 0.5)
        model = ExposureModel.identity(2)
        table = pair_observation_probabilities(design, model)
        assert unobservable_pairs(table, 0.0) == frozenset({(0, 2), (1, 3)})

    def test_threshold_pulls_in_quarter_pairs(self):
        design = Design.bernoulli(2, 0.5)
        model = ExposureModel.identity(2)
        table = pair_observation_probabilities(design, model)
        omega = unobservable_pairs(table, 0.3)
        for pair in [(0, 1), (0, 3), (1, 2), (2, 3)]:
            assert pair in omega
        # marginals are 0.5 > 0.3, so diagonals stay out
        assert (0, 0) not in omega

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_threshold(self, c1, c2):
        design, model, _ = illustration_parts()
        table = pair_observation_probabilities(design, model)
        lo, hi = sorted([c1, c2])
        assert unobservable_pairs(table, lo) <= unobservable_pairs(table, hi)

    def test_always_contains_fundamental_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            design, model, _ = random_scenario(rng)
            table = pair_observation_probabilities(design, model)
            omega = unobservable_pairs(table, 0.0)
            n = model.n
            assert {(i, i + n) for i in range(n)} <= omega


class TestVarianceProblem:
    def test_validates_fundamentals(self):
        with pytest.raises(InvalidDesign):
            VarianceProblem(n=2, A=np.eye(4), omega=frozenset({(0, 1)}))

    def test_validates_psd(self):
        M = np.diag([1.0, 1.0, 1.0, -1.0])
        with pytest.raises(InvalidDesign):
            VarianceProblem(n=2, A=M, omega=frozenset({(0, 2), (1, 3)}))

    def test_build_shares_mode(self):
        design, model, spec = illustration_parts()
        problem, table = build_variance_problem(
            design, model, spec, mode="mc", count=2_000, seed=1
        )
        assert problem.provenance["mode"] == "mc"
        assert table.provenance["mode"] == "mc"
