"""Bound estimation from realized data and its precision diagnostics."""

import logging
import math
import tracemalloc

import numpy as np
import pytest

from varbound import (
    Design,
    EstimatorSpec,
    ExposureModel,
    Objective,
    RealizedData,
    SolverConfig,
    aronow_samii_slack,
    build_variance_problem,
    enumerate_assignments,
    estimation,
    estimation_gamma,
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
    DimensionMismatch,
    IncompatibleBound,
    InvalidConjugatePair,
    InvalidDesign,
    MissingOutcome,
    NonConvergence,
)
from varbound.estimation import (
    LANCZOS_BLOCK,
    RDiagnostics,
    _power_iteration_opnorm,
    _r_moments,
    _r_pairs,
)
from varbound.experiment import (
    SecondOrderTable,
    _AssignmentBlocks,
    _batch_coefficients,
    _observation_matrix,
    _weighted_moments,
)
from conftest import A_ILLU, B_MINNORM, random_scenario, ref_observation_indices


def _r_vectors(obs, pairs):
    """float64 rows of scaled pair indicators, obs[:, k] obs[:, l] s for
    ``pairs = (k, l, s)``: the weighted reference for ``_r_moments``."""
    k, l, scale = pairs
    obs = obs.astype(float)
    return obs[:, k] * obs[:, l] * scale


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
        # the support is relative to max |B|, so a bound in any unit keeps it
        for scale in (2.0**-40, 2.0**40):
            data = observe(model, (1, 0), theta)
            assert ht_bound_estimate(scale * B_MINNORM, data, table, 2) == scale * est

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

    @pytest.mark.parametrize("z", [(1.9, 0.2), (0.7, 1), (1, 2)])
    def test_realized_z_entries_must_be_0_or_1(self, z):
        with pytest.raises(InvalidDesign, match="must be 0 or 1"):
            RealizedData(z=z, outcomes={0: 1.0})

    @pytest.mark.parametrize("length", [3, 5])
    def test_observe_checks_theta_length(self, illustration, length):
        with pytest.raises(DimensionMismatch):
            observe(illustration["model"], (1, 0), np.ones(length))


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
            V = _batch_coefficients(spec, model, [z for z, _ in support], pi)
            for _ in range(5):
                theta = rng.normal(size=2 * model.n)
                mean_est = sum(
                    p * ht_bound_estimate(B, observe(model, z, theta), table, model.n)
                    for z, p in support
                )
                vals = V @ theta / model.n
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

    @pytest.mark.parametrize("kwargs", [{}, {"mode": "mc", "count": 100, "seed": 0}],
                             ids=["exact", "mc"])
    def test_zero_bound_has_no_pairs(self, kwargs):
        design = Design.bernoulli(3, 0.5)
        model = ExposureModel.identity(3)
        assert r_covariance_opnorm(design, model, np.zeros((6, 6)), **kwargs).opnorm_cov_R == 0.0

    def test_perfectly_correlated_clusters(self):
        # exposures perfectly correlated within clusters of two: the norm is
        # twice the cluster size for a bound supported on the diagonal
        design, model = cluster_coin_design()
        problem, table = build_variance_problem(design, model, EstimatorSpec(kind="horvitz-thompson"))
        B = 4.0 * np.eye(8)
        assert linalg.min_eigenvalue(B - problem.A) >= -1e-10  # diagonal bound is valid here
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
        with_table = r_covariance_opnorm(
            design, model, B,
            build_variance_problem(design, model, EstimatorSpec(kind="horvitz-thompson"))[1],
            theta=theta,
        ).empirical_mse
        without = r_covariance_opnorm(design, model, B, theta=theta).empirical_mse
        assert without == pytest.approx(with_table)

    def test_mc_threads_deterministic(self):
        design = Design.bernoulli(3, 0.5)
        model = ExposureModel.identity(3)
        B = 2 * np.eye(6)
        runs = [
            r_covariance_opnorm(
                design, model, B, mode="mc", count=8000, seed=9
            ).opnorm_cov_R
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_matches_dense_ordered_pair_layout(self, mode):
        # reference: one coordinate per ordered pair (k, l), 4n^2 in all,
        # with the dense covariance's top eigenvalue
        rng = np.random.default_rng(23)
        for i in range(12):
            design, model, _ = random_scenario(rng)
            count, seed = (None, None) if mode == "exact" else (3000, i)
            blocks = _AssignmentBlocks(design, mode, count, seed)
            table = pair_observation_probabilities(design, model, mode, count, seed)
            B = _compatible_bound(rng, table)
            support = (B != 0).ravel()
            P2 = np.where(table.P2 > 0, table.P2, 1.0)

            def ordered_rows(Z):
                obs = _observation_matrix(model, Z).astype(float)
                return (obs[:, :, None] * obs[:, None, :] / P2).reshape(len(Z), -1) * support

            [(mean, second)] = _weighted_moments(blocks, lambda Z: (ordered_rows(Z),))
            dense = float(np.linalg.eigvalsh(linalg.symmetrize(second - np.outer(mean, mean)))[-1])
            got = r_covariance_opnorm(design, model, B, table, mode, count, seed).opnorm_cov_R
            assert got == pytest.approx(dense, rel=1e-12 if mode == "exact" else 1e-10)

    def test_incompatible_bound_rejected(self):
        # unit 0 is never treated and untreated at once: weight on that pair
        # cannot be estimated, and dropping it would report the Cov(R) of a
        # different bound
        design, model = Design.bernoulli(2, 0.5), ExposureModel.identity(2)
        table = pair_observation_probabilities(design, model)
        B = B_MINNORM.copy()
        B[0, 2] = B[2, 0] = 1.0
        assert table.P2[0, 2] == 0.0
        for given in (table, None):
            with pytest.raises(IncompatibleBound, match=r"B\[0,2\]"):
                r_covariance_opnorm(design, model, B, given)

    def test_empirical_mse_from_the_same_moments(self, illustration):
        design, model, table = illustration["design"], illustration["model"], illustration["table"]
        theta = np.array([1.0, 2.0, 3.0, 4.0])
        alone = r_covariance_opnorm(design, model, B_MINNORM, table)
        assert alone.empirical_mse is None
        diag = r_covariance_opnorm(design, model, B_MINNORM, table, theta=theta)
        # theta adds the MSE and leaves the Cov(R) diagnostics as they were
        assert diag.opnorm_cov_R == alone.opnorm_cov_R
        assert diag.provenance == alone.provenance
        assert diag.empirical_mse == pytest.approx(16.0, rel=1e-12)

    def test_pair_layout_is_upper_triangle_of_support(self):
        design, model = cluster_coin_design()
        table = pair_observation_probabilities(design, model)
        B = np.where(table.P2 > 0, 1.0, 0.0)
        B[0, 1] = B[1, 0] = 0.0
        k, l, scale = _r_pairs(B, table)
        assert np.all(k <= l)
        assert len(k) == (np.count_nonzero(B) + np.count_nonzero(np.diag(B))) // 2
        assert np.allclose(scale * table.P2[k, l], np.where(k == l, 1.0, math.sqrt(2.0)))

    def test_count_gram_matches_weighted_moments(self):
        # the Monte Carlo count Gram against the float64 weighted second
        # moment of the scaled indicator rows, on the same draws
        rng = np.random.default_rng(31)
        for i in range(12):
            design, model, _ = random_scenario(rng)
            blocks = _AssignmentBlocks(design, "mc", 5000, i)
            table = pair_observation_probabilities(design, model, "mc", 5000, i)
            pairs = _r_pairs(_compatible_bound(rng, table), table)
            mean, second = _r_moments(model, blocks, pairs)
            assert blocks.rows == 5000
            [(ref_mean, ref_second)] = _weighted_moments(
                blocks, lambda Z: (_r_vectors(_observation_matrix(model, Z), pairs),))
            scale = float(np.abs(ref_second).max())
            assert np.abs(mean - ref_mean).max() <= 1e-14 * float(np.abs(ref_mean).max())
            assert np.abs(second - ref_second).max() <= 1e-14 * scale

    def test_counts_accumulate_past_float32(self):
        # 4,099 blocks of 4,095 joint observations: the total passes 2^24,
        # where float32 can no longer hold odd integers
        class Repeated:
            counted = 0

            def __iter__(self):
                Z = np.ones((4095, 1), dtype=np.int64)
                return ((Z, np.ones(4095)) for _ in range(4099))

        pairs = (np.array([0]), np.array([0]), np.array([1.0]))
        blocks = Repeated()
        mean, second = _r_moments(ExposureModel.identity(1), blocks, pairs)
        assert (mean[0], second[0, 0]) == (1.0, 1.0)
        assert blocks.counted == 4095 * 4099

    @staticmethod
    def _check_ring_against_dense_eigvalsh(n, mode, count=None, seed=None):
        design = Design.bernoulli(n, 0.5)
        model = ExposureModel.spillover([[(i - 1) % n, (i + 1) % n] for i in range(n)])
        table = pair_observation_probabilities(design, model, mode, count, seed)
        B = _compatible_bound(np.random.default_rng(8), table)
        pairs = _r_pairs(B, table)
        blocks = _AssignmentBlocks(design, mode, count, seed)
        [(mean, second)] = _weighted_moments(
            blocks, lambda Z: (_r_vectors(_observation_matrix(model, Z), pairs),))
        dense = float(np.linalg.eigvalsh(second - np.outer(mean, mean))[-1])
        diag = r_covariance_opnorm(design, model, B, table, mode, count, seed)
        assert diag.opnorm_cov_R == pytest.approx(dense, rel=1e-12)
        assert diag.provenance["pairs"] == len(mean)
        return blocks

    def test_ring_n20_matches_dense_eigvalsh(self):
        # the estimate workload's Monte Carlo case: 800 pairs, 20,000 draws
        self._check_ring_against_dense_eigvalsh(20, "mc", 20_000, 0)

    def test_ring_n12_exact_matches_dense_eigvalsh(self):
        # the estimate workload's exact case: all 4,096 assignments, 288 pairs
        # in any unit of the Frobenius² bound (the support is relative)
        assert self._check_ring_against_dense_eigvalsh(12, "exact").rows == 4096
        n = 12
        design = Design.bernoulli(n, 0.5)
        model = ExposureModel.spillover([[(i - 1) % n, (i + 1) % n] for i in range(n)])
        problem, table = build_variance_problem(design, model, EstimatorSpec(kind="horvitz-thompson"))
        B = solve_optvb(problem, Objective.frobenius_squared()).B_star
        for scale in (1.0, 2.0**-20, 2.0**-30, 2.0**-40):
            diag = r_covariance_opnorm(design, model, scale * B, table)
            assert diag.provenance["pairs"] == 288

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_repeated_calls_bitwise_equal(self, mode):
        n = 6
        design = Design.bernoulli(n, 0.4)
        model = ExposureModel.spillover([[(i - 1) % n, (i + 1) % n] for i in range(n)])
        kwargs = {} if mode == "exact" else {"count": 7000, "seed": 3}
        B = _compatible_bound(np.random.default_rng(2),
                              pair_observation_probabilities(design, model))
        runs = [r_covariance_opnorm(design, model, B, mode=mode, **kwargs) for _ in range(3)]
        assert len({d.opnorm_cov_R for d in runs}) == 1
        assert all(d.provenance == runs[0].provenance for d in runs)

    @pytest.mark.parametrize("kwargs", [{}, {"mode": "mc", "count": 100, "seed": 0}],
                             ids=["exact", "mc"])
    def test_bound_shape_checked(self, kwargs):
        design = Design.bernoulli(3, 0.5)
        model = ExposureModel.identity(3)
        table = pair_observation_probabilities(design, model)
        for given in (table, None):
            with pytest.raises(DimensionMismatch):
                r_covariance_opnorm(design, model, np.eye(4), given, **kwargs)

    @pytest.mark.parametrize("kwargs", [{}, {"mode": "mc", "count": 3000, "seed": 1}],
                             ids=["exact", "mc"])
    def test_provenance_and_debug_log(self, kwargs, monkeypatch, caplog):
        design = Design.bernoulli(3, 0.5)
        model = ExposureModel.identity(3)
        B = 2 * np.eye(6)
        calls = []

        def counted(matvec, dim, *args, **kw):
            def wrapped(v):
                calls.append(1)
                return matvec(v)
            return _power_iteration_opnorm(wrapped, dim, *args, **kw)

        monkeypatch.setattr("varbound.estimation._power_iteration_opnorm", counted)
        with caplog.at_level(logging.DEBUG, logger="varbound.estimation"):
            diag = r_covariance_opnorm(design, model, B, **kwargs)
        prov = diag.provenance
        assert prov["mode"] == kwargs.get("mode", "exact")
        assert prov["pairs"] == 6
        assert prov["matvecs"] == len(calls) >= 1
        rows = kwargs.get("count", 8)
        [record] = [r for r in caplog.records if r.name == "varbound.estimation"]
        assert record.levelno == logging.DEBUG
        assert (f"mode {prov['mode']}, {rows} rows ({rows} counted), 6 pairs, "
                f"{len(calls)} matvecs" in record.getMessage())

    @pytest.mark.parametrize("p, kwargs, rows, counted", [
        (0.5, {}, 8, 8),
        (0.4, {}, 8, 0),
        (0.4, {"mode": "mc", "count": 3000, "seed": 1}, 3000, 3000),
    ], ids=["fair-exact", "biased-exact", "biased-mc"])
    def test_debug_log_counts_rows(self, p, kwargs, rows, counted, caplog):
        design, model = Design.bernoulli(3, p), ExposureModel.identity(3)
        with caplog.at_level(logging.DEBUG, logger="varbound.estimation"):
            r_covariance_opnorm(design, model, 2 * np.eye(6), **kwargs)
        [record] = [r for r in caplog.records if r.name == "varbound.estimation"]
        assert f" {rows} rows ({counted} counted), 6 pairs, " in record.getMessage()


def _ring(n):
    return ExposureModel.spillover([[(i - 1) % n, (i + 1) % n] for i in range(n)])


def _renamed(model, perm):
    """The spillover rule with unit perm[i] renamed i, and coords: coordinate
    i of the renamed problem is coordinate coords[i] of the original."""
    new = np.argsort(perm)
    moved = ExposureModel.spillover([[int(new[u]) for u in model.adjacency[i]] for i in perm])
    return moved, np.concatenate([perm, perm + len(perm)])


class TestRelabeling:
    """Renaming the units leaves what ``varbound estimate`` reports unchanged:
    the bound estimate, ||Cov(R)|| and the MSE at theta agree within 1e-12
    relative, though the pair coordinates of R come in another order."""

    @staticmethod
    def _plugins(design, model, B, z, theta):
        table = pair_observation_probabilities(design, model)
        diag = r_covariance_opnorm(design, model, B, table, theta=theta)
        estimate = ht_bound_estimate(B, observe(model, z, theta), table, model.n)
        return estimate, diag.opnorm_cov_R, diag.empirical_mse

    def test_exact_plugins_on_the_ring(self):
        n = 12
        rng = np.random.default_rng(27)
        design, model = Design.bernoulli(n, 0.5), _ring(n)
        problem, _ = build_variance_problem(design, model, EstimatorSpec("horvitz-thompson"))
        B = problem.A + aronow_samii_slack(problem.A, problem.omega)
        z, theta = rng.integers(0, 2, n), rng.normal(size=2 * n)
        expected = self._plugins(design, model, B, z, theta)
        for _ in range(2):
            perm = rng.permutation(n)
            moved, coords = _renamed(model, perm)
            got = self._plugins(design, moved, B[np.ix_(coords, coords)], z[perm], theta[coords])
            assert got == pytest.approx(expected, rel=1e-12, abs=0)

    def test_monte_carlo_opnorm_on_the_ring(self, monkeypatch):
        # the renamed problem reads the same seed's draws with its units
        # renamed, so both average over the same assignments
        n = 20
        rng = np.random.default_rng(20)
        design, model = Design.bernoulli(n, 0.5), _ring(n)
        table = pair_observation_probabilities(design, model)
        B = _compatible_bound(rng, table)
        mc = {"mode": "mc", "count": estimation.RCOV_DRAWS, "seed": 3}
        expected = r_covariance_opnorm(design, model, B, table, **mc).opnorm_cov_R
        perm = rng.permutation(n)

        class Renamed(_AssignmentBlocks):
            def __iter__(self):
                drawn = super().__iter__()
                return ((Z[:, perm], w) for Z, w in drawn)

        monkeypatch.setattr(estimation, "_AssignmentBlocks", Renamed)
        moved, coords = _renamed(model, perm)
        index = np.ix_(coords, coords)
        got = r_covariance_opnorm(design, moved, B[index], SecondOrderTable(table.P2[index]), **mc)
        assert got.opnorm_cov_R == pytest.approx(expected, rel=1e-12)


class TestPowerIteration:
    @staticmethod
    def counted(M):
        calls = []

        def matvec(v):
            calls.append(1)
            return M @ v

        return matvec, calls

    def test_known_spectrum(self):
        Q = np.linalg.qr(np.random.default_rng(1).normal(size=(5, 5)))[0]
        M = (Q * [5.0, 3.0, 1.0, 0.5, 0.0]) @ Q.T
        assert _power_iteration_opnorm(lambda v: M @ v, 5) == pytest.approx(5.0, rel=1e-12)

    def test_zero_operator_takes_one_matvec(self):
        matvec, calls = self.counted(np.zeros((4, 4)))
        assert _power_iteration_opnorm(matvec, 4) == 0.0
        assert len(calls) == 1

    def test_tiny_max_iter_raises(self):
        M = np.diag([1.0, 0.99, 0.5])
        with pytest.raises(NonConvergence):
            _power_iteration_opnorm(lambda v: M @ v, 3, max_iter=2)

    @staticmethod
    def random_psd(dim, rank, seed):
        G = np.random.default_rng(seed).normal(size=(dim, rank))
        return G @ G.T

    @pytest.mark.parametrize("dim, rank", [(1, 1), (2, 2), (5, 1), (8, 3), (13, 13), (34, 1),
                                           (34, 17), (60, 2), (60, 31), (60, 60)])
    def test_matches_eigvalsh(self, dim, rank):
        M = self.random_psd(dim, rank, 100 * dim + rank)
        top = float(np.linalg.eigvalsh(M)[-1])
        assert _power_iteration_opnorm(lambda v: M @ v, dim) == pytest.approx(top, rel=1e-12)

    def test_empty_operator(self):
        assert _power_iteration_opnorm(lambda v: v, 0) == 0.0

    @pytest.mark.parametrize("dim", [65, 150, 300])
    def test_basis_grows_past_its_first_block(self, dim):
        # a negative tolerance never stops early, so the basis fills the
        # whole space, past LANCZOS_BLOCK rows
        M = self.random_psd(dim, dim, dim)
        matvec, calls = self.counted(M)
        top = float(np.linalg.eigvalsh(M)[-1])
        assert _power_iteration_opnorm(matvec, dim, tol=-1.0) == pytest.approx(top, rel=1e-12)
        assert len(calls) == dim > LANCZOS_BLOCK

    def test_basis_memory_follows_the_steps_taken(self):
        # a rank-two operator converges in a few steps; the basis must not be
        # allocated for the dim x dim worst case (200 MB here)
        dim = 5_000
        u, v = np.random.default_rng(8).normal(size=(2, dim))
        calls = []

        def matvec(x):
            calls.append(1)
            return 2.0 * u * float(u @ x) + v * float(v @ x)

        tracemalloc.start()
        try:
            _power_iteration_opnorm(matvec, dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) <= 4
        assert peak < 8 * dim * (LANCZOS_BLOCK + 16)

    @pytest.mark.parametrize("gap", [0.0, 1e-6, 1e-3])
    @pytest.mark.parametrize("dim", [10, 40, 60])
    def test_clustered_top_pair(self, gap, dim):
        # a pair closer than the residual tolerance is resolved only to its
        # width, so the gaps here stay well above it
        rng = np.random.default_rng(dim)
        Q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        spectrum = 5.0 * np.concatenate([[1.0, 1.0 - gap], rng.uniform(0.0, 0.9, dim - 2)])
        M = (Q * spectrum) @ Q.T
        top = float(np.linalg.eigvalsh(M)[-1])
        assert _power_iteration_opnorm(lambda v: M @ v, dim) == pytest.approx(top, rel=1e-12)

    def test_basis_capped_at_dim(self):
        # at dim steps the basis spans the space: no more matvecs than dim,
        # even with a residual tolerance no Ritz pair can meet
        M = self.random_psd(6, 6, 5)
        matvec, calls = self.counted(M)
        top = _power_iteration_opnorm(matvec, 6, tol=0.0)
        assert len(calls) == 6
        assert top == pytest.approx(float(np.linalg.eigvalsh(M)[-1]), rel=1e-12)


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
            realized = [
                RealizedData(z, {k: theta[k] for k in ref_observation_indices(model, z)})
                for z, _ in support
            ]
            ests = np.array([ht_bound_estimate(B, data, table, n) for data in realized])
            target = linalg.quadratic_form_value(B, theta, n)
            mse = float(probs @ (ests - target) ** 2)
            got = r_covariance_opnorm(design, model, B, table, theta=theta).empirical_mse
            assert got == pytest.approx(mse, rel=1e-12, abs=1e-14)
            # R . v is n^2 times the estimate for v = (B o theta theta') in
            # the pair layout (sqrt(2) off the diagonal), so the quadratic
            # form of Cov(R) at v is n^4 Var(estimate)
            pairs = _r_pairs(B, table)
            [(mean, second)] = _weighted_moments(
                _AssignmentBlocks(design),
                lambda Z: (_r_vectors(_observation_matrix(model, Z), pairs),),
            )
            k, l, _ = pairs
            v = np.where(k == l, 1.0, math.sqrt(2.0)) * (B * np.outer(theta, theta))[k, l]
            cov_form = float(v @ second @ v - (mean @ v) ** 2)
            var = float(probs @ (ests - probs @ ests) ** 2) * n**4
            assert cov_form == pytest.approx(var, rel=1e-12, abs=1e-12 * float(v @ second @ v))

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_one_estimate_kernel_on_the_pool(self, mode):
        # the MSE from the R moments is the weighted mean squared error of
        # ht_bound_estimate on each row the moments average over (the
        # support, or the draws)
        rng, theta_rng = np.random.default_rng(2021), np.random.default_rng(6)
        for i in range(30):
            design, model, spec = random_scenario(rng)
            count, seed = (None, None) if mode == "exact" else (400, i)
            problem, table = build_variance_problem(design, model, spec, 0.0, mode, count, seed)
            B = problem.A + aronow_samii_slack(problem.A, problem.omega)
            theta = theta_rng.normal(size=2 * model.n)
            target = linalg.quadratic_form_value(B, theta, model.n)
            mse = r_covariance_opnorm(design, model, B, table, mode, count, seed,
                                      theta=theta).empirical_mse
            rows = list(_AssignmentBlocks(design, mode, count, seed))
            w = np.concatenate([w for _, w in rows])
            single = np.array([ht_bound_estimate(B, observe(model, z, theta), table, model.n)
                               for Z, _ in rows for z in Z])
            oracle = float(w @ (single - target) ** 2) / float(w.sum())
            assert abs(mse - oracle) <= 1e-12 * max(mse, target**2), i


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

    def test_moment_form_at_p_infinity(self):
        rng = np.random.default_rng(6)
        M = rng.normal(size=(4, 4))
        B = (M + M.T) / 2
        theta = rng.normal(size=4)
        got = mse_upper_bound(RDiagnostics(opnorm_cov_R=1.3), theta, B, 2, p=math.inf, q=1)
        expected = 1.3 * float(np.abs(B).max(axis=1) @ np.abs(B).max(axis=1)) * float(
            np.sum(theta**2)) ** 2 / 4
        assert got == pytest.approx(expected, rel=1e-12)

    def test_conjugate_validation(self):
        diag = RDiagnostics(opnorm_cov_R=1.0)
        with pytest.raises(InvalidConjugatePair):
            mse_upper_bound(diag, np.ones(4), np.eye(4), 2, p=2, q=3)
        with pytest.raises(InvalidConjugatePair):
            mse_upper_bound(diag, 1.0, np.eye(4), 2, p=2, q=2)


class TestEmpiricalMse:
    """The bound estimator's MSE, ``r_covariance_opnorm(..., theta=theta).empirical_mse``."""

    def test_two_voter_value(self, illustration):
        theta = np.array([1.0, 2.0, 3.0, 4.0])
        got = r_covariance_opnorm(
            illustration["design"], illustration["model"], B_MINNORM,
            illustration["table"], theta=theta,
        ).empirical_mse
        # estimates are 9 and 1 around a mean of 5
        assert got == pytest.approx(16.0)

    def test_point_mass_design(self):
        design = Design.explicit([((1, 0), 1.0)])
        model = ExposureModel.identity(2)
        table = build_variance_problem(design, model, EstimatorSpec(kind="horvitz-thompson"))[1]
        B = np.diag([1.0, 0.0, 0.0, 1.0])
        diag = r_covariance_opnorm(design, model, B, table, theta=np.ones(4))
        assert diag.empirical_mse == pytest.approx(0.0)

    def test_mc_mode_agrees_with_exact(self, illustration):
        theta = np.array([1.0, 2.0, 3.0, 4.0])
        exact = r_covariance_opnorm(
            illustration["design"], illustration["model"], B_MINNORM,
            illustration["table"], theta=theta,
        ).empirical_mse
        approx = r_covariance_opnorm(
            illustration["design"], illustration["model"], B_MINNORM,
            illustration["table"], theta=theta, mode="mc", count=4000, seed=6,
        ).empirical_mse
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
        mc = dict(mode="mc", count=2000, seed=11)
        got = r_covariance_opnorm(design, model, B, theta=theta, **mc).empirical_mse
        table = pair_observation_probabilities(design, model, **mc)
        assert got == r_covariance_opnorm(design, model, B, table, theta=theta, **mc).empirical_mse
        assert 0.0 < got < np.inf

    def test_incompatible_bound_rejected(self):
        # the R pairs alone would drop such weight and bias the MSE silently
        design, model = Design.bernoulli(2, 0.5), ExposureModel.identity(2)
        table = pair_observation_probabilities(design, model)
        never = B_MINNORM.copy()
        never[0, 2] = never[2, 0] = 1.0  # P2[0, 2] = 0
        with pytest.raises(IncompatibleBound, match=r"B\[0,2\]"):
            r_covariance_opnorm(design, model, never, table, theta=np.ones(4))
        rare = np.zeros((4, 4))
        rare[0, 1] = rare[1, 0] = rare[0, 0] = rare[1, 1] = 1.0
        # P2[0, 1] = 1/4 is fine: Cov(R) refuses only P2 = 0; a threshold c > 0
        # is ht_bound_estimate's check (test_threshold_refuses_rare_pairs)
        diag = r_covariance_opnorm(design, model, rare, table, theta=np.ones(4))
        assert diag.empirical_mse >= 0.0

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
            mse = r_covariance_opnorm(design, model, B_MINNORM, table, theta=theta).empirical_mse
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
