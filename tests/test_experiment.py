"""Designs, exposures, estimators, and the variance-problem construction."""

import logging
import math
import re
import time
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from varbound import (
    Design,
    EstimatorSpec,
    ExposureModel,
    build_variance_problem,
    enumerate_assignments,
    linalg,
    pair_observation_probabilities,
    sample_assignments,
    unobservable_pairs,
)
from varbound.errors import (
    DegenerateAssignment,
    DimensionMismatch,
    IncompatibleEstimator,
    InvalidDesign,
    RuleUndefined,
    SingularRegression,
    SupportTooLarge,
    VarboundError,
    ZeroExposureProbability,
)
from varbound.experiment import (
    BLOCK_ROWS,
    ESTIMATOR_KINDS,
    SecondOrderTable,
    VarianceProblem,
    _AssignmentBlocks,
    _batch_coefficients,
    _covariance,
    _exposure_codes,
    _CoefficientPass,
    _design_matrices,
    _gauss_jordan_inverse,
    _ht_covariance,
    _local_p2,
    _observation_matrix,
    _reach_pairs,
    _regression_rows,
    _support_blocks,
    _support_rows,
    _svd_pinv_row,
    _variance_build,
    _weighted_moments,
)
from conftest import (
    A_ILLU,
    illustration_parts,
    random_scenario,
    ref_coefficient_vector,
    ref_exposures,
    ref_observation_indices,
)


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

    def test_support_size_of_a_huge_design(self):
        n = 10**30
        assert Design.complete(n, 2).support_size() == n * (n - 1) // 2
        assert Design(kind="cluster", n=n, m=1, clusters=((0,), (1,))).support_size() == 2

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

    @staticmethod
    def _itertools_blocks(design):
        """A complete or cluster design's support from ``itertools``, in
        blocks of BLOCK_ROWS rows: row r leaves untreated the clusters of the
        r-th (K - m)-combination, clusters in order of their smallest unit."""
        groups = sorted(design.clusters or [(i,) for i in range(design.n)], key=min)
        owner = np.empty(design.n, dtype=np.int64)
        for c, units in enumerate(groups):
            owner[list(units)] = c
        untreated = combinations(range(len(groups)), len(groups) - design.m)
        while rows := list(islice(untreated, BLOCK_ROWS)):
            chosen = np.ones((len(rows), len(groups)), dtype=np.int64)
            chosen[np.arange(len(rows))[:, None], np.array(rows, dtype=np.int64)] = 0
            yield np.take(chosen, owner, axis=1)

    def _check_unranked(self, design):
        size = design.support_size()
        got = list(_support_rows(design, size))
        expected = list(self._itertools_blocks(design))
        assert len(got) == len(expected)
        for (Z, prob), ref in zip(got, expected):
            assert Z.dtype == ref.dtype and Z.flags.c_contiguous
            assert np.array_equal(Z, ref)
            assert np.array_equal(prob, np.full(len(ref), 1.0 / size))

    @pytest.mark.parametrize("K", range(1, 13))
    def test_unranked_rows_match_itertools(self, K):
        # every m, for singleton clusters and for K shuffled clusters of 2K units
        rng = np.random.default_rng(K)
        for m in range(K + 1):
            self._check_unranked(Design.complete(K, m))
            cuts = np.sort(rng.choice(np.arange(1, 2 * K), K - 1, replace=False))
            self._check_unranked(Design.cluster(np.split(rng.permutation(2 * K), cuts), m))

    @pytest.mark.parametrize("K, m", [(16, 8), (16, 1), (16, 15), (200, 2), (200, 198)])
    def test_unranked_rows_match_itertools_across_blocks(self, K, m):
        self._check_unranked(Design.complete(K, m))

    @pytest.mark.parametrize("n", [1, 5, 12, 13, 16, 20])
    def test_bernoulli_weights_equal_the_row_products(self, n):
        # bitwise: each row's product of its units' factors, in unit order
        p = np.random.default_rng(n).random(n)
        rows = 0
        for Z, prob in _support_rows(Design.bernoulli(n, p), 2**n):
            assert np.array_equal(prob, np.prod(np.where(Z == 1, p, 1.0 - p), axis=1))
            rows += len(Z)
        assert rows == 2**n

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

    @pytest.mark.parametrize("z", [(0.7, 1), (1.9, 0), (1, -0.2), ("1", 0), (2, 0)])
    def test_explicit_rejects_entries_other_than_0_or_1(self, z):
        with pytest.raises(InvalidDesign, match="must be 0 or 1"):
            Design.explicit([(z, 0.5), ((0, 0), 0.5)])

    def test_explicit_accepts_entries_equal_to_0_or_1(self):
        d = Design.explicit([((1.0, 0.0), 0.5), ((np.int64(0), True), 0.5)])
        assert d.table == (((0, 1), 0.5), ((1, 0), 0.5))

    @pytest.mark.parametrize("prob", [math.nan, math.inf, -math.inf])
    def test_explicit_rejects_non_finite_probabilities(self, prob):
        with pytest.raises(InvalidDesign, match="not finite"):
            Design.explicit([((1, 0), prob), ((0, 1), 1.0)])

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
        with pytest.raises(InvalidDesign, match="n >= 1"):
            Design.bernoulli(0, 0.5)
        with pytest.raises(InvalidDesign, match="2 probabilities for n = 3"):
            Design.bernoulli(3, [0.5, 0.5])
        for m in (-1, 3):
            with pytest.raises(InvalidDesign, match="clusters, got"):
                Design.cluster([[0, 1], [2, 3]], m)
        with pytest.raises(InvalidDesign, match="nonempty support"):
            Design.explicit([])

    @pytest.mark.parametrize("clusters", [[[0, 1], []], [[], [1], [0]]], ids=["last", "first"])
    def test_cluster_refuses_an_empty_cluster(self, clusters):
        # an empty cluster would count as a coin in C(K, m) and in the draws
        with pytest.raises(InvalidDesign, match="nonempty"):
            Design.cluster(clusters, 1)

    def test_raw_constructor_checks_the_kind(self):
        with pytest.raises(InvalidDesign, match="unknown design kind 'bogus'"):
            Design(kind="bogus", n=2)


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
        for count, seed in [(2.0, 0), (True, 0), (2, 1.5), (2, -1), (2, False)]:
            with pytest.raises(InvalidDesign, match="integer (count|seed)"):
                sample_assignments(Design.bernoulli(2, 0.5), seed, count)
        generator = np.random.default_rng(0)
        assert sample_assignments(Design.bernoulli(2, 0.5), generator, 3).shape == (3, 2)
        stream = np.random.SeedSequence(0)
        assert sample_assignments(Design.bernoulli(2, 0.5), stream, 3).shape == (3, 2)
        with pytest.raises(InvalidDesign):
            pair_observation_probabilities(
                Design.bernoulli(2, 0.5), ExposureModel.identity(2), mode="mc", count=0, seed=0
            )

    # Pinned streams: the draws of sample_assignments(design, 11, 16) as bit
    # strings, and 64 * P2 from pair_observation_probabilities(identity
    # exposure, mode="mc", count=64, seed=11), whose entries are multiples of
    # 1/64. The pair (3, 0) and the cluster [2, 0] list their larger unit
    # first on purpose, and "cluster-unsorted" lists its clusters out of the
    # order of their smallest units: its draws key the clusters as listed.
    PINNED = {
        "bernoulli": (
            Design.bernoulli(4, [0.2, 0.5, 0.7, 0.5]),
            "1111 1011 0010 0110 0000 0111 0010 0111 1011 0101 1111 0011 1010 1100 0111 1011",
            [[12, 4, 9, 5, 0, 8, 3, 7], [4, 31, 25, 12, 27, 0, 6, 19],
             [9, 25, 50, 24, 41, 25, 0, 26], [5, 12, 24, 30, 25, 18, 6, 0],
             [0, 27, 41, 25, 52, 25, 11, 27], [8, 0, 25, 18, 25, 33, 8, 15],
             [3, 6, 0, 6, 11, 8, 14, 8], [7, 19, 26, 0, 27, 15, 8, 34]],
        ),
        "complete": (
            Design.complete(4, 2),
            "1001 0011 0011 0110 0101 0101 1010 0101 1001 0101 1100 0011 1010 1100 0011 1001",
            [[31, 10, 11, 10, 0, 21, 20, 21], [10, 30, 12, 8, 20, 0, 18, 22],
             [11, 12, 36, 13, 25, 24, 0, 23], [10, 8, 13, 31, 21, 23, 18, 0],
             [0, 20, 25, 21, 33, 13, 8, 12], [21, 0, 24, 23, 13, 34, 10, 11],
             [20, 18, 0, 18, 8, 10, 28, 10], [21, 22, 23, 0, 12, 11, 10, 33]],
        ),
        "cluster": (
            Design.cluster([[2, 0], [1], [3]], 2),
            "1110 1110 1110 0101 0101 0101 1110 1011 1011 1011 0101 0101 1110 0101 1110 0101",
            [[47, 17, 47, 30, 0, 30, 0, 17], [17, 34, 17, 17, 17, 0, 17, 17],
             [47, 17, 47, 30, 0, 30, 0, 17], [30, 17, 30, 47, 17, 30, 17, 0],
             [0, 17, 0, 17, 17, 0, 17, 0], [30, 0, 30, 30, 0, 30, 0, 0],
             [0, 17, 0, 17, 17, 0, 17, 0], [17, 17, 17, 0, 0, 0, 0, 17]],
        ),
        "cluster-unsorted": (
            Design.cluster([[3], [2, 0], [1]], 2),
            "1011 1011 1011 1110 1110 1110 1011 0101 0101 0101 1110 1110 1011 1110 1011 1110",
            [[34, 17, 34, 17, 0, 17, 0, 17], [17, 47, 17, 30, 30, 0, 30, 17],
             [34, 17, 34, 17, 0, 17, 0, 17], [17, 30, 17, 47, 30, 17, 30, 0],
             [0, 30, 0, 30, 30, 0, 30, 0], [17, 0, 17, 17, 0, 17, 0, 0],
             [0, 30, 0, 30, 30, 0, 30, 0], [17, 17, 17, 0, 0, 0, 0, 17]],
        ),
        "paired": (
            Design.paired([(3, 0), (1, 2)]),
            "0101 1100 1010 1100 0101 0011 1100 1100 1010 1010 1100 0011 0011 1100 1100 0011",
            [[36, 17, 19, 0, 0, 19, 17, 36], [17, 30, 0, 13, 13, 0, 30, 17],
             [19, 0, 34, 15, 15, 34, 0, 19], [0, 13, 15, 28, 28, 15, 13, 0],
             [0, 13, 15, 28, 28, 15, 13, 0], [19, 0, 34, 15, 15, 34, 0, 19],
             [17, 30, 0, 13, 13, 0, 30, 17], [36, 17, 19, 0, 0, 19, 17, 36]],
        ),
        "explicit": (
            Design.explicit([((1, 0, 1, 0), 0.25), ((0, 1, 0, 1), 0.5), ((1, 1, 0, 0), 0.25)]),
            "0101 0101 1010 0101 0101 1100 0101 0101 1100 1010 0101 1010 1010 0101 0101 1100",
            [[34, 17, 17, 0, 0, 17, 17, 34], [17, 47, 0, 30, 30, 0, 47, 17],
             [17, 0, 17, 0, 0, 17, 0, 17], [0, 30, 0, 30, 30, 0, 30, 0],
             [0, 30, 0, 30, 30, 0, 30, 0], [17, 0, 17, 0, 0, 17, 0, 17],
             [17, 47, 0, 30, 30, 0, 47, 17], [34, 17, 17, 0, 0, 17, 17, 34]],
        ),
    }

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_streams_are_pinned(self, kind):
        design, draws, counts = self.PINNED[kind]
        Z = sample_assignments(design, 11, 16)
        assert Z.dtype == np.int64
        assert " ".join("".join(map(str, row)) for row in Z.tolist()) == draws
        P2 = pair_observation_probabilities(
            design, ExposureModel.identity(4), mode="mc", count=64, seed=11
        ).P2
        assert np.array_equal(P2 * 64, np.array(counts))


def _exposures(model, z):
    """Exposure label of every unit under assignment z, from the batch kernel."""
    return tuple(model.labels[c] for c in _exposure_codes(model, [z])[0].tolist())


def _observed(model, z):
    """Indices of theta that assignment z reveals, from the batch kernel."""
    return frozenset(np.flatnonzero(_observation_matrix(model, [z])[0]).tolist())


class TestExposures:
    def test_two_voter_spillover(self):
        model = ExposureModel.spillover([[1], [0]])
        assert _exposures(model, (1, 0)) == ("direct", "indirect")
        assert _exposures(model, (0, 1)) == ("indirect", "direct")

    def test_identity(self):
        model = ExposureModel.identity(2)
        assert _exposures(model, (1, 0)) == (1, 0)

    def test_path_graph_labels(self):
        model = ExposureModel.spillover([[1], [0, 2], [1]])
        assert _exposures(model, (1, 0, 0)) == ("direct", "indirect", "isolated")

    def test_table_rule_and_missing_entry(self):
        model = ExposureModel.from_table(
            2, labels=("a", "b"), contrast=("a", "b"),
            table={(1, 0): ("a", "b"), (0, 1): ("b", "a")},
        )
        assert _exposures(model, (1, 0)) == ("a", "b")
        with pytest.raises(RuleUndefined):
            _exposures(model, (1, 1))

    def test_table_rejects_keys_other_than_0_or_1(self):
        with pytest.raises(InvalidDesign, match="must be 0 or 1"):
            ExposureModel.from_table(
                2, labels=("a", "b"), contrast=("a", "b"),
                table={(0.7, 1): ("a", "b"), (1, 0): ("b", "a")},
            )

    def test_contrast_validation(self):
        with pytest.raises(InvalidDesign):
            ExposureModel.spillover([[1], [0]], contrast=("direct", "direct"))
        with pytest.raises(InvalidDesign):
            ExposureModel.spillover([[1], [0]], contrast=("direct", "nope"))
        with pytest.raises(InvalidDesign):
            ExposureModel.spillover([[2], [0]])
        with pytest.raises(InvalidDesign, match="unit 1 cannot neighbor itself"):
            ExposureModel.spillover([[1], [0, 1]])


class TestObservationIndices:
    def test_two_voter(self):
        model = ExposureModel.spillover([[1], [0]])
        assert _observed(model, (1, 0)) == frozenset({0, 3})
        assert _observed(model, (0, 1)) == frozenset({1, 2})

    def test_identity_all_treated(self):
        model = ExposureModel.identity(3)
        assert _observed(model, (1, 1, 1)) == frozenset({0, 1, 2})

    def test_path_isolated_contributes_nothing(self):
        model = ExposureModel.spillover([[1], [0, 2], [1]])
        assert _observed(model, (1, 0, 0)) == frozenset({0, 4})


def _exact_pi(design, model):
    return pair_observation_probabilities(design, model).pi


class TestCoefficientVector:
    def test_ht_two_voter(self):
        design, model, spec = illustration_parts()
        pi = _exact_pi(design, model)
        V = _batch_coefficients(spec, model, [(1, 0)], pi)[0]
        assert np.allclose(V, [2.0, 0.0, 0.0, -2.0])

    def test_difference_in_means_reproduces_group_means(self):
        # with singleton groups the estimate is theta_0 - theta_3, so the
        # coefficients carry the n / group-size scaling
        model = ExposureModel.identity(2)
        spec = EstimatorSpec(kind="difference-in-means")
        pi = np.full(4, 0.5)
        V = _batch_coefficients(spec, model, [(1, 0)], pi)[0]
        theta = np.array([3.0, 5.0, 7.0, 11.0])
        assert (V @ theta) / 2 == pytest.approx(theta[0] - theta[3])
        assert np.allclose(V, [2.0, 0.0, 0.0, -2.0])

    def test_hajek_degenerate_group(self):
        model = ExposureModel.identity(2)
        spec = EstimatorSpec(kind="hajek")
        pi = np.full(4, 0.5)
        with pytest.raises(DegenerateAssignment):
            _batch_coefficients(spec, model, [(1, 1)], pi)

    @pytest.mark.parametrize("kind", ["difference-in-means", "hajek"])
    def test_degenerate_message_prints_the_assignment(self, kind):
        model = ExposureModel.identity(2)
        spec = EstimatorSpec(kind=kind)
        pi = np.full(4, 0.5)
        with pytest.raises(DegenerateAssignment, match=re.escape("z = (1, 1)")):
            _batch_coefficients(spec, model, [(1, 1)], pi)
        with pytest.raises(DegenerateAssignment, match=re.escape("z = (1, 1)")):
            _batch_coefficients(spec, model, np.array([(1, 0), (1, 1)]), pi)

    def test_zero_probability_rejected(self):
        model = ExposureModel.identity(2)
        spec = EstimatorSpec(kind="horvitz-thompson")
        pi = np.array([0.5, 0.5, 0.5, 0.0])
        with pytest.raises(ZeroExposureProbability):
            _batch_coefficients(spec, model, [(1, 0)], pi)

    def test_hajek_matches_weighted_means(self):
        rng = np.random.default_rng(5)
        n = 4
        model = ExposureModel.identity(n)
        design = Design.bernoulli(n, [0.3, 0.5, 0.6, 0.7])
        pi = _exact_pi(design, model)
        z = (1, 0, 1, 0)
        theta = rng.normal(size=2 * n)
        got = _batch_coefficients(EstimatorSpec(kind="hajek"), model, [z], pi)[0] @ theta / n
        wa = np.array([1 / pi[0], 0, 1 / pi[2], 0])
        wb = np.array([0, 1 / pi[5], 0, 1 / pi[7]])
        expected = (wa @ theta[:n]) / wa.sum() - (wb @ theta[n:]) / wb.sum()
        assert got == pytest.approx(expected, abs=1e-12)

    def test_support_consistency_all_kinds(self):
        # n = 6: Lin's six regressors are identified under every assignment
        rng = np.random.default_rng(9)
        n = 6
        X = rng.normal(size=(n, 2))
        design = Design.complete(n, 3)
        model = ExposureModel.identity(n)
        pi = _exact_pi(design, model)
        for kind in ("horvitz-thompson", "difference-in-means", "hajek", "ols", "lin", "greg"):
            spec = EstimatorSpec(kind=kind, covariates=X)
            for z, _ in enumerate_assignments(design):
                V = _batch_coefficients(spec, model, [z], pi)[0]
                S = ref_observation_indices(model, z)
                off = [k for k in range(2 * n) if k not in S]
                assert np.allclose(V[off], 0.0)

    def test_regression_needs_two_label_exposures(self):
        model = ExposureModel.spillover([[1], [0, 2], [1]])
        design = Design.complete(3, 1)
        pi = _exact_pi(design, model)
        spec = EstimatorSpec(kind="ols", covariates=np.ones((3, 1)))
        message = "ols: unit 2 realized exposure 'isolated', outside the contrast"
        with pytest.raises(IncompatibleEstimator, match=re.escape(message)):
            _batch_coefficients(spec, model, [(1, 0, 1), (1, 0, 0)], pi)

    def test_regression_needs_covariates(self):
        with pytest.raises(InvalidDesign):
            EstimatorSpec(kind="ols")
        design, model = Design.complete(3, 1), ExposureModel.identity(3)
        spec = EstimatorSpec(kind="ols", covariates=np.ones((2, 1)))
        with pytest.raises(DimensionMismatch, match="covariates have 2 rows, expected 3"):
            _batch_coefficients(spec, model, [(1, 0, 0)], _exact_pi(design, model))


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
        spec = EstimatorSpec(kind="ols", covariates=self.X)
        got = _batch_coefficients(spec, self.model, [self.z], self.pi)[0] @ self.theta / self.n
        Q = np.column_stack([np.ones(self.n), self.z, self.X])
        beta = np.linalg.lstsq(Q, self.y, rcond=None)[0]
        assert got == pytest.approx(beta[1], abs=1e-10)

    def test_lin(self):
        spec = EstimatorSpec(kind="lin", covariates=self.X)
        got = _batch_coefficients(spec, self.model, [self.z], self.pi)[0] @ self.theta / self.n
        Xdm = self.X - self.X.mean(axis=0)
        Q = np.column_stack([np.ones(self.n), self.z, Xdm, np.array(self.z)[:, None] * Xdm])
        beta = np.linalg.lstsq(Q, self.y, rcond=None)[0]
        assert got == pytest.approx(beta[1], abs=1e-10)

    def test_greg(self):
        spec = EstimatorSpec(kind="greg", covariates=self.X)
        got = _batch_coefficients(spec, self.model, [self.z], self.pi)[0] @ self.theta / self.n
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
            _batch_coefficients(spec, model, [(1, 1, 1)], pi)
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
            single = _batch_coefficients(spec, self.model, Z[:1], self.pi)[0]
        assert np.allclose(batch[0], single, atol=1e-12)
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            build_variance_problem(self.design, self.model, spec)


class TestEstimatorValue:
    def test_two_voter_values(self):
        # the estimate is (1/n) V . theta
        design, model, spec = illustration_parts()
        pi = _exact_pi(design, model)
        theta = np.array([1.3, -0.4, 2.2, 0.9])  # (a1, a2, b1, b2)
        V = _batch_coefficients(spec, model, [(1, 0), (0, 1)], pi)
        assert V[0] @ theta / 2 == pytest.approx(theta[0] - theta[3])
        assert V[1] @ theta / 2 == pytest.approx(theta[1] - theta[2])
        assert V[0] @ np.zeros(4) / 2 == 0.0


def _expected_ht_estimate(design, model, theta):
    """Exact expectation of the Horvitz-Thompson estimate over the support."""
    support = enumerate_assignments(design)
    Z = np.array([z for z, _ in support])
    p = np.array([prob for _, prob in support])
    V = _batch_coefficients(EstimatorSpec(kind="horvitz-thompson"), model, Z,
                            _exact_pi(design, model))
    return p @ V @ theta / model.n


class TestEstimand:
    # the estimand (1/n) sum of (theta_k - theta_{k+n}) is the expectation of
    # the unbiased Horvitz-Thompson estimate
    def test_arithmetic(self):
        design, model, _ = illustration_parts()
        assert _expected_ht_estimate(design, model, np.array([1.0, 2, 3, 4])) == pytest.approx(-2.0)
        design, model = Design.bernoulli(3, 0.5), ExposureModel.identity(3)
        theta = np.array([5.0, 0, 0, 0, 0, 0])
        assert _expected_ht_estimate(design, model, theta) == pytest.approx(5 / 3)

    def test_null_contrast(self):
        design, model, _ = illustration_parts()
        assert _expected_ht_estimate(design, model, np.array([1.0, 2.0, 1.0, 2.0])) == 0.0


class TestCovariance:
    def test_two_voter_is_rank_one(self, illustration):
        assert np.allclose(illustration["problem"].A, A_ILLU, atol=1e-12)

    def test_difference_in_means_gives_same_matrix(self):
        design, model, _ = illustration_parts()
        problem, _ = build_variance_problem(
            design, model, EstimatorSpec(kind="difference-in-means"))
        assert np.allclose(problem.A, A_ILLU, atol=1e-12)

    def test_point_mass_design(self):
        design = Design.explicit([((1, 0), 1.0)])
        model = ExposureModel.identity(2)
        problem, _ = build_variance_problem(
            design, model, EstimatorSpec(kind="horvitz-thompson"))
        assert np.allclose(problem.A, 0.0, atol=1e-12)

    def test_mc_close_to_exact(self):
        design, model, spec = illustration_parts()
        problem, _ = build_variance_problem(design, model, spec, mode="mc", count=100_000, seed=3)
        assert np.abs(problem.A - A_ILLU).max() < 0.02
        assert problem.provenance == {"mode": "mc", "count": 100_000, "seed": 3}

    def test_mc_rate_improves_with_count(self):
        design, model, spec = illustration_parts()
        err = {}
        for count in (1_000, 100_000):
            problem, _ = build_variance_problem(
                design, model, spec, mode="mc", count=count, seed=5)
            err[count] = np.abs(problem.A - A_ILLU).max()
        assert err[100_000] < err[1_000]
        # entrywise error at the larger count consistent with 1/sqrt(count)
        assert err[100_000] < 3.0 * 4.0 / math.sqrt(100_000)

    def test_mc_threads_deterministic(self):
        design, model, spec = illustration_parts()
        one, _ = build_variance_problem(design, model, spec, mode="mc", count=9_999, seed=2)
        two, _ = build_variance_problem(design, model, spec, mode="mc", count=9_999, seed=2)
        assert np.array_equal(one.A, two.A)

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
            assert np.allclose(row, ref_coefficient_vector(spec, model, z, pi), atol=1e-12)

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
            s[list(ref_observation_indices(model, z))] = 1.0
            P2 += p * np.outer(s, s)
        pi = np.diag(P2).copy()
        second = np.zeros((2 * n, 2 * n))
        mean = np.zeros(2 * n)
        for z, p in support:
            V = ref_coefficient_vector(spec, model, z, pi)
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
                p * _batch_coefficients(EstimatorSpec(kind="horvitz-thompson"), model, [z], pi)[0]
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
            A = build_variance_problem(design, model, spec)[0].A
            n = model.n
            for _ in range(20):
                theta = rng.normal(size=2 * n)
                vals = np.array([
                    ref_coefficient_vector(spec, model, z, pi) @ theta / n for z, _ in support
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

    @pytest.mark.parametrize("c", [-0.1, math.nan])
    def test_threshold_must_be_nonnegative(self, c):
        design, model, _ = illustration_parts()
        table = pair_observation_probabilities(design, model)
        with pytest.raises(InvalidDesign, match="nonnegative"):
            unobservable_pairs(table, c)

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
        # relative to ||A||_F, so no unit of A moves the gate
        omega = frozenset({(0, 2), (1, 3)})
        for scale in (1.0, 2.0**-40, 2.0**40):
            with pytest.raises(InvalidDesign):
                VarianceProblem(n=2, A=scale * np.diag([1.0, 1.0, 1.0, -1e-6]), omega=omega)
            VarianceProblem(n=2, A=scale * np.diag([1.0, 1.0, 1.0, -1e-9]), omega=omega)

    def test_build_shares_mode(self):
        design, model, spec = illustration_parts()
        problem, table = build_variance_problem(
            design, model, spec, mode="mc", count=2_000, seed=1
        )
        assert problem.provenance["mode"] == "mc"
        assert table.provenance["mode"] == "mc"


def _ring(n):
    return ExposureModel.spillover([[(i - 1) % n, (i + 1) % n] for i in range(n)])


def _mode_kwargs(mode, seed):
    return {"mode": "mc", "count": 3_000, "seed": seed} if mode == "mc" else {}


def _two_pass(design, model, spec, **kwargs):
    """(A, SecondOrderTable) by two passes: P2 in the first, the coefficient
    covariance in a second over the same assignments. The reference for every
    estimator's build."""
    blocks = _AssignmentBlocks(design, **kwargs)
    table = _variance_build(blocks, model, None)[1]
    A = _covariance(*_weighted_moments(
        blocks, lambda Z: (_batch_coefficients(spec, model, Z, table.pi),))[0])
    return A, table


def _observation_moments(blocks, model, dtype):
    """E[x] and E[x x'] of the observation rows, given to the kernel as
    ``dtype``: bool rows may be counted, float rows are always weighted."""
    return _weighted_moments(blocks, lambda Z: (_observation_matrix(model, Z).astype(dtype),))[0]


class TestDrawnBlocks:
    """Monte Carlo mode draws its blocks while a pass runs, from a fresh
    generator on the seed's first child stream: the blocks are the one-shot
    draws of ``sample_assignments``, every pass sees the same ones, and no pass
    holds more than one block."""

    @pytest.mark.parametrize("kind", sorted(TestSample.PINNED))
    def test_blocks_are_the_one_shot_draws(self, kind):
        design, seed, count = TestSample.PINNED[kind][0], 9, 2 * BLOCK_ROWS + 123
        blocks = _AssignmentBlocks(design, "mc", count, seed)
        passes = [[Z for Z, _ in blocks] for _ in range(2)]
        assert [len(Z) for Z in passes[0]] == [BLOCK_ROWS, BLOCK_ROWS, 123]
        assert (blocks.passes, blocks.rows) == (2, count)
        expected = sample_assignments(design, np.random.SeedSequence(seed, spawn_key=(0,)), count)
        for drawn in passes:
            assert np.array_equal(np.concatenate(drawn), expected)

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_is_checked_when_the_blocks_are_made(self, count):
        with pytest.raises(InvalidDesign, match="count >= 1"):
            _AssignmentBlocks(Design.bernoulli(2, 0.5), "mc", count, 0)

    @pytest.mark.parametrize("mode, count, seed, match", [
        ("sampled", 5, 0, "mode must be 'exact' or 'mc'"),
        ("mc", None, 0, "needs count and seed"),
        ("mc", 5, None, "needs count and seed"),
    ], ids=["unknown-mode", "mc-no-count", "mc-no-seed"])
    def test_mode_and_its_arguments_are_checked(self, mode, count, seed, match):
        with pytest.raises(InvalidDesign, match=match):
            _AssignmentBlocks(Design.bernoulli(2, 0.5), mode, count, seed)

    @pytest.mark.parametrize("count, seed", [
        (10.5, 0), (math.inf, 0), ("5", 0), (True, 0), (np.float64(5.0), 0),
        (5, 1.5), (5, -1), (5, True), (5, "0"), (5, np.random.SeedSequence(0)),
    ], ids=["count-fraction", "count-inf", "count-text", "count-bool", "count-numpy-float",
            "seed-fraction", "seed-negative", "seed-bool", "seed-text", "seed-sequence"])
    def test_draws_need_integer_count_and_seed(self, count, seed):
        # each went to numpy as it came: a TypeError, OverflowError or
        # ValueError, or one draw for count=True
        design, model = Design.bernoulli(2, 0.5), ExposureModel.identity(2)
        mc = dict(mode="mc", count=count, seed=seed)
        with pytest.raises(InvalidDesign, match="integer (count|seed)"):
            _AssignmentBlocks(design, **mc)
        with pytest.raises(InvalidDesign, match="integer (count|seed)"):
            build_variance_problem(design, model, EstimatorSpec("horvitz-thompson"), **mc)
        with pytest.raises(InvalidDesign, match="integer (count|seed)"):
            pair_observation_probabilities(design, model, **mc)

    def test_numpy_integer_count_and_seed_are_taken(self):
        design = Design.bernoulli(3, 0.5)
        drawn = [Z for Z, _ in _AssignmentBlocks(design, "mc", np.int64(7), np.uint32(4))]
        expected = [Z for Z, _ in _AssignmentBlocks(design, "mc", 7, 4)]
        assert np.array_equal(np.concatenate(drawn), np.concatenate(expected))

    def test_a_build_holds_one_block_of_draws(self, caplog):
        # 100,000 draws at n = 80: stored as int64 they alone would take 64 MB
        n, count = 80, 100_000
        design, model = Design.bernoulli(n, 0.5), _ring(n)
        tracemalloc.start()
        try:
            with caplog.at_level(logging.DEBUG, logger="varbound.experiment"):
                build_variance_problem(design, model, EstimatorSpec("horvitz-thompson"),
                                       mode="mc", count=count, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20 < count * n * 8
        assert f"path drawn, {count} rows ({count} counted), passes 1" in caplog.records[-1].getMessage()


class TestCountingKernel:
    """0/1 rows in a block of equal weights are counted (a float32 Gram); float
    rows, and every row of a block with unequal weights, are weighted."""

    @staticmethod
    def _assert_bitwise(got, expected):
        for x, y in zip(got, expected):
            assert np.array_equal(x, y)

    def test_mc_pool_bitwise_equal_to_weighted(self):
        rng = np.random.default_rng(41)
        for i in range(20):
            design, model, _ = random_scenario(rng)
            blocks = _AssignmentBlocks(design, "mc", 5000, i)
            counted = _observation_moments(blocks, model, bool)
            assert blocks.counted == blocks.rows == 5000
            self._assert_bitwise(counted, _observation_moments(blocks, model, float))
            assert blocks.counted == 0

    @pytest.mark.parametrize("n", [6, 13])
    @pytest.mark.parametrize("model", [ExposureModel.identity, _ring], ids=["identity", "ring"])
    def test_fair_coins_bitwise_equal_to_weighted(self, n, model):
        # 13 units: two blocks
        blocks = _AssignmentBlocks(Design.bernoulli(n, 0.5))
        counted = _observation_moments(blocks, model(n), bool)
        assert blocks.counted == blocks.rows == 2**n
        self._assert_bitwise(counted, _observation_moments(blocks, model(n), float))

    @pytest.mark.parametrize("n", [8, 9, 10])
    @pytest.mark.parametrize("model", [ExposureModel.identity, _ring], ids=["identity", "ring"])
    def test_complete_randomization_against_exact_fractions(self, n, model):
        # each counted entry is w0 c / total: within 2 eps (relative) of
        # c / size, however many rows it counts, where the weighted sum adds c
        # roundings; at the balanced m = n // 2 that leaves it no farther from
        # the exact P2 than the weighted sum is, in total (short unbalanced
        # supports at n = 8 can round the weighted sum luckier)
        model = model(n)
        eps = np.finfo(float).eps
        for m in range(1, n):
            blocks = _AssignmentBlocks(Design.complete(n, m))
            _, counted = _observation_moments(blocks, model, bool)
            _, weighted = _observation_moments(blocks, model, float)
            assert np.abs(counted - weighted).max() <= 1e-14 * np.abs(weighted).max()
            O = np.concatenate([_observation_matrix(model, Z) for Z, _ in blocks]).astype(int)
            exact = [Fraction(int(c), blocks.rows) for c in (O.T @ O).ravel()]
            err = [abs(Fraction(float(x)) - e) for x, e in zip(counted.ravel(), exact)]
            assert all(d <= 2 * eps * e for d, e in zip(err, exact))
            if m == n // 2:
                assert sum(err) <= sum(abs(Fraction(float(x)) - e)
                                       for x, e in zip(weighted.ravel(), exact))

    @pytest.mark.parametrize("design", [
        Design.bernoulli(13, 0.3),
        Design.explicit([((1, 0, 1, 0), 0.1), ((0, 1, 0, 1), 0.2),
                         ((1, 1, 0, 0), 0.3), ((0, 0, 1, 1), 0.4)]),
    ], ids=["bernoulli-0.3", "explicit"])
    def test_unequal_weights_take_the_weighted_path(self, design):
        model = _ring(design.n)
        blocks = _AssignmentBlocks(design)
        counted = _observation_moments(blocks, model, bool)
        assert blocks.counted == 0
        self._assert_bitwise(counted, _observation_moments(blocks, model, float))

    def test_equal_weights_are_read_per_block(self):
        # 13 units, two blocks: the first half of the support (z_0 = 0) at
        # one equal weight, the second half at unequal weights
        Z = [tuple(z) for z, _ in enumerate_assignments(Design.bernoulli(13, 0.5))]
        w = np.concatenate([np.full(4096, 0.5 / 4096), np.linspace(0.5, 1.5, 4096) * 0.5 / 4096])
        design = Design.explicit(zip(Z, w / w.sum()))
        model = ExposureModel.identity(13)
        blocks = _AssignmentBlocks(design)
        counted = _observation_moments(blocks, model, bool)
        assert (blocks.counted, blocks.rows) == (4096, 8192)
        weighted = _observation_moments(blocks, model, float)
        for x, y in zip(counted, weighted):
            assert np.abs(x - y).max() <= 1e-15

    def test_counting_frees_each_boolean_block(self):
        # one block of 800 fresh boolean columns, as Cov(R) counts at n = 20:
        # the traced peak holds the float32 copy and the Gram matrices (the
        # float64 sum and the float32 product), not the boolean block as well
        class OneBlock:
            counted = 0

            def __iter__(self):
                yield np.zeros((BLOCK_ROWS, 1)), np.full(BLOCK_ROWS, 1.0 / BLOCK_ROWS)

        rng, cols = np.random.default_rng(3), 800
        rows = lambda Z: (rng.integers(0, 2, (len(Z), cols), dtype=np.uint8).view(bool),)  # noqa: E731
        _weighted_moments(OneBlock(), rows)
        tracemalloc.start()
        try:
            [(mean, _)] = _weighted_moments(OneBlock(), rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mean.shape == (cols,)
        block = BLOCK_ROWS * cols  # bytes of one boolean block
        float32, grams = 4 * block, cols * cols * (8 + 4)
        assert peak < float32 + grams + block // 2

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_mixed_pass_equals_separate_passes(self, mode):
        # Lin: counted observation rows and weighted coefficient rows in one pass
        n = 8
        design, model = Design.complete(n, 4), ExposureModel.identity(n)
        spec = EstimatorSpec(kind="lin", covariates=np.random.default_rng(4).normal(size=(n, 2)))
        blocks = _AssignmentBlocks(design, **_mode_kwargs(mode, 5))
        obs = lambda Z: _observation_matrix(model, Z)  # noqa: E731
        coef = lambda Z: _batch_coefficients(spec, model, Z, None)  # noqa: E731
        together = _weighted_moments(blocks, lambda Z: (obs(Z), coef(Z)))
        assert blocks.counted == blocks.rows
        apart = [_weighted_moments(blocks, lambda Z: (obs(Z),))[0],
                 _weighted_moments(blocks, lambda Z: (coef(Z),))[0]]
        for got, expected in zip(together, apart):
            self._assert_bitwise(got, expected)

    @pytest.mark.parametrize("design, kind, mode, rows, counted", [
        (Design.bernoulli(6, 0.5), "horvitz-thompson", "exact", 64, 64),
        (Design.bernoulli(6, 0.3), "horvitz-thompson", "exact", 64, 0),
        (Design.bernoulli(6, 0.3), "horvitz-thompson", "mc", 3000, 3000),
        # the count is the P2 pass's, not the weighted coefficient pass's
        (Design.complete(6, 3), "hajek", "exact", 20, 20),
    ], ids=["fair-exact", "biased-exact", "biased-mc", "hajek-exact"])
    def test_debug_line_counts_rows(self, caplog, design, kind, mode, rows, counted):
        with caplog.at_level(logging.DEBUG, logger="varbound.experiment"):
            build_variance_problem(design, _ring(6), EstimatorSpec(kind=kind),
                                   **_mode_kwargs(mode, 2))
        [record] = [r for r in caplog.records if r.name == "varbound.experiment"]
        assert f" {rows} rows ({counted} counted), " in record.getMessage()


class TestOnePassBuild:
    """Horvitz-Thompson's A comes from P2 with no second pass; difference in
    means, OLS and Lin average their coefficients in the P2 pass; Hajek and
    GREG, which read pi, keep a second pass."""

    HT = EstimatorSpec(kind="horvitz-thompson")

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_ht_matches_the_per_assignment_oracle(self, mode):
        rng = np.random.default_rng(12)
        for i in range(12):
            design, model, spec = random_scenario(rng)
            kwargs = _mode_kwargs(mode, i)
            problem, _ = build_variance_problem(design, model, spec, **kwargs)
            if mode == "exact":
                support = enumerate_assignments(design)
            else:
                draws = sample_assignments(
                    design, np.random.SeedSequence(i, spawn_key=(0,)), kwargs["count"])
                support = [(z, 1.0 / len(draws)) for z in draws]
            dim = 2 * model.n
            pi = np.zeros(dim)
            for z, p in support:
                pi[list(ref_observation_indices(model, z))] += p
            second, mean = np.zeros((dim, dim)), np.zeros(dim)
            for z, p in support:
                V = ref_coefficient_vector(spec, model, z, pi)
                second += p * np.outer(V, V)
                mean += p * V
            A = second - np.outer(mean, mean)
            assert np.abs(problem.A - A).max() <= 1e-12 * np.abs(A).max()

    @pytest.mark.parametrize("n, kwargs", [
        (12, {}),
        (40, {"mode": "mc", "count": 20_000, "seed": 1}),
        (80, {"mode": "mc", "count": 20_000, "seed": 1}),
    ], ids=["exact12", "mc40", "mc80"])
    def test_ht_matches_the_coefficient_pass_on_the_ladder(self, n, kwargs):
        design, model = Design.bernoulli(n, 0.5), _ring(n)
        problem, table = build_variance_problem(design, model, self.HT, **kwargs)
        A, reference = _two_pass(design, model, self.HT, **kwargs)
        assert np.abs(problem.A - A).max() <= 1e-12 * np.abs(A).max()
        assert np.array_equal(table.P2, reference.P2)
        assert problem.omega == unobservable_pairs(reference)

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_ht_matches_the_coefficient_pass_on_the_pool(self, mode):
        rng = np.random.default_rng(2021)
        for i in range(30):
            design, model, spec = random_scenario(rng)
            kwargs = _mode_kwargs(mode, i)
            A = build_variance_problem(design, model, spec, **kwargs)[0].A
            reference, _ = _two_pass(design, model, spec, **kwargs)
            assert np.abs(A - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_other_estimators_are_bitwise_the_two_pass_build(self, mode):
        rng = np.random.default_rng(5)
        kinds = ("horvitz-thompson", "difference-in-means", "hajek")
        for i in range(20):
            design, model, spec = random_scenario(rng, estimators=kinds)
            kwargs = _mode_kwargs(mode, i)
            c = float(rng.choice([0.0, 0.2]))
            try:
                A, reference = _two_pass(design, model, spec, **kwargs)
            except VarboundError as exc:
                with pytest.raises(type(exc)):
                    build_variance_problem(design, model, spec, c, **kwargs)
                continue
            problem, table = build_variance_problem(design, model, spec, c, **kwargs)
            assert table.P2.tobytes() == reference.P2.tobytes()
            assert problem.omega == unobservable_pairs(reference, c)
            if spec.kind != "horvitz-thompson":
                assert problem.A.tobytes() == A.tobytes()

    @pytest.mark.parametrize("kind", ["difference-in-means", "ols", "lin", "greg"])
    def test_fixed_scenario_is_bitwise_the_two_pass_build(self, kind):
        n = 8
        design, model = Design.complete(n, 4), ExposureModel.identity(n)
        spec = EstimatorSpec(kind=kind, covariates=np.random.default_rng(3).normal(size=(n, 2)))
        problem, table = build_variance_problem(design, model, spec)
        A, reference = _two_pass(design, model, spec)
        assert problem.A.tobytes() == A.tobytes()
        assert table.P2.tobytes() == reference.P2.tobytes()

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_unobservable_coordinate_gets_zero_row_and_column(self, mode):
        # unit 2 has no neighbours, so it is never indirectly exposed: pi = 0
        # at coordinate 2 + n
        n = 3
        design = Design.bernoulli(n, 0.5)
        model = ExposureModel.spillover([[1], [0], []])
        kwargs = _mode_kwargs(mode, 4)
        problem, table = build_variance_problem(design, model, self.HT, **kwargs)
        assert table.pi[2 + n] == 0.0
        assert np.all(problem.A[2 + n] == 0.0) and np.all(problem.A[:, 2 + n] == 0.0)
        A, _ = _two_pass(design, model, self.HT, **kwargs)
        assert np.abs(problem.A - A).max() <= 1e-12 * np.abs(A).max()
        assert (2 + n, 2 + n) in problem.omega

    def test_ht_builds_no_coefficient_vectors(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("coefficient pass taken")

        monkeypatch.setattr("varbound.experiment._batch_coefficients", refuse)
        design, model = Design.bernoulli(6, 0.5), _ring(6)
        build_variance_problem(design, model, self.HT)
        build_variance_problem(design, model, self.HT, mode="mc", count=500, seed=2)

    @pytest.mark.parametrize("kind, source, passes", [
        ("horvitz-thompson", "from P2", 1),
        ("hajek", "from coefficients", 2),
        (None, "not built", 1),
    ])
    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_one_debug_line_per_build(self, caplog, kind, source, passes, mode):
        design, model, _ = illustration_parts()
        kwargs = _mode_kwargs(mode, 1)
        with caplog.at_level(logging.DEBUG, logger="varbound.experiment"):
            if kind is None:
                pair_observation_probabilities(design, model, **kwargs)
            else:
                build_variance_problem(design, model, EstimatorSpec(kind=kind), **kwargs)
        [record] = [r for r in caplog.records if r.name == "varbound.experiment"]
        assert record.levelno == logging.DEBUG
        rows = kwargs.get("count", 2)
        path = "enumerated" if mode == "exact" else "drawn"
        assert re.fullmatch(
            rf"build: mode {mode}, path {path}, {rows} rows \({rows} counted\), passes {passes}, "
            rf"A {source}, \d+\.\d{{3}} s",
            record.getMessage())

    @pytest.mark.parametrize("kind, passes", [
        ("horvitz-thompson", 1),
        ("difference-in-means", 1),
        ("ols", 1),
        ("lin", 1),
        ("hajek", 2),
        ("greg", 2),
    ])
    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_passes_per_estimator(self, caplog, kind, passes, mode):
        n = 6
        design, model = Design.complete(n, 3), ExposureModel.identity(n)
        spec = EstimatorSpec(kind=kind, covariates=np.random.default_rng(2).normal(size=(n, 1)))
        kwargs = _mode_kwargs(mode, 3)
        with caplog.at_level(logging.DEBUG, logger="varbound.experiment"):
            build_variance_problem(design, model, spec, **kwargs)
        [record] = [r for r in caplog.records if r.name == "varbound.experiment"]
        rows = kwargs.get("count", 20)
        svd = f", regression rows by SVD 0 of {rows}" if kind in ("ols", "lin") else ""
        path = "enumerated" if mode == "exact" else "drawn"
        assert re.fullmatch(
            rf"build: mode {mode}, path {path}, {rows} rows \({rows} counted\), passes {passes}, "
            rf"A from \w+{svd}, \d+\.\d{{3}} s",
            record.getMessage())


def _ring_with_chords(n, chords=()):
    """The ring's spillover rule, plus an edge (both ways) for each chord."""
    adjacency = [{(i - 1) % n, (i + 1) % n} for i in range(n)]
    for a, b in chords:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return ExposureModel.spillover([sorted(nbrs) for nbrs in adjacency])


# chords that make a relabeling of the n = 12 ring no symmetry of its graph
CHORDS = [(0, 5), (2, 9), (3, 7)]


def _enumerated_p2(design, model):
    """P2 by the enumeration's pass: ``_weighted_moments`` over the exact
    support, on ``_observation_matrix`` rows."""
    [(_, P2)] = _weighted_moments(_AssignmentBlocks(design),
                                  lambda Z: (_observation_matrix(model, Z),))
    return linalg.symmetrize(P2)


def _local_table(design, model):
    """P2 from the local patterns, whatever the build would route to."""
    return _local_p2(design, model, *_reach_pairs(design, model))


def _assert_local_matches_enumeration(design, model, bitwise):
    """P2, A and Omega from the local table against the enumeration: bitwise
    where every weight is dyadic, else P2 within 1e-14 relative entrywise
    with the same zero pattern, and Omega equal. A = P2 / (pi pi') - 1
    divides by two probabilities, which carries the enumeration's own
    rounding (up to 1.1e-14 of A's largest entry against exact fractions at
    n = 10, where the local A is within 2e-16) into A: A agrees within 5e-14
    of its largest entry."""
    local, enumerated = _local_table(design, model), _enumerated_p2(design, model)
    tables = [SecondOrderTable(P2) for P2 in (local, enumerated)]
    A, A_ref = (_ht_covariance(t) for t in tables)
    if bitwise:
        assert local.tobytes() == enumerated.tobytes()
        assert A.tobytes() == A_ref.tobytes()
    else:
        assert np.array_equal(local == 0, enumerated == 0)
        assert np.all(np.abs(local - enumerated) <= 1e-14 * np.abs(enumerated))
        assert np.abs(A - A_ref).max() <= 5e-14 * np.abs(A_ref).max()
    for c in (0.0, 0.2):
        assert unobservable_pairs(tables[0], c) == unobservable_pairs(tables[1], c)


def _ring_designs(n):
    """(design, bitwise) for each design kind on n units (n even)."""
    half = n // 2
    return [
        (Design.bernoulli(n, 0.5), True),
        (Design.bernoulli(n, 0.3), False),
        (Design.bernoulli(n, np.linspace(0.1, 0.9, n)), False),
        (Design.paired([(i, i + half) for i in range(half)]), True),
        (Design.complete(n, half - 1), False),
        (Design.cluster([(i, i + half) for i in range(half)], half // 2), False),
    ]


def _relabeled(design, model, perm):
    """The same experiment with unit perm[i] renamed i: the Bernoulli
    probabilities, the pairs, the clusters and the adjacency follow it."""
    new = np.argsort(perm)  # new[old unit] = its new label
    rename = lambda units: [int(new[u]) for u in units]  # noqa: E731
    if design.kind == "bernoulli":
        design = Design.bernoulli(design.n, np.asarray(design.p)[perm])
    elif design.kind == "paired":
        design = Design.paired([rename(pair) for pair in design.pairs])
    elif design.kind == "cluster":
        design = Design.cluster([rename(c) for c in design.clusters], design.m)
    if model.rule == "spillover":
        model = ExposureModel.spillover([rename(model.adjacency[u]) for u in perm])
    return design, model


def _relabel_coordinates(perm):
    """The coordinate permutation of a unit permutation, and the map of an
    Omega pair onto its relabeled pair."""
    n = len(perm)
    coords = np.concatenate([perm, perm + n])
    new = np.argsort(coords)
    return coords, lambda pairs: {tuple(sorted((int(new[k]), int(new[l])))) for k, l in pairs}


class TestLocalMoments:
    """Exact Horvitz-Thompson P2 from each unit pair's local patterns, checked
    against the enumeration, Monte Carlo draws and relabeled units."""

    HT = EstimatorSpec(kind="horvitz-thompson")

    @pytest.mark.parametrize("n", [6, 10, 16])
    @pytest.mark.parametrize("rule", ["identity", "spillover"])
    def test_matches_enumeration_on_the_ring(self, n, rule):
        model = ExposureModel.identity(n) if rule == "identity" else _ring(n)
        for design, bitwise in _ring_designs(n):
            _assert_local_matches_enumeration(design, model, bitwise)

    def test_matches_enumeration_on_the_pool(self):
        # every pool design, under the identity rule and the ring's spillover
        rng = np.random.default_rng(2021)
        seen = set()
        for _ in range(60):
            design, _, _ = random_scenario(rng)
            n = design.n
            ring = ExposureModel.spillover([[1], [0]] if n == 2 else
                                           [[(i - 1) % n, (i + 1) % n] for i in range(n)])
            for model in (ExposureModel.identity(n), ring):
                bitwise = design.kind == "paired"
                _assert_local_matches_enumeration(design, model, bitwise)
                seen.add((design.kind, model.rule))
        assert len(seen) == 8

    @pytest.mark.parametrize("design", [
        Design.bernoulli(8, np.linspace(0.1, 0.9, 8)), Design.complete(8, 3),
    ], ids=["bernoulli", "complete"])
    def test_within_four_eps_of_exact_fractions(self, design):
        # the local sums run over at most 2^6 patterns a pair: each P2 entry is
        # within 4 eps (relative) of the exact probability
        n, model = 8, _ring(8)
        support = enumerate_assignments(design)
        if design.kind == "bernoulli":
            p = [Fraction(x) for x in design.p]
            probs = [math.prod(p[i] if z[i] else 1 - p[i] for i in range(n)) for z, _ in support]
        else:
            probs = [Fraction(1, len(support))] * len(support)
        O = _observation_matrix(model, np.array([z for z, _ in support]))
        exact = [[sum((w for w, o in zip(probs, O) if o[k] and o[l]), Fraction(0))
                  for l in range(2 * n)] for k in range(2 * n)]
        local = _local_table(design, model)
        eps = np.finfo(float).eps
        for k in range(2 * n):
            for l in range(2 * n):
                assert abs(Fraction(float(local[k, l])) - exact[k][l]) <= 4 * eps * exact[k][l]

    @pytest.mark.parametrize("spec", [HT, None], ids=["ht", "p2"])
    def test_ring_at_n160_builds_exactly_in_under_a_second(self, spec, caplog):
        # 2^160 assignments; 8,960 local patterns. The ring looks the same from
        # every unit, and pairs three or more apart are independent, so each
        # entry is the n = 16 ring's entry at the same ring distance
        n, small = 160, 16
        design, model = Design.bernoulli(n, 0.5), _ring(n)
        started = time.perf_counter()
        with caplog.at_level(logging.DEBUG, logger="varbound.experiment"):
            if spec is None:
                table = pair_observation_probabilities(design, model)
            else:
                problem, table = build_variance_problem(design, model, spec)
        assert time.perf_counter() - started < 1.0
        assert "path local, 8960 rows" in caplog.records[-1].getMessage()
        P2 = _enumerated_p2(Design.bernoulli(small, 0.5), _ring(small))
        k = np.arange(2 * n)
        d = (k[None, :] - k[:, None]) % n  # ring distance of the units of (k, l)
        d = np.minimum(np.minimum(d, n - d), small // 2)  # three or more: independent
        first = k // n  # 0 for coordinates i, 1 for i + n
        expected = P2[small * first[:, None], d + small * first[None, :]]
        assert np.array_equal(table.P2, expected)
        if spec is not None:
            assert np.array_equal(problem.A, _ht_covariance(table))
            assert problem.omega == unobservable_pairs(table)

    def test_monte_carlo_within_six_standard_errors_of_exact(self):
        n, count = 40, 20_000
        design, model = Design.bernoulli(n, 0.5), _ring(n)
        exact = pair_observation_probabilities(design, model).P2
        mc = pair_observation_probabilities(design, model, mode="mc", count=count, seed=8).P2
        sure = (exact == 0) | (exact == 1)
        assert np.array_equal(mc[sure], exact[sure])
        se = np.sqrt(exact * (1 - exact) / count)
        assert np.all(np.abs(mc - exact)[~sure] <= 6 * se[~sure])

    @pytest.mark.parametrize("rule", ["identity", "spillover"])
    def test_relabeling_permutes_p2_a_and_omega_exactly(self, rule):
        # chords make the relabeling no symmetry of the graph
        n = 12
        rng = np.random.default_rng(25)
        model = (ExposureModel.identity(n) if rule == "identity"
                 else _ring_with_chords(n, CHORDS))
        designs = [
            Design.bernoulli(n, rng.uniform(0.2, 0.8, n)),
            Design.paired([(i, i + 6) for i in range(6)]),
            Design.complete(n, 5),
            Design.cluster([(0, 4, 8), (1, 5, 9), (2, 6, 10), (3, 7, 11)], 2),
        ]
        for design in designs:
            perm = rng.permutation(n)
            coords, rename = _relabel_coordinates(perm)
            other = _relabeled(design, model, perm)
            problem, table = build_variance_problem(design, model, self.HT)
            moved, moved_table = build_variance_problem(*other, self.HT)
            index = np.ix_(coords, coords)
            assert np.array_equal(moved_table.P2, table.P2[index])
            assert np.array_equal(moved.A, problem.A[index])
            assert moved.omega == rename(problem.omega)
            assert np.array_equal(_local_table(*other), _local_table(design, model)[index])

    def test_relabeling_permutes_lin_on_the_full_path(self):
        # Lin's A sums float coefficient rows in the support's order, which a
        # relabeling changes: A agrees within 1e-12 of its largest entry
        n = 10
        rng = np.random.default_rng(10)
        X = rng.normal(size=(n, 2))
        design, model = Design.complete(n, 5), ExposureModel.identity(n)
        perm = rng.permutation(n)
        coords, rename = _relabel_coordinates(perm)
        problem, table = build_variance_problem(design, model, EstimatorSpec("lin", X))
        moved, moved_table = build_variance_problem(
            *_relabeled(design, model, perm), EstimatorSpec("lin", X[perm]))
        index = np.ix_(coords, coords)
        assert np.array_equal(moved_table.P2, table.P2[index])
        assert np.abs(moved.A - problem.A[index]).max() <= 1e-12 * np.abs(problem.A).max()
        assert moved.omega == rename(problem.omega)

    @pytest.mark.parametrize("design, model, spec, path", [
        (Design.bernoulli(12, 0.5), _ring(12), HT, "path local, 672 rows"),
        (Design.bernoulli(12, 0.5), _ring(12), None, "path local, 672 rows"),
        # 336 local rows against 64 assignments
        (Design.bernoulli(6, 0.5), _ring(6), HT, "path enumerated, 64 rows"),
        (Design.complete(8, 4), ExposureModel.identity(8),
         EstimatorSpec("difference-in-means"), "path enumerated, 70 rows"),
        (Design.explicit([((1, 0), 0.5), ((0, 1), 0.5)]), ExposureModel.identity(2), HT,
         "path enumerated, 2 rows"),
        # a local row costs LOCAL_ROW_COST assignment rows that the
        # enumeration counts: 6,528 local rows against 12,870 assignments,
        # and 2,528 against 4,096 fair coins; it costs one weighted row
        (Design.complete(16, 8), _ring(16), HT, "path enumerated, 12870 rows"),
        (Design.bernoulli(12, 0.5), _ring_with_chords(12, CHORDS), HT,
         "path enumerated, 4096 rows"),
        (Design.bernoulli(12, np.linspace(0.2, 0.8, 12)), _ring_with_chords(12, CHORDS), HT,
         "path local, 2528 rows"),
    ], ids=["ht", "p2-alone", "fewer-assignments", "other-estimator", "explicit",
            "counted-support", "counted-chords", "weighted-chords"])
    def test_debug_line_names_the_path(self, caplog, design, model, spec, path):
        with caplog.at_level(logging.DEBUG, logger="varbound.experiment"):
            if spec is None:
                pair_observation_probabilities(design, model)
            else:
                build_variance_problem(design, model, spec)
        [record] = [r for r in caplog.records if r.name == "varbound.experiment"]
        assert f"build: mode exact, {path}" in record.getMessage()

    @pytest.mark.parametrize("design, model, bitwise", [
        (Design.complete(16, 8), _ring(16), False),
        (Design.bernoulli(12, 0.5), _ring_with_chords(12, CHORDS), True),
        (Design.bernoulli(12, np.linspace(0.2, 0.8, 12)), _ring_with_chords(12, CHORDS), False),
    ], ids=["counted-support", "counted-chords", "weighted-chords"])
    def test_both_routes_give_the_same_p2(self, design, model, bitwise):
        # the cases the route rule sends either way; the build takes one route
        _assert_local_matches_enumeration(design, model, bitwise)
        built = pair_observation_probabilities(design, model).P2
        assert any(np.array_equal(built, P2) for P2 in (_local_table(design, model),
                                                          _enumerated_p2(design, model)))

    def test_local_rows_past_the_cap(self):
        # complete randomization couples every pair: about 1.3 million local
        # patterns on the ring at n = 200, against C(200, 100) assignments
        n = 200
        with pytest.raises(SupportTooLarge, match="local pattern rows"):
            build_variance_problem(Design.complete(n, n // 2), _ring(n), self.HT)


def _svd_rows(kind, X, in_a):
    """n times the coefficient row on D = in_a from the SVD of each row's
    design matrix: the reference the closed forms are checked against."""
    return len(X) * _svd_pinv_row(_design_matrices(kind, X, in_a), 1, kind)


def _svd_only(monkeypatch):
    """Send every OLS and Lin regression through the SVD."""
    monkeypatch.setattr(
        "varbound.experiment._regression_rows",
        lambda kind, X, in_a, in_b, work: _svd_rows(kind, X, in_a))


def _assert_rows_match_the_svd(kind, X, D):
    """The closed-form rows of the 0/1 rows D against ``_svd_rows``, row by
    row: within 1e-12 of the largest SVD entry where the SVD identifies the
    coefficient, SingularRegression from both where it does not. The rows
    that pass, as one block, are bitwise those rows one at a time. Returns
    how many rows the closed forms sent to the SVD."""
    good, refs = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for r in range(len(D)):
            try:
                refs.append(_svd_rows(kind, X, D[r:r + 1])[0])
            except SingularRegression:
                with pytest.raises(SingularRegression):
                    _regression_rows(kind, X, D[r:r + 1], ~D[r:r + 1], _CoefficientPass())
            else:
                good.append(r)
        work = _CoefficientPass()
        block = _regression_rows(kind, X, D[good], ~D[good], work).copy()
        for row, ref, r in zip(block, refs, good):
            assert np.abs(row - ref).max() <= 1e-12 * np.abs(ref).max()
            alone = _regression_rows(kind, X, D[r:r + 1], ~D[r:r + 1], _CoefficientPass())
            assert alone.tobytes() == row.tobytes()
    return work.svd_rows


@st.composite
def _regression_cases(draw):
    """(design, model, kind, X): complete randomization or Bernoulli over
    n <= 8 units, the identity exposure or the two-label spillover of the
    complete graph, OLS or Lin, and k <= 3 normal covariates, each on a scale
    of 0.1, 1 or 10; the covariates may repeat a column, put two columns
    1e-7 apart, or copy an assignment row."""
    n = draw(st.integers(2, 8))
    design = draw(st.sampled_from([
        Design.complete(n, draw(st.integers(0, n))), Design.bernoulli(n, draw(st.sampled_from([0.3, 0.5])))]))
    model = draw(st.sampled_from([
        ExposureModel.identity(n),
        ExposureModel.spillover([[j for j in range(n) if j != i] for i in range(n)])]))
    k = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, k)) * rng.choice([0.1, 1.0, 10.0], size=k)
    shape = draw(st.sampled_from(["normal", "repeat", "near", "assignment"]))
    if shape in ("repeat", "near") and k >= 2:
        X[:, 1] = X[:, 0] + (1e-7 * rng.normal(size=n) if shape == "near" else 0.0)
    elif shape == "assignment" and k >= 1:
        Z = next(_support_blocks(design))[0]
        X[:, 0] = Z[rng.integers(len(Z))]
    return design, model, draw(st.sampled_from(["ols", "lin"])), X


def _outcome(run):
    """(A or the exception type, rank-deficiency warnings) of one build."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = run()
        except VarboundError as exc:
            result = type(exc)
    return result, sum("rank-deficient" in str(w.message) for w in caught)


class TestNormalEquations:
    """OLS and Lin coefficients from the closed forms of their normal
    equations where the screen passes them, from the SVD elsewhere, against
    the SVD everywhere."""

    @pytest.mark.parametrize("kind", ["ols", "lin"])
    def test_exact_build_shape_matches_the_svd(self, kind, monkeypatch, caplog):
        # complete randomization n = 16, m = 8, two covariates: 12,870 rows
        n = 16
        design, model = Design.complete(n, 8), ExposureModel.identity(n)
        spec = EstimatorSpec(kind=kind, covariates=np.random.default_rng(13).normal(size=(n, 2)))
        Z = np.concatenate([Z for Z, _ in _support_blocks(design)])
        pi = np.full(2 * n, 0.5)
        with caplog.at_level(logging.DEBUG, logger="varbound.experiment"):
            problem, _ = build_variance_problem(design, model, spec)
        work = _CoefficientPass()
        c = _batch_coefficients(spec, model, Z, pi, work)
        assert work.svd_rows == 0
        [record] = [r for r in caplog.records if r.name == "varbound.experiment"]
        assert ", regression rows by SVD 0 of 12870, " in record.getMessage()
        _svd_only(monkeypatch)
        reference, _ = build_variance_problem(design, model, spec)
        c_svd = _batch_coefficients(spec, model, Z, pi)
        assert np.abs(c - c_svd).max() <= 1e-12 * np.abs(c_svd).max()
        assert np.abs(problem.A - reference.A).max() <= 1e-12 * np.abs(reference.A).max()

    @pytest.mark.parametrize("rule", ["identity", "spillover", "table"])
    def test_random_pool_matches_the_svd(self, rule, monkeypatch):
        # covariates: one or two normal columns, a duplicated column (the
        # cutoff warns), or the contrast indicator of the first assignment
        # (SingularRegression there); the warning and the error must come
        # exactly where the SVD build gives them
        rng = np.random.default_rng(2023)
        scenarios, outcomes = [], set()
        for i in range(16):
            design, model = _rule_scenario(rng, rule, two_label=True)
            n = model.n
            x = rng.normal(size=(n, 2 if i % 4 == 1 else 1))
            if i % 4 == 2:
                x = np.hstack([x, x])
            elif i % 4 == 3:
                first = next(_support_blocks(design))[0][:1]
                x = _observation_matrix(model, first)[0, :n, None].astype(float)
            spec = EstimatorSpec(kind=("ols", "lin")[i // 4 % 2], covariates=x)
            scenarios.append((design, model, spec))
        got = [_outcome(lambda: build_variance_problem(*s)[0].A) for s in scenarios]
        _svd_only(monkeypatch)
        for s, (A, warned) in zip(scenarios, got):
            reference, reference_warned = _outcome(lambda: build_variance_problem(*s)[0].A)
            assert warned == reference_warned
            if isinstance(reference, type):
                assert A is reference
            else:
                assert np.abs(A - reference).max() <= 1e-12 * np.abs(reference).max()
            outcomes.add(reference if isinstance(reference, type) else bool(warned))
        assert outcomes == {False, True, SingularRegression}

    def test_near_collinear_pair_takes_the_svd(self, caplog):
        # two covariates 1e-5 apart: full rank, far past the screen
        n = 6
        x = np.random.default_rng(8).normal(size=n)
        X = np.column_stack([x, x + 1e-5 * np.random.default_rng(9).normal(size=n)])
        design, model = Design.complete(n, 3), ExposureModel.identity(n)
        pi = _exact_pi(design, model)
        Z = np.array([z for z, _ in enumerate_assignments(design)])
        for kind in ("ols", "lin"):
            spec = EstimatorSpec(kind=kind, covariates=X)
            work = _CoefficientPass()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                V = _batch_coefficients(spec, model, Z, pi, work)
            assert work.svd_rows == len(Z)
            ref = np.array([ref_coefficient_vector(spec, model, z, pi) for z in map(tuple, Z)])
            assert np.abs(V - ref).max() <= 1e-12 * np.abs(ref).max()
        with caplog.at_level(logging.DEBUG, logger="varbound.experiment"):
            build_variance_problem(design, model, spec)
        [record] = [r for r in caplog.records if r.name == "varbound.experiment"]
        assert ", regression rows by SVD 20 of 20, " in record.getMessage()

    def test_mixed_block_rows_are_each_their_own(self):
        # a covariate 1e-5 from the indicator of z* makes the design matrix
        # near-collinear at z* and at its complement only: 2 of 20 rows take
        # the SVD, the rest the closed form
        n = 6
        z_star = np.array([1, 0, 1, 0, 1, 0])
        x = z_star + 1e-5 * np.random.default_rng(4).normal(size=n)
        spec = EstimatorSpec(kind="ols", covariates=x[:, None])
        design, model = Design.complete(n, 3), ExposureModel.identity(n)
        pi = _exact_pi(design, model)
        Z = np.array([z for z, _ in enumerate_assignments(design)])
        work = _CoefficientPass()
        batch = _batch_coefficients(spec, model, Z, pi, work)
        assert work.svd_rows == 2
        for r, z in enumerate(map(tuple, Z.tolist())):
            alone = _CoefficientPass()
            row = _batch_coefficients(spec, model, [z], pi, alone)[0]
            assert alone.svd_rows == (z in (tuple(z_star), tuple(1 - z_star)))
            assert row.tobytes() == batch[r].tobytes()
            ref = ref_coefficient_vector(spec, model, z, pi)
            assert np.abs(row - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("kind", ["ols", "lin"])
    def test_exact_build_shape_matches_the_oracle(self, kind):
        # complete randomization n = 16, m = 8, two covariates: A against the
        # per-assignment oracle, and single rows bitwise the rows of a block
        n = 16
        design, model = Design.complete(n, 8), ExposureModel.identity(n)
        spec = EstimatorSpec(kind=kind, covariates=np.random.default_rng(13).normal(size=(n, 2)))
        problem, table = build_variance_problem(design, model, spec)
        support = enumerate_assignments(design)
        V = np.array([ref_coefficient_vector(spec, model, z, table.pi) for z, _ in support])
        w = np.array([prob for _, prob in support])
        mean = w @ V
        A = (V * w[:, None]).T @ V - np.outer(mean, mean)
        assert np.abs(problem.A - A).max() <= 1e-12 * np.abs(A).max()
        Z = np.array([z for z, _ in support[:BLOCK_ROWS]])
        batch = _batch_coefficients(spec, model, Z, table.pi)
        for r in range(0, BLOCK_ROWS, 97):
            assert _batch_coefficients(spec, model, [Z[r]], table.pi)[0].tobytes() == batch[r].tobytes()

    def test_closed_forms_are_the_svd_rows(self):
        # the closed-form rows against the SVD of each row's design matrix,
        # on OLS and Lin under every exposure rule, covariates of three scales
        rng = np.random.default_rng(31)
        for i in range(24):
            rule = ("identity", "spillover", "table")[i % 3]
            design, model = _rule_scenario(rng, rule, two_label=True)
            n = model.n
            Z = np.concatenate([Z for Z, _ in _support_blocks(design)])
            X = rng.normal(size=(n, 1 + i % 2)) * rng.choice([0.1, 1.0, 10.0])
            _assert_rows_match_the_svd(
                ("ols", "lin")[i // 3 % 2], X, _observation_matrix(model, Z)[:, :n])

    @given(_regression_cases())
    @example((Design.complete(5, 2), ExposureModel.identity(5), "lin",
              np.random.default_rng(3).normal(size=(5, 2))))  # two treated for two covariates
    @settings(max_examples=100, deadline=None)
    def test_closed_forms_match_the_svd_on_random_designs(self, case):
        # every assignment row whose units all carry a contrasted label: the
        # closed form within 1e-12 of the SVD, or SingularRegression from
        # both; without covariates OLS and Lin are difference in means
        design, model, kind, X = case
        n = model.n
        Z = np.concatenate([Z for Z, _ in _support_blocks(design)])
        obs = _observation_matrix(model, Z)
        D = obs[:, :n][np.all(obs[:, :n] | obs[:, n:], axis=1)]
        _assert_rows_match_the_svd(kind, X, D)
        if X.shape[1] == 0:
            try:
                dim, _ = build_variance_problem(
                    design, model, EstimatorSpec(kind="difference-in-means"))
            except DegenerateAssignment:
                return
            problem, _ = build_variance_problem(design, model, EstimatorSpec(kind=kind, covariates=X))
            assert np.abs(problem.A - dim.A).max() <= 1e-13 * np.abs(dim.A).max()

    @pytest.mark.parametrize("kind", ["ols", "lin"])
    def test_coefficient_block_allocates_little_beyond_its_output(self, kind):
        # one 4,096-row block of the n = 16, m = 8, two-covariate build: its
        # traced peak, observation matrix included, is at most 3x the 1 MB
        # block of coefficient vectors it returns
        n = 16
        design, model = Design.complete(n, 8), ExposureModel.identity(n)
        spec = EstimatorSpec(kind=kind, covariates=np.random.default_rng(13).normal(size=(n, 2)))
        Z = next(_support_blocks(design))[0]
        tracemalloc.start()
        try:
            V = _batch_coefficients(spec, model, Z, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert V.shape == (BLOCK_ROWS, 2 * n)
        assert peak <= 3 * V.nbytes

    def test_gauss_jordan_inverse(self):
        # the inverse of each matrix in the stack; a zero pivot spoils its
        # own matrix alone
        rng = np.random.default_rng(6)
        M = rng.normal(size=(40, 5, 5))
        G = M @ M.swapaxes(-1, -2)
        G[7] = 0.0
        shift = rng.uniform(0.0, 1e-3, size=40)
        shift[7] = 0.0
        G += shift[:, None, None] * np.eye(5)
        with np.errstate(divide="ignore", invalid="ignore"):
            Ginv = _gauss_jordan_inverse(G)
        assert not np.all(np.isfinite(Ginv[7]))
        ok = np.arange(40) != 7
        ref = np.linalg.inv(G[ok])
        assert np.abs(Ginv[ok] - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_wide_design_matrix_is_checked_for_identification(self):
        # Lin with two covariates at n = 4: a 4 x 6 design matrix, whose
        # reduced SVD holds four right singular vectors; e_1 has mass outside
        # their span, so the regression is singular, not minimum-norm. Each
        # arm has two units for two covariates, so its ones are its fit.
        X = np.random.default_rng(4).normal(size=(4, 2))
        D = np.array([[1.0, 1.0, 0.0, 0.0]])
        Q = _design_matrices("lin", X, D)
        assert np.linalg.norm(np.linalg.svd(Q[0])[2][4:, 1]) > 0.1
        with pytest.raises(SingularRegression, match="null space"):
            _svd_pinv_row(Q, 1, "lin")
        with pytest.raises(SingularRegression, match="null space"):
            _regression_rows("lin", X, D == 1, D == 0, _CoefficientPass())

    @pytest.mark.parametrize("kind", ["ols", "lin"])
    def test_empty_arm_takes_the_svd(self, kind):
        # n = 2 without covariates: D = (1, 1) leaves the control arm empty,
        # so D'M_W D and the arm's 1'r are 0; its row alone fails the screen
        # and goes to the SVD, which finds D's coefficient unidentified. The
        # row D = (1, 0) is the difference in means, exactly.
        X = np.zeros((2, 0))
        D = np.array([[True, False], [True, True]])
        with pytest.raises(SingularRegression, match="null space"):
            _regression_rows(kind, X, D, ~D, _CoefficientPass())
        work = _CoefficientPass()
        c = _regression_rows(kind, X, D[:1], ~D[:1], work)
        assert np.abs(c - [[2.0, -2.0]]).max() <= (0.0 if kind == "lin" else 1e-14)
        assert work.svd_rows == 0


def _rule_scenario(rng, rule, two_label):
    """A random complete-randomization scenario under one exposure rule.

    2 <= m <= n - 2 units are treated, so both contrast groups are nonempty at
    every assignment. With ``two_label`` every unit is exposed to one of the
    two contrasted labels, as the regression estimators need.
    """
    n = int(rng.integers(4, 7))
    design = Design.complete(n, int(rng.integers(2, n - 1)))
    if rule == "identity":
        return design, ExposureModel.identity(n)
    if rule == "spillover":
        # no unit is isolated on the complete graph; some are on the ring
        if two_label:
            adjacency = [[j for j in range(n) if j != i] for i in range(n)]
        else:
            adjacency = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
        return design, ExposureModel.spillover(adjacency)
    # table: each assignment labels a random set of m units "a", the rest "b";
    # without two_label, some "b" units but never all become "c"
    table = {}
    for z, _ in enumerate_assignments(design):
        labels = np.where(rng.permutation(np.array(z)) == 1, "a", "b")
        if not two_label:
            others = np.flatnonzero(labels == "b")[1:]
            labels[others[rng.random(len(others)) < 0.5]] = "c"
        table[z] = tuple(labels.tolist())
    return design, ExposureModel.from_table(n, ("a", "b", "c"), table, ("a", "b"))


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
@pytest.mark.parametrize("rule", ["identity", "spillover", "table"])
def test_scalar_api_is_the_batch_path(rule, kind):
    # single-row calls of the kernels agree with the per-assignment
    # references and are bitwise the matching row of the batch over the whole
    # support
    rng = np.random.default_rng(71)
    for _ in range(3):
        design, model = _rule_scenario(rng, rule, kind in ("ols", "lin", "greg"))
        n = model.n
        spec = EstimatorSpec(kind=kind, covariates=rng.normal(size=(n, 1)))
        pi = _exact_pi(design, model)
        Z = np.array([z for z, _ in enumerate_assignments(design)])
        codes = _exposure_codes(model, Z)
        obs = _observation_matrix(model, Z)
        batch = _batch_coefficients(spec, model, Z, pi)
        for r, z in enumerate(map(tuple, Z.tolist())):
            assert np.array_equal(_exposure_codes(model, [z])[0], codes[r])
            assert _exposures(model, z) == ref_exposures(model, z)
            assert np.array_equal(_observation_matrix(model, [z])[0], obs[r])
            assert _observed(model, z) == ref_observation_indices(model, z)
            V = _batch_coefficients(spec, model, [z], pi)[0]
            assert np.allclose(V, ref_coefficient_vector(spec, model, z, pi), rtol=0, atol=1e-12)
            assert V.tobytes() == batch[r].tobytes()


@st.composite
def _kernel_cases(draw):
    """(design, model, spec) over 5 <= n <= 8 units: a Bernoulli, complete,
    cluster or paired design; the identity rule or spillover on a random
    sparse directed graph; Horvitz-Thompson, difference in means or Hajek."""
    kind = draw(st.sampled_from(["bernoulli", "complete", "cluster", "paired"]))
    n = 2 * draw(st.integers(3, 4)) if kind == "paired" else draw(st.integers(5, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "bernoulli":
        design = Design.bernoulli(n, rng.choice([0.2, 0.5, 0.7], size=n).tolist())
    elif kind == "complete":
        design = Design.complete(n, int(rng.integers(1, n)))
    elif kind == "cluster":
        of = rng.integers(0, 4, size=n)
        clusters = [np.flatnonzero(of == k).tolist() for k in range(4) if np.any(of == k)]
        design = Design.cluster(clusters, int(rng.integers(0, len(clusters) + 1)))
    else:
        units = rng.permutation(n).tolist()
        design = Design.paired(list(zip(units[0::2], units[1::2])))
    if draw(st.booleans()):
        model = ExposureModel.identity(n)
    else:
        model = ExposureModel.spillover(
            [[j for j in range(n) if j != i and rng.random() < 2 / n] for i in range(n)])
    spec = EstimatorSpec(kind=draw(st.sampled_from(
        ["horvitz-thompson", "difference-in-means", "hajek"])))
    return design, model, spec


@given(_kernel_cases())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_kernels_match_the_references_at_n5_to_8(case):
    # every support row: the observation matrix is the reference's, the
    # coefficients are within 1e-12 of it, and a single-row call is bitwise
    # that row of the block
    design, model, spec = case
    n = model.n
    support = enumerate_assignments(design)
    Z = np.array([z for z, _ in support])
    ref_obs = np.zeros((len(Z), 2 * n), dtype=bool)
    for r, (z, _) in enumerate(support):
        ref_obs[r, list(ref_observation_indices(model, z))] = True
    obs = _observation_matrix(model, Z)
    assert np.array_equal(obs, ref_obs)
    pi = np.array([p for _, p in support]) @ ref_obs
    # difference in means and Hajek are defined where both groups are observed
    both = ref_obs[:, :n].any(axis=1) & ref_obs[:, n:].any(axis=1)
    rows = np.flatnonzero(both | (spec.kind == "horvitz-thompson"))
    assume(rows.size)
    batch = _batch_coefficients(spec, model, Z[rows], pi)
    ref = np.array([ref_coefficient_vector(spec, model, Z[r], pi) for r in rows])
    assert np.abs(batch - ref).max() <= 1e-12 * np.abs(ref).max()
    for i, r in enumerate(rows):
        assert np.array_equal(_observation_matrix(model, Z[r:r + 1])[0], obs[r])
        assert _batch_coefficients(spec, model, Z[r:r + 1], pi)[0].tobytes() == batch[i].tobytes()
