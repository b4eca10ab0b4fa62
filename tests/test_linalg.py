"""Matrix kernel: eigensystems, projections, norms, proximal maps."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbound import linalg
from varbound.errors import AsymmetricInput, DimensionMismatch, NonFiniteInput
from varbound.experiment import VarianceProblem
from varbound.solver import Objective, _objective_blocks, validate_bound
from varbound.solver import test_admissibility as admissibility_of
from conftest import A_ILLU, B_MINNORM, B_PAIRWISE, OMEGA_ILLU, U_VEC


def random_symmetric(rng, dim, scale=1.0):
    M = rng.normal(size=(dim, dim)) * scale
    return (M + M.T) / 2


def random_psd(rng, dim, rank=None):
    rank = rank or dim
    G = rng.normal(size=(dim, rank))
    return G @ G.T


class TestEigenSystem:
    """The eigensystem the solver runs on: ``_eigh`` (ascending eigenvalues)
    and its reconstruction ``_from_eig``; ``check_symmetric`` guards the
    public entry points."""

    def test_diagonal(self):
        w, Q = linalg._eigh(np.diag([3.0, 1.0]))
        assert np.allclose(w, [1.0, 3.0])
        assert np.allclose(np.abs(Q), np.eye(2)[::-1])

    def test_rank_one(self):
        w, Q = linalg._eigh(A_ILLU)
        assert np.allclose(w, [0, 0, 0, 4.0], atol=1e-12)
        lead = Q[:, -1]
        # leading eigenvector is parallel to the generating vector
        assert np.allclose(np.abs(lead @ U_VEC), 2.0, atol=1e-12)

    def test_identity(self):
        w, _ = linalg._eigh(np.eye(5))
        assert np.allclose(w, np.ones(5))

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        M = random_symmetric(rng, 7, scale=3.0)
        w, Q = linalg._eigh(M)
        fro = np.linalg.norm(M)
        assert np.linalg.norm(linalg._from_eig(w, Q) - M) <= 1e-9 * (1 + fro)
        assert np.linalg.norm(Q.T @ Q - np.eye(7)) <= 1e-9

    def test_rejects_asymmetric(self):
        # the skew is measured against max|entry|, so in any unit
        for scale in (1.0, 2.0**-40, 2.0**40):
            with pytest.raises(AsymmetricInput):
                linalg.check_symmetric(scale * np.array([[1.0, 1.0], [1.0 + 1e-9, 1.0]]))
            linalg.check_symmetric(scale * np.array([[1.0, 1.0], [1.0 + 1e-11, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            linalg.check_symmetric(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        # NaN compares false to every bound, so no skew or eigenvalue test
        # catches it: it must be refused before them
        M = np.array([[1.0, bad], [bad, 1.0]])
        with pytest.raises(NonFiniteInput, match=r"S has a non-finite entry .* at \(0, 1\)"):
            admissibility_of(M, {(0, 1)})
        big = A_ILLU.copy()
        big[1, 1] = bad
        with pytest.raises(NonFiniteInput, match="B has"):
            validate_bound(A_ILLU, big, OMEGA_ILLU)
        with pytest.raises(NonFiniteInput, match="A has"):
            validate_bound(big, B_MINNORM, OMEGA_ILLU)
        with pytest.raises(NonFiniteInput, match="A has"):
            VarianceProblem(n=2, A=big, omega=OMEGA_ILLU)
        assert not issubclass(NonFiniteInput, AsymmetricInput)


class TestProjectPsd:
    def test_clips_negative_eigenvalue(self):
        assert np.allclose(linalg._project_psd(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]))

    def test_psd_unchanged(self):
        rng = np.random.default_rng(0)
        M = random_psd(rng, 5)
        assert np.allclose(linalg._project_psd(M), M, atol=1e-10 * (1 + np.linalg.norm(M)))

    def test_negative_rank_one_goes_to_zero(self):
        assert np.allclose(linalg._project_psd(-np.outer(U_VEC, U_VEC)), 0.0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        M = random_symmetric(rng, 6)
        P = linalg._project_psd(M)
        assert np.allclose(linalg._project_psd(P), P, atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_projection_optimality(self, seed):
        # no PSD matrix is closer in Frobenius norm than the projection
        rng = np.random.default_rng(seed)
        M = random_symmetric(rng, 5, scale=2.0)
        P = linalg._project_psd(M)
        for _ in range(20):
            X = random_psd(rng, 5, rank=int(rng.integers(1, 6)))
            assert np.linalg.norm(M - P) <= np.linalg.norm(M - X) + 1e-12


class TestNorms:
    def test_schatten_examples(self):
        assert linalg.schatten_norm(np.eye(3), 1) == pytest.approx(3.0)
        assert linalg.schatten_norm(np.diag([3.0, 4.0]), 2) == pytest.approx(5.0)
        assert linalg.schatten_norm(A_ILLU, math.inf) == pytest.approx(4.0)

    def test_entrywise_examples(self):
        assert linalg.entrywise_norm(np.eye(2), 2, 2) == pytest.approx(math.sqrt(2))
        M = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert linalg.entrywise_norm(M, math.inf, 2) == pytest.approx(math.sqrt(8))
        assert linalg.entrywise_norm(np.zeros((3, 3)), 3, 7) == 0.0

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            linalg.schatten_norm(np.eye(2), 0.5)
        with pytest.raises(ValueError):
            linalg.entrywise_norm(np.eye(2), 0.5, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_norm_coincidences(self, seed):
        rng = np.random.default_rng(seed)
        M = random_symmetric(rng, 6, scale=2.0)
        assert linalg.schatten_norm(M, 2) == pytest.approx(
            linalg.entrywise_norm(M, 2, 2), abs=1e-10
        )
        P = random_psd(rng, 6)
        assert linalg.schatten_norm(P, 1) == pytest.approx(np.trace(P), abs=1e-10)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_strict_schatten_monotonicity(self, p):
        rng = np.random.default_rng(42)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            Q = random_psd(rng, dim)
            P = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            assert linalg.schatten_norm(Q, p) < linalg.schatten_norm(Q + P, p)

    def test_opnorm_monotone_but_not_strict(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            Q = random_psd(rng, dim)
            P = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            assert linalg.schatten_norm(Q, math.inf) <= linalg.schatten_norm(Q + P, math.inf) + 1e-12
        # equality witness: adding mass in an orthogonal small direction
        Q = np.diag([5.0, 0.0])
        P = np.diag([0.0, 1.0])
        assert linalg.schatten_norm(Q, math.inf) == linalg.schatten_norm(Q + P, math.inf)


class TestLoewner:
    def test_worked_example_orderings(self):
        assert linalg.min_eigenvalue(B_MINNORM - A_ILLU) >= -1e-8
        assert linalg.min_eigenvalue(B_PAIRWISE - B_MINNORM) >= -1e-8
        # the reverse fails: the gap has a strictly positive eigenvalue
        assert not linalg.min_eigenvalue(B_MINNORM - B_PAIRWISE) >= -1e-8

    def test_shape_mismatch(self):
        # the library compares a bound with A in validate_bound, which checks shapes
        with pytest.raises(DimensionMismatch, match=re.escape("A shape (2, 2) != B shape (3, 3)")):
            validate_bound(np.eye(2), np.eye(3), frozenset())


class TestQuadraticForm:
    def test_worked_example_value(self):
        assert linalg.quadratic_form_value(B_MINNORM, [1.0, 2, 3, 4], 2) == pytest.approx(5.0)

    def test_rank_one_square(self):
        rng = np.random.default_rng(7)
        theta = rng.normal(size=4)
        expected = (theta @ U_VEC) ** 2 / 4.0
        assert linalg.quadratic_form_value(A_ILLU, theta, 2) == pytest.approx(expected)

    def test_zero(self):
        assert linalg.quadratic_form_value(np.zeros((4, 4)), [1, 2, 3, 4], 5) == 0.0


class TestL1BallProjection:
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=12),
        st.floats(0, 30),
    )
    @settings(max_examples=100, deadline=None)
    def test_feasible_and_optimal(self, values, radius):
        v = np.asarray(values)
        proj = linalg.project_l1_ball(v, radius)
        assert np.abs(proj).sum() <= radius + 1e-9 * max(1.0, radius)
        rng = np.random.default_rng(0)
        dist = np.linalg.norm(v - proj)
        for _ in range(10):
            cand = rng.normal(size=v.shape)
            s = np.abs(cand).sum()
            if s > radius:
                cand *= radius / s
            assert dist <= np.linalg.norm(v - cand) + 1e-9

    def test_inside_ball_unchanged(self):
        v = np.array([0.3, -0.2])
        assert np.allclose(linalg.project_l1_ball(v, 1.0), v)


def _prox_objective(term_value, X, M, t):
    return term_value(X) + np.linalg.norm(X - M) ** 2 / (2 * t)


def _frobenius_block(A):
    """The bound program's one block for Frobenius² alone: the prox of the PSD
    indicator plus ||X + A||^2."""
    (block,) = _objective_blocks(Objective.frobenius_squared(), A)
    return block


def _linear_block(W, A):
    """The bound program's block for a targeted term <X, W>: the prox of the
    linear term, V - t W."""
    _, block = _objective_blocks(Objective.targeted(W), A)
    return block


class TestProx:
    def test_nuclear_soft_threshold(self):
        out = linalg._prox_schatten(np.diag([3.0, -1.0]), 1.0, 1)
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_opnorm_shrinks_top_eigenvalue(self):
        out = linalg._prox_schatten(np.diag([5.0, 1.0]), 1.0, math.inf)
        assert np.allclose(out, np.diag([4.0, 1.0]), atol=1e-12)

    def test_opnorm_against_grid_oracle(self):
        # brute-force the 2-d diagonal problem: min max|x| + ||x - (5,1)||^2 / 2
        best, best_val = None, np.inf
        for x1 in np.linspace(2.0, 5.0, 301):
            for x2 in np.linspace(0.0, 2.0, 201):
                val = max(abs(x1), abs(x2)) + ((x1 - 5) ** 2 + (x2 - 1) ** 2) / 2
                if val < best_val:
                    best, best_val = (x1, x2), val
        out = linalg._prox_schatten(np.diag([5.0, 1.0]), 1.0, math.inf)
        assert np.allclose(np.diag(out), best, atol=2e-2)

    def test_frobenius_squared_closed_form(self):
        # KKT of min ||X + A||^2 + ||X - M||^2 / (2t) over X >= 0: the
        # gradient G is PSD and complementary to X
        rng = np.random.default_rng(3)
        M = random_symmetric(rng, 4, scale=3.0)
        A = random_symmetric(rng, 4)
        t = 0.7
        out = _frobenius_block(A)(M, t)
        assert np.linalg.eigvalsh(out)[0] >= -1e-12
        assert 0 < np.linalg.matrix_rank(out, tol=1e-9) < 4
        grad = 2 * t * (out + A) + (out - M)
        assert np.linalg.eigvalsh(grad)[0] >= -1e-10
        assert abs(np.sum(grad * out)) <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_opnorm_low_rank_update_matches_full_reconstruction(self, seed):
        # a random input, one whose two bottom eigenvalues pass -tau as well
        # as its two top ones pass tau, and one with ||w||_1 <= t (prox 0)
        rng = np.random.default_rng(seed)
        dim = 8
        V, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        spread = (V * [-6.0, -5.8, -1.0, -0.5, 0.2, 0.7, 5.9, 6.0]) @ V.T
        for Y, t in ((random_symmetric(rng, dim, scale=2.0), 1.5),
                     (linalg.symmetrize(spread), 2.0),
                     (random_symmetric(rng, dim), 1e3)):
            w, Q = linalg._eigh(Y)
            u = linalg.project_l1_ball(w, t)
            full = (Q * (w - u)) @ Q.T
            out = linalg._prox_schatten(Y, t, math.inf)
            assert np.abs(out - full).max() <= 1e-12 * np.linalg.norm(Y)
            assert np.array_equal(out, out.T)
            if t == 2.0:
                assert np.count_nonzero(u < 0) == np.count_nonzero(u > 0) == 2
            if t == 1e3:
                assert np.array_equal(u, w)
                assert np.abs(out).max() <= 1e-12 * np.linalg.norm(Y)

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_prox_consistency(self, p, seed):
        # the prox point beats random perturbations of itself
        rng = np.random.default_rng(seed)
        dim = 4
        M = random_symmetric(rng, dim, scale=2.0)
        A = random_psd(rng, dim)
        t = float(rng.uniform(0.2, 2.0))
        # a term on the bound M + A: the prox of the shifted matrix, shifted back
        X = linalg._prox_schatten(M + A, t, p) - A
        value = _prox_objective(lambda Y: linalg.schatten_norm(Y + A, p), X, M, t)
        for _ in range(50):
            D = random_symmetric(rng, dim, scale=float(rng.uniform(0.001, 0.5)))
            other = _prox_objective(
                lambda Y: linalg.schatten_norm(Y + A, p), X + D, M, t
            )
            assert value <= other + 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_prox_consistency_linear_and_frob2(self, seed):
        rng = np.random.default_rng(seed)
        dim = 4
        M = random_symmetric(rng, dim, scale=2.0)
        A = random_psd(rng, dim)
        W = random_symmetric(rng, dim)
        t = 0.9
        X = _linear_block(W, A)(M, t)
        val = _prox_objective(lambda Y: float(np.sum(Y * W)), X, M, t)
        # Frobenius² alone folds into the PSD projection, so its competitors
        # are the perturbed points projected back onto the cone
        X2 = _frobenius_block(A)(M, t)
        val2 = _prox_objective(lambda Y: np.linalg.norm(Y + A) ** 2, X2, M, t)
        for _ in range(50):
            D = random_symmetric(rng, dim, scale=0.1)
            assert val <= _prox_objective(lambda Y: float(np.sum(Y * W)), X + D, M, t) + 1e-9
            assert val2 <= _prox_objective(
                lambda Y: np.linalg.norm(Y + A) ** 2, linalg._project_psd(X2 + D), M, t
            ) + 1e-9

    def test_general_p_agrees_with_special_cases(self):
        rng = np.random.default_rng(11)
        M = random_symmetric(rng, 5, scale=3.0)
        near_two = linalg.prox_vector_pnorm(np.linalg.eigvalsh(M), 0.8, 2.0000001)
        exact_two = linalg._prox_schatten(M, 0.8, 2)
        exact_vals = np.sort(np.linalg.eigvalsh(exact_two))
        assert np.allclose(np.sort(near_two), exact_vals, atol=1e-6)
