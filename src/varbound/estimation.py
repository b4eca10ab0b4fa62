"""Estimating a variance bound from realized data, and the precision
diagnostics that guide which bound to pick in the first place.

The estimator weights each observed pair by 1 / P2: with y the observed
outcomes (0 elsewhere) and M = B / P2 on the support of B, it is y' M y / n^2
(``ht_bound_estimate``). A bound whose coefficients vanish on every
never-jointly-observed pair is estimated without bias.

The diagnostics Cov(R) and the empirical MSE come from one call,
``r_covariance_opnorm``, and one pass over the same assignment blocks as the
design moments in ``experiment``, with the same weights: probabilities in
exact mode, one per draw in Monte Carlo mode. The estimate is linear in R, so
its MSE is a function of Cov(R)'s two moments, and the call returns it
alongside the operator norm when given the outcome vector theta.

Cov(R) lives on the unordered pairs of the support of the bound. Its second
moment is one dense pairs x pairs matrix, filled one block of at most
BLOCK_ROWS assignments at a time, so memory is that matrix plus one block of
indicator rows. Both modes take the same path: the 0/1 pair indicators go
through ``experiment._weighted_moments``, which counts them in blocks of
equal weights, and the 1 / P2 scales apply once at the end. So the modes
differ only in the rows they count, the design's support or the draws, and
``varbound estimate`` picks by that count: Cov(R) is exact when the support
has at most RCOV_DRAWS rows, and runs on RCOV_DRAWS draws otherwise. Its top
eigenvalue comes from Lanczos with full reorthogonalization.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    IncompatibleBound,
    InvalidConjugatePair,
    InvalidDesign,
    MissingOutcome,
    NonConvergence,
)
from .experiment import (
    _as_bits,
    _as_theta,
    _AssignmentBlocks,
    _observation_matrix,
    _variance_build,
    _weighted_moments,
    enumerate_assignments,  # noqa: F401  (in this namespace; the benchmark tracer wraps it here)
)

log = logging.getLogger(__name__)

# Monte Carlo draws behind ``varbound estimate``'s Cov(R), and the largest
# support it counts exactly instead
RCOV_DRAWS = 20_000

# a bound coefficient is treated as structurally zero below this fraction of
# the largest coefficient
SUPPORT_TOL = 1e-9

# Lanczos basis rows allocated up front; the ring scenarios take 25-35 steps
LANCZOS_BLOCK = 64


@dataclass(frozen=True, eq=False)
class RealizedData:
    """One realized assignment and the outcomes it revealed.

    ``outcomes`` maps 0-based theta indices to observed values; its key set
    must equal the observation set of the assignment under the scenario's
    exposure model.
    """

    z: tuple
    outcomes: dict[int, float]

    def __post_init__(self):
        z = tuple(self.z)
        object.__setattr__(self, "z", _as_bits(z, len(z)))
        object.__setattr__(
            self, "outcomes", {int(k): float(v) for k, v in self.outcomes.items()}
        )


def _observed(model, z):
    """Indices of theta that assignment z reveals (``_observation_matrix``)."""
    return np.flatnonzero(_observation_matrix(model, [_as_bits(z, model.n)])[0]).tolist()


def observe(model, z, theta):
    """Realize data from a full parameter vector (simulation helper)."""
    theta = _as_theta(theta, model.n)
    return RealizedData(
        z=tuple(z),
        outcomes={k: float(theta[k]) for k in _observed(model, z)},
    )


def validate_realized(data, model):
    """Check that the outcome keys are exactly the observation set of z."""
    expected = set(_observed(model, data.z))
    got = set(data.outcomes)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise MissingOutcome(
            f"realized outcomes disagree with the observation set "
            f"(missing {missing}, unexpected {extra})"
        )


@dataclass(frozen=True, eq=False)
class RDiagnostics:
    """Operator norm of the covariance of the inverse-propensity indicators,
    and the bound estimator's MSE from the same moments when theta is given."""

    opnorm_cov_R: float
    provenance: dict = field(default_factory=dict)
    empirical_mse: float | None = None

    def __post_init__(self):
        if self.opnorm_cov_R < 0:
            raise InvalidDesign("operator norm cannot be negative")


def _estimator_matrix(B, table, threshold_c, support_tol=SUPPORT_TOL):
    """M = B / P2 on the support of the symmetric B (its entries above
    support_tol max |B|) and 0 elsewhere, so that the bound estimate
    from outcomes y, zero where not observed, is y' M y / n^2
    (``ht_bound_estimate``). Raises DimensionMismatch when B and P2 differ in
    shape, and IncompatibleBound if B has weight on a pair observed with
    probability at most threshold_c."""
    P2 = np.asarray(table.P2, dtype=float)
    if B.shape != P2.shape:
        raise DimensionMismatch(f"B shape {B.shape} != P2 shape {P2.shape}")
    support = np.abs(B) > support_tol * (float(np.abs(B).max()) if B.size else 0.0)
    bad = support & (P2 <= threshold_c)
    if np.any(bad):
        k, l = (int(x) for x in np.argwhere(bad)[0])
        raise IncompatibleBound(
            f"B[{k},{l}] = {B[k, l]:.3e} but the pair is observed with "
            f"probability {P2[k, l]!r} <= {threshold_c}; the bound cannot be "
            "estimated without bias under this design"
        )
    return np.divide(B, P2, out=np.zeros_like(B), where=support)


def ht_bound_estimate(B, data, table, n, threshold_c=0.0, support_tol=SUPPORT_TOL):
    """Inverse-pair-probability estimate of the bound value theta' B theta / n^2.

    Sums B[k, l] theta_k theta_l / P2[k, l] over pairs of observed indices,
    skipping structurally zero coefficients: y' M y / n^2 with y the observed
    outcomes (0 elsewhere) and M from ``_estimator_matrix``. The bound must
    vanish on every pair with joint observation probability at most
    ``threshold_c``.
    """
    M = _estimator_matrix(linalg.check_symmetric(B, name="B"), table, threshold_c, support_tol)
    idx = sorted(data.outcomes)
    if any(not 0 <= k < len(M) for k in idx):
        raise MissingOutcome(f"outcome index outside 0..{len(M) - 1}: {idx}")
    y = np.zeros((1, len(M)))
    y[0, idx] = [data.outcomes[k] for k in idx]
    return float(np.einsum("ij,ij->i", y @ M, y)[0]) / float(n) ** 2


def _r_pairs(B, table, support_tol=SUPPORT_TOL):
    """Coordinates of the inverse-propensity indicators: the unordered pairs
    k <= l on the support of ``_estimator_matrix`` (which refuses weight where
    P2 = 0), and the scale of each, 1 / P2[k, l] on the diagonal and
    sqrt(2) / P2[k, l] off it, so that their covariance has the nonzero
    spectrum of the full indicator vector's over ordered pairs, which repeats
    each off-diagonal coordinate."""
    k, l = np.nonzero(np.triu(_estimator_matrix(B, table, 0.0, support_tol)))
    scale = np.where(k == l, 1.0, math.sqrt(2.0)) / np.asarray(table.P2, dtype=float)[k, l]
    return k, l, scale


def _r_moments(model, blocks, pairs):
    """Mean and second moment of the R rows over the blocks: coordinate (k, l)
    of ``pairs = (k, l, s)`` is 1{k, l observed} times s. The indicators go
    through ``_weighted_moments`` as 0/1 rows; the scales apply after, as
    s E[ind] and diag(s) E[ind ind'] diag(s). Each block's indicators are
    gathered from whole rows of the transposed observation matrix, which are
    contiguous where its columns are strided, and reach the kernel as a
    transposed view."""
    k, l, scale = pairs

    def rows(Z):
        obs = np.ascontiguousarray(_observation_matrix(model, Z).T)
        return (np.logical_and(obs[k], obs[l]).T,)

    [(mean, second)] = _weighted_moments(blocks, rows)
    second *= np.outer(scale, scale)
    return mean * scale, second


def _mse(B, theta, n, pairs, mean, second):
    """E[(estimate - t)^2] around t = theta' B theta / n^2, from the R moments.
    The estimate is c . R with c_p = B[k, l] theta_k theta_l / n^2, times
    sqrt(2) off the diagonal, so the MSE is c' Cov(R) c + (c . E[R] - t)^2."""
    theta = np.asarray(theta, dtype=float)
    k, l, _ = pairs
    c = np.where(k == l, 1.0, math.sqrt(2.0)) * B[k, l] * theta[k] * theta[l] / float(n) ** 2
    expected = float(mean @ c)
    bias = expected - linalg.quadratic_form_value(B, theta, n)
    return float(c @ (second @ c)) - expected**2 + bias**2


def _power_iteration_opnorm(matvec, dim, tol=1e-9, max_iter=50_000):
    """Largest eigenvalue of a PSD operator given by its matvec, by Lanczos.

    Deterministic generic start and full reorthogonalization; the basis holds
    at most ``dim`` vectors, at which point it spans the whole space and the
    top Ritz value is the answer. Otherwise stops on the Ritz residual
    beta_j |s_j| <= tol max(1, lambda), the eigenpair residual of the top Ritz
    pair, so a start vector with small overlap on the top eigenspace cannot
    fake convergence. Each step costs one matvec; raises NonConvergence after
    ``max_iter`` steps. The basis storage starts at LANCZOS_BLOCK rows and
    doubles when full, so memory follows the steps taken, not the bound.
    """
    if dim == 0:
        return 0.0
    steps = min(dim, max_iter)
    V = np.empty((min(steps, LANCZOS_BLOCK), dim))
    alpha, beta = np.empty(steps), np.empty(steps)
    v = np.random.default_rng(0x5EED).normal(size=dim)
    V[0] = v / float(np.linalg.norm(v))
    for j in range(steps):
        w = matvec(V[j])
        alpha[j] = float(V[j] @ w)
        # two passes of classical Gram-Schmidt against the whole basis
        basis = V[: j + 1]
        w = w - basis.T @ (basis @ w)
        w = w - basis.T @ (basis @ w)
        beta[j] = float(np.linalg.norm(w))
        T = np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
        vals, vecs = np.linalg.eigh(T)
        lam = float(vals[-1])
        if j + 1 == dim or beta[j] * abs(float(vecs[-1, -1])) <= tol * max(1.0, lam):
            return lam
        if j + 1 < steps:
            if j + 1 == len(V):
                grown = np.empty((min(2 * len(V), steps), dim))
                grown[: j + 1] = V
                V = grown
            V[j + 1] = w / beta[j]
    raise NonConvergence(f"Lanczos on Cov(R) did not converge in {max_iter} steps")


def r_covariance_opnorm(design, model, B, table=None, mode="exact", count=None,
                        seed=None, support_tol=SUPPORT_TOL, theta=None):
    """Operator norm of Cov(R), the inverse-propensity indicator covariance,
    and the bound estimator's MSE from the same moments.

    Both modes average over the same assignment blocks (see ``_r_moments``):
    exact mode over the enumerated design, Monte Carlo mode over sampled
    assignments, so the rows counted are the only cost difference between
    them. The indicators live on the unordered pairs of the support of B, at
    most n(2n + 1) coordinates: entries within ``support_tol`` (relative) of
    zero do not count, and B must vanish where P2 = 0 (IncompatibleBound).
    When ``table`` is omitted it is computed in the matching mode (for Monte
    Carlo, from the same draws that feed the covariance).

    ``provenance`` records the mode (and the Monte Carlo count and seed),
    the number of pair coordinates and the number of matvecs. Given a full
    outcome vector ``theta``, ``empirical_mse`` holds the mean squared error
    of the estimate around theta' B theta / n^2 over the same rows, the
    support or the draws (``_mse``); None otherwise.
    """
    started = time.perf_counter()
    B = linalg.check_symmetric(B, name="B")
    blocks = _AssignmentBlocks(design, mode, count, seed)
    if table is None:
        table = _variance_build(blocks, model, None)[1]
    pairs = _r_pairs(B, table, support_tol)
    mean, second = _r_moments(model, blocks, pairs)
    matvecs = 0

    def cov_matvec(v):
        nonlocal matvecs
        matvecs += 1
        return second @ v - mean * float(mean @ v)

    top = _power_iteration_opnorm(cov_matvec, len(mean))
    log.debug("Cov(R): mode %s, %d rows (%d counted), %d pairs, %d matvecs, %.3f s", mode,
              blocks.rows, blocks.counted, len(mean), matvecs, time.perf_counter() - started)
    provenance = {**blocks.provenance, "pairs": len(mean), "matvecs": matvecs}
    mse = None if theta is None else _mse(B, theta, model.n, pairs, mean, second)
    return RDiagnostics(opnorm_cov_R=max(top, 0.0), provenance=provenance, empirical_mse=mse)


def _conjugate(p, q):
    if p < 1 or q < 1:
        raise InvalidConjugatePair(f"need p, q >= 1, got ({p}, {q})")
    if math.isinf(p):
        ok = q == 1
    elif math.isinf(q):
        ok = p == 1
    else:
        ok = abs(1.0 / p + 1.0 / q - 1.0) <= 1e-12
    if not ok:
        raise InvalidConjugatePair(f"1/p + 1/q must equal 1, got p = {p}, q = {q}")


def mse_upper_bound(diag, theta_stats, B, n, p=1.0, q=math.inf):
    """Upper bound on the normalized mean squared error of the bound estimator.

    With a scalar ``theta_stats`` (the largest outcome magnitude) and the
    default conjugates (p, q) = (1, inf), returns the uniform-norm form

        opnorm(Cov R) * sup|theta| * frobenius(B)^2 / n^2.

    With a full outcome vector, returns the moment form

        opnorm(Cov R) * L_{2p,2}(B)^2 * (sum theta^{2q})^{2/q} / n^2,

    valid for any Hoelder conjugates. At (1, inf) L_{2,2} is the Frobenius
    norm, so both forms are the same product with a different outcome moment;
    the uniform form carries the outcome scale to the first power, so it is
    comparable to the moment form only when sup|theta| <= 1.
    """
    _conjugate(p, q)
    B = linalg.check_symmetric(B, name="B")
    opnorm = float(diag.opnorm_cov_R)
    if np.isscalar(theta_stats):
        if not (p == 1 and math.isinf(q)):
            raise InvalidConjugatePair(
                "a scalar sup|theta| only feeds the uniform form (p, q) = (1, inf)"
            )
        moment = float(theta_stats)
        if moment < 0:
            raise InvalidDesign("sup|theta| cannot be negative")
    else:
        theta = np.asarray(theta_stats, dtype=float)
        if math.isinf(q):
            moment = float(np.max(theta**2)) ** 2 if theta.size else 0.0
        else:
            moment = float(np.sum(np.abs(theta) ** (2 * q))) ** (2.0 / q)
    return opnorm * linalg.entrywise_norm(B, 2 * p, 2) ** 2 * moment / float(n) ** 2


def estimation_gamma(diag, sup_theta):
    """Tuning weight for the estimation-aware composite objective:
    opnorm(Cov R) times the outcome scale."""
    if sup_theta < 0:
        raise InvalidDesign("sup|theta| cannot be negative")
    gamma = float(diag.opnorm_cov_R) * float(sup_theta)
    if gamma == 0.0:
        warnings.warn(
            "estimation gamma is zero; the composite objective loses its "
            "regularizer and degenerates to the targeted term alone",
            RuntimeWarning,
            stacklevel=2,
        )
    return gamma
