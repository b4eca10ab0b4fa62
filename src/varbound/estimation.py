"""Estimating a variance bound from realized data, and the precision
diagnostics that guide which bound to pick in the first place.

The estimator is inverse-pair-probability weighting over the observed
coordinates of theta: a bound whose coefficients vanish on every never-jointly-
observed pair is estimated without bias.

The diagnostics Cov(R) and the empirical MSE average over the same
assignment blocks as the design moments in ``experiment``, with the same
weights: probabilities in exact mode, one per draw in Monte Carlo mode.
"""

from __future__ import annotations

import math
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
    SupportTooLarge,
)
from .experiment import (
    DEFAULT_SUPPORT_CAP,
    _AssignmentBlocks,
    _observation_matrix,
    _second_order_table,
    _weighted_moments,
    enumerate_assignments,  # noqa: F401  (in this namespace; the benchmark tracer wraps it here)
    observation_indices,
)

# exact Cov(R) materializes a 4n^2 x 4n^2 matrix; keep it desk sized
EXACT_RCOV_UNIT_CAP = 8

# a bound coefficient is treated as structurally zero below this fraction of
# the largest coefficient
SUPPORT_TOL = 1e-9


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
        object.__setattr__(self, "z", tuple(int(b) for b in self.z))
        object.__setattr__(
            self, "outcomes", {int(k): float(v) for k, v in self.outcomes.items()}
        )


def observe(model, z, theta):
    """Realize data from a full parameter vector (simulation helper)."""
    theta = np.asarray(theta, dtype=float)
    return RealizedData(
        z=tuple(z),
        outcomes={k: float(theta[k]) for k in observation_indices(model, z)},
    )


def validate_realized(data, model):
    """Check that the outcome keys are exactly the observation set of z."""
    expected = set(observation_indices(model, data.z))
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
    """Operator norm of the covariance of the inverse-propensity indicators."""

    opnorm_cov_R: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.opnorm_cov_R < 0:
            raise InvalidDesign("operator norm cannot be negative")


def _support_mask(B, support_tol=SUPPORT_TOL):
    scale = float(np.abs(B).max()) if B.size else 0.0
    return np.abs(B) > support_tol * max(1.0, scale)


def check_bound_compatible(B, table, threshold_c=0.0, support_tol=SUPPORT_TOL):
    """Raise IncompatibleBound if B has weight on a pair observed with
    probability at most threshold_c. ``support_tol`` sets the relative size
    below which a coefficient counts as structurally zero."""
    B = linalg.check_symmetric(B, name="B")
    P2 = np.asarray(table.P2, dtype=float)
    if B.shape != P2.shape:
        raise DimensionMismatch(f"B shape {B.shape} != P2 shape {P2.shape}")
    bad = _support_mask(B, support_tol) & (P2 <= threshold_c)
    if np.any(bad):
        k, l = (int(x) for x in np.argwhere(bad)[0])
        raise IncompatibleBound(
            f"B[{k},{l}] = {B[k, l]:.3e} but the pair is observed with "
            f"probability {P2[k, l]!r} <= {threshold_c}; the bound cannot be "
            "estimated without bias under this design"
        )


def ht_bound_estimate(B, data, table, n, threshold_c=0.0, support_tol=SUPPORT_TOL):
    """Inverse-pair-probability estimate of the bound value theta' B theta / n^2.

    Sums B[k, l] theta_k theta_l / P2[k, l] over pairs of observed indices,
    skipping structurally zero coefficients. The bound must vanish on every
    pair with joint observation probability at most ``threshold_c``.
    """
    B = linalg.check_symmetric(B, name="B")
    check_bound_compatible(B, table, threshold_c, support_tol)
    P2 = np.asarray(table.P2, dtype=float)
    idx = sorted(data.outcomes)
    if any(not 0 <= k < B.shape[0] for k in idx):
        raise MissingOutcome(f"outcome index outside 0..{B.shape[0] - 1}: {idx}")
    vals = np.array([data.outcomes[k] for k in idx])
    sub_B = B[np.ix_(idx, idx)]
    sub_P = P2[np.ix_(idx, idx)]
    mask = _support_mask(B, support_tol)[np.ix_(idx, idx)]
    total = 0.0
    if np.any(mask):
        outer = np.outer(vals, vals)
        total = float(np.sum(sub_B[mask] * outer[mask] / sub_P[mask]))
    return total / float(n) ** 2


def _r_vectors(B, table, obs, support_tol=SUPPORT_TOL):
    """Rows of inverse-propensity indicators for observation rows ``obs``.

    Coordinate (k, l) of each row is 1{k, l observed} / P2[k, l] on the
    support of B, with 0/0 read as 0. Row layout is lexicographic in (k, l).
    """
    P2 = np.asarray(table.P2, dtype=float)
    dim = P2.shape[0]
    support = _support_mask(B, support_tol) & (P2 > 0.0)
    pairs = np.argwhere(support)
    weights = 1.0 / P2[support]
    obs = obs.astype(float)
    both = obs[:, pairs[:, 0]] * obs[:, pairs[:, 1]]
    R = np.zeros((obs.shape[0], dim * dim))
    R[:, pairs[:, 0] * dim + pairs[:, 1]] = both * weights
    return R


def _power_iteration_opnorm(matvec, dim, tol=1e-9, max_iter=50_000):
    """Largest eigenvalue of a PSD operator given by its matvec.

    Deterministic generic start; stops on the eigenpair residual, so a start
    vector with small overlap on the top eigenspace cannot fake convergence.
    """
    v = np.random.default_rng(0x5EED).normal(size=dim)
    v /= float(np.linalg.norm(v))
    scale = float(np.linalg.norm(matvec(v)))
    if scale == 0.0:
        return 0.0
    lam = 0.0
    for _ in range(max_iter):
        w = matvec(v)
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        w = matvec(v)
        lam = float(v @ w)
        if float(np.linalg.norm(w - lam * v)) <= tol * max(1.0, lam):
            return lam
    raise NonConvergence("power iteration on Cov(R) did not converge")


def r_covariance_opnorm(design, model, B, table=None, mode="exact", count=None,
                        seed=None, threads=1, support_tol=SUPPORT_TOL):
    """Operator norm of Cov(R), the inverse-propensity indicator covariance.

    Both modes average over the same assignment blocks: exact mode over the
    enumerated design (capped at n <= 8 because the covariance has 4n^2
    coordinates per side) and takes the top eigenvalue directly; Monte Carlo
    mode over sampled assignments and extracts the top eigenvalue by power
    iteration. The indicators live on the support of B: entries within
    ``support_tol`` (relative) of zero do not count. When ``table`` is
    omitted it is computed in the matching mode (for Monte Carlo, from the
    same draws that feed the covariance).
    """
    B = linalg.check_symmetric(B, name="B")
    if mode == "exact" and model.n > EXACT_RCOV_UNIT_CAP:
        raise SupportTooLarge(
            f"exact Cov(R) is capped at n <= {EXACT_RCOV_UNIT_CAP}, got n = {model.n}"
        )
    blocks = _AssignmentBlocks(design, mode, count, seed, threads)
    if table is None:
        table = _second_order_table(model, blocks)
    mean, second = _weighted_moments(
        blocks, lambda Z: _r_vectors(B, table, _observation_matrix(model, Z), support_tol)
    )
    if mode == "exact":
        top = float(np.linalg.eigvalsh(linalg.symmetrize(second - np.outer(mean, mean)))[-1])
    else:
        top = _power_iteration_opnorm(lambda v: second @ v - mean * float(mean @ v), len(mean))
    return RDiagnostics(opnorm_cov_R=max(top, 0.0), provenance=blocks.provenance)


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

    valid for any Hoelder conjugates. The two coincide in structure at
    (1, inf) but the uniform form carries the outcome scale to the first
    power, so it is comparable to the moment form only when sup|theta| <= 1.
    """
    _conjugate(p, q)
    B = linalg.check_symmetric(B, name="B")
    opnorm = float(diag.opnorm_cov_R)
    if np.isscalar(theta_stats):
        if not (p == 1 and math.isinf(q)):
            raise InvalidConjugatePair(
                "a scalar sup|theta| only feeds the uniform form (p, q) = (1, inf)"
            )
        sup = float(theta_stats)
        if sup < 0:
            raise InvalidDesign("sup|theta| cannot be negative")
        return opnorm * sup * linalg.schatten_norm(B, 2) ** 2 / float(n) ** 2
    theta = np.asarray(theta_stats, dtype=float)
    if math.isinf(q):
        moment = float(np.max(theta**2)) ** 2 if theta.size else 0.0
    else:
        moment = float(np.sum(np.abs(theta) ** (2 * q))) ** (2.0 / q)
    lnorm = linalg.entrywise_norm(B, 2 * p, 2) if not math.isinf(p) else linalg.entrywise_norm(B, math.inf, 2)
    return opnorm * lnorm**2 * moment / float(n) ** 2


def empirical_mse(design, model, B, table=None, theta=None, mode="exact", count=None,
                  seed=None, threads=1, threshold_c=0.0, max_support=DEFAULT_SUPPORT_CAP):
    """Mean squared error of the bound estimator around the true bound value.

    The weighted average, over the enumerated design (exact) or sampled
    assignments (mc), of (estimate(z) - value)^2 with value =
    theta' B theta / n^2. Each estimate is the row-wise quadratic form
    y' M y / n^2 with y the observed coordinates of theta and M = B / P2 on
    the support of B. When ``table`` is omitted it is computed in the matching
    mode, from the same enumeration or draws.
    """
    if theta is None:
        raise InvalidDesign("empirical_mse needs a full outcome vector theta")
    blocks = _AssignmentBlocks(design, mode, count, seed, threads, max_support)
    if table is None:
        table = _second_order_table(model, blocks)
    B = linalg.check_symmetric(B, name="B")
    check_bound_compatible(B, table, threshold_c)
    theta = np.asarray(theta, dtype=float)
    n = model.n
    target = linalg.quadratic_form_value(B, theta, n)
    M = np.divide(B, table.P2, out=np.zeros_like(B), where=_support_mask(B))

    def error(Z):
        Y = _observation_matrix(model, Z) * theta
        return (np.einsum("ij,ij->i", Y @ M, Y) / float(n) ** 2 - target)[:, None]

    _, mse = _weighted_moments(blocks, error)
    return float(mse[0, 0])


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
