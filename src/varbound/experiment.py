"""Experimental designs, exposure mappings, linear estimators, and the
machinery that reduces them to a variance problem.

Index convention, used everywhere: the parameter vector theta has length 2n,
coordinate k < n holds unit k's outcome under the first contrasted exposure
and coordinate k + n holds the same unit's outcome under the second. The
coefficient vector V, the covariance matrix A, the joint observation table P2
and the unobservable-pair set Omega all share this ordering. Indices are
0-based in code; file formats that use 1-based indices convert at the I/O
boundary.

Every design moment (pi = diag(P2), P2, A) is one weighted average over
blocks of assignment rows, in exact and Monte Carlo mode alike; only the
weights differ (see ``_AssignmentBlocks``). Monte Carlo draws depend on the
seed and the count alone. Each exposure rule (``_exposure_codes``) and each
estimator (``_batch_coefficients``) is implemented once, on blocks of rows;
the per-assignment functions run that code on a single row. Horvitz-Thompson's
A is a function of P2 alone (``_ht_covariance``), and difference in means, OLS
and Lin average their coefficients in the P2 pass, so their builds make one
pass over the assignments; Hajek and GREG weight by pi = diag(P2) and make a
second pass for A.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping

import numpy as np

from . import linalg
from .errors import (
    DegenerateAssignment,
    DimensionMismatch,
    IncompatibleEstimator,
    InvalidDesign,
    RuleUndefined,
    SingularRegression,
    SupportTooLarge,
    ZeroExposureProbability,
)

log = logging.getLogger(__name__)

Bits = tuple[int, ...]

DEFAULT_SUPPORT_CAP = 1 << 20

# assignment rows per block in every moment computation; bounds the memory of
# the per-block observation and coefficient matrices
BLOCK_ROWS = 4096

# singular values below this fraction of the largest are treated as zero in
# regression coefficient computations
REGRESSION_RCOND = 1e-10

# an OLS or Lin design matrix Q whose normal matrix G = Q'Q has
# ||G||_F ||G^-1||_F at most this is solved from the normal equations; the
# rest take the singular value decomposition
NORMAL_EQUATIONS_COND = 1e4

SPILLOVER_DIRECT = "direct"
SPILLOVER_INDIRECT = "indirect"
SPILLOVER_ISOLATED = "isolated"
SPILLOVER_LABELS = (SPILLOVER_DIRECT, SPILLOVER_INDIRECT, SPILLOVER_ISOLATED)

ESTIMATOR_KINDS = (
    "horvitz-thompson",
    "difference-in-means",
    "hajek",
    "ols",
    "lin",
    "greg",
)
_REGRESSION_KINDS = ("ols", "lin", "greg")
# estimators whose coefficient vectors do not read the exposure probabilities
_PI_FREE_KINDS = ("difference-in-means", "ols", "lin")


def _as_bits(z, n):
    """z as a tuple of ints; each entry must equal 0 or 1 before conversion."""
    z = list(z)
    if len(z) != n:
        raise InvalidDesign(f"assignment length {len(z)} != n = {n}")
    if any(b not in (0, 1) for b in z):
        raise InvalidDesign(f"assignment entries must be 0 or 1, got {np.asarray(z).tolist()}")
    return tuple(int(b) for b in z)


def _as_theta(theta, n):
    """theta as a float vector of length 2n."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (2 * n,):
        raise DimensionMismatch(f"theta must have length {2 * n}, got {theta.shape}")
    return theta


# -- designs --------------------------------------------------------------------


@dataclass(frozen=True)
class Design:
    """A finite probability distribution over binary assignment vectors.

    Use the factory constructors; the raw constructor performs no validation.
    """

    kind: str
    n: int
    p: tuple[float, ...] | None = None
    m: int | None = None
    clusters: tuple[Bits, ...] | None = None
    pairs: tuple[tuple[int, int], ...] | None = None
    table: tuple[tuple[Bits, float], ...] | None = None

    @staticmethod
    def bernoulli(n, p):
        """Independent coin flips; p may be a scalar or one probability per unit."""
        if n < 1:
            raise InvalidDesign(f"need n >= 1, got {n}")
        ps = tuple(float(x) for x in (p if np.ndim(p) else [p] * n))
        if len(ps) != n:
            raise InvalidDesign(f"got {len(ps)} probabilities for n = {n}")
        if any(not 0.0 <= x <= 1.0 for x in ps):
            raise InvalidDesign(f"probabilities must lie in [0, 1], got {ps}")
        return Design(kind="bernoulli", n=n, p=ps)

    @staticmethod
    def complete(n, m):
        """Exactly m of n units treated, uniformly over subsets."""
        if n < 1 or not 0 <= m <= n:
            raise InvalidDesign(f"complete randomization needs 0 <= m <= n, got m={m}, n={n}")
        return Design(kind="complete-randomization", n=n, m=m)

    @staticmethod
    def cluster(clusters, m):
        """m of K clusters treated uniformly; treated clusters treat all members."""
        cl = tuple(tuple(int(i) for i in c) for c in clusters)
        units = [i for c in cl for i in c]
        n = len(units)
        if n == 0 or sorted(units) != list(range(n)):
            raise InvalidDesign("clusters must partition 0..n-1")
        if not 0 <= m <= len(cl):
            raise InvalidDesign(f"need 0 <= m <= {len(cl)} clusters, got {m}")
        return Design(kind="cluster", n=n, m=m, clusters=cl)

    @staticmethod
    def paired(pairs):
        """Matched pairs: one unit of each pair treated, independently across pairs."""
        pr = tuple((int(a), int(b)) for a, b in pairs)
        units = [i for ab in pr for i in ab]
        n = len(units)
        if n == 0 or sorted(units) != list(range(n)):
            raise InvalidDesign("pairs must partition 0..n-1")
        return Design(kind="paired", n=n, pairs=pr)

    @staticmethod
    def explicit(assignments):
        """Explicit support: iterable of (assignment bits, probability)."""
        rows = list(assignments)
        if not rows:
            raise InvalidDesign("explicit design needs a nonempty support")
        n = len(rows[0][0])
        merged: dict[Bits, float] = {}
        for z, prob in rows:
            bits = _as_bits(z, n)
            prob = float(prob)
            if not (math.isfinite(prob) and prob >= -1e-15):
                raise InvalidDesign(f"probability {prob} for {bits} is negative or not finite")
            merged[bits] = merged.get(bits, 0.0) + max(prob, 0.0)
        total = sum(merged.values())
        if abs(total - 1.0) > 1e-12:
            raise InvalidDesign(f"probabilities sum to {total!r}, not 1")
        table = tuple(sorted(merged.items()))
        return Design(kind="explicit", n=n, table=table)

    def support_size(self):
        if self.kind == "bernoulli":
            return 2**self.n
        if self.kind in ("complete-randomization", "cluster"):
            return math.comb(len(self.clusters or range(self.n)), self.m)
        if self.kind == "paired":
            return 2 ** len(self.pairs)
        if self.kind == "explicit":
            return len(self.table)
        raise InvalidDesign(f"unknown design kind {self.kind!r}")


def _bit_rows(start, stop, width):
    """Rows start..stop-1 of the 0/1 matrix that counts in binary over ``width``
    columns, most significant bit first, so the rows are in lexicographic order."""
    r = np.arange(start, stop, dtype=np.int64)[:, None]
    return (r >> np.arange(width - 1, -1, -1, dtype=np.int64)) & 1


def _unit_clusters(clusters, n):
    """Index of the cluster that holds each unit, for clusters partitioning
    0..n-1; ``np.take(chosen, owner, axis=1)`` turns a (rows, clusters) choice
    matrix into unit rows. (``chosen[:, owner]`` would come out column-major,
    and BLAS reductions over it round differently.)"""
    owner = np.empty(n, dtype=np.int64)
    for c, units in enumerate(clusters):
        owner[list(units)] = c
    return owner


def _support_rows(design, size):
    """Blocks of (assignment rows, probabilities) covering the support in
    lexicographic order of the rows, zero-probability rows included."""
    n = design.n
    starts = range(0, size, BLOCK_ROWS)
    if design.kind == "bernoulli":
        # a block's rows share their first j units and run through every value
        # of the rest: multiply the shared factors once, then double the list
        # unit by unit, the products np.prod would form row by row, in order
        p = np.asarray(design.p)
        for s in starts:
            Z = _bit_rows(s, min(s + BLOCK_ROWS, size), n)
            j = n - len(Z).bit_length() + 1
            w = np.prod(np.where(Z[:1, :j] == 1, p[:j], 1.0 - p[:j]), axis=1)
            for i in range(j, n):
                w = np.stack([w * (1.0 - p[i]), w * p[i]], axis=1).ravel()
            yield Z, w
    elif design.kind == "paired":
        # pairs are disjoint, so rows sort by the pairs in order of their
        # smaller unit, and within a pair treating the smaller unit sorts last
        pairs = np.sort(np.array(design.pairs), axis=1)
        lo, hi = pairs[np.argsort(pairs[:, 0])].T
        for s in starts:
            C = _bit_rows(s, min(s + BLOCK_ROWS, size), len(lo))
            Z = np.empty((len(C), n), dtype=np.int64)
            Z[:, lo] = C
            Z[:, hi] = 1 - C
            yield Z, np.full(len(C), 1.0 / size)
    elif design.kind in ("complete-randomization", "cluster"):
        # complete randomization treats m singleton clusters. Rows sort like the
        # cluster choice vectors (clusters in order of their smallest unit), by
        # binary value sum 2^(K-1-c) over treated c: row r treats K-1-s for s in
        # the r-th m-subset in colex order (rank sum_i comb(s_i, i), s_1 < ...),
        # and leaves untreated those of the (size-1-r)-th (K-m)-subset
        groups = sorted(design.clusters or tuple((i,) for i in range(n)), key=min)
        owner, K, m = _unit_clusters(groups, n), len(groups), design.m
        k = min(m, K - m)  # unrank the smaller side
        binom = [np.ones(K, dtype=np.int64)]  # binom[i][a] = comb(a, i), capped at size
        for _ in range(k):  # comb(a, i) = sum of comb(x, i - 1) over x < a
            binom.append(np.minimum(np.concatenate([[0], np.cumsum(binom[-1])[:-1]]), size))
        for s in starts:
            rows = np.arange(s, min(s + BLOCK_ROWS, size), dtype=np.int64)
            rank = rows if k == m else size - 1 - rows
            chosen = np.full((len(rows), K), int(k != m), dtype=np.int64)
            for i in range(k, 0, -1):  # s_i: the largest a with comb(a, i) <= rank
                a = np.searchsorted(binom[i], rank, side="right") - 1
                rank = rank - binom[i][a]
                chosen[np.arange(len(rows)), K - 1 - a] = int(k == m)
            yield np.take(chosen, owner, axis=1), np.full(len(rows), 1.0 / size)
    elif design.kind == "explicit":
        for s in starts:
            rows = design.table[s:s + BLOCK_ROWS]
            yield (np.array([z for z, _ in rows], dtype=np.int64),
                   np.array([prob for _, prob in rows]))
    else:
        raise InvalidDesign(f"unknown design kind {design.kind!r}")


def _support_blocks(design, max_support=DEFAULT_SUPPORT_CAP):
    """The design's support as (Z, probabilities) blocks of at most BLOCK_ROWS
    rows, in lexicographic order of the rows, zero-probability rows skipped.

    Raises SupportTooLarge before the first block when the support exceeds
    ``max_support``, and InvalidDesign after the last block when the
    probabilities do not sum to one within 1e-12.
    """
    size = design.support_size()
    if size > max_support:
        raise SupportTooLarge(
            f"{design.kind} design has support {size} > cap {max_support}; "
            "use Monte Carlo sampling"
        )
    total = 0.0
    for Z, prob in _support_rows(design, size):
        keep = prob > 0.0
        if not np.all(keep):
            Z, prob = Z[keep], prob[keep]
        if len(prob):
            total += float(prob.sum())
            yield Z, prob
    if abs(total - 1.0) > 1e-12:
        raise InvalidDesign(f"enumerated probabilities sum to {total!r}")


def enumerate_assignments(design, max_support=DEFAULT_SUPPORT_CAP):
    """Full support of a design as (assignment, probability) pairs.

    The list is sorted lexicographically by assignment bits and the
    probabilities sum to one within 1e-12. Raises SupportTooLarge when the
    support exceeds ``max_support`` (use sampling instead) and skips
    zero-probability assignments.
    """
    return [
        (tuple(z), prob)
        for Z, probs in _support_blocks(design, max_support)
        for z, prob in zip(Z.tolist(), probs.tolist())
    ]


def sample_assignments(design, seed, count):
    """Draw ``count`` assignments from ``np.random.default_rng(seed)``;
    reproducible for a fixed (seed, count). ``seed`` may be an integer or a
    ``np.random.SeedSequence``.

    Returns an integer array of shape (count, n).
    """
    if count < 1:
        raise InvalidDesign(f"need count >= 1, got {count}")
    rng = np.random.default_rng(seed)
    n = design.n
    if design.kind == "bernoulli":
        return (rng.random((count, n)) < np.asarray(design.p)).astype(np.int64)
    if design.kind in ("complete-randomization", "cluster"):
        # complete randomization treats m of n singleton clusters; the m
        # smallest uniform keys pick the treated clusters
        groups = design.clusters or tuple((i,) for i in range(n))
        order = np.argsort(rng.random((count, len(groups))), axis=1)
        chosen = np.zeros((count, len(groups)), dtype=np.int64)
        chosen[np.repeat(np.arange(count), design.m), order[:, : design.m].ravel()] = 1
        return np.take(chosen, _unit_clusters(groups, n), axis=1)
    if design.kind == "paired":
        first, second = np.array(design.pairs).T
        pick = rng.integers(0, 2, size=(count, len(first)))
        Z = np.empty((count, n), dtype=np.int64)
        Z[:, first] = 1 - pick
        Z[:, second] = pick
        return Z
    if design.kind == "explicit":
        support = np.array([z for z, _ in design.table], dtype=np.int64)
        probs = np.array([p for _, p in design.table], dtype=float)
        probs = probs / probs.sum()
        idx = rng.choice(len(support), size=count, p=probs)
        return support[idx]
    raise InvalidDesign(f"unknown design kind {design.kind!r}")


# -- exposure mappings ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExposureModel:
    """Per-unit map from an assignment vector to an exposure label, plus the
    ordered pair of contrasted labels (a, b)."""

    n: int
    rule: str
    labels: tuple
    contrast: tuple
    adjacency: tuple[Bits, ...] | None = None
    table: Mapping[Bits, tuple] | None = None

    def __post_init__(self):
        a, b = self.contrast
        if a == b:
            raise InvalidDesign("contrast labels must differ")
        if a not in self.labels or b not in self.labels:
            raise InvalidDesign(f"contrast {self.contrast} not within labels {self.labels}")

    @staticmethod
    def identity(n):
        """No interference: a unit's exposure is its own assignment, contrast (1, 0)."""
        return ExposureModel(n=n, rule="identity", labels=(1, 0), contrast=(1, 0))

    @staticmethod
    def spillover(adjacency, contrast=(SPILLOVER_DIRECT, SPILLOVER_INDIRECT)):
        """Three-label neighborhood rule.

        A treated unit is ``direct``; an untreated unit with at least one
        treated neighbor is ``indirect``; anyone else is ``isolated``.
        """
        adj = tuple(tuple(int(j) for j in nbrs) for nbrs in adjacency)
        n = len(adj)
        for i, nbrs in enumerate(adj):
            for j in nbrs:
                if not 0 <= j < n:
                    raise InvalidDesign(f"adjacency for unit {i} references unit {j} >= n = {n}")
                if j == i:
                    raise InvalidDesign(f"unit {i} cannot neighbor itself")
        return ExposureModel(
            n=n, rule="spillover", labels=SPILLOVER_LABELS,
            contrast=tuple(contrast), adjacency=adj,
        )

    @staticmethod
    def from_table(n, labels, table, contrast):
        """Explicit assignment -> label-vector map; must cover every assignment used."""
        tbl = {}
        for z, labs in table.items():
            bits = _as_bits(z, n)
            row = tuple(labs)
            if len(row) != n:
                raise InvalidDesign(f"label row for {bits} has length {len(row)} != {n}")
            for lab in row:
                if lab not in labels:
                    raise InvalidDesign(f"label {lab!r} not in {labels}")
            tbl[bits] = row
        return ExposureModel(
            n=n, rule="table", labels=tuple(labels), contrast=tuple(contrast), table=tbl,
        )


def _exposure_codes(model, Z):
    """Integer (rows, n) matrix: entry (r, i) is the index in ``model.labels`` of
    unit i's exposure under assignment row r of Z."""
    Z = np.asarray(Z, dtype=np.int64)
    n = Z.shape[1]
    if model.rule == "identity":
        return 1 - Z  # labels (1, 0)
    if model.rule == "spillover":
        adj = np.zeros((n, n), dtype=np.float32)
        for i, nbrs in enumerate(model.adjacency):
            adj[i, list(nbrs)] = 1.0
        # SPILLOVER_LABELS order: a treated unit is 0 (direct), an untreated one
        # 2 (isolated) less 1 if it has a treated neighbour (indirect); this runs
        # on every block: int8, and exact float32 counts by sgemm, not int64 @ float
        return (Z == 0) * (np.int8(2) - (Z.astype(np.float32) @ adj.T > 0))
    if model.rule != "table":
        raise InvalidDesign(f"unknown exposure rule {model.rule!r}")
    rows = [model.table.get(z) for z in map(tuple, Z.tolist())]
    if None in rows:
        bits = tuple(Z[rows.index(None)].tolist())
        raise RuleUndefined(f"exposure table has no entry for assignment {bits}")
    return np.array([[model.labels.index(lab) for lab in row] for row in rows],
                    dtype=np.int64).reshape(-1, n)


def _observation_matrix(model, Z):
    """Boolean (rows, 2n) observation indicators for assignment rows Z: column
    i is on when unit i is exposed to the first contrast label, column i + n
    when it is exposed to the second."""
    codes = _exposure_codes(model, Z)
    a, b = (model.labels.index(lab) for lab in model.contrast)
    return np.concatenate([codes == a, codes == b], axis=1)


def compute_exposures(model, z):
    """Exposure label of every unit under assignment z."""
    codes = _exposure_codes(model, [_as_bits(z, model.n)])[0]
    return tuple(model.labels[c] for c in codes.tolist())


def observation_indices(model, z):
    """Indices of theta revealed by assignment z.

    Unit i contributes i when exposed to the first contrast label and i + n
    when exposed to the second; other exposures reveal nothing.
    """
    obs = _observation_matrix(model, [_as_bits(z, model.n)])[0]
    return frozenset(np.flatnonzero(obs).tolist())


# -- linear estimators -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EstimatorSpec:
    """Which linear point estimator to use; regression kinds need covariates."""

    kind: str
    covariates: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise InvalidDesign(f"unknown estimator kind {self.kind!r}")
        if self.kind in _REGRESSION_KINDS:
            if self.covariates is None:
                raise InvalidDesign(f"{self.kind} needs a covariate matrix")
            X = np.asarray(self.covariates, dtype=float)
            if X.ndim != 2:
                raise InvalidDesign("covariates must be a 2-d array")
            object.__setattr__(self, "covariates", X)
        elif self.covariates is not None:
            X = np.asarray(self.covariates, dtype=float)
            object.__setattr__(self, "covariates", X)


def _weighted_indicator(indicator, pi, kind):
    """indicator / pi where the indicator is on; observing a coordinate whose
    exposure probability is zero (or negative) is a contradiction and raises."""
    indicator = np.asarray(indicator, dtype=float)
    pi = np.asarray(pi, dtype=float)
    bad = (indicator > 0) & (pi <= 0.0)
    if np.any(bad):
        unit = int(np.argmax(bad.reshape(-1))) % pi.size
        raise ZeroExposureProbability(
            f"{kind}: unit coordinate {unit} was observed but its exposure "
            f"probability is {float(pi[unit])!r}"
        )
    return np.divide(indicator, pi, out=np.zeros_like(indicator), where=indicator > 0)


def _gauss_jordan_inverse(G, shift):
    """Inverse of G_r + shift_r I for each matrix G_r in the stack G, by
    Gauss-Jordan elimination without pivoting, vectorized along the stack.
    Sound for positive definite matrices; a zero pivot leaves NaN or inf in
    that matrix's inverse alone."""
    A = np.moveaxis(G, 0, -1).copy()  # (p, p, stack): each step is whole-vector work
    p = len(A)
    A[range(p), range(p)] += shift
    for k in range(p):
        # in place: setting A[k, k] = 1 first lets column k carry the
        # identity's column k through the row operations, so that column k
        # ends as the inverse's
        pivot = A[k, k].copy()
        A[k, k] = 1.0
        A[k] /= pivot
        for i in range(p):
            if i != k:
                f = A[i, k].copy()
                A[i, k] = 0.0
                A[i] -= f * A[k]
    return np.ascontiguousarray(np.moveaxis(A, -1, 0))


def _normal_matrices(q0, dq, D):
    """Q'Q for the design matrix Q = q0 + D dq of each row of D, from per-unit
    sufficient statistics: q0'q0 + sum_i D_i (q1_i q1_i' - q0_i q0_i'), with
    q1 = q0 + dq and D_i in {0, 1}. The sum is a stacked matmul, one row of D
    at a time, not D @ (...): a BLAS GEMM rounds a row differently depending
    on how many rows it is given."""
    n, p = q0.shape
    q1 = q0 + dq
    delta = (q1[:, :, None] * q1[:, None, :] - q0[:, :, None] * q0[:, None, :]).reshape(n, p * p)
    return q0.T @ q0 + np.matmul(D[:, None, :], delta).reshape(len(D), p, p)


def _pinv_row(q0, dq, D, row, what, counts=None):
    """Row ``row`` of the pseudo-inverse of each design matrix in a stack, with
    an identification check. Unit i's regressor row is q0_i + D_i dq_i, with
    D_i in {0, 1} taken from one row of D per matrix, so Q y = q0 y + D dq y
    and Q'v = q0'v + dq'(D v) never need Q itself.

    The normal matrices G = Q'Q come from ``_normal_matrices``, and
    Gauss-Jordan inverts G + eps tr(G) I along the stack. A matrix whose G
    passes the screen ||G||_F ||G^-1||_F <= NORMAL_EQUATIONS_COND gets the row
    from the normal equations, Q G^-1 e_row, after one step of iterative
    refinement on the residual e_row - Q'(Q y) (from the data, which is more
    accurate than e_row - G y). A singular G fails the screen on its own: a
    zero pivot gives a NaN inverse and any other pivot a huge one, so no
    matrix sends the whole stack to the SVD. Q is built only for the
    matrices that fail; they take ``_svd_pinv_row``, with its cutoff, warning
    and identification check. Every product is a stacked matmul, one matrix
    at a time, so each matrix's row depends on that matrix alone, not on the
    stack around it. ``counts["svd_rows"]``, when given, adds up the matrices
    that took the SVD.
    """
    n, p = q0.shape
    G = _normal_matrices(q0, dq, D)
    ridge = np.finfo(float).eps * np.trace(G, axis1=-2, axis2=-1)
    qd = np.concatenate([q0, dq])
    qd_t = np.ascontiguousarray(qd.T)

    def fitted(y):  # Q y, (rows, n), for y of shape (rows, 1, p)
        u = (y @ qd_t)[:, 0]
        return u[:, :n] + D * u[:, n:]

    with np.errstate(divide="ignore", invalid="ignore"):
        Ginv = _gauss_jordan_inverse(G, ridge)
        cond = np.linalg.norm(G, axis=(-2, -1)) * np.linalg.norm(Ginv, axis=(-2, -1))
        y = Ginv[:, None, row]  # row `row` of G^-1, as a (1, p) row per matrix
        f = fitted(y)[:, None]
        y = y + (np.eye(p)[row] - np.concatenate([f, D[:, None] * f], axis=-1) @ qd) @ Ginv
        coef = fitted(y)
    fallback = ~(cond <= NORMAL_EQUATIONS_COND)  # NaN fails too
    if counts is not None:
        counts["svd_rows"] += int(np.count_nonzero(fallback))
    if np.any(fallback):
        Q = q0 + D[fallback][:, :, None] * dq
        coef[fallback] = _svd_pinv_row(Q, row, what)
    return coef


def _svd_pinv_row(Q, row, what):
    """Row ``row`` of the pseudo-inverse of each matrix in the stack Q, by its
    singular value decomposition.

    Uses a singular-value cutoff of REGRESSION_RCOND times each matrix's
    largest singular value; a cutoff that actually triggers emits a warning.
    The requested coefficient e_row must lie in the span of the kept right
    singular vectors, or the regression is reported as singular. That span
    misses the dropped vectors and, when Q has more columns than rows, the
    null space its reduced SVD does not return.
    """
    U, s, Vt = np.linalg.svd(Q, full_matrices=False)
    if s.shape[-1] == 0 or np.any(s[..., 0] == 0.0):
        raise SingularRegression(f"{what}: design matrix is zero")
    keep = s > REGRESSION_RCOND * s[..., :1]
    coef = Vt[..., :, row]
    # e_row less its projection on the kept vectors, formed as a residual
    # vector: 1 - sum of the kept Vt[j, row]^2 would lose half the digits
    outside = -np.einsum("...j,...jp->...p", np.where(keep, coef, 0.0), Vt)
    outside[..., row] += 1.0
    if np.any(np.linalg.norm(outside, axis=-1) > 1e-8):
        raise SingularRegression(
            f"{what}: contrast coefficient lies in the null space of the design matrix"
        )
    if not np.all(keep):
        warnings.warn(
            f"{what}: rank-deficient design matrix, pseudo-inverse cutoff applied",
            RuntimeWarning,
            stacklevel=4,
        )
    inv_s = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return np.einsum("...r,...nr->...n", coef * inv_s, U)


def _regressor_rows(kind, X):
    """(q0, dq) such that unit i's regressor row is q0_i + D_i dq_i, D_i its
    contrast indicator: OLS regresses on (1, D, X), Lin on
    (1, D, X - mean X, D (X - mean X))."""
    n = len(X)
    ones, zeros = np.ones((n, 1)), np.zeros((n, 1))
    if kind == "ols":
        return np.hstack([ones, zeros, X]), np.hstack([zeros, ones, np.zeros_like(X)])
    Xdm = X - X.mean(axis=0, keepdims=True)
    return (np.hstack([ones, zeros, Xdm, np.zeros_like(Xdm)]),
            np.hstack([zeros, ones, np.zeros_like(Xdm), Xdm]))


def _regression_unit_coefficients(spec, model, Z, in_a, in_b, pi, counts=None):
    """Per-unit coefficients c for ols / lin / greg (exposure-indicator
    regressors), one row per assignment row of Z with indicators in_a, in_b.
    OLS and Lin take the coefficient on D = in_a from ``_pinv_row`` (given
    ``counts``), with no design matrix formed unless the SVD needs it; see
    ``_regressor_rows``. ``pi`` is read by greg alone."""
    outside = (in_a == 0) & (in_b == 0)
    if np.any(outside):
        bad, off = (int(i) for i in np.argwhere(outside)[0])
        raise IncompatibleEstimator(
            f"{spec.kind}: unit {off} realized exposure "
            f"{compute_exposures(model, Z[bad])[off]!r}, outside the "
            "contrast; regression estimators need two-label exposures"
        )
    n = model.n
    X = spec.covariates
    if X.shape[0] != n:
        raise DimensionMismatch(f"covariates have {X.shape[0]} rows, expected {n}")
    if spec.kind == "greg":
        # inverse-propensity core plus a regression adjustment
        wa = _weighted_indicator(in_a, pi[:n], "greg")
        wb = _weighted_indicator(in_b, pi[n:], "greg")
        Pa = np.linalg.pinv(X * in_a[..., None], rcond=REGRESSION_RCOND)
        Pb = np.linalg.pinv(X * in_b[..., None], rcond=REGRESSION_RCOND)
        # (1 - w) X by einsum, not matmul: BLAS rounds a row differently
        # depending on how many rows it is given
        ra = np.einsum("rn,np->rp", 1.0 - wa, X)
        rb = np.einsum("rn,np->rp", 1.0 - wb, X)
        return wa - wb + (np.einsum("rp,rpn->rn", ra, Pa) - np.einsum("rp,rpn->rn", rb, Pb))
    return n * _pinv_row(*_regressor_rows(spec.kind, X), in_a, 1, spec.kind, counts)


def coefficient_vector(spec, model, z, pi):
    """Length-2n coefficient vector V of the estimator at assignment z.

    The estimate is (1/n) V . theta; coordinates outside the observation set
    are zero. ``pi`` holds the 2n first-order observation probabilities.
    """
    n = model.n
    bits = _as_bits(z, n)
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (2 * n,):
        raise DimensionMismatch(f"pi must have length {2 * n}, got {pi.shape}")
    return _batch_coefficients(spec, model, [bits], pi)[0]


def estimator_value(spec, model, z, pi, theta):
    """Realized value of the point estimator: (1/n) V . theta."""
    theta = _as_theta(theta, model.n)
    V = coefficient_vector(spec, model, z, pi)
    return float(V @ theta) / model.n


def compute_estimand(theta, n):
    """Average contrast (1/n) sum of (theta_k - theta_{k+n})."""
    theta = _as_theta(theta, n)
    return float((theta[:n] - theta[n:]).sum()) / n


# -- second-order structure ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SecondOrderTable:
    """Joint observation probabilities P2[k, l] = Pr{k, l both observed} and the
    first-order probabilities pi = diag(P2)."""

    P2: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        P2 = np.asarray(self.P2, dtype=float)
        if np.any(P2 < -1e-12) or np.any(P2 > 1.0 + 1e-12):
            raise InvalidDesign("P2 entries must lie in [0, 1]")
        linalg.check_symmetric(P2, name="P2")
        d = np.diag(P2)
        if np.any(P2 > np.minimum.outer(d, d) + 1e-12):
            raise InvalidDesign("P2[k, l] cannot exceed min(P2[k, k], P2[l, l])")

    @property
    def pi(self):
        return np.diag(self.P2)


@dataclass(frozen=True, eq=False)
class VarianceProblem:
    """The coefficient covariance A, the unobservable pairs Omega, and context."""

    n: int
    A: np.ndarray
    omega: frozenset
    provenance: dict = field(default_factory=dict)
    threshold_c: float = 0.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.shape != (2 * self.n, 2 * self.n):
            raise DimensionMismatch(f"A must be {2 * self.n} x {2 * self.n}, got {A.shape}")
        linalg.check_symmetric(A, name="A")
        fro = float(np.linalg.norm(A))
        if linalg.min_eigenvalue(linalg.symmetrize(A)) < -1e-8 * max(fro, 1.0):
            raise InvalidDesign("A is not positive semidefinite within tolerance")
        fundamentals = {(i, i + self.n) for i in range(self.n)}
        if not fundamentals <= set(self.omega):
            raise InvalidDesign("omega must contain every within-unit pair (i, i+n)")
        object.__setattr__(self, "A", linalg.symmetrize(A))
        object.__setattr__(self, "omega", frozenset(self.omega))


def unobservable_pairs(table, c=0.0):
    """Pairs whose joint observation probability is at most c.

    Always contains the n within-unit pairs (i, i+n); monotone in c. Pairs are
    returned as 0-based (k, l) tuples with k <= l; (k, k) marks a coordinate
    whose own observation probability is at most c.
    """
    if not c >= 0:
        raise InvalidDesign(f"threshold c must be nonnegative, got {c}")
    P2 = np.asarray(table.P2, dtype=float)
    dim = P2.shape[0]
    n = dim // 2
    pairs = {(i, i + n) for i in range(n)}
    ks, ls = np.nonzero(P2 <= c)
    for k, l in zip(ks.tolist(), ls.tolist()):
        if k <= l:
            pairs.add((k, l))
    return frozenset(pairs)


class _AssignmentBlocks:
    """The assignments a moment averages over, as re-iterable (Z, w) blocks of
    at most BLOCK_ROWS rows: exact mode enumerates the support block by block
    with w the probabilities; Monte Carlo mode draws ``count`` assignments once,
    on construction, with w = 1. Reductions divide by the total weight.

    The draws come from the first child stream of the seed,
    ``SeedSequence(seed, spawn_key=(0,))``, so they depend on (seed, count)
    alone.
    """

    def __init__(self, design, mode="exact", count=None, seed=None,
                 max_support=DEFAULT_SUPPORT_CAP):
        if mode not in ("exact", "mc"):
            raise InvalidDesign(f"mode must be 'exact' or 'mc', got {mode!r}")
        if mode == "mc" and (count is None or seed is None):
            raise InvalidDesign("mc mode needs count and seed")
        self.design, self.max_support = design, max_support
        self.draws = None if mode == "exact" else sample_assignments(
            design, np.random.SeedSequence(seed, spawn_key=(0,)), count
        )
        self._provenance = (
            {"mode": "exact"} if mode == "exact"
            else {"mode": "mc", "count": int(count), "seed": int(seed)}
        )
        self.passes = self.rows = self.counted = 0

    @property
    def provenance(self):
        return dict(self._provenance)

    def __iter__(self):
        """One pass over the assignments; counts the pass in ``passes``, its
        rows in ``rows`` and restarts ``counted`` (see ``_weighted_moments``)."""
        self.passes += 1
        self.rows = self.counted = 0
        if self.draws is None:
            parts = _support_blocks(self.design, self.max_support)
        else:
            parts = (self.draws[s:s + BLOCK_ROWS] for s in range(0, len(self.draws), BLOCK_ROWS))
            parts = ((Z, np.ones(len(Z))) for Z in parts)
        for Z, w in parts:
            self.rows += len(w)
            yield Z, w


def _weighted_moments(blocks, *rows):
    """Weighted mean and second moment, E[x] and E[x x'], of the rows x = f(Z)
    of each function f in ``rows``, over the (Z, w) blocks in one pass. Within
    a block the functions run in the order given. Returns (mean, second) for
    one function and a list of such pairs for several.

    Boolean rows C are 0/1, and counted in a block whose weights all equal w0:
    the exact float32 syrk C'C (counts <= BLOCK_ROWS < 2^24) adds up in float64
    over the blocks of weight w0, and w0 times the sum (its diagonal for the
    mean) joins the moments at the end. Other rows, and unequal-weight blocks,
    take float64 weighted sums; ``blocks.counted`` adds up the rows counted."""
    total = 0.0
    sums = [[0.0, 0.0, {}] for _ in rows]  # mean, second, w0 -> summed C'C
    for Z, w in blocks:
        total += w.sum()
        for f, acc in zip(rows, sums):
            X = f(Z)
            if X.dtype == bool and w.min() == w.max():
                X = X.astype(np.float32)
                gram = acc[2].setdefault(w[0], np.zeros((X.shape[1],) * 2))
                gram += X.T @ X
                blocks.counted += len(w)
            else:
                X = X.astype(float, copy=False)
                acc[0] += w @ X
                acc[1] += (X * w[:, None]).T @ X
    for acc in sums:
        for w0, gram in acc.pop().items():
            acc[:] = acc[0] + w0 * np.diag(gram), acc[1] + w0 * gram
    moments = [(mean / total, second / total) for mean, second in sums]
    return moments[0] if len(rows) == 1 else moments


def _table_from(P2, provenance):
    return SecondOrderTable(P2=linalg.symmetrize(P2), provenance=provenance)


def _second_order_table(model, blocks):
    _, P2 = _weighted_moments(blocks, partial(_observation_matrix, model))
    return _table_from(P2, blocks.provenance)


def pair_observation_probabilities(design, model, mode="exact", count=None, seed=None,
                                   max_support=DEFAULT_SUPPORT_CAP):
    """SecondOrderTable of joint observation probabilities; the first-order
    probabilities are its diagonal, ``.pi``."""
    return _variance_build(design, model, None, mode, count, seed, max_support)[1]


def _check_groups(kind, Z, sa, sb):
    """Raise DegenerateAssignment at the first row of Z whose group total sa or
    sb is zero."""
    empty = (sa == 0) | (sb == 0)
    if np.any(empty):
        bad = int(np.argmax(empty))
        raise DegenerateAssignment(
            f"{kind}: empty exposure group under z = {tuple(Z[bad].tolist())}"
        )


def _batch_coefficients(spec, model, Z, pi, counts=None):
    """Coefficient vectors for assignment rows Z, one row each; ``counts``
    goes to ``_pinv_row`` for ols and lin."""
    Z = np.asarray(Z, dtype=np.int64)
    n = Z.shape[1]
    obs = _observation_matrix(model, Z)
    in_a = obs[:, :n].astype(float)
    in_b = obs[:, n:].astype(float)
    if spec.kind == "horvitz-thompson":
        c = _weighted_indicator(in_a, pi[:n], spec.kind) - _weighted_indicator(
            in_b, pi[n:], spec.kind
        )
    elif spec.kind == "difference-in-means":
        na = in_a.sum(axis=1, keepdims=True)
        nb = in_b.sum(axis=1, keepdims=True)
        _check_groups(spec.kind, Z, na, nb)
        c = in_a * (n / na) - in_b * (n / nb)
    elif spec.kind == "hajek":
        wa = _weighted_indicator(in_a, pi[:n], spec.kind)
        wb = _weighted_indicator(in_b, pi[n:], spec.kind)
        sa = wa.mean(axis=1, keepdims=True)
        sb = wb.mean(axis=1, keepdims=True)
        _check_groups(spec.kind, Z, sa, sb)
        c = wa / sa - wb / sb
    else:
        c = _regression_unit_coefficients(spec, model, Z, in_a, in_b, pi, counts)
    return np.concatenate([in_a * c, in_b * c], axis=1)


def _covariance(mean, second):
    return linalg.symmetrize(second - np.outer(mean, mean))


def _ht_covariance(table):
    """Horvitz-Thompson's A from the joint observation probabilities alone:
    A_kl = s_k s_l (P2_kl / (pi_k pi_l) - 1), with s = (+1 on the first n
    coordinates, -1 on the last n). A coordinate with pi = 0 is never
    observed, so its coefficient is 0 and so are its row and column. In Monte
    Carlo mode pi and P2 come from the same draws, so this is the empirical
    covariance of the coefficient vectors, as in exact mode."""
    pi = table.pi
    seen = pi > 0.0
    s = np.where(np.arange(len(pi)) < len(pi) // 2, 1.0, -1.0)
    inv = np.divide(s, pi, out=np.zeros_like(pi), where=seen)
    # exactly symmetric: P2 is, and so is each outer product
    return table.P2 * np.outer(inv, inv) - np.outer(s * seen, s * seen)


def _variance_build(design, model, spec, mode, count, seed, max_support):
    """(A, SecondOrderTable, provenance) from one set of assignments.

    Estimators whose coefficients do not read pi (difference-in-means, ols,
    lin) average P2 and their coefficient moments in the same pass.
    Horvitz-Thompson reads A off P2; Hajek and greg need pi = diag(P2) first,
    so they average their coefficients in a second pass. ``spec=None`` builds
    P2 alone and returns A = None. Logs one debug line: the rows, those the P2
    pass counted and, for ols and lin, those whose regression took the SVD.
    """
    started = time.perf_counter()
    blocks = _AssignmentBlocks(design, mode, count, seed, max_support)
    counts, observed = {"svd_rows": 0}, partial(_observation_matrix, model)
    if spec is not None and spec.kind in _PI_FREE_KINDS:
        # P2's rows first in each block: within a block, errors come as in two passes
        (_, P2), moments = _weighted_moments(
            blocks, observed, lambda Z: _batch_coefficients(spec, model, Z, None, counts))
    else:
        (_, P2), moments = _weighted_moments(blocks, observed), None
    table, counted = _table_from(P2, blocks.provenance), blocks.counted
    if spec is None:
        A, source = None, "not built"
    elif spec.kind == "horvitz-thompson":
        A, source = _ht_covariance(table), "from P2"
    else:
        A = _covariance(*(moments or _weighted_moments(
            blocks, lambda Z: _batch_coefficients(spec, model, Z, table.pi))))
        source = "from coefficients"
    if spec is not None and spec.kind in ("ols", "lin"):
        source += f", regression rows by SVD {counts['svd_rows']} of {blocks.rows}"
    log.debug("build: mode %s, %d rows (%d counted), passes %d, A %s, %.3f s", mode,
              blocks.rows, counted, blocks.passes, source, time.perf_counter() - started)
    return A, table, blocks.provenance


def build_variance_problem(design, model, spec, threshold_c=0.0, mode="exact",
                           count=None, seed=None, max_support=DEFAULT_SUPPORT_CAP):
    """One-stop construction of (VarianceProblem, SecondOrderTable).

    A and P2 come from the same enumeration or the same draws, so
    inverse-propensity weights and observation probabilities share provenance.
    A is the covariance of the estimator's coefficient vector: exact mode
    weights the support by probability, and Monte Carlo mode takes the
    empirical covariance with the 1/count normalizer, which is positive
    semidefinite by construction.
    """
    A, table, provenance = _variance_build(design, model, spec, mode, count, seed, max_support)
    problem = VarianceProblem(
        n=model.n, A=A, omega=unobservable_pairs(table, threshold_c), provenance=provenance,
        threshold_c=threshold_c,
    )
    return problem, table
