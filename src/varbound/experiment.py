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
weights differ (see ``_AssignmentBlocks``). Both modes make their blocks while
a pass runs, so no pass holds more than one block of assignments; Monte Carlo
draws depend on the seed and the count alone, and a second pass draws the
same blocks again. Each exposure rule (``_exposure_codes``) and each
estimator (``_batch_coefficients``) is implemented once, on blocks of rows.
Horvitz-Thompson's A is a function of P2 alone (``_ht_covariance``), and
difference in means, OLS and Lin average their coefficients in the P2 pass,
from its observation rows, so their builds make one pass over the
assignments; Hajek and GREG weight by pi = diag(P2) and make a second pass
for A. Exact builds of P2 alone or of Horvitz-Thompson's A, under a
Bernoulli, paired, complete or cluster design and the identity or spillover
rule, read P2 off local patterns instead when those cost less than the
support (``_local_plan``): P2_kl depends only on the units that set k's and
l's exposures, so each unit pair enumerates the patterns of those units
alone, weighted by their closed-form marginal.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass, field
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

# the most rows an exact build enumerates: the design's assignments, or the
# local patterns of the local path (``_local_plan``); beyond it, Monte Carlo mode
DEFAULT_SUPPORT_CAP = 1 << 20

# assignment rows per block in every moment computation; bounds the memory of
# the per-block observation and coefficient matrices, and of the Monte Carlo
# draws, which are made one block at a time
BLOCK_ROWS = 4096

# what one local pattern row of ``_local_p2`` costs in assignment rows that the
# enumeration counts (equal probabilities): 1.3 to 3.4 in exact
# Horvitz-Thompson builds on the ring at n = 12 to 24 near the break-even, on
# one thread of a 2-core x86 VM. An assignment row that it weights (unequal
# probabilities) costs 2.2 to 2.7 counted rows, about one local row
LOCAL_ROW_COST = 2.0

# singular values below this fraction of the largest are treated as zero in
# regression coefficient computations
REGRESSION_RCOND = 1e-10

# OLS and Lin rows whose systems pass this conditioning screen take their
# coefficients in closed form, the rest the SVD (see _regression_rows)
CLOSED_FORM_COND = 1e2

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
            return math.comb(len(self.clusters) if self.clusters else self.n, self.m)
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


def _support_blocks(design):
    """The design's support as (Z, probabilities) blocks of at most BLOCK_ROWS
    rows, in lexicographic order of the rows, zero-probability rows skipped.

    Raises SupportTooLarge before the first block when the support exceeds
    ``DEFAULT_SUPPORT_CAP``, and InvalidDesign after the last block when the
    probabilities do not sum to one within 1e-12.
    """
    size = design.support_size()
    if size > DEFAULT_SUPPORT_CAP:
        raise SupportTooLarge(
            f"{design.kind} design has support {size} > cap {DEFAULT_SUPPORT_CAP}; "
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


def enumerate_assignments(design):
    """Full support of a design as (assignment, probability) pairs.

    The list is sorted lexicographically by assignment bits and the
    probabilities sum to one within 1e-12. Raises SupportTooLarge when the
    support exceeds ``DEFAULT_SUPPORT_CAP`` (use sampling instead) and skips
    zero-probability assignments.
    """
    return [
        (tuple(z), prob)
        for Z, probs in _support_blocks(design)
        for z, prob in zip(Z.tolist(), probs.tolist())
    ]


def _is_natural(value, low):
    """Whether ``value`` is a Python or numpy integer, not a boolean, of at
    least ``low``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low


def sample_assignments(design, seed, count):
    """Draw ``count`` assignments from ``np.random.default_rng(seed)``;
    reproducible for a fixed (seed, count). ``seed`` may be an integer, a
    ``np.random.SeedSequence`` or a ``np.random.Generator``, which the draws
    advance: calls on one generator continue its stream, so draws of a and
    then b rows equal the first a + b rows of one call (``_AssignmentBlocks``
    draws block by block this way).

    Returns an integer array of shape (count, n).
    """
    if not _is_natural(count, 1):
        raise InvalidDesign(f"need an integer count >= 1, got {count!r}")
    if not (_is_natural(seed, 0) or isinstance(seed, (np.random.SeedSequence, np.random.Generator))):
        raise InvalidDesign(
            f"need an integer seed >= 0, a SeedSequence or a Generator, got {seed!r}")
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


def _adjacency(model, n):
    """Float32 (n, n) 0/1 matrix of the spillover rule: row i marks the
    neighbours of unit i."""
    adj = np.zeros((n, n), dtype=np.float32)
    for i, nbrs in enumerate(model.adjacency):
        adj[i, list(nbrs)] = 1.0
    return adj


def _exposure_codes(model, Z):
    """Integer (rows, n) matrix: entry (r, i) is the index in ``model.labels`` of
    unit i's exposure under assignment row r of Z."""
    Z = np.asarray(Z, dtype=np.int64)
    n = Z.shape[1]
    if model.rule == "identity":
        return 1 - Z  # labels (1, 0)
    if model.rule == "spillover":
        adj = _adjacency(model, n)
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


# -- linear estimators -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EstimatorSpec:
    """Which linear point estimator to use; regression kinds need covariates."""

    kind: str
    covariates: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise InvalidDesign(f"unknown estimator kind {self.kind!r}")
        if self.kind in _REGRESSION_KINDS and self.covariates is None:
            raise InvalidDesign(f"{self.kind} needs a covariate matrix")
        if self.covariates is not None:
            X = np.asarray(self.covariates, dtype=float)
            if X.ndim != 2 and self.kind in _REGRESSION_KINDS:
                raise InvalidDesign("covariates must be a 2-d array")
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


def _gauss_jordan_inverse(G):
    """Inverse of each matrix G_r in the stack G, by Gauss-Jordan elimination
    without pivoting, vectorized along the stack. Sound for positive definite
    matrices; a zero pivot leaves NaN or inf in that matrix's inverse alone."""
    A = np.moveaxis(G, 0, -1).copy()  # (p, p, stack): each step is whole-vector work
    p = len(A)
    for k in range(p):
        # in place: setting A[k, k] = 1 first lets column k carry the identity's
        # column k through the row operations, so that it ends as the inverse's
        pivot = A[k, k].copy()
        A[k, k] = 1.0
        A[k] /= pivot
        for i in range(p):
            if i != k:
                f = A[i, k].copy()
                A[i, k] = 0.0
                A[i] -= f * A[k]
    return np.ascontiguousarray(np.moveaxis(A, -1, 0))


def _prepare_regression(kind, X):
    """``_regression_rows``' per-build matrices, on covariates centred and
    scaled to unit norm (same spans; the screen sees correlation, not units).
    OLS: M_W and whether W'W passes the screen. Lin: Xc' and per-unit rows
    (Xc_i Xc_i', Xc_i, 1) that sum over an arm to its (S, t, size)."""
    n = len(X)
    Xc = X - X.mean(axis=0)
    Xc = Xc / np.maximum(np.linalg.norm(Xc, axis=0), np.finfo(float).tiny)
    if kind == "ols":
        W = np.column_stack([np.full(n, 1.0 / math.sqrt(n)), Xc])
        ok = np.linalg.cond(W.T @ W, "fro") <= CLOSED_FORM_COND
        return np.eye(n) - W @ np.linalg.pinv(W), ok
    units = np.column_stack([(Xc[:, :, None] * Xc[:, None, :]).reshape(n, -1), Xc, np.ones(n)])
    return np.ascontiguousarray(Xc.T), np.ascontiguousarray(units.T)


def _regression_rows(kind, X, in_a, in_b, work):
    """n times the coefficient on D = in_a (in_b = 1 - in_a) of each row's OLS
    or Lin regression (``_design_matrices``), in Frisch-Waugh-Lovell closed form:
    OLS's is n M_W D / (D'M_W D), M_W the residual maker of W = (1, X); Lin's
    is the treated arm's intercept less the control arm's, weights n r / (r'r)
    with r = 1 - Xc b the arm's ones less their fit on its centred covariates,
    S b = t for S = Xc'Xc and t = Xc'1 over the arm. A row passes the screen
    when each S has ||S||_F ||S^-1||_F <= CLOSED_FORM_COND and D'M_W D or each
    r'r is at least D'D or the arm's size over CLOSED_FORM_COND (and, for OLS,
    W'W passes); the rest take ``_svd_pinv_row`` and count in
    ``work.svd_rows``. Per-row work is elementwise, axis sums and einsum, never
    BLAS, so a row does not depend on the rows around it."""
    rows, n = in_a.shape
    if work.prepared is None:
        work.prepared = _prepare_regression(kind, X)
    c, D = work.array("c", rows, n), work.array("D", rows, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "ols":
            M, ok = work.prepared
            np.copyto(D, in_a)
            np.einsum("rn,mn->rm", D, M, out=c)  # M_W D
            q = np.einsum("rn,rn->r", c, c)  # D'M_W D = |M_W D|^2
            ok = ok & (q > 0) & (in_a.sum(axis=1) <= CLOSED_FORM_COND * q)
            c *= (n / q)[:, None]
        else:
            XcT, units = work.prepared
            k, ok = len(XcT), np.ones(rows, dtype=bool)
            for arm, r in ((in_a, c), (in_b, D)):
                np.copyto(D, arm)
                stats = np.einsum("rn,jn->rj", D, units)  # (S, t, size) over the arm
                S = stats[:, :k * k].reshape(rows, k, k)
                Sinv = _gauss_jordan_inverse(S)
                b = np.einsum("rij,rj->ri", Sinv, stats[:, k * k:-1])
                np.subtract(1.0, np.einsum("rk,kn->rn", b, XcT, out=r), out=r)
                r *= arm
                rr = np.einsum("rn,rn->r", r, r)  # 1'r as r'r: rounding in b is second order
                cond2 = np.einsum("rij,rij->r", S, S) * np.einsum("rij,rij->r", Sinv, Sinv)
                ok &= (cond2 <= CLOSED_FORM_COND**2) & (rr > 0)
                ok &= stats[:, -1] <= CLOSED_FORM_COND * rr
                r *= (n / rr)[:, None]
            c -= D
    fallback = ~ok
    work.svd_rows += int(np.count_nonzero(fallback))
    if np.any(fallback):
        c[fallback] = n * _svd_pinv_row(_design_matrices(kind, X, in_a[fallback]), 1, kind)
    return c


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
    U, s, Vt = np.linalg.svd(Q, full_matrices=False)  # Q holds a column of ones
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


def _design_matrices(kind, X, D):
    """The design matrix of each row of the 0/1 matrix D: OLS regresses on
    (1, D, X), Lin on (1, D, Xc, D Xc) with Xc = X - mean X."""
    D = D[:, :, None].astype(float)
    X = np.broadcast_to(X if kind == "ols" else X - X.mean(axis=0), D.shape[:2] + X.shape[1:])
    return np.concatenate([np.ones_like(D), D, X] + ([D * X] if kind == "lin" else []), axis=-1)


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
        A = linalg.check_symmetric(A, name="A")
        if linalg._eigvalsh(A)[0] < -1e-8 * float(np.linalg.norm(A)):
            raise InvalidDesign("A is not positive semidefinite within tolerance")
        fundamentals = {(i, i + self.n) for i in range(self.n)}
        if not fundamentals <= set(self.omega):
            raise InvalidDesign("omega must contain every within-unit pair (i, i+n)")
        object.__setattr__(self, "A", A)
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
    n = len(P2) // 2
    ks, ls = np.nonzero(np.triu(P2 <= c))
    return frozenset({(i, i + n) for i in range(n)} | set(zip(ks.tolist(), ls.tolist())))


class _AssignmentBlocks:
    """The assignments a moment averages over, as re-iterable (Z, w) blocks of
    at most BLOCK_ROWS rows, made while a pass runs: exact mode enumerates the
    support block by block with w the probabilities; Monte Carlo mode draws
    ``count`` assignments block by block with w = 1. Reductions divide by the
    total weight, and no pass holds more than one block of assignments.

    Each pass draws from a fresh generator on the first child stream of the
    seed, ``SeedSequence(seed, spawn_key=(0,))``, so every pass sees the same
    draws, those of ``sample_assignments`` with that stream and ``count``:
    they depend on (seed, count) alone.
    """

    def __init__(self, design, mode="exact", count=None, seed=None):
        if mode not in ("exact", "mc"):
            raise InvalidDesign(f"mode must be 'exact' or 'mc', got {mode!r}")
        if mode == "mc" and (count is None or seed is None):
            raise InvalidDesign("mc mode needs count and seed")
        if mode == "mc" and not _is_natural(count, 1):
            raise InvalidDesign(f"need an integer count >= 1, got {count!r}")
        if mode == "mc" and not _is_natural(seed, 0):
            raise InvalidDesign(f"need an integer seed >= 0, got {seed!r}")
        self.design, self.mode, self.count = design, mode, count
        self._stream = None if mode == "exact" else np.random.SeedSequence(seed, spawn_key=(0,))
        self._provenance = (
            {"mode": "exact"} if mode == "exact"
            else {"mode": "mc", "count": int(count), "seed": int(seed)}
        )
        self.passes = self.rows = self.counted = 0

    @property
    def provenance(self):
        return dict(self._provenance)

    def _draws(self):
        rng = np.random.default_rng(self._stream)
        for s in range(0, self.count, BLOCK_ROWS):
            Z = sample_assignments(self.design, rng, min(BLOCK_ROWS, self.count - s))
            yield Z, np.ones(len(Z))

    def __iter__(self):
        """One pass over the assignments; counts the pass in ``passes``, its
        rows in ``rows`` and restarts ``counted`` (see ``_weighted_moments``)."""
        self.passes += 1
        self.rows = self.counted = 0
        parts = _support_blocks(self.design) if self.mode == "exact" else self._draws()
        for Z, w in parts:
            self.rows += len(w)
            yield Z, w


def _weighted_moments(blocks, rows):
    """Weighted mean and second moment, E[x] and E[x x'], over the (Z, w)
    blocks in one pass, of each matrix of rows x in the tuple ``rows(Z)``.
    Returns a list with one (mean, second) pair per matrix, in tuple order.

    Boolean rows C are 0/1, and counted in a block whose weights all equal w0:
    the exact float32 syrk C'C (counts <= BLOCK_ROWS < 2^24) adds up in float64
    over the blocks of weight w0, and w0 times the sum (its diagonal for the
    mean) joins the moments at the end. Other rows, and unequal-weight blocks,
    take float64 weighted sums; ``blocks.counted`` adds up the rows counted.
    Each matrix is dropped from the tuple once read, so a boolean matrix is
    freed as soon as its float32 copy exists, and the copy once counted."""
    total, sums = 0.0, []  # per matrix: mean, second, w0 -> summed C'C
    for Z, w in blocks:
        total += w.sum()
        Xs = list(rows(Z))
        sums = sums or [[0.0, 0.0, {}] for _ in Xs]
        for i, acc in enumerate(sums):
            X, Xs[i] = Xs[i], None  # now the only reference
            if X.dtype == bool and w.min() == w.max():
                X = X.astype(np.float32)
                gram = acc[2].setdefault(w[0], np.zeros((X.shape[1],) * 2))
                gram += X.T @ X
                blocks.counted += len(w)
            else:
                X = X.astype(float, copy=False)
                acc[0] += w @ X
                acc[1] += (X * w[:, None]).T @ X
            del X  # before the next matrix, or the next block's rows
    for acc in sums:
        for w0, gram in acc.pop().items():
            acc[:] = acc[0] + w0 * np.diag(gram), acc[1] + w0 * gram
    return [(mean / total, second / total) for mean, second in sums]


def pair_observation_probabilities(design, model, mode="exact", count=None, seed=None):
    """SecondOrderTable of joint observation probabilities; the first-order
    probabilities are its diagonal, ``.pi``."""
    return _variance_build(_AssignmentBlocks(design, mode, count, seed), model, None)[1]


def _check_groups(kind, Z, sa, sb):
    """Raise DegenerateAssignment at the first row of Z whose group total sa or
    sb is zero."""
    empty = (sa == 0) | (sb == 0)
    if np.any(empty):
        bad = int(np.argmax(empty))
        raise DegenerateAssignment(
            f"{kind}: empty exposure group under z = {tuple(Z[bad].tolist())}"
        )


class _CoefficientPass:
    """What a pass carries across coefficient blocks: ``svd_rows`` (OLS and Lin
    rows that took the SVD), ``prepared`` (``_prepare_regression``'s matrices)
    and float arrays that each block overwrites."""

    def __init__(self):
        self.svd_rows, self.prepared, self._arrays = 0, None, {}

    def array(self, name, rows, cols):
        a = self._arrays.get(name)
        if a is None or len(a) < rows:
            a = self._arrays[name] = np.empty((rows, cols))
        return a[:rows]


def _batch_coefficients(spec, model, Z, pi, work=None, obs=None):
    """Coefficient vectors for assignment rows Z, one row each, in an array of
    ``work`` (a ``_CoefficientPass``, fresh when None) that its next block
    overwrites; ``obs``, when given, is ``_observation_matrix(model, Z)``."""
    Z = np.asarray(Z, dtype=np.int64)
    n = Z.shape[1]
    work = _CoefficientPass() if work is None else work
    obs = _observation_matrix(model, Z) if obs is None else obs
    in_a, in_b = obs[:, :n], obs[:, n:]
    if spec.kind == "horvitz-thompson":
        c = (_weighted_indicator(in_a, pi[:n], spec.kind)
             - _weighted_indicator(in_b, pi[n:], spec.kind))
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
    else:  # regression on exposure indicators: ols, lin, greg
        outside = ~(in_a | in_b)
        if np.any(outside):
            bad, off = (int(i) for i in np.argwhere(outside)[0])
            label = model.labels[_exposure_codes(model, Z[bad:bad + 1])[0, off]]
            raise IncompatibleEstimator(
                f"{spec.kind}: unit {off} realized exposure {label!r}, outside the "
                "contrast; regression estimators need two-label exposures"
            )
        X = spec.covariates
        if X.shape[0] != n:
            raise DimensionMismatch(f"covariates have {X.shape[0]} rows, expected {n}")
        if spec.kind != "greg":
            c = _regression_rows(spec.kind, X, in_a, in_b, work)
        else:  # inverse-propensity core plus a regression adjustment
            wa = _weighted_indicator(in_a, pi[:n], "greg")
            wb = _weighted_indicator(in_b, pi[n:], "greg")
            Pa = np.linalg.pinv(X * in_a[..., None], rcond=REGRESSION_RCOND)
            Pb = np.linalg.pinv(X * in_b[..., None], rcond=REGRESSION_RCOND)
            # (1 - w) X by einsum, not matmul: BLAS rounds a row differently
            # depending on how many rows it is given
            ra = np.einsum("rn,np->rp", 1.0 - wa, X)
            rb = np.einsum("rn,np->rp", 1.0 - wb, X)
            c = wa - wb + (np.einsum("rp,rpn->rn", ra, Pa) - np.einsum("rp,rpn->rn", rb, Pb))
    V = work.array("V", len(Z), 2 * n)
    np.multiply(in_b, c, out=V[:, n:])
    np.multiply(in_a, c, out=V[:, :n])
    return V


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


def _unit_coins(design):
    """Index of the coin that sets each unit's assignment: its pair (paired),
    its cluster (cluster) or the unit itself (Bernoulli and complete)."""
    groups = design.pairs or design.clusters
    return _unit_clusters(groups, design.n) if groups else np.arange(design.n)


def _reach_pairs(design, model):
    """The unit pairs (i <= j) whose P2 entries the local path enumerates, as
    index arrays I and J, the sizes |U| of their unions U = R_i | R_j, and the
    reach matrix R (row i marks R_i: unit i and, under spillover, the
    neighbours whose assignments set its exposure). Under the product designs
    a pair whose reach sets share no coin (a unit under Bernoulli, a pair
    under paired) is independent, P2 = pi_k pi_l, and is left out."""
    n = design.n
    R = np.eye(n, dtype=np.float32)
    if model.rule == "spillover":
        R += _adjacency(model, n)
    near = np.ones((n, n), dtype=bool)
    if design.kind in ("bernoulli", "paired"):
        coins = R @ np.eye(n, dtype=np.float32)[_unit_coins(design)]
        near = coins @ coins.T > 0
    I, J = np.nonzero(np.triu(near))
    size = R.sum(axis=1)  # exact float32 counts, as the intersections R R'
    sizes = (size[I] + size[J] - (R @ R.T)[I, J]).astype(np.int64)
    return I, J, sizes, R > 0


def _local_weights(design, U, bits):
    """Marginal probability of each local pattern, the rows of ``bits`` on the
    units in the rows of ``U``: a product over units (Bernoulli) or over the
    pairs that meet U (paired), or C(K - k, m - s) / C(K, m) when the pattern
    meets k of the K clusters (units, under complete randomization) and treats
    s of them. A pattern that splits a cluster, or treats both or neither unit
    of a pair, has probability 0."""
    if design.kind == "bernoulli":
        p = np.asarray(design.p)[U]
        return np.prod(np.sort(np.where(bits == 1, p, 1.0 - p), axis=1), axis=1)
    u = U.shape[1]
    coin = _unit_coins(design)[U]
    twin = (coin[:, :, None] == coin[:, None, :]) & np.triu(np.ones((u, u), dtype=bool), 1)
    same = bits[:, :, None] == bits[:, None, :]
    ok = ~np.any(twin & (same if design.kind == "paired" else ~same), axis=(1, 2))
    first = ~twin.any(axis=1)  # a unit of U whose coin no earlier unit of U shares
    k = first.sum(axis=1)
    if design.kind == "paired":
        return np.where(ok, 0.5**k, 0.0)
    K, m = len(design.clusters) if design.clusters else design.n, design.m
    table = [[math.comb(K - a, m - s) / math.comb(K, m) if s <= m and a <= K else 0.0
              for s in range(u + 1)] for a in range(u + 1)]
    return np.where(ok, np.array(table)[k, (bits * first).sum(axis=1)], 0.0)


def _local_p2(design, model, I, J, sizes, R):
    """P2 from local patterns: pair (i, j) with |U| = u reads its entries at
    coordinates (i, j, i + n, j + n) off the 2^u patterns of U, each embedded
    in a zero row, evaluated by ``_observation_matrix`` and weighted by its
    marginal (``_local_weights``). Pairs of one size run together, BLOCK_ROWS
    rows at a time. Pairs left out (see ``_reach_pairs``) take pi_k pi_l.
    A pattern's factors are multiplied, and a pair's terms added, in sorted
    order, so that relabeling the units permutes P2 exactly (for pairs whose
    patterns fit in one block)."""
    n = design.n

    def corners(i, j):
        return (i, j), (i, j + n), (i + n, j), (i + n, j + n)

    sums = np.zeros((4, len(I)))  # each pair's entries, in the order of corners
    for u in np.flatnonzero(np.bincount(sizes)).tolist():
        at = np.flatnonzero(sizes == u)
        per, span = max(1, BLOCK_ROWS >> u), min(1 << u, BLOCK_ROWS)  # pairs, patterns
        for a in range(0, len(at), per):
            pairs = at[a:a + per]
            U = np.repeat(np.nonzero(R[I[pairs]] | R[J[pairs]])[1].reshape(-1, u), span, axis=0)
            i, j = np.repeat(I[pairs], span), np.repeat(J[pairs], span)
            for b in range(0, 1 << u, span):
                bits = np.tile(_bit_rows(b, b + span, u), (len(pairs), 1))
                Z = np.zeros((len(bits), n), dtype=np.int64)
                np.put_along_axis(Z, U, bits, axis=1)
                obs, w = _observation_matrix(model, Z), _local_weights(design, U, bits)
                rows = np.arange(len(bits))
                for c, (x, y) in enumerate(corners(i, j)):
                    terms = (w * (obs[rows, x] & obs[rows, y])).reshape(len(pairs), span)
                    sums[c, pairs] += np.sort(terms, axis=1).sum(axis=1)
    on = I == J
    pi = np.zeros(2 * n)
    pi[I[on]], pi[I[on] + n] = sums[0, on], sums[3, on]
    P2 = np.outer(pi, pi) if design.kind in ("bernoulli", "paired") else np.zeros((2 * n,) * 2)
    for c, (x, y) in enumerate(corners(I, J)):
        P2[x, y] = P2[y, x] = sums[c]
    return P2


def _local_plan(blocks, model, spec):
    """The local path's (I, J, sizes, R) and its row count, sum of 2^|U| over
    the pairs it enumerates, when it serves this build: exact mode, P2 alone
    or Horvitz-Thompson, a Bernoulli, paired, complete or cluster design,
    the identity or spillover rule, and a support that is past the cap or
    dearer to enumerate than the local rows: each weighs LOCAL_ROW_COST
    assignment rows when the enumeration counts them (every assignment
    equally likely), one when it weights them. None otherwise. Raises
    SupportTooLarge when those rows exceed ``DEFAULT_SUPPORT_CAP``."""
    design = blocks.design
    if not (blocks.mode == "exact" and (spec is None or spec.kind == "horvitz-thompson")
            and design.kind in ("bernoulli", "paired", "complete-randomization", "cluster")
            and model.rule in ("identity", "spillover") and model.n == design.n):
        return None
    support = design.support_size()
    plan = _reach_pairs(design, model)
    rows = sum(c << u for u, c in enumerate(np.bincount(plan[2]).tolist()))
    counted = design.kind != "bernoulli" or set(design.p) <= {0.0, 0.5, 1.0}
    if support <= min(DEFAULT_SUPPORT_CAP, rows * (LOCAL_ROW_COST if counted else 1.0)):
        return None
    if rows > DEFAULT_SUPPORT_CAP:
        raise SupportTooLarge(
            f"exact P2 needs {rows} local pattern rows > cap {DEFAULT_SUPPORT_CAP}; "
            "use Monte Carlo sampling"
        )
    return plan, rows


def _variance_build(blocks, model, spec):
    """(A, SecondOrderTable) from one set of assignments, the ``blocks``, or
    from local patterns (``_local_plan``, ``_local_p2``) where those serve.

    Each block's observation matrix is formed once: P2 counts it, and the
    estimators whose coefficients do not read pi (difference-in-means, ols,
    lin) take their coefficients from it in the same pass. Horvitz-Thompson
    reads A off P2; Hajek and greg need pi = diag(P2) first, so they average
    their coefficients in a second pass. ``spec=None`` builds P2 alone and
    returns A = None. Logs one debug line: the path (local, enumerated or
    drawn), its rows (local patterns; or assignments, those the P2 pass
    counted, and passes) and, for ols and lin, the rows whose regression took
    the SVD.
    """
    started = time.perf_counter()
    work = _CoefficientPass()
    one_pass = spec is not None and spec.kind in _PI_FREE_KINDS

    def rows(Z):
        obs = _observation_matrix(model, Z)
        return (obs, _batch_coefficients(spec, model, Z, None, work, obs)) if one_pass else (obs,)

    local = _local_plan(blocks, model, spec)
    if local is None:
        (_, P2), *moments = _weighted_moments(blocks, rows)
        P2 = linalg.symmetrize(P2)
    else:
        P2, moments = _local_p2(blocks.design, model, *local[0]), []
    table = SecondOrderTable(P2=P2, provenance=blocks.provenance)
    counted = blocks.counted
    if spec is None:
        A, source = None, "not built"
    elif spec.kind == "horvitz-thompson":
        A, source = _ht_covariance(table), "from P2"
    else:
        A = _covariance(*(moments or _weighted_moments(
            blocks, lambda Z: (_batch_coefficients(spec, model, Z, table.pi, work),)))[0])
        source = "from coefficients"
    if spec is not None and spec.kind in ("ols", "lin"):
        source += f", regression rows by SVD {work.svd_rows} of {blocks.rows}"
    mode = table.provenance["mode"]
    path = (f"path local, {local[1]} rows" if local else
            f"path {'enumerated' if mode == 'exact' else 'drawn'}, {blocks.rows} rows "
            f"({counted} counted), passes {blocks.passes}")
    log.debug("build: mode %s, %s, A %s, %.3f s", mode, path, source,
              time.perf_counter() - started)
    return A, table


def build_variance_problem(design, model, spec, threshold_c=0.0, mode="exact",
                           count=None, seed=None):
    """One-stop construction of (VarianceProblem, SecondOrderTable).

    A and P2 come from the same enumeration or the same draws, so
    inverse-propensity weights and observation probabilities share provenance.
    A is the covariance of the estimator's coefficient vector: exact mode
    weights the support by probability, and Monte Carlo mode takes the
    empirical covariance with the 1/count normalizer, which is positive
    semidefinite by construction.
    """
    blocks = _AssignmentBlocks(design, mode, count, seed)
    A, table = _variance_build(blocks, model, spec)
    problem = VarianceProblem(
        n=model.n, A=A, omega=unobservable_pairs(table, threshold_c),
        provenance=blocks.provenance, threshold_c=threshold_c,
    )
    return problem, table
