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
weights differ (see ``_AssignmentBlocks``). The scalar ``compute_exposures``,
``observation_indices`` and ``coefficient_vector`` are per-assignment
references for the batched ``_observation_matrix`` and ``_batch_coefficients``.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations, islice
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

Bits = tuple[int, ...]

DEFAULT_SUPPORT_CAP = 1 << 20

# assignment rows per block in every moment computation; bounds the memory of
# the per-block observation and coefficient matrices
BLOCK_ROWS = 4096

# singular values below this fraction of the largest are treated as zero in
# regression coefficient computations
REGRESSION_RCOND = 1e-10

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


def _as_bits(z, n):
    bits = tuple(int(b) for b in z)
    if len(bits) != n:
        raise InvalidDesign(f"assignment length {len(bits)} != n = {n}")
    if any(b not in (0, 1) for b in bits):
        raise InvalidDesign(f"assignment entries must be 0/1, got {bits}")
    return bits


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
            if prob < -1e-15:
                raise InvalidDesign(f"negative probability {prob} for {bits}")
            merged[bits] = merged.get(bits, 0.0) + max(prob, 0.0)
        total = sum(merged.values())
        if abs(total - 1.0) > 1e-12:
            raise InvalidDesign(f"probabilities sum to {total!r}, not 1")
        table = tuple(sorted(merged.items()))
        return Design(kind="explicit", n=n, table=table)

    def support_size(self):
        if self.kind == "bernoulli":
            return 2**self.n
        if self.kind == "complete-randomization":
            return math.comb(self.n, self.m)
        if self.kind == "cluster":
            return math.comb(len(self.clusters), self.m)
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


def _support_rows(design, size):
    """Blocks of (assignment rows, probabilities) covering the support in
    lexicographic order of the rows, zero-probability rows included."""
    n = design.n
    starts = range(0, size, BLOCK_ROWS)
    if design.kind == "bernoulli":
        p = np.asarray(design.p)
        for s in starts:
            Z = _bit_rows(s, min(s + BLOCK_ROWS, size), n)
            yield Z, np.prod(np.where(Z == 1, p, 1.0 - p), axis=1)
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
        # complete randomization treats m singleton clusters; clusters are
        # disjoint, so rows sort like the cluster choice vectors with clusters
        # in order of their smallest unit, which is lexicographic order of the
        # untreated clusters
        groups = design.clusters or tuple((i,) for i in range(n))
        groups = sorted(groups, key=min)
        member = np.zeros((len(groups), n), dtype=np.int64)
        for c, units in enumerate(groups):
            member[c, list(units)] = 1
        untreated = combinations(range(len(groups)), len(groups) - design.m)
        while rows := list(islice(untreated, BLOCK_ROWS)):
            idx = np.array(rows, dtype=np.int64)
            chosen = np.ones((len(rows), len(groups)), dtype=np.int64)
            chosen[np.arange(len(rows))[:, None], idx] = 0
            yield chosen @ member, np.full(len(rows), 1.0 / size)
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


def sample_assignments(design, seed, count, rng=None):
    """Draw ``count`` assignments; reproducible for a fixed (seed, count).

    Returns an integer array of shape (count, n).
    """
    if count < 1:
        raise InvalidDesign(f"need count >= 1, got {count}")
    if rng is None:
        rng = np.random.default_rng(seed)
    n = design.n
    if design.kind == "bernoulli":
        return (rng.random((count, n)) < np.asarray(design.p)).astype(np.int64)
    if design.kind == "complete-randomization":
        keys = rng.random((count, n))
        order = np.argsort(keys, axis=1)
        Z = np.zeros((count, n), dtype=np.int64)
        rows = np.repeat(np.arange(count), design.m)
        Z[rows, order[:, : design.m].ravel()] = 1
        return Z
    if design.kind == "cluster":
        K = len(design.clusters)
        keys = rng.random((count, K))
        order = np.argsort(keys, axis=1)
        Z = np.zeros((count, n), dtype=np.int64)
        member = np.zeros((K, n), dtype=np.int64)
        for c, units in enumerate(design.clusters):
            member[c, list(units)] = 1
        chosen = np.zeros((count, K), dtype=np.int64)
        rows = np.repeat(np.arange(count), design.m)
        chosen[rows, order[:, : design.m].ravel()] = 1
        return (chosen @ member).astype(np.int64)
    if design.kind == "paired":
        P = len(design.pairs)
        pick = rng.integers(0, 2, size=(count, P))
        Z = np.zeros((count, n), dtype=np.int64)
        for j, (a, b) in enumerate(design.pairs):
            Z[:, a] = 1 - pick[:, j]
            Z[:, b] = pick[:, j]
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


def compute_exposures(model, z):
    """Exposure label of every unit under assignment z."""
    bits = _as_bits(z, model.n)
    if model.rule == "identity":
        return bits
    if model.rule == "spillover":
        out = []
        for i, nbrs in enumerate(model.adjacency):
            if bits[i] == 1:
                out.append(SPILLOVER_DIRECT)
            elif any(bits[j] == 1 for j in nbrs):
                out.append(SPILLOVER_INDIRECT)
            else:
                out.append(SPILLOVER_ISOLATED)
        return tuple(out)
    if model.rule == "table":
        row = model.table.get(bits)
        if row is None:
            raise RuleUndefined(f"exposure table has no entry for assignment {bits}")
        return row
    raise InvalidDesign(f"unknown exposure rule {model.rule!r}")


def observation_indices(model, z):
    """Indices of theta revealed by assignment z.

    Unit i contributes i when exposed to the first contrast label and i + n
    when exposed to the second; other exposures reveal nothing.
    """
    d = compute_exposures(model, z)
    a, b = model.contrast
    n = model.n
    out = set()
    for i, lab in enumerate(d):
        if lab == a:
            out.add(i)
        elif lab == b:
            out.add(i + n)
    return frozenset(out)


def _observation_matrix(model, Z):
    """Boolean (count, 2n) matrix of observation indicators for assignment rows Z."""
    Z = np.asarray(Z, dtype=np.int64)
    n = Z.shape[1]
    a, b = model.contrast
    if model.rule == "identity":
        return np.concatenate([Z == 1, Z == 0], axis=1)
    if model.rule == "spillover":
        adj = np.zeros((n, n))  # float, so the neighbour count below runs through BLAS
        for i, nbrs in enumerate(model.adjacency):
            adj[i, list(nbrs)] = 1.0
        direct = Z == 1
        any_nbr = Z @ adj.T > 0
        by_label = {
            SPILLOVER_DIRECT: direct,
            SPILLOVER_INDIRECT: ~direct & any_nbr,
            SPILLOVER_ISOLATED: ~direct & ~any_nbr,
        }
        return np.concatenate([by_label[a], by_label[b]], axis=1)
    # table rule: look every row up among the table's assignments
    keys = np.array(list(model.table), dtype=np.int64).reshape(-1, n)
    _, inverse = np.unique(np.concatenate([keys, Z]), axis=0, return_inverse=True)
    entry = np.full(len(keys) + len(Z), -1)
    entry[inverse.reshape(-1)[: len(keys)]] = np.arange(len(keys))
    hit = entry[inverse.reshape(-1)[len(keys):]]
    if np.any(hit < 0):
        bits = tuple(int(v) for v in Z[np.argmax(hit < 0)])
        raise RuleUndefined(f"exposure table has no entry for assignment {bits}")
    labels = np.array(list(model.table.values()), dtype=object).reshape(-1, n)[hit]
    return np.concatenate([labels == a, labels == b], axis=1).astype(bool)


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


def _pinv_row(Q, row, what):
    """Row ``row`` of the pseudo-inverse of each matrix in the stack Q, with an
    identification check.

    Uses a singular-value cutoff of REGRESSION_RCOND times each matrix's
    largest singular value; a cutoff that actually triggers emits a warning,
    and the requested coefficient must be orthogonal to the null space of Q or
    the regression is reported as singular.
    """
    U, s, Vt = np.linalg.svd(Q, full_matrices=False)
    if s.shape[-1] == 0 or np.any(s[..., 0] == 0.0):
        raise SingularRegression(f"{what}: design matrix is zero")
    keep = s > REGRESSION_RCOND * s[..., :1]
    coef = Vt[..., :, row]
    if not np.all(keep):
        null_mass = np.linalg.norm(np.where(keep, 0.0, coef), axis=-1)
        if np.any(null_mass > 1e-8):
            raise SingularRegression(
                f"{what}: contrast coefficient lies in the null space of the design matrix"
            )
        warnings.warn(
            f"{what}: rank-deficient design matrix, pseudo-inverse cutoff applied",
            RuntimeWarning,
            stacklevel=3,
        )
    inv_s = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return np.einsum("...r,...nr->...n", coef * inv_s, U)


def _regression_unit_coefficients(spec, model, Z, in_a, in_b, pi):
    """Per-unit coefficients c for ols / lin / greg (exposure-indicator
    regressors), one row per assignment row of Z with indicators in_a, in_b."""
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
        adjust = (np.einsum("rp,rpn->rn", (1.0 - wa) @ X, Pa)
                  - np.einsum("rp,rpn->rn", (1.0 - wb) @ X, Pb))
        return wa - wb + adjust
    D = in_a[..., None]
    ones = np.ones_like(D)
    if spec.kind == "ols":
        Q = np.concatenate([ones, D, np.broadcast_to(X, D.shape[:1] + X.shape)], axis=-1)
    else:
        Xdm = X - X.mean(axis=0, keepdims=True)
        Q = np.concatenate([ones, D, np.broadcast_to(Xdm, D.shape[:1] + X.shape), D * Xdm],
                           axis=-1)
    return n * _pinv_row(Q, 1, spec.kind)


def coefficient_vector(spec, model, z, pi):
    """Length-2n coefficient vector V of the estimator at assignment z.

    The estimate is (1/n) V . theta; coordinates outside the observation set
    are zero. ``pi`` holds the 2n first-order observation probabilities.
    """
    n = model.n
    d = compute_exposures(model, z)
    a, b = model.contrast
    in_a = np.array([lab == a for lab in d], dtype=float)
    in_b = np.array([lab == b for lab in d], dtype=float)
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (2 * n,):
        raise DimensionMismatch(f"pi must have length {2 * n}, got {pi.shape}")

    if spec.kind == "horvitz-thompson":
        c = _weighted_indicator(in_a, pi[:n], spec.kind) - _weighted_indicator(
            in_b, pi[n:], spec.kind
        )
    elif spec.kind == "difference-in-means":
        na, nb = in_a.sum(), in_b.sum()
        if na == 0 or nb == 0:
            raise DegenerateAssignment(
                f"difference-in-means: empty exposure group under z = {tuple(z)}"
            )
        c = in_a * (n / na) - in_b * (n / nb)
    elif spec.kind == "hajek":
        wa = _weighted_indicator(in_a, pi[:n], spec.kind)
        wb = _weighted_indicator(in_b, pi[n:], spec.kind)
        if wa.sum() == 0.0 or wb.sum() == 0.0:
            raise DegenerateAssignment(f"hajek: empty exposure group under z = {tuple(z)}")
        c = wa / wa.mean() - wb / wb.mean()
    else:
        c = _regression_unit_coefficients(spec, model, [z], in_a[None], in_b[None], pi)[0]

    return np.concatenate([in_a * c, in_b * c])


def estimator_value(spec, model, z, pi, theta):
    """Realized value of the point estimator: (1/n) V . theta."""
    theta = np.asarray(theta, dtype=float)
    V = coefficient_vector(spec, model, z, pi)
    return float(V @ theta) / model.n


def compute_estimand(theta, n):
    """Average contrast (1/n) sum of (theta_k - theta_{k+n})."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (2 * n,):
        raise DimensionMismatch(f"theta must have length {2 * n}, got {theta.shape}")
    return float((theta[:n] - theta[n:]).sum()) / n


# -- second-order structure ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SecondOrderTable:
    """Joint observation probabilities P2[k, l] = Pr{k, l both observed} and the
    first-order probabilities pi = diag(P2)."""

    P2: np.ndarray
    pi: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        P2 = np.asarray(self.P2, dtype=float)
        if np.any(P2 < -1e-12) or np.any(P2 > 1.0 + 1e-12):
            raise InvalidDesign("P2 entries must lie in [0, 1]")
        linalg.check_symmetric(P2, name="P2")
        d = np.diag(P2)
        if np.any(P2 > np.minimum.outer(d, d) + 1e-12):
            raise InvalidDesign("P2[k, l] cannot exceed min(P2[k, k], P2[l, l])")


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
    if c < 0:
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


def _chunk_counts(count, workers):
    base, extra = divmod(count, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def _sampled_chunks(design, seed, count, threads):
    """Per-worker assignment chunks with independently derived seeds.

    The split and the per-chunk streams depend only on (seed, threads), so the
    combined result is reproducible for a fixed worker count.
    """
    workers = max(1, int(threads))
    counts = [c for c in _chunk_counts(count, workers) if c > 0]
    seeds = np.random.SeedSequence(seed).spawn(len(counts))
    def draw(args):
        ss, c = args
        return sample_assignments(design, None, c, rng=np.random.default_rng(ss))
    if len(counts) == 1:
        return [draw((seeds[0], counts[0]))]
    with ThreadPoolExecutor(max_workers=len(counts)) as pool:
        return list(pool.map(draw, zip(seeds, counts)))


class _AssignmentBlocks:
    """The assignments a moment averages over, as re-iterable (Z, w) blocks of
    at most BLOCK_ROWS rows: exact mode enumerates the support block by block
    with w the probabilities; Monte Carlo mode draws ``count`` assignments once,
    on construction, with w = 1. Reductions divide by the total weight.
    """

    def __init__(self, design, mode="exact", count=None, seed=None, threads=1,
                 max_support=DEFAULT_SUPPORT_CAP):
        if mode not in ("exact", "mc"):
            raise InvalidDesign(f"mode must be 'exact' or 'mc', got {mode!r}")
        if mode == "mc" and (count is None or seed is None):
            raise InvalidDesign("mc mode needs count and seed")
        self.design, self.max_support = design, max_support
        self.draws = None if mode == "exact" else _sampled_chunks(design, seed, count, threads)
        self._provenance = (
            {"mode": "exact"} if mode == "exact"
            else {"mode": "mc", "count": int(count), "seed": int(seed)}
        )

    @property
    def provenance(self):
        return dict(self._provenance)

    def __iter__(self):
        if self.draws is None:
            yield from _support_blocks(self.design, self.max_support)
            return
        for Z in self.draws:
            for start in range(0, len(Z), BLOCK_ROWS):
                part = Z[start:start + BLOCK_ROWS]
                yield part, np.ones(len(part))


def _weighted_moments(blocks, rows):
    """Weighted mean and second moment, E[x] and E[x x'], of the rows
    x = rows(Z) over the (Z, w) blocks."""
    total = mean = second = 0.0
    for Z, w in blocks:
        X = rows(Z)
        total += w.sum()
        mean = mean + w @ X
        second = second + (X * w[:, None]).T @ X
    return mean / total, second / total


def _second_order_table(model, blocks):
    _, P2 = _weighted_moments(blocks, lambda Z: _observation_matrix(model, Z).astype(float))
    P2 = linalg.symmetrize(P2)
    return SecondOrderTable(P2=P2, pi=np.diag(P2).copy(), provenance=blocks.provenance)


def pair_observation_probabilities(design, model, mode="exact", count=None, seed=None,
                                   threads=1, max_support=DEFAULT_SUPPORT_CAP):
    """SecondOrderTable of joint observation probabilities; the first-order
    probabilities are its diagonal, ``.pi``."""
    blocks = _AssignmentBlocks(design, mode, count, seed, threads, max_support)
    return _second_order_table(model, blocks)


def _batch_coefficients(spec, model, Z, pi):
    """Coefficient vectors for assignment rows Z, one row each."""
    Z = np.asarray(Z, dtype=np.int64)
    count, n = Z.shape
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
        if np.any(na == 0) or np.any(nb == 0):
            bad = int(np.argmax((na == 0) | (nb == 0)))
            raise DegenerateAssignment(
                f"difference-in-means: empty exposure group under z = {tuple(Z[bad])}"
            )
        c = in_a * (n / na) - in_b * (n / nb)
    elif spec.kind == "hajek":
        wa = _weighted_indicator(in_a, pi[:n], spec.kind)
        wb = _weighted_indicator(in_b, pi[n:], spec.kind)
        sa = wa.mean(axis=1, keepdims=True)
        sb = wb.mean(axis=1, keepdims=True)
        if np.any(sa == 0) or np.any(sb == 0):
            bad = int(np.argmax((sa == 0) | (sb == 0)))
            raise DegenerateAssignment(f"hajek: empty exposure group under z = {tuple(Z[bad])}")
        c = wa / sa - wb / sb
    else:
        c = _regression_unit_coefficients(spec, model, Z, in_a, in_b, pi)
    return np.concatenate([in_a * c, in_b * c], axis=1)


def _coefficient_covariance(spec, model, blocks, pi):
    mean, second = _weighted_moments(blocks, lambda Z: _batch_coefficients(spec, model, Z, pi))
    return linalg.symmetrize(second - np.outer(mean, mean))


def coefficient_covariance(design, model, spec, mode="exact", count=None, seed=None,
                           threads=1, max_support=DEFAULT_SUPPORT_CAP):
    """Covariance matrix A of the estimator's coefficient vector.

    Exact mode weights the enumerated support by probability; Monte Carlo mode
    is the empirical covariance with the 1/count normalizer (positive
    semidefinite by construction), with the first-order probabilities
    estimated from the same draws. Returns (A, provenance).
    """
    blocks = _AssignmentBlocks(design, mode, count, seed, threads, max_support)
    pi = _second_order_table(model, blocks).pi
    return _coefficient_covariance(spec, model, blocks, pi), blocks.provenance


def build_variance_problem(design, model, spec, threshold_c=0.0, mode="exact",
                           count=None, seed=None, threads=1,
                           max_support=DEFAULT_SUPPORT_CAP):
    """One-stop construction of (VarianceProblem, SecondOrderTable).

    A and P2 come from the same enumeration or the same draws, so
    inverse-propensity weights and observation probabilities share provenance.
    """
    blocks = _AssignmentBlocks(design, mode, count, seed, threads, max_support)
    table = _second_order_table(model, blocks)
    problem = VarianceProblem(
        n=model.n, A=_coefficient_covariance(spec, model, blocks, table.pi),
        omega=unobservable_pairs(table, threshold_c), provenance=blocks.provenance,
        threshold_c=threshold_c,
    )
    return problem, table
