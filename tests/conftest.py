"""Shared fixtures: the two-voter worked example, a randomized scenario pool,
per-assignment reference implementations of the exposure rules and estimators,
a per-pair reference of the pairwise slack, and a reference admissibility
program on d x d matrices."""

import math

import numpy as np
import pytest

from varbound import (
    Design,
    EstimatorSpec,
    ExposureModel,
    SolverConfig,
    build_variance_problem,
    linalg,
)
from varbound.errors import Infeasible, MaxIterations
from varbound.experiment import REGRESSION_RCOND
from varbound.solver import _consensus_admm, _omega_index, _refuse_pinned_diagonal, _unit

# reference matrices for the two-voter example: one of two units is targeted
# at random, the other is indirectly exposed through their tie
U_VEC = np.array([1.0, -1.0, 1.0, -1.0])
A_ILLU = np.outer(U_VEC, U_VEC)
B_MINNORM = np.array(
    [[2.0, 0, 0, -2], [0, 2, -2, 0], [0, -2, 2, 0], [-2, 0, 0, 2]]
)
B_PAIRWISE = np.array(
    [[3.0, 0, 0, -1], [0, 3, -1, 0], [0, -1, 3, 0], [-1, 0, 0, 3]]
)
OMEGA_ILLU = frozenset({(0, 1), (2, 3), (0, 2), (1, 3)})


def illustration_parts():
    design = Design.explicit([((1, 0), 0.5), ((0, 1), 0.5)])
    model = ExposureModel.spillover([[1], [0]])
    spec = EstimatorSpec(kind="horvitz-thompson")
    return design, model, spec


@pytest.fixture(scope="session")
def illustration():
    design, model, spec = illustration_parts()
    problem, table = build_variance_problem(design, model, spec)
    return {
        "design": design,
        "model": model,
        "spec": spec,
        "problem": problem,
        "table": table,
    }


def random_scenario(rng, estimators=("horvitz-thompson",)):
    """A small enumerable scenario with positive exposure probabilities.

    Mixes bernoulli / complete / cluster / paired designs with identity and
    spillover exposures. Difference-in-means is only drawn together with
    complete randomization, where no assignment empties a group.
    """
    while True:
        n = int(rng.integers(2, 5))
        flavor = rng.choice(["bern-id", "cr-id", "cluster-id", "paired-id",
                             "bern-spill", "cr-spill"])
        if flavor == "paired-id" and n % 2 == 1:
            continue
        if flavor == "bern-id":
            design = Design.bernoulli(n, float(rng.uniform(0.3, 0.7)))
            model = ExposureModel.identity(n)
        elif flavor == "cr-id":
            design = Design.complete(n, int(rng.integers(1, n)))
            model = ExposureModel.identity(n)
        elif flavor == "cluster-id":
            if n < 4:
                continue
            design = Design.cluster([[0, 1], list(range(2, n))], 1)
            model = ExposureModel.identity(n)
        elif flavor == "paired-id":
            design = Design.paired([(2 * i, 2 * i + 1) for i in range(n // 2)])
            model = ExposureModel.identity(n)
        else:
            # ring graph so every unit can be indirectly exposed
            adjacency = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
            if n == 2:
                adjacency = [[1], [0]]
            model = ExposureModel.spillover(adjacency)
            if flavor == "bern-spill":
                design = Design.bernoulli(n, float(rng.uniform(0.3, 0.7)))
            else:
                design = Design.complete(n, int(rng.integers(1, n)))
        kind = str(rng.choice(estimators))
        if kind == "difference-in-means" and not (
            flavor == "cr-id" and 1 <= design.m <= n - 1
        ):
            kind = "horvitz-thompson"
        return design, model, EstimatorSpec(kind=kind)


# -- per-assignment references ------------------------------------------------------
# One assignment at a time, straight from the definitions, sharing no code with
# the library's batched exposure and coefficient path; the tests use them as
# the oracle for that path.


def ref_exposures(model, z):
    """Exposure label of every unit under assignment z."""
    bits = tuple(int(b) for b in z)
    if model.rule == "identity":
        return bits
    if model.rule == "spillover":
        out = []
        for i, nbrs in enumerate(model.adjacency):
            if bits[i] == 1:
                out.append("direct")
            elif any(bits[j] == 1 for j in nbrs):
                out.append("indirect")
            else:
                out.append("isolated")
        return tuple(out)
    return model.table[bits]


def ref_observation_indices(model, z):
    """Indices of theta revealed by z: i for the first contrast label, i + n for
    the second."""
    a, b = model.contrast
    n = model.n
    out = set()
    for i, lab in enumerate(ref_exposures(model, z)):
        if lab == a:
            out.add(i)
        elif lab == b:
            out.add(i + n)
    return frozenset(out)


def ref_coefficient_vector(spec, model, z, pi):
    """Length-2n coefficient vector of the estimator at z; regression kinds take
    the contrast row of the pseudo-inverse of this assignment's design matrix."""
    n = model.n
    d = ref_exposures(model, z)
    a, b = model.contrast
    in_a = np.array([lab == a for lab in d], dtype=float)
    in_b = np.array([lab == b for lab in d], dtype=float)
    pi = np.asarray(pi, dtype=float)
    wa = np.divide(in_a, pi[:n], out=np.zeros(n), where=in_a > 0)
    wb = np.divide(in_b, pi[n:], out=np.zeros(n), where=in_b > 0)
    X = spec.covariates
    if spec.kind == "horvitz-thompson":
        c = wa - wb
    elif spec.kind == "difference-in-means":
        c = in_a * (n / in_a.sum()) - in_b * (n / in_b.sum())
    elif spec.kind == "hajek":
        c = wa / wa.mean() - wb / wb.mean()
    elif spec.kind == "greg":
        Pa = np.linalg.pinv(X * in_a[:, None], rcond=REGRESSION_RCOND)
        Pb = np.linalg.pinv(X * in_b[:, None], rcond=REGRESSION_RCOND)
        c = wa - wb + (1.0 - wa) @ X @ Pa - (1.0 - wb) @ X @ Pb
    else:
        if spec.kind == "ols":
            Q = np.column_stack([np.ones(n), in_a, X])
        else:
            Xdm = X - X.mean(axis=0)
            Q = np.column_stack([np.ones(n), in_a, Xdm, in_a[:, None] * Xdm])
        c = n * np.linalg.pinv(Q, rcond=REGRESSION_RCOND)[1]
    return np.concatenate([in_a * c, in_b * c])


# -- per-pair reference of the pairwise slack ------------------------------------------


def ref_pairwise_slack(A, omega, W):
    """The weighted pairwise slack one unobservable pair at a time, in sorted
    pair order: cancel A_kl and book |A_kl| sqrt(w_l / w_k) and
    |A_kl| sqrt(w_k / w_l) on the two diagonals; a pinned diagonal (k, k)
    gets -A_kk. Refuses as ``generalized_as_slack`` does, with the first
    offender in that order."""
    w = np.diag(W)
    ks, ls, _, _ = _omega_index(omega, len(A))
    pinned = set(ks[ks == ls].tolist())
    for k in sorted(pinned):
        if A[k, k] > 0.0:
            raise Infeasible(
                f"diagonal index {k} is unobservable but A[{k},{k}] = {A[k, k]:.3e} > 0; "
                "no positive semidefinite slack can cancel a positive diagonal "
                "(drop the coordinate or lower the threshold c)")
    S = np.zeros_like(A)
    for k, l in zip(ks.tolist(), ls.tolist()):
        if k == l:
            continue
        for i in (k, l):
            if i in pinned and A[k, l] != 0.0:
                _refuse_pinned_diagonal(A, i, (k, l))
        S[k, l] = S[l, k] = -A[k, l]
        S[k, k] += abs(A[k, l]) * math.sqrt(w[l] / w[k])
        S[l, l] += abs(A[k, l]) * math.sqrt(w[k] / w[l])
    for k in pinned:
        S[k, k] = -A[k, k]
    return S


# -- reference admissibility program ---------------------------------------------------


def ref_admissibility(S, omega, config=None):
    """The admissibility program on d x d matrices: maximize trace(S - T) over
    0 <= T <= S with T = S on omega, by consensus ADMM over three blocks (the
    cone T >= 0, the cone S - T >= 0 and the linear objective) on S over its
    unit (the library's ``_unit``, the power of two nearest its mean
    variance), with eigenvalue dust of S projected away first. The
    library solves the same program on the range of S; this is its oracle.
    Returns (alpha, witness, admissible)."""
    config = config or SolverConfig()
    S = linalg.check_symmetric(S)
    tol = config.feasibility_tol * float(np.linalg.norm(S))
    assert linalg.min_eigenvalue(S) >= -tol
    trace_S = float(np.trace(S))
    unit = _unit(S)
    S_hat = (linalg._project_psd(S) if linalg.min_eigenvalue(S) < 0.0 else S) / unit
    _, _, rows, cols = _omega_index(omega, len(S))
    values = S_hat[rows, cols]
    eye = np.eye(len(S))
    blocks = [
        lambda V, t: linalg._project_psd(V),
        lambda V, t: S_hat - linalg._project_psd(S_hat - V),
        lambda V, t: V - t * eye,
    ]

    def onto(Z):
        Z[rows, cols] = values

    Z, loop = _consensus_admm(blocks, S_hat, onto, config)
    if not loop["converged"]:
        raise MaxIterations("reference admissibility program did not converge")
    # the residual stop alone leaves the witness in the sandwich, within the
    # solve's own tolerance on the scaled problem
    gap = config.feasibility_tol * max(1.0, float(np.linalg.norm(S_hat)))
    assert linalg.min_eigenvalue(Z) >= -gap
    assert linalg.min_eigenvalue(S_hat - Z) >= -gap
    witness = unit * Z
    witness[rows, cols] = S[rows, cols]
    alpha = trace_S - float(np.trace(witness))
    return alpha, witness, bool(alpha <= 1e-5 * trace_S)
