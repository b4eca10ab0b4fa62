"""Variance-bound construction and testing.

The central program picks a slack matrix S that is positive semidefinite,
cancels the variance matrix A on every unobservable pair, and minimizes a
convex objective; the bound is B = A + S. Each objective term owns its math:
its value, whether it is strictly monotone (without such a term the program
may return an inadmissible bound) and its proximal block (Parikh & Boyd 2014,
Proximal Algorithms). Frobenius² terms have no block of their own: they fold
into another term's block (the cone's when there is none), so Frobenius²
alone runs one block and "operator norm + Frobenius²" two.

The bound program and the admissibility test share one consensus ADMM loop
over closed-form proximal maps and cone projections, so no external conic
solver is needed. Its consensus step projects onto the affine slice of the
unobservable pairs. It starts at rho = 1 and resets rho on a fixed grid from
the normalized residuals of its last accepted point (the OSQP rule, which does
not see the units of the data), and speeds up its fixed-point map by
safeguarded type-II Anderson acceleration. It stops on its residuals alone;
at its one exit the bound program repairs its slack (``_repair``) and the
admissibility test clips its iterate into its box. That test runs on the
range of S:
every feasible witness is T = R X R^T with S = R R^T and 0 <= X <= I_r,
so it runs one block, the box projection of V - t L (the prox of <L, X>
plus the box indicator, ibid. 2.2), one r x r eigendecomposition per step.
It projects onto its pair constraints by warm-started conjugate gradients
whose cost does not grow with the number of pairs. ``SolverReport.iterations``
counts map evaluations, the eigendecomposition work of a solve. With
``VARBOUND_LOG=debug`` each solve logs one line on the ``varbound.solver``
logger: map evaluations, accepted accelerated steps, safeguard restarts, rho
changes (the reports carry them and the final rho too), final residuals and
the caller's fields (the bound program's repair, the test's slack rank).
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import asdict, dataclass, fields
from functools import partial

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    Infeasible,
    InvalidN,
    MaxIterations,
    NonDiagonalW,
    NonPositiveWeight,
    NotASlackMatrix,
    UnsupportedObjective,
    VarboundError,
)

log = logging.getLogger("varbound.solver")

# -- objectives -----------------------------------------------------------------


@dataclass(frozen=True)
class SchattenTerm:
    """Schatten p-norm of the bound B = A + S; strictly monotone for p < inf."""

    p: float

    def __post_init__(self):
        if not self.p >= 1:  # nor NaN
            raise UnsupportedObjective(f"Schatten term needs p >= 1, got {self.p}")

    def value(self, S, A):
        return linalg.schatten_norm(A + S, self.p)

    def strictly_monotone(self):
        return not math.isinf(self.p)

    def prox(self, weight, A):
        """The block of weight * ||. + A||_p: its prox at step t."""
        p = self.p
        return lambda V, t: linalg._prox_schatten(V + A, t * weight, p) - A


@dataclass(frozen=True, eq=False)
class TargetedTerm:
    """Trace inner product <S, W> against a symmetric targeting matrix W.

    Strictly monotone exactly when W is positive definite.
    """

    W: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "W", linalg.check_symmetric(self.W, name="W"))

    def value(self, S, A):
        return float(np.sum(S * self.W))

    def strictly_monotone(self):
        return linalg._eigvalsh(self.W)[0] > linalg.ZERO_BAND * float(np.linalg.norm(self.W))

    def prox(self, weight, A):
        """The block of weight * <., W>: its prox at step t, V - t weight W."""
        W = weight * self.W
        return lambda V, t: V - t * W


@dataclass(frozen=True)
class FrobeniusSquaredTerm:
    """Squared Frobenius norm of the bound B = A + S; strictly monotone. It has
    no block of its own: ``_objective_blocks`` folds it into another one."""

    def value(self, S, A):
        return float(np.sum(np.square(A + S)))

    def strictly_monotone(self):
        return True


Term = SchattenTerm | TargetedTerm | FrobeniusSquaredTerm


@dataclass(frozen=True)
class Objective:
    """Weighted sum of convex terms; every weight must be positive and finite,
    and at least one term must be strictly monotone, otherwise the program may
    return an inadmissible bound."""

    terms: tuple[tuple[float, Term], ...]

    def __post_init__(self):
        if not self.terms:
            raise UnsupportedObjective("objective needs at least one term")
        for weight, term in self.terms:
            if not 0 < weight < math.inf:
                raise UnsupportedObjective(
                    f"term weights must be positive and finite, got {weight}")
            if not isinstance(term, Term):
                raise UnsupportedObjective(f"unknown objective term {term!r}")
        object.__setattr__(self, "terms", tuple(self.terms))

    @staticmethod
    def schatten(p, weight=1.0):
        return Objective(terms=((weight, SchattenTerm(p=float(p))),))

    @staticmethod
    def frobenius_squared(weight=1.0):
        return Objective(terms=((weight, FrobeniusSquaredTerm()),))

    @staticmethod
    def targeted(W, weight=1.0):
        return Objective(terms=((weight, TargetedTerm(W=np.asarray(W, dtype=float))),))

    @staticmethod
    def composite(weighted_terms):
        return Objective(terms=tuple(weighted_terms))

    def value(self, S, A):
        return sum(w * t.value(S, A) for w, t in self.terms)

    def is_strictly_monotone(self):
        return any(t.strictly_monotone() for _, t in self.terms)


# -- solver configuration and results ---------------------------------------------


# the admissibility test's rank cut, relative to ||S||_F, and the default
# tolerance of validate_bound
FEASIBILITY_TOL = 1e-7


@dataclass(frozen=True)
class SolverConfig:
    """The loop's iteration cap and relative stopping tolerance; the absolute
    one is ``0.01 * eps_rel`` (1e-9 at the default, bitwise)."""

    max_iterations: int = 50_000
    eps_rel: float = 1e-7

    def __post_init__(self):
        iterations = self.max_iterations
        if isinstance(iterations, bool) or not isinstance(iterations, (int, float, np.integer)) \
                or not float(iterations).is_integer():
            raise ValueError(f"solver config field max_iterations must be an integer, "
                             f"got {iterations!r}")
        object.__setattr__(self, "max_iterations", int(iterations))
        for f in fields(self):
            if not 0 < getattr(self, f.name) < math.inf:
                raise ValueError(f"solver config field {f.name} must be positive and finite")


@dataclass(frozen=True)
class SolverReport:
    iterations: int
    primal_residual: float
    dual_residual: float
    objective_value: float
    min_eig_slack: float
    max_omega_violation: float
    converged: bool
    rho_changes: int
    final_rho: float
    repair_norm: float = 0.0  # ||change||_F of the bound program's repair

    def as_dict(self):
        return asdict(self)


@dataclass(frozen=True, eq=False)
class BoundResult:
    S_star: np.ndarray
    B_star: np.ndarray
    report: SolverReport


@dataclass(frozen=True, eq=False)
class AdmissibilityVerdict:
    alpha: float
    witness: np.ndarray
    admissible: bool
    slack_rank: int
    report: SolverReport


# -- consensus ADMM core -----------------------------------------------------------


def _omega_index(omega, dim):
    """The unordered pairs k <= l of omega, each index checked against the
    matrix dimension, sorted, as index arrays (ks, ls), and the row and
    column indices (rows, cols) of their entries in both triangles."""
    pairs = sorted({(k, l) if k <= l else (l, k) for k, l in omega})
    for k, l in pairs:
        if k < 0 or l >= dim:
            raise DimensionMismatch(
                f"unobservable pair ({k}, {l}) is out of range for a {dim}x{dim} matrix")
    ks = np.array([k for k, _ in pairs], dtype=np.intp)
    ls = np.array([l for _, l in pairs], dtype=np.intp)
    off = ks != ls
    return ks, ls, np.concatenate([ks, ls[off]]), np.concatenate([ls, ks[off]])


# residual balancing (Stellato et al. 2020, OSQP) runs on a fixed iteration
# grid, so every run stays bit-reproducible; rho starts at 1, stays within
# [1 / _RHO_RANGE, _RHO_RANGE], and moves only when the balanced rho differs
# from it by more than _RHO_STEP either way
_BALANCE_EVERY = 50
_RHO_RANGE = 100.0
_RHO_STEP = 2.0
# Anderson acceleration: differences kept, and the Tikhonov term of the
# least-squares solve relative to the trace of its Gram matrix
_AA_MEMORY = 10
_AA_REG = 1e-10


def _balanced_rho(rho, r_norm, s_norm, Z_norm, U_norm):
    """The OSQP penalty rho * sqrt((r / ||Z||) / (s / (rho ||U||))) that
    equalizes the primal and dual residuals, each relative to its own scale,
    clipped to [1 / ``_RHO_RANGE``, ``_RHO_RANGE``]; None when it is within a
    factor ``_RHO_STEP`` of rho or any of the four norms is 0.
    Every ratio is unit-free, so the rule does not see the units of the
    data."""
    if not (r_norm > 0.0 and s_norm > 0.0 and Z_norm > 0.0 and U_norm > 0.0):
        return None
    target = rho * math.sqrt((r_norm / Z_norm) / (s_norm / (rho * U_norm)))
    target = min(max(target, 1.0 / _RHO_RANGE), _RHO_RANGE)
    if 1.0 / _RHO_STEP <= target / rho <= _RHO_STEP:
        return None
    return target


class _Anderson:
    """Type-II Anderson acceleration of a fixed-point map x -> f(x).

    Keeps the last ``_AA_MEMORY`` differences of the map values f and of the
    residuals g = f(x) - x between consecutive accepted points, and the Gram
    matrix of the residual differences, updated one row per step. The
    extrapolated point is f - dF^T gamma, where gamma minimizes
    ||g - dG^T gamma||^2 (plus a small Tikhonov term).
    """

    def __init__(self, size):
        self.dF = np.empty((_AA_MEMORY, size))
        self.dG = np.empty((_AA_MEMORY, size))
        self.gram = np.empty((_AA_MEMORY, _AA_MEMORY))
        self.clear()

    def clear(self):
        self.count = self.slot = 0
        self.f = self.g = None

    def push(self, f, g):
        """Record an accepted point's map value and residual (flat arrays the
        caller does not modify afterwards)."""
        if self.f is not None:
            j = self.slot
            np.subtract(f, self.f, out=self.dF[j])
            np.subtract(g, self.g, out=self.dG[j])
            self.count = min(self.count + 1, _AA_MEMORY)
            row = self.dG[: self.count] @ self.dG[j]
            self.gram[j, : self.count] = row
            self.gram[: self.count, j] = row
            self.slot = (j + 1) % _AA_MEMORY
        self.f, self.g = f, g

    def extrapolate(self):
        """The accelerated point, or None before two differences are stored
        (a one-difference secant step is erratic) or when the regularized
        system is singular (differences all zero, or too small to square)."""
        m = self.count
        if m < 2:
            return None
        G = self.gram[:m, :m]
        reg = _AA_REG * float(np.trace(G))
        try:
            gamma = np.linalg.solve(G + reg * np.eye(m), self.dG[:m] @ self.g)
        except np.linalg.LinAlgError:
            return None
        return self.f - gamma @ self.dF[:m]


def _admm_map(x, blocks, rho, onto):
    """One consensus ADMM step on the state x = (Z, U_1, ..., U_N), stacked
    along the first axis; returns the new state and the primal and dual
    residual norms of the step. The block outputs X_i go into the dual slots
    of the new state, which then turn into X_i - Z and U_i."""
    Z, U = x[0], x[1:]
    fx = np.empty_like(x)
    Z_new, Xs = fx[0], fx[1:]
    for X, block, u in zip(Xs, blocks, U):
        X[...] = block(Z - u, 1.0 / rho)
    np.mean(Xs, axis=0, out=Z_new)
    Z_new += np.mean(U, axis=0)
    onto(Z_new)
    Xs -= Z_new
    primal = float(np.linalg.norm(Xs))
    Xs += U
    dual = rho * math.sqrt(len(blocks)) * float(np.linalg.norm(Z_new - Z))
    return fx, primal, dual


def _consensus_admm(blocks, Z0, onto, config, polish=None, context=""):
    """Consensus ADMM over proximable blocks on an affine slice, with
    safeguarded Anderson acceleration.

    Each block maps (input matrix, step) to its prox / projection and must
    return an exactly symmetric matrix for a symmetric input, so every iterate
    stays exactly symmetric without a symmetrize. The consensus step averages
    the blocks and ``onto`` projects the average, in place and exactly
    symmetrically, onto the slice; that is the exact minimization over the
    slice, so every map value lies on it.

    The step is a fixed-point map T on x = (Z, U_1..U_N). After each accepted
    point the next point to evaluate is the type-II Anderson extrapolation of
    the last ``_AA_MEMORY`` steps (see ``_Anderson``). That candidate is kept
    only if its fixed-point residual ||T(x) - x|| is no larger than the last
    accepted point's; otherwise the memory is cleared and the loop takes the
    plain step T(x) from the last accepted point. The memory is also cleared
    whenever rho changes, because the map changes with it. Every
    ``_BALANCE_EVERY`` evaluations rho is rebalanced on the normalized
    residuals of the last accepted map value (``_balanced_rho``), not on the
    current evaluation, which may be a rejected candidate; when rho moves,
    the loop restarts from that map value with the scaled duals rescaled to
    keep rho * U invariant.

    Every map evaluation, rejected candidates included, counts as one
    iteration, and each one meets the same test: the loop stops when the
    primal residual <= eps_abs * dim + eps_rel * ||Z||_F, eps_abs = 0.01 *
    eps_rel, and the dual residual meets the analogous dual scale. Converged
    or not, the one exit returns the last map value, never an extrapolation, through ``polish``
    when given, which puts it into the program's feasible set: Z -> (Z, report
    fields), whose fields join the loop's and the debug line. All rules depend
    only on the iterates, so runs are bit-reproducible. ``context`` is appended
    to the debug line, so a caller can add its own fields and each solve still
    logs exactly one line.

    Returns (Z, loop), where ``loop`` holds the SolverReport fields of the
    loop: iterations, residuals, convergence and the rho path.
    """
    N = len(blocks)
    dim = Z0.shape[0]
    rho = 1.0
    eps_rel = config.eps_rel
    eps_abs = 0.01 * eps_rel
    x = np.zeros((N + 1,) + Z0.shape)
    x[0] = Z0
    aa = _Anderson(x.size)
    candidate = False  # x is an Anderson point awaiting the safeguard
    # fixed-point residual norm, map value and step residuals of the last
    # accepted point
    g_ref = f_ref = r_ref = s_ref = None
    accepted = restarts = rho_changes = 0
    converged = False
    for it in range(1, config.max_iterations + 1):  # max_iterations >= 1
        fx, r_norm, s_norm = _admm_map(x, blocks, rho, onto)
        eps_pri = eps_abs * dim + eps_rel * float(np.linalg.norm(fx[0]))
        eps_dual = eps_abs * dim + eps_rel * rho * float(np.linalg.norm(fx[1:]))
        if r_norm <= eps_pri and s_norm <= eps_dual:
            converged = True
            break
        g = (fx - x).ravel()
        g_norm = float(np.linalg.norm(g))
        if candidate and not g_norm <= g_ref:
            restarts += 1
            aa.clear()
            x = f_ref
        else:
            accepted += candidate
            g_ref, f_ref, r_ref, s_ref = g_norm, fx, r_norm, s_norm
            aa.push(fx.ravel(), g)
            step = aa.extrapolate()
            x = fx if step is None else step.reshape(fx.shape)
        candidate = x is not f_ref
        if it % _BALANCE_EVERY == 0:
            target = _balanced_rho(rho, r_ref, s_ref,
                                   float(np.linalg.norm(f_ref[0])),
                                   float(np.linalg.norm(f_ref[1:])))
            if target is not None:
                x = f_ref.copy()
                x[1:] *= rho / target
                rho = target
                aa.clear()
                candidate = False
                rho_changes += 1
    Z, fields = polish(fx[0]) if polish else (fx[0], {})
    log.debug(
        "consensus ADMM %s after %d map evaluations: %d accelerated steps accepted, "
        "%d safeguard restarts, %d rho changes (final rho %.3g), primal %.3e, dual %.3e%s%s",
        "converged" if converged else "stopped", it, accepted, restarts, rho_changes, rho,
        r_norm, s_norm, "".join(f", {k} {v:.3e}" for k, v in fields.items()), context,
    )
    return Z, dict(iterations=it, primal_residual=r_norm, dual_residual=s_norm,
                   converged=converged, rho_changes=rho_changes, final_rho=rho, **fields)


def _finish(loop, program, make_result, **certificate):
    """The program's result, ``make_result(report)``, with the SolverReport of
    the loop fields and the program's certificate; raises MaxIterations
    carrying that result when the loop did not converge."""
    result = make_result(SolverReport(**loop, **certificate))
    if not loop["converged"]:
        raise MaxIterations(
            f"{program} hit {loop['iterations']} iterations (primal "
            f"{loop['primal_residual']:.2e}, dual {loop['dual_residual']:.2e})",
            result=result,
        )
    return result


def _objective_blocks(objective, A, unit=1.0):
    """The blocks of the bound program on A, the caller's matrix over
    ``unit``: the positive semidefinite projection, then one prox per term,
    each of degree d weighted w unit^(d - D), D the top degree, except that
    all Frobenius² terms, w ||X + A||^2 in total, fold into the first other
    term's block f (the projection's when there is none; folding a
    composite's into the projection costs more map evaluations):

        prox_{t (f + w ||. + A||^2)}(V) = prox_{(t / c) f}((V - 2 t w A) / c),

    with c = 1 + 2 t w. So Frobenius² alone runs one block,
    Pi_PSD((V - 2 t w A) / c)."""
    frobenius = FrobeniusSquaredTerm()
    w = sum(weight for weight, term in objective.terms if term == frobenius)
    blocks = [lambda V, t: linalg._project_psd(V)] + [
        term.prox(weight / unit if w else weight, A)
        for weight, term in objective.terms if term != frobenius]
    if w:
        host = 1 if len(blocks) > 1 else 0
        inner = blocks[host]

        def folded(V, t):
            c = 1.0 + 2.0 * t * w
            return inner((V - 2.0 * t * w * A) / c, t / c)

        blocks[host] = folded
    return blocks


def aronow_samii_slack(A, omega):
    """Pairwise Young's-inequality slack: cancels A on every unobservable pair
    and books the magnitudes on the two diagonals. Positive semidefinite by
    construction (a sum of 2x2 PSD part matrices); the generalized slack at
    W = I. ``_repair`` adds it for the negative part of an OPT-VB slack."""
    return generalized_as_slack(A, omega, np.eye(len(A)))


def _power_of_two(x):
    """The power of two nearest |x| on a log scale: dividing by it is exact,
    and that of 2^k x is exactly 2^k times that of x."""
    return math.ldexp(1.0, math.frexp(math.sqrt(2.0) * x)[1] - 1)


def _unit(M):
    """The power of two nearest the mean variance tr(M) / dim."""
    return _power_of_two(np.trace(M) / len(M))


def _on_unit(objective):
    """The objective with every weight divided by the power of two nearest
    sum(weight * s), s = ``_unit(W)`` for a targeted term and 1 otherwise:
    the same argmin, and bitwise the same blocks for every weight and W
    scaled by 2^k (OSQP's cost scaling, Stellato et al. 2020, 5.1)."""
    g = sum(weight * (_unit(term.W) if isinstance(term, TargetedTerm) else 1.0)
            for weight, term in objective.terms)
    scale = _power_of_two(g)
    return Objective(terms=tuple((weight / scale, term) for weight, term in objective.terms))


def _repair(Z, ks, ls, rows, cols):
    """The ADMM slack Z made PSD up to rounding with its omega entries kept
    bitwise. Zero the free entries of each pinned row k ((k, k) in omega),
    giving S; if S has negative eigenvalues, add their part N = Q_- |L_-| Q_-^T
    (S + N is the nearest PSD matrix, Higham 2002) plus the pairwise slack of N
    on omega's off-diagonal pairs (N's pinned rows are zero only up to rounding)
    and write the omega entries back. Returns it with min_eig_slack (from the
    same eigh when nothing was negative) and repair_norm = ||result - Z||_F."""
    S = Z.copy()
    pinned = ks[ks == ls]
    S[pinned] = S[:, pinned] = 0.0
    S[rows, cols] = Z[rows, cols]
    w, Q = linalg._eigh(S)
    if w[0] < 0.0:
        N = -linalg._from_eig(np.minimum(w, 0.0), Q)
        S += N + _pairwise_slack(N, ks[ks != ls], ls[ks != ls], np.ones(len(N)))
        S[rows, cols] = Z[rows, cols]
        w = linalg._eigvalsh(S)
    return S, dict(min_eig_slack=float(w[0]), repair_norm=float(np.linalg.norm(S - Z)))


def solve_optvb(problem, objective, config=None):
    """Minimize the objective over the set of valid slack matrices.

    Consensus ADMM over the blocks of ``_objective_blocks`` (the positive
    semidefinite cone and the objective terms, with Frobenius² folded into
    one of them); the unobservable entries are fixed to -A in the consensus
    step. The loop runs on A / c, c = ``_unit(A)`` a power of two, with the
    weights on a unit (``_on_unit``), so rho, its clip and both stopping
    thresholds see neither the units of A nor those of the objective (the
    reported residuals are those of A / c; the objective value is that of the
    caller's weights); it stops on its residuals alone, and ``_repair`` makes c
    times its slack PSD up to rounding and keeps the omega entries bitwise -A.
    """
    config = config or SolverConfig()
    if not objective.is_strictly_monotone():
        has_opnorm = SchattenTerm(math.inf) in [t for _, t in objective.terms]
        hint = (
            " (the operator norm alone can return a dominated bound; compose it "
            "with a small frobenius-squared term)" if has_opnorm else ""
        )
        raise UnsupportedObjective("objective has no strictly monotone term" + hint)
    A = problem.A
    unit = _unit(A)
    ks, ls, rows, cols = _omega_index(problem.omega, len(A))
    S0 = _pairwise_slack(A, ks, ls, np.ones(len(A))) / unit  # refuses an infeasible omega
    blocks = _objective_blocks(_on_unit(objective), A / unit, unit)
    values = -A[rows, cols] / unit

    def onto(Z):
        Z[rows, cols] = values

    S_star, loop = _consensus_admm(blocks, S0, onto, config,
                                   polish=lambda Z: _repair(unit * Z, ks, ls, rows, cols))
    omega_violation = float(np.abs(S_star[rows, cols] + A[rows, cols]).max()) if rows.size else 0.0
    return _finish(loop, "bound solver", partial(BoundResult, S_star, A + S_star),
                   objective_value=objective.value(S_star, A),
                   max_omega_violation=omega_violation)


def _range_slice(R, ks, ls):
    """In-place projection onto {X : (R X R^T)_kl = (R R^T)_kl on every pair},
    the omega constraints of T = R X R^T; X = I meets them.

    The constraint map a(X) = (R X R^T)_kl has the adjoint a*(y) = R^T Y R,
    with Y the symmetric d x d matrix that spreads y_kl over (k, l) and
    (l, k). The projection of X is X - C, where C = a*(y) is the
    least-squares fit of X - I over the range of a*; C is found by CGLS
    (conjugate gradients on the least-squares problem, which stays stable
    where a a* is singular, as it is whenever S is low-rank with many pairs),
    with y scaled by the diagonal of a a*, (S_kk S_ll + S_kl^2) / 2 with
    S = R R^T. Each step costs two d x d x r products and two d x r x r ones
    whatever the number of pairs, and no |omega| x |omega| matrix is formed.
    The loop stops once the
    slice residual a(X - C) - a(I) drops to ``linalg.ZERO_BAND`` times
    max(1, its start), or after min(|omega|, r(r+1)/2) steps, the
    exact-arithmetic bound. Consecutive ADMM inputs are close, so each call
    starts from the previous call's C.
    """
    d, r = R.shape
    S = R @ R.T
    b = S[ks, ls]
    diag = 0.5 * (S[ks, ks] * S[ls, ls] + b * b)
    scale = np.sqrt(np.divide(1.0, diag, out=np.zeros_like(diag), where=diag > 0.0))
    cap = min(ks.size, r * (r + 1) // 2)
    eye = np.eye(r)
    Y = np.zeros((d, d))
    C = np.zeros((r, r))

    def adjoint(v):
        Y[ks, ls] = 0.5 * v
        M = R.T @ (Y + Y.T) @ R
        return 0.5 * (M + M.T)

    def constraints(X):
        return (R @ X @ R.T)[ks, ls]

    def onto(X):
        W = X - eye
        res = constraints(W - C)
        stop = linalg.ZERO_BAND * max(1.0, float(np.linalg.norm(constraints(W))))
        p, gamma_old = np.zeros(ks.size), math.inf
        for _ in range(cap):
            if not float(np.linalg.norm(res)) > stop:
                break
            s = scale * res
            gamma = s @ s
            p = s + (gamma / gamma_old) * p
            q = adjoint(scale * p)
            qq = float(np.sum(q * q))
            if not qq > 0.0:
                break
            C[...] += (gamma / qq) * q
            res = constraints(W - C)
            gamma_old = gamma
        X -= C

    return onto


def test_admissibility(S, omega, config=None):
    """Search for a valid slack matrix dominated by S.

    Maximizes trace(S - T) over matrices T that agree with S on the
    unobservable pairs and satisfy 0 <= T <= S in the semidefinite order. A
    positive optimum certifies that the bound carrying S is dominated
    (inadmissible); the maximizer is returned as the witness. The verdict is
    admissible when the optimum alpha is at most 1e-5 * trace S. Both that
    rule and the rank cut below are relative to S, so no verdict depends on
    the units of S.

    T <= S forces the null space of S into that of T, so every feasible T is
    R X R^T with S = R R^T (R = V_r Lambda_r^(1/2) over the r eigenvalues of S
    above tol = ``FEASIBILITY_TOL`` * ||S||_F) and 0 <= X <= I_r. The
    program is solved in X: minimize <L, X>, L = Lambda_r / lambda_max, over
    that box, subject to the omega entries of R X R^T, by consensus ADMM with
    one block, the prox of <L, .> plus the box indicator, which is the r x r
    box projection of V - t L, and the projection onto the omega slice
    (``_range_slice``) in the consensus step. It is unitless, so its
    iterations do not depend on the units of S. Eigenvalues of S within tol
    are dropped, which moves alpha by at most their sum. An S with r = 0 is
    answered in closed form: T = S, alpha = 0.

    The loop stops on its residuals alone, and its one exit clips X into the
    box (one r x r eigendecomposition), so 0 <= R X R^T <= R R^T holds by
    construction, converged or not. Writing back the caller's omega entries
    moves the witness by at most about lambda_max(S) times the reported
    primal residual (within tol at convergence on the tested pool). A slice
    pinning the box to its boundary may hit the iteration cap; MaxIterations
    then carries the verdict of the last iterate, with that residual.
    """
    config = config or SolverConfig()
    S = linalg.check_symmetric(S, name="S")
    ks, ls, rows, cols = _omega_index(omega, len(S))
    tol = FEASIBILITY_TOL * float(np.linalg.norm(S))
    w, Q = linalg._eigh(S)
    if w.size and w[0] < -tol:
        raise NotASlackMatrix(
            f"input has eigenvalue {w[0]:.3e}; "
            "slack matrices must be positive semidefinite"
        )
    trace_S = float(np.trace(S))
    decision_tol = 1e-5 * trace_S

    keep = w > tol
    lam = w[keep]
    rank = lam.size
    R = Q[:, keep] * np.sqrt(lam)
    context = f"; slack_rank {rank}, omega_size {ks.size}"

    if rank:
        lam_hat = lam / lam[-1]
        L = np.diag(lam_hat)  # <L, X> = trace(T) / lambda_max
        blocks = [lambda V, t: linalg._project_unit_box(V - t * L)]
        onto = _range_slice(Q[:, keep] * np.sqrt(lam_hat), ks, ls)
        X, loop = _consensus_admm(blocks, np.eye(rank), onto, config, context=context,
                                  polish=lambda X: (linalg._project_unit_box(X), {}))
        witness = linalg.symmetrize(R @ X @ R.T)
    else:
        # every feasible T is within tol of 0, and T = S is feasible
        log.debug("admissibility in closed form%s", context)
        loop = dict(iterations=0, primal_residual=0.0, dual_residual=0.0, converged=True,
                    rho_changes=0, final_rho=1.0)
        witness = S.copy()
    # the slice fixes the omega entries of R X R^T, which differ from the
    # caller's by at most the dropped eigenvalues
    witness[rows, cols] = S[rows, cols]
    alpha = trace_S - float(np.trace(witness))
    make_verdict = partial(AdmissibilityVerdict, alpha, witness, bool(alpha <= decision_tol), rank)
    return _finish(loop, "admissibility test", make_verdict, objective_value=alpha,
                   min_eig_slack=linalg.min_eigenvalue(witness), max_omega_violation=0.0)


# -- closed-form bounds and targeting matrices ---------------------------------------


def neyman_bound(n):
    """Classic bound for the difference in means under balanced complete
    randomization: (2n / (n-1)) blockdiag(H, H) with H = I - 11'/n."""
    if n < 2:
        raise InvalidN(f"need n >= 2, got {n}")
    H = np.eye(n) - np.ones((n, n)) / n
    B = np.zeros((2 * n, 2 * n))
    scale = 2.0 * n / (n - 1.0)
    B[:n, :n] = scale * H
    B[n:, n:] = scale * H
    return B


def generalized_as_slack(A, omega, W):
    """Weighted pairwise slack: block entries |A_kl| sqrt(w_ll / w_kk).

    W must be diagonal with strictly positive entries. For designs where the
    unobservable pairs are exactly the within-unit pairs, this is the exact
    minimizer of the targeted objective <S, W>.

    An unobservable diagonal index k pins S_kk = -A_kk, so A_kk > 0 is
    refused as infeasible. When an unobservable pair (k, l) with A_kl != 0
    also crosses it, the input is refused too: for A_kk = 0 no positive
    semidefinite slack exists (S_kk = 0 forces row k to 0, but
    S_kl = -A_kl), and for A_kk < 0, which no covariance matrix has, the
    closed form does not apply.
    """
    A = linalg.check_symmetric(A, name="A")
    W = np.asarray(W, dtype=float)
    if W.shape != A.shape:
        raise DimensionMismatch(f"W shape {W.shape} != A shape {A.shape}")
    if np.any(W != np.diag(np.diag(W))):
        raise NonDiagonalW("generalized pairwise slack needs a diagonal W")
    w = np.diag(W)
    if np.any(w <= 0):
        raise NonPositiveWeight(f"diagonal weights must be positive, got min {w.min()!r}")
    ks, ls, _, _ = _omega_index(omega, len(A))
    return _pairwise_slack(A, ks, ls, w)


def _pairwise_slack(A, ks, ls, w):
    """``generalized_as_slack`` of an exactly symmetric A on the sorted pair
    arrays (ks, ls) of ``_omega_index`` and the diagonal weights w."""
    pinned = np.isin(np.arange(len(A)), ks[ks == ls])
    positive = pinned & (np.diag(A) > 0.0)
    if positive.any():
        k = positive.argmax()
        raise Infeasible(
            f"diagonal index {k} is unobservable but A[{k},{k}] = {A[k, k]:.3e} > 0; "
            "no positive semidefinite slack can cancel a positive diagonal "
            "(drop the coordinate or lower the threshold c)")
    k, l = ks[ks != ls], ls[ks != ls]
    a = A[k, l]
    crossed = (a != 0.0) & (pinned[k] | pinned[l])
    if crossed.any():
        j = crossed.argmax()
        _refuse_pinned_diagonal(A, k[j] if pinned[k[j]] else l[j], (int(k[j]), int(l[j])))
    S = np.zeros_like(A)
    S[k, l] = S[l, k] = -a
    at = np.column_stack([k, l]).ravel()  # k0, l0, k1, l1, ...: each diagonal sums in pair order
    np.add.at(S, (at, at), (np.abs(a) * np.sqrt([w[l] / w[k], w[k] / w[l]])).T.ravel())
    S[pinned, pinned] = -A[pinned, pinned]
    return S


def _refuse_pinned_diagonal(A, k, pair):
    """Raise for an unobservable diagonal index k crossed by an unobservable
    pair with nonzero A."""
    where = (f"diagonal index {k} is unobservable and so is pair {pair} with "
             f"A = {A[pair]:.3e}")
    if A[k, k] >= 0.0:
        raise Infeasible(
            f"{where}; S[{k},{k}] = -A[{k},{k}] <= 0 forces row {k} of a positive "
            "semidefinite slack to 0, so no valid slack exists")
    raise VarboundError(
        f"{where}, but A[{k},{k}] = {A[k, k]:.3e} < 0, which no covariance matrix "
        "has; the pairwise closed form does not apply")


def targeting_from_vectors(vectors, gamma=0.0, dim=None):
    """Targeting matrix from anticipated outcome vectors: sum of weighted outer
    products plus gamma * I. Warns when the result is not positive definite."""
    vectors = list(vectors)
    if gamma < 0:
        raise NonPositiveWeight(f"gamma must be nonnegative, got {gamma}")
    if not vectors and dim is None:
        raise DimensionMismatch("need at least one vector or an explicit dimension")
    if dim is None:
        dim = len(np.asarray(vectors[0][1], dtype=float))
    W = gamma * np.eye(dim)
    for q, vec in vectors:
        if q < 0:
            raise NonPositiveWeight(f"vector weights must be nonnegative, got {q}")
        v = np.asarray(vec, dtype=float)
        if v.shape != (dim,):
            raise DimensionMismatch(f"vector shape {v.shape} != ({dim},)")
        W += q * np.outer(v, v)
    if not TargetedTerm(W).strictly_monotone():
        warnings.warn(
            "targeting matrix is not positive definite; the targeted program "
            "alone may return a dominated bound",
            RuntimeWarning,
            stacklevel=2,
        )
    return W


def targeting_from_covariates(X, sigma):
    """Targeting matrix for outcomes anticipated linear in covariates:
    blockdiag(XX' + sigma^2 I, XX' + sigma^2 I)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch("covariates must be a 2-d array")
    if not sigma > 0:
        raise NonPositiveWeight(f"sigma must be positive, got {sigma}")
    n = X.shape[0]
    block = X @ X.T + sigma**2 * np.eye(n)
    W = np.zeros((2 * n, 2 * n))
    W[:n, :n] = block
    W[n:, n:] = block
    return W


@dataclass(frozen=True)
class BoundValidation:
    conservative: bool
    design_compatible: bool
    min_eig_gap: float
    max_omega_entry: float

    @property
    def valid(self):
        return self.conservative and self.design_compatible

    def as_dict(self):
        return asdict(self)


def validate_bound(A, B, omega, tol=FEASIBILITY_TOL):
    """Check conservativeness (B - A positive semidefinite) and design
    compatibility (B vanishes on every unobservable pair), each within
    tol * max(||A||_F, ||B||_F), so the verdicts do not depend on units."""
    A = linalg.check_symmetric(A, name="A")
    B = linalg.check_symmetric(B, name="B")
    if A.shape != B.shape:
        raise DimensionMismatch(f"A shape {A.shape} != B shape {B.shape}")
    min_eig_gap = linalg._eigvalsh(B - A)[0]
    _, _, rows, cols = _omega_index(omega, len(A))
    max_entry = float(np.abs(B[rows, cols]).max()) if rows.size else 0.0
    tol = tol * max(float(np.linalg.norm(A)), float(np.linalg.norm(B)))
    return BoundValidation(
        conservative=bool(min_eig_gap >= -tol),
        design_compatible=bool(max_entry <= tol),
        min_eig_gap=float(min_eig_gap),
        max_omega_entry=max_entry,
    )
