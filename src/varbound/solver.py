"""Variance-bound construction and testing.

The central program picks a slack matrix S that is positive semidefinite,
cancels the variance matrix A on every unobservable pair, and minimizes a
convex objective; the bound is B = A + S. Both this program and the
admissibility test are solved with one consensus ADMM loop over closed-form
proximal maps and cone projections, so no external conic solver is needed.
The loop fixes the unobservable entries in its consensus step, balances its
residuals by a deterministic rho schedule, and speeds up its fixed-point map
by safeguarded type-II Anderson acceleration (memory ``_AA_MEMORY``; the
memory restarts when a candidate does not lower the fixed-point residual and
whenever rho changes). Every Frobenius² term is folded into the prox of
another term, so the composite "operator norm + Frobenius²" runs two blocks.
``SolverReport.iterations`` counts map evaluations, so it measures the
eigendecomposition work of a solve. With ``VARBOUND_LOG=debug`` each solve
logs one line on the ``varbound.solver`` logger: map evaluations, accepted
accelerated steps, safeguard restarts, rho changes and final residuals.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import asdict, dataclass, replace

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
)

log = logging.getLogger("varbound.solver")

# -- objectives -----------------------------------------------------------------


@dataclass(frozen=True)
class SchattenTerm:
    """Schatten p-norm of the bound B = A + S; strictly monotone for p < inf."""

    p: float

    def __post_init__(self):
        if self.p < 1:
            raise UnsupportedObjective(f"Schatten term needs p >= 1, got {self.p}")


@dataclass(frozen=True, eq=False)
class TargetedTerm:
    """Trace inner product <S, W> against a symmetric targeting matrix W.

    Strictly monotone exactly when W is positive definite.
    """

    W: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "W", linalg.check_symmetric(self.W, name="W"))


@dataclass(frozen=True)
class FrobeniusSquaredTerm:
    """Squared Frobenius norm of the bound B = A + S; strictly monotone."""


Term = SchattenTerm | TargetedTerm | FrobeniusSquaredTerm


def _term_is_strictly_monotone(term):
    if isinstance(term, FrobeniusSquaredTerm):
        return True
    if isinstance(term, SchattenTerm):
        return not math.isinf(term.p)
    if isinstance(term, TargetedTerm):
        band = linalg.ZERO_BAND * max(1.0, float(np.linalg.norm(term.W)))
        return linalg.min_eigenvalue(term.W) > band
    raise UnsupportedObjective(f"unknown objective term {term!r}")


def _term_value(term, S, A):
    if isinstance(term, FrobeniusSquaredTerm):
        return linalg.schatten_norm(A + S, 2) ** 2
    if isinstance(term, SchattenTerm):
        return linalg.schatten_norm(A + S, term.p)
    if isinstance(term, TargetedTerm):
        return float(np.sum(S * term.W))
    raise UnsupportedObjective(f"unknown objective term {term!r}")


@dataclass(frozen=True)
class Objective:
    """Weighted sum of convex terms; every weight must be positive and at least
    one term must be strictly monotone, otherwise the program may return an
    inadmissible bound."""

    terms: tuple[tuple[float, Term], ...]

    def __post_init__(self):
        if not self.terms:
            raise UnsupportedObjective("objective needs at least one term")
        for weight, term in self.terms:
            if not weight > 0:
                raise UnsupportedObjective(f"term weights must be positive, got {weight}")
            if not isinstance(term, (SchattenTerm, TargetedTerm, FrobeniusSquaredTerm)):
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
        return sum(w * _term_value(t, S, A) for w, t in self.terms)

    def is_strictly_monotone(self):
        return any(_term_is_strictly_monotone(t) for _, t in self.terms)


# -- solver configuration and results ---------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    rho: float = 1.0
    max_iterations: int = 50_000
    eps_abs: float = 1e-9
    eps_rel: float = 1e-7
    feasibility_tol: float = 1e-7

    def __post_init__(self):
        iterations = self.max_iterations
        if isinstance(iterations, bool) or not isinstance(iterations, (int, float, np.integer)) \
                or not float(iterations).is_integer():
            raise ValueError(f"solver config field max_iterations must be an integer, "
                             f"got {iterations!r}")
        object.__setattr__(self, "max_iterations", int(iterations))
        for name in ("rho", "max_iterations", "eps_abs", "eps_rel", "feasibility_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"solver config field {name} must be positive")


@dataclass(frozen=True)
class SolverReport:
    iterations: int
    primal_residual: float
    dual_residual: float
    objective_value: float
    min_eig_slack: float
    max_omega_violation: float
    converged: bool

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
    early_exit: bool
    report: SolverReport


# -- consensus ADMM core -----------------------------------------------------------


def _normalize_omega(omega):
    return {(k, l) if k <= l else (l, k) for k, l in omega}


def _omega_index_arrays(omega):
    ks, ls = [], []
    for k, l in _normalize_omega(omega):
        ks.append(k)
        ls.append(l)
        if k != l:
            ks.append(l)
            ls.append(k)
    return np.asarray(ks, dtype=np.intp), np.asarray(ls, dtype=np.intp)


# residual balancing (Boyd et al., section 3.4.1) and the early-exit probe run
# on fixed iteration grids, so every run stays bit-reproducible
_BALANCE_EVERY = 50
_BALANCE_RATIO = 10.0
_PROBE_EVERY = 10
# Anderson acceleration: differences kept, and the Tikhonov term of the
# least-squares solve relative to the trace of its Gram matrix
_AA_MEMORY = 5
_AA_REG = 1e-10


@dataclass(frozen=True, eq=False)
class _AdmmExit:
    Z: np.ndarray
    primal: float
    dual: float
    iterations: int
    converged: bool
    probed: bool


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
        (a one-difference secant step is erratic) or when they are all zero."""
        m = self.count
        if m < 2:
            return None
        G = self.gram[:m, :m]
        reg = _AA_REG * float(np.trace(G))
        if not reg > 0.0:
            return None
        gamma = np.linalg.solve(G + reg * np.eye(m), self.dG[:m] @ self.g)
        return self.f - gamma @ self.dF[:m]


def _admm_map(x, blocks, rho, fixed):
    """One consensus ADMM step on the state x = (Z, U_1, ..., U_N), stacked
    along the first axis; returns the new state and the primal and dual
    residual norms of the step."""
    rows, cols, values = fixed
    Z, U = x[0], x[1:]
    Xs = np.stack([block(Z - u, 1.0 / rho) for block, u in zip(blocks, U)])
    fx = np.empty_like(x)
    Z_new = fx[0]
    np.mean(Xs + U, axis=0, out=Z_new)
    Z_new[rows, cols] = values
    Xs -= Z_new
    np.add(U, Xs, out=fx[1:])
    dual = rho * math.sqrt(len(blocks)) * float(np.linalg.norm(Z_new - Z))
    return fx, float(np.linalg.norm(Xs)), dual


def _consensus_admm(blocks, Z0, fixed, config, probe=None, accept=None):
    """Consensus ADMM over proximable blocks on an affine slice, with
    safeguarded Anderson acceleration.

    Each block maps (input matrix, step) to its prox / projection and must
    return an exactly symmetric matrix for a symmetric input, so every iterate
    stays exactly symmetric without a symmetrize. The consensus step averages
    the blocks and writes ``fixed = (rows, cols, values)`` into the average,
    which is the exact minimization over the slice, so every map value lies on
    it.

    The step is a fixed-point map T on x = (Z, U_1..U_N). After each accepted
    point the next point to evaluate is the type-II Anderson extrapolation of
    the last ``_AA_MEMORY`` steps (see ``_Anderson``). That candidate is kept
    only if its fixed-point residual ||T(x) - x|| is no larger than the last
    accepted point's; otherwise the memory is cleared and the loop takes the
    plain step T(x) from the last accepted point. The memory is also cleared
    whenever rho changes, because the map changes with it. Every
    ``_BALANCE_EVERY`` evaluations rho doubles or halves at a tenfold residual
    imbalance, and the scaled duals are rescaled to keep rho * U invariant.

    Every map evaluation, rejected candidates included, counts as one
    iteration, and each one meets the same tests: every ``_PROBE_EVERY``
    iterations an optional probe sees its Z and may stop the run early; then
    it stops when the primal residual <= eps_abs * dim + eps_rel * ||Z||_F,
    the dual residual meets the analogous dual scale, and (when given) an
    ``accept`` predicate holds on Z, so the caller's feasibility contract
    holds at exit. The returned Z is always a map value, never an
    extrapolation. All rules depend only on the iterates, so runs are
    bit-reproducible.
    """
    N = len(blocks)
    dim = Z0.shape[0]
    rho = config.rho
    x = np.zeros((N + 1,) + Z0.shape)
    x[0] = Z0
    aa = _Anderson(x.size)
    candidate = False  # x is an Anderson point awaiting the safeguard
    g_ref = f_ref = None  # residual norm and map value of the last accepted point
    accepted = restarts = rho_changes = 0
    converged = probed = False
    for it in range(1, config.max_iterations + 1):  # max_iterations >= 1
        fx, r_norm, s_norm = _admm_map(x, blocks, rho, fixed)
        Z = fx[0]
        if probe is not None and it % _PROBE_EVERY == 0 and probe(Z):
            probed = True
            break
        eps_pri = config.eps_abs * dim + config.eps_rel * float(np.linalg.norm(Z))
        eps_dual = config.eps_abs * dim + config.eps_rel * rho * float(np.linalg.norm(fx[1:]))
        if r_norm <= eps_pri and s_norm <= eps_dual and (accept is None or accept(Z)):
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
            g_ref, f_ref = g_norm, fx
            aa.push(fx.ravel(), g)
            step = aa.extrapolate()
            x = fx if step is None else step.reshape(fx.shape)
        candidate = x is not f_ref
        if it % _BALANCE_EVERY == 0:
            factor = (2.0 if r_norm > _BALANCE_RATIO * s_norm
                      else 0.5 if s_norm > _BALANCE_RATIO * r_norm else 1.0)
            if factor != 1.0:
                rho *= factor
                x = f_ref.copy()
                x[1:] /= factor
                aa.clear()
                candidate = False
                rho_changes += 1
    log.debug(
        "consensus ADMM %s after %d map evaluations: %d accelerated steps accepted, "
        "%d safeguard restarts, %d rho changes (final rho %.3g), primal %.3e, dual %.3e",
        "converged" if converged else "probed" if probed else "stopped", it,
        accepted, restarts, rho_changes, rho, r_norm, s_norm,
    )
    return _AdmmExit(fx[0], r_norm, s_norm, it, converged, probed)


def _term_prox(term, weight, A):
    """Prox closure for one weighted targeted or Schatten term at step t."""
    if isinstance(term, TargetedTerm):
        W = weight * term.W
        return lambda V, t: linalg.prox_linear(V, t, W)
    if isinstance(term, SchattenTerm):
        p = term.p
        return lambda V, t: linalg._prox_schatten(V + A, t * weight, p) - A
    raise UnsupportedObjective(f"unknown objective term {term!r}")


def _objective_blocks(objective, A):
    """One prox block per objective term, except that all Frobenius² terms,
    w ||X + A||^2 in total, fold into the first other term f:

        prox_{t (f + w ||. + A||^2)}(V) = prox_{(t / c) f}((V - 2 t w A) / c),

    with c = 1 + 2 t w. Frobenius² alone keeps its closed-form block."""
    w = sum(weight for weight, term in objective.terms
            if isinstance(term, FrobeniusSquaredTerm))
    others = [(weight, term) for weight, term in objective.terms
              if not isinstance(term, FrobeniusSquaredTerm)]
    if not others:
        return [lambda V, t: linalg.prox_frobenius_squared(V, t * w, A)]
    blocks = [_term_prox(term, weight, A) for weight, term in others]
    if w:
        inner = blocks[0]

        def folded(V, t):
            c = 1.0 + 2.0 * t * w
            return inner((V - 2.0 * t * w * A) / c, t / c)

        blocks[0] = folded
    return blocks


def aronow_samii_slack(A, omega):
    """Pairwise Young's-inequality slack: cancels A on every unobservable pair
    and books the magnitudes on the two diagonals. Positive semidefinite by
    construction (a sum of 2x2 PSD part matrices); the generalized slack at
    W = I."""
    return generalized_as_slack(A, omega, np.eye(len(A)))


def _unit(M):
    """Scale of the absolute tolerances: min(1, ||M||_F), and 1 for M = 0."""
    return min(1.0, float(np.linalg.norm(M))) or 1.0


def solve_optvb(problem, objective, config=None):
    """Minimize the objective over the set of valid slack matrices.

    Consensus ADMM with one block per objective term plus the positive
    semidefinite cone; the unobservable entries are fixed to -A in the
    consensus step, so they are exact in the returned slack; any residual
    negative eigenvalue is reported, not re-projected. ``eps_abs`` and
    ``feasibility_tol`` are scaled by min(1, ||A||_F), so the answer does not
    depend on the units of small outcomes.
    """
    config = config or SolverConfig()
    if not objective.is_strictly_monotone():
        has_opnorm = any(
            isinstance(t, SchattenTerm) and math.isinf(t.p) for _, t in objective.terms
        )
        hint = (
            " (the operator norm alone can return a dominated bound; compose it "
            "with a small frobenius-squared term)" if has_opnorm else ""
        )
        raise UnsupportedObjective("objective has no strictly monotone term" + hint)
    A = problem.A
    unit = _unit(A)
    config = replace(config, eps_abs=config.eps_abs * unit,
                     feasibility_tol=config.feasibility_tol * unit)
    for k, l in problem.omega:
        if k == l and A[k, k] > config.feasibility_tol:
            raise Infeasible(
                f"diagonal index {k} is unobservable but A[{k},{k}] = {A[k, k]:.3e} > 0; "
                "no positive semidefinite slack can cancel a positive diagonal "
                "(drop the coordinate or lower the threshold c)"
            )
    rows, cols = _omega_index_arrays(problem.omega)
    blocks = [lambda V, t: linalg._project_psd(V)] + _objective_blocks(objective, A)

    def feasible_enough(Z):
        return linalg.min_eigenvalue(Z) >= -config.feasibility_tol

    exit_ = _consensus_admm(
        blocks, aronow_samii_slack(A, problem.omega), (rows, cols, -A[rows, cols]),
        config, accept=feasible_enough,
    )

    S_star = exit_.Z
    B_star = A + S_star
    omega_violation = float(np.abs(S_star[rows, cols] + A[rows, cols]).max()) if rows.size else 0.0
    report = SolverReport(
        iterations=exit_.iterations,
        primal_residual=exit_.primal,
        dual_residual=exit_.dual,
        objective_value=objective.value(S_star, A),
        min_eig_slack=linalg.min_eigenvalue(S_star),
        max_omega_violation=omega_violation,
        converged=exit_.converged,
    )
    result = BoundResult(S_star=S_star, B_star=B_star, report=report)
    if not exit_.converged:
        raise MaxIterations(
            f"bound solver hit {config.max_iterations} iterations "
            f"(primal {exit_.primal:.2e}, dual {exit_.dual:.2e})",
            result=result,
        )
    return result


def test_admissibility(S, omega, config=None, decision_tol=None, early_exit=False):
    """Search for a valid slack matrix dominated by S.

    Maximizes trace(S - T) over matrices T that agree with S on the
    unobservable pairs and satisfy 0 <= T <= S in the semidefinite order. A
    positive optimum certifies that the bound carrying S is dominated
    (inadmissible); the maximizer is returned as the witness.

    The program is homogeneous in S, so it is solved on S / min(1, ||S||_F)
    and the witness and alpha are scaled back; the input check and
    ``decision_tol`` apply to the caller's S.

    With ``early_exit`` the search stops as soon as a feasible iterate beats
    the decision tolerance tenfold; the reported alpha is then only a lower
    bound on the optimum.

    Degenerate inputs whose sandwich 0 <= T <= S admits no strictly feasible
    point (a singular S can do this) may converge slowly or hit the iteration
    cap; the MaxIterations error then carries the best iterate, whose trace
    gap is still a certified lower bound on alpha once the witness is
    feasible within tolerance.
    """
    config = config or SolverConfig()
    S = linalg.check_symmetric(S, name="S")
    scale = max(1.0, float(np.linalg.norm(S)))
    min_eig_in = linalg.min_eigenvalue(S)
    if min_eig_in < -config.feasibility_tol * scale:
        raise NotASlackMatrix(
            f"input has eigenvalue {min_eig_in:.3e}; "
            "slack matrices must be positive semidefinite"
        )
    trace_S = float(np.trace(S))
    if decision_tol is None:
        decision_tol = 1e-5 * (1.0 + trace_S)

    unit = _unit(S)
    # eigenvalue dust within tolerance would make the sandwich 0 <= T <= S
    # infeasible in exact arithmetic and stall the splitting; the projection
    # moves S (and alpha) by at most that dust
    S_hat = (linalg.project_psd(S) if min_eig_in < 0.0 else S) / unit
    tol = config.feasibility_tol * scale
    rows, cols = _omega_index_arrays(omega)
    eye = np.eye(len(S))
    blocks = [
        lambda V, t: linalg._project_psd(V),
        lambda V, t: S_hat - linalg._project_psd(S_hat - V),
        lambda V, t: V - t * eye,  # minimize trace(T)
    ]

    def witness_feasible(Z):
        return (linalg.min_eigenvalue(Z) >= -tol
                and linalg.min_eigenvalue(S_hat - Z) >= -tol)

    def certified_dominator(Z):
        gap = trace_S - unit * float(np.trace(Z))
        return gap > 10.0 * decision_tol and witness_feasible(Z)

    exit_ = _consensus_admm(
        blocks, S_hat, (rows, cols, S_hat[rows, cols]), config,
        probe=certified_dominator if early_exit else None,
        accept=witness_feasible,
    )
    # scaling back rounds the fixed entries (and the dust projection moves
    # them by at most the dust); the witness carries the caller's entries
    witness = unit * exit_.Z
    witness[rows, cols] = S[rows, cols]
    alpha = trace_S - float(np.trace(witness))
    report = SolverReport(
        iterations=exit_.iterations,
        primal_residual=exit_.primal,
        dual_residual=exit_.dual,
        objective_value=alpha,
        min_eig_slack=linalg.min_eigenvalue(witness),
        max_omega_violation=0.0,
        converged=exit_.converged,
    )
    verdict = AdmissibilityVerdict(
        alpha=alpha,
        witness=witness,
        admissible=bool(alpha <= decision_tol) and not exit_.probed,
        early_exit=exit_.probed,
        report=report,
    )
    if not exit_.converged and not exit_.probed:
        raise MaxIterations(
            f"admissibility test hit {config.max_iterations} iterations "
            f"(primal {exit_.primal:.2e}, dual {exit_.dual:.2e})",
            result=verdict,
        )
    return verdict


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
    S = np.zeros_like(A)
    for k, l in _normalize_omega(omega):
        if k == l:
            S[k, k] = -A[k, k]
            continue
        S[k, l] = S[l, k] = -A[k, l]
        S[k, k] += abs(A[k, l]) * math.sqrt(w[l] / w[k])
        S[l, l] += abs(A[k, l]) * math.sqrt(w[k] / w[l])
    return S


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
    band = linalg.ZERO_BAND * max(1.0, float(np.linalg.norm(W)))
    if linalg.min_eigenvalue(W) <= band:
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


def validate_bound(A, B, omega, tol=1e-7):
    """Check conservativeness (B - A positive semidefinite within tol) and
    design compatibility (B vanishes on every unobservable pair within tol)."""
    A = linalg.check_symmetric(A, name="A")
    B = linalg.check_symmetric(B, name="B")
    if A.shape != B.shape:
        raise DimensionMismatch(f"A shape {A.shape} != B shape {B.shape}")
    min_eig_gap = linalg.min_eigenvalue(linalg.symmetrize(B - A))
    rows, cols = _omega_index_arrays(omega)
    max_entry = float(np.abs(B[rows, cols]).max()) if rows.size else 0.0
    return BoundValidation(
        conservative=bool(min_eig_gap >= -tol),
        design_compatible=bool(max_entry <= tol),
        min_eig_gap=float(min_eig_gap),
        max_omega_entry=max_entry,
    )
