"""Symmetric-matrix kernel: eigendecompositions, cone projections, Schatten and
entry-wise norms, and the proximal maps used by the bound solver.

All routines operate on dense float arrays. Eigenvalues within
``ZERO_BAND * ||M||_F`` of zero are treated as zero for rank and
positive-semidefiniteness decisions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AsymmetricInput, DimensionMismatch, NonConvergence

# relative zero band for eigenvalue sign decisions
ZERO_BAND = 1e-12

# default skew tolerance, relative to 1 + max|entry|
SYMMETRY_TOL = 1e-10


def symmetrize(M):
    """Average a matrix with its transpose to absorb floating-point skew."""
    M = np.asarray(M, dtype=float)
    return (M + M.T) / 2.0


def check_symmetric(M, tol=SYMMETRY_TOL, name="matrix"):
    """Validate squareness and symmetry; return the symmetrized array.

    Raises DimensionMismatch for non-square input and AsymmetricInput when the
    worst skew exceeds ``tol * (1 + max|entry|)``.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    scale = 1.0 + (np.abs(M).max() if M.size else 0.0)
    skew = np.abs(M - M.T).max() if M.size else 0.0
    if skew > tol * scale:
        raise AsymmetricInput(f"{name} skew {skew:.3e} exceeds {tol:.1e} * {scale:.3e}")
    return symmetrize(M)


def _eigh(M):
    """Eigendecomposition of a matrix the caller knows to be symmetric: no
    input check, only the lower triangle is read, and the eigenvalues come in
    LAPACK's ascending order."""
    try:
        return np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
        raise NonConvergence(f"eigendecomposition failed: {exc}") from exc


def _from_eig(w, Q):
    """Q diag(w) Q^T as P P^T - N N^T over the positive and negative
    eigenvalues. numpy multiplies X @ X.T with syrk, so the result is exactly
    symmetric, and zero eigenvalues cost nothing."""
    pos, neg = w > 0.0, w < 0.0
    P = Q[:, pos] * np.sqrt(w[pos])
    N = Q[:, neg] * np.sqrt(-w[neg])
    return P @ P.T - N @ N.T


def eigenvalues(M):
    """Eigenvalues of a symmetric matrix (ascending, as computed)."""
    M = check_symmetric(M)
    try:
        return np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NonConvergence(f"eigenvalue computation failed: {exc}") from exc


def min_eigenvalue(M):
    return float(eigenvalues(M)[0])


def _project_psd(M):
    """Frobenius-nearest positive semidefinite matrix (eigenvalue clipping) of
    a matrix the caller knows to be symmetric."""
    w, Q = _eigh(M)
    return _from_eig(np.maximum(w, 0.0), Q)


def _project_unit_box(M):
    """Frobenius-nearest X with 0 <= X <= I, of a matrix the caller knows to be
    symmetric: its eigenvalues are clipped to [0, 1]."""
    w, Q = _eigh(M)
    return _from_eig(np.clip(w, 0.0, 1.0), Q)


def loewner_dominates(M, N, tol):
    """True iff M - N is positive semidefinite within tol on the smallest eigenvalue."""
    M = np.asarray(M, dtype=float)
    N = np.asarray(N, dtype=float)
    if M.shape != N.shape:
        raise DimensionMismatch(f"shape mismatch {M.shape} vs {N.shape}")
    return min_eigenvalue(symmetrize(M - N)) >= -tol


def schatten_norm(M, p):
    """Schatten p-norm: the vector p-norm of the eigenvalue magnitudes."""
    if p < 1:
        raise ValueError(f"Schatten norm needs p >= 1, got {p}")
    lam = np.abs(eigenvalues(M))
    if math.isinf(p):
        return float(lam.max()) if lam.size else 0.0
    if p == 1:
        return float(lam.sum())
    if p == 2:
        return float(np.sqrt((lam * lam).sum()))
    return float((lam**p).sum() ** (1.0 / p))


def entrywise_norm(M, p, q):
    """Entry-wise L_{p,q} norm: inner p-norm over each row, outer q-norm.

    (p, q) = (2, 2) recovers the Frobenius norm.
    """
    if p < 1 or q < 1:
        raise ValueError(f"entrywise norm needs p, q >= 1, got ({p}, {q})")
    a = np.abs(np.asarray(M, dtype=float))
    if math.isinf(p):
        rows = a.max(axis=1) if a.size else np.zeros(0)
    else:
        rows = (a**p).sum(axis=1) ** (1.0 / p)
    if math.isinf(q):
        return float(rows.max()) if rows.size else 0.0
    return float((rows**q).sum() ** (1.0 / q))


def quadratic_form_value(M, theta, n):
    """Evaluate the quadratic form theta' M theta / n**2."""
    theta = np.asarray(theta, dtype=float)
    M = np.asarray(M, dtype=float)
    if M.shape[0] != theta.shape[0]:
        raise DimensionMismatch(f"matrix {M.shape} vs vector {theta.shape}")
    return float(theta @ M @ theta) / float(n) ** 2


# -- proximal maps -------------------------------------------------------------
#
# All matrix proxes solve  argmin_X  f(X) + (1/2t) ||X - M||_F^2  for the listed
# f. Terms that act on the bound rather than the slack take a shift, so that
# f(X) = norm(X + shift).


def project_l1_ball(v, radius):
    """Euclidean projection of a vector onto the l1 ball of the given radius."""
    if radius < 0:
        raise ValueError("l1 ball radius must be nonnegative")
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    if radius == 0.0:
        return np.zeros_like(v)
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, u.size + 1)
    positive = np.nonzero(u - (css - radius) / j > 0)[0]
    if positive.size == 0:
        # radius below floating-point resolution of the entries
        return np.zeros_like(v)
    rho = positive[-1]
    tau = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - tau, 0.0)


def prox_vector_pnorm(z, t, p, max_iter=200):
    """Prox of t * ||.||_p on a vector, for p in (1, inf).

    Solved by bisection on the norm of the solution; for a trial norm the
    coordinates decouple into monotone scalar equations solved by an inner
    bisection. Tolerance 1e-10 relative.
    """
    z = np.asarray(z, dtype=float)
    if t == 0.0 or not np.any(z):
        return z.copy()
    q = p / (p - 1.0)
    zq = float((np.abs(z) ** q).sum() ** (1.0 / q))
    if zq <= t:
        return np.zeros_like(z)
    az = np.abs(z)
    zp = float((az**p).sum() ** (1.0 / p))

    def y_of(nu):
        # per-coordinate root of y + beta * y^(p-1) = |z|, y in [0, |z|]
        beta = t / nu ** (p - 1.0)
        lo = np.zeros_like(az)
        hi = az.copy()
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            g = mid + beta * mid ** (p - 1.0) - az
            hi = np.where(g >= 0.0, mid, hi)
            lo = np.where(g < 0.0, mid, lo)
        return 0.5 * (lo + hi)

    lo, hi = 0.0, zp
    nu = zp
    for _ in range(max_iter):
        nu = 0.5 * (lo + hi)
        y = y_of(nu)
        f = float((y**p).sum() ** (1.0 / p)) - nu
        if abs(f) <= 1e-12 * max(1.0, zp):
            break
        if f > 0.0:
            lo = nu
        else:
            hi = nu
        if hi - lo <= 1e-14 * max(1.0, zp):
            break
    else:  # pragma: no cover - bisection always terminates earlier
        raise NonConvergence("p-norm prox bisection did not converge")
    return np.sign(z) * y_of(nu)


def _prox_schatten(Y, t, p):
    """Prox of t times the Schatten p-norm, p in [1, inf], of a matrix Y the
    caller knows to be symmetric; the result is exactly symmetric when Y is.

    p = 1 soft-thresholds eigenvalues, p = 2 is a radial shrinkage that needs
    no eigendecomposition, and general p runs an inner iterative prox on the
    eigenvalues. p = inf subtracts (Moreau) the projection of Y onto the t-ball
    of the nuclear norm, Q diag(u) Q^T with u the l1-ball projection of the
    eigenvalues: a low-rank P P^T - N N^T, since u is nonzero only where the
    prox moves an eigenvalue. For a term on the bound, ||X + A||, pass
    Y = V + A and subtract A from the result.
    """
    if p == 2:
        nrm = float(np.linalg.norm(Y))
        return np.zeros_like(Y) if nrm <= t else (1.0 - t / nrm) * Y
    w, Q = _eigh(Y)
    if math.isinf(p):
        return Y - _from_eig(project_l1_ball(w, t), Q)
    if p == 1:  # soft thresholding
        return _from_eig(np.sign(w) * np.maximum(np.abs(w) - t, 0.0), Q)
    return _from_eig(prox_vector_pnorm(w, t, p), Q)
