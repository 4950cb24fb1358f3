"""Elementary proximal and least-squares kernels.

All functions here are pure; they are safe to call from any thread.
"""

import numpy as np
import scipy.linalg

from .exceptions import ContractViolation


def shrink(x, tau):
    """Soft-threshold a scalar: sgn(x) * max(|x| - tau, 0)."""
    if x > tau:
        return x - tau
    if x < -tau:
        return x + tau
    return 0.0


def shrink_matrix(X, tau):
    """Apply the soft-threshold elementwise to an array (any shape).

    tau = 0 is an exact identity (no epsilon fuzz).
    """
    X = np.asarray(X, dtype=float)
    if tau == 0.0:
        return X.copy()
    out = np.clip(X, -tau, tau)
    return np.subtract(X, out, out=out)


def svt(X, tau):
    """Singular value thresholding: soft-threshold the spectrum, reconstruct.

    The result does not depend on the non-uniqueness of the SVD because only
    the reconstructed product is returned.
    """
    U, s, Vh = np.linalg.svd(np.asarray(X, dtype=float), full_matrices=False)
    return (U * np.maximum(s - tau, 0.0)) @ Vh


def ridge_regress(U, y, lambda1):
    """Solve min_v 0.5*||y - U v||^2 + (lambda1/2)*||v||^2: returns
    (U'U + lambda1*I)^{-1} U'y (cost O(m r^2 + r^3))."""
    U = np.asarray(U, dtype=float)
    y = np.asarray(y, dtype=float)
    if U.ndim != 2 or y.ndim != 1 or U.shape[0] != y.shape[0]:
        raise ContractViolation(
            f"ridge_regress: incompatible shapes U{U.shape} vs y{y.shape}"
        )
    if not (np.isfinite(U).all() and np.isfinite(y).all()):
        raise ContractViolation("ridge_regress: non-finite input")
    if lambda1 <= 0:
        raise ContractViolation("ridge_regress: lambda1 must be > 0")
    return _cholesky_solver(U.T @ U + lambda1 * np.eye(U.shape[1]))[1](U.T @ y)


def _cholesky_solver(G):
    """(factor, solve) for a symmetric r x r G: solve(rhs) returns
    G^{-1} rhs by LAPACK's potrs on the Cholesky factor from potrf, which
    cho_factor/cho_solve wrap in per-call checks. If potrf fails, or r = 0
    (which potrs rejects), factor is None and solve is a pivoted solve."""
    factor, info = scipy.linalg.lapack.dpotrf(G)
    if info != 0 or not G.size:
        return None, lambda rhs: scipy.linalg.solve(G, rhs)
    return factor, lambda rhs: scipy.linalg.lapack.dpotrs(factor, rhs)[0]
