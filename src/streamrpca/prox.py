"""Elementary proximal kernels.

Singular value thresholding, svt(X, tau) = U diag(max(s - tau, 0)) Vh for
the SVD X = U diag(s) Vh, is computed in factored form by svt_factors:
exact (a thin SVD) or warm-started (block subspace iteration). The exact
thin SVD is read from the eigendecomposition of the smaller Gram matrix
where every kept value is at least GRAM_MIN_RATIO times the largest, and is
LAPACK's SVD elsewhere. The warm loop is one call of the compiled kernel
(kernel.svt_warm) where that is loaded, else numpy's (_svt_warm_numpy); the
two make the same calls to the same LAPACK and BLAS in the same order, bit
for bit.

All functions here are pure; they are safe to call from any thread.
"""

from typing import NamedTuple

import numpy as np

from . import kernel


def shrink_matrix(X, tau, out=None):
    """Apply the soft-threshold elementwise to an array (any shape), into
    out (an array of X's shape, not X) or a new array.

    tau = 0 is an exact identity (no epsilon fuzz).
    """
    X = np.asarray(X, dtype=float)
    if tau == 0.0:
        if out is None:
            return X.copy()
        np.copyto(out, X)
        return out
    out = X.clip(-tau, tau, out=out)  # skips np.clip's dispatch wrapper
    return np.subtract(X, out, out=out)


# Subspace-iteration parameters of svt_factors.
OVERSAMPLING = 6    # guard columns past the kept count; also the widening step
MAX_STEPS = 4       # iteration steps before the block widens
RITZ_TOL = 1e-6     # kept pairs' Ritz residual, relative to the top Ritz value
GUARD_TOL = 0.25    # guard pairs' residual, relative to their gap below tau
GRAM_MIN_RATIO = 5e-3  # Gram path only if every kept value >= this times s_1


class SvtFactors(NamedTuple):
    """svt(X, tau) as (U * s) @ Vh, with the start block for the next call.

    U (m x r) and Vh (r x n) have orthonormal columns and rows, s holds the
    r thresholded values (descending, all > 0), and block (n x k) holds the
    leading right singular (or Ritz) vectors: every vector of the warm
    loop's block, or r + OVERSAMPLING of the exact path's.
    """

    U: np.ndarray
    s: np.ndarray
    Vh: np.ndarray
    block: np.ndarray


def svt_factors(X, tau, block=None):
    """Singular value thresholding in factored form, optionally warm-started.

    Without a block, or with one of fewer than OVERSAMPLING columns or more
    than min(m, n) / 4 (where a step costs a sizeable share of a full SVD),
    this is the exact thin SVD of X, as at the end of this docstring. With
    an n x k block from the previous call on a nearby matrix, it takes up
    to MAX_STEPS block subspace-iteration steps (Halko, Martinsson & Tropp
    2011): Q = orth(X V), and Rayleigh-Ritz on the k x n projection Q'X
    (_ritz_triplets) gives the triplets (s_i, u_i, v_i); v_i start the next.
    The r values above tau are kept, the other k - r pairs are guards, and
    a step is accepted when

      (a) r < k: the block reaches below tau;
      (b) every guard has ||X v_g - s_g u_g|| <= GUARD_TOL * (tau - s_g):
          it is converged to within a fraction of its gap below tau;
      (c) the kept pairs' residual R = X V_r - U_r diag(s_r) has
          ||R||_F <= RITZ_TOL * s_1.

    The bound: u_i'X = s_i v_i' holds exactly for Ritz triplets, so in the
    bases [U_r, rest] x [V_r, rest] X is block lower triangular with the
    blocks diag(s_r), R and T, where T is X outside the kept pairs. If
    ||T||_2 <= tau, the accepted result is svt of the block-diagonal part,
    and since svt is nonexpansive,

        ||result - svt(X, tau)||_F <= ||R||_F <= RITZ_TOL * ||X||_2.

    Every guard is a column of T of norm ||X v_g|| <= s_g + GUARD_TOL *
    (tau - s_g) <= tau, so (b) checks ||T||_2 <= tau on the block's own
    columns. A singular direction above tau that the block (nearly) misses
    is beyond any check on the block: a guard holding a share c of it has
    a residual of about c times its singular value, so (b) accepts only
    when c is below about GUARD_TOL * (tau - s_g) / sigma.

    Where the loop declines, because all k values exceed tau or no step is
    accepted, the block widens by OVERSAMPLING columns (_widened) and the
    loop runs again from it, up to min(m, n) / 4 columns; past that the call
    takes the exact thin SVD: gram_factors where its guard holds, else
    LAPACK's SVD. An accepted call hands on its whole block, so the caller
    decides when to narrow it. The steps run in the compiled kernel, or in
    numpy where none is loaded.
    """
    X = np.asarray(X, dtype=float)
    widest = min(X.shape) // 4
    while block is not None and OVERSAMPLING <= block.shape[1] <= widest:
        if kernel.ACTIVE == "compiled":
            U, s, Vh = kernel.svt_warm(X, tau, block, MAX_STEPS, GUARD_TOL,
                                       RITZ_TOL, GRAM_MIN_RATIO)
        else:
            U, s, Vh = _svt_warm_numpy(X, tau, block)
        if U is not None:
            return threshold_factors(U, s, Vh, tau)._replace(block=Vh.T)
        block = (_widened(X, Vh) if Vh.shape[0] + OVERSAMPLING <= widest
                 else None)
    factors = gram_factors(X, *gram_eigh(X), tau)
    return factors if factors is not None else lapack_factors(X, tau)


def _widened(X, Vh):
    """The start block after a declined loop: its k Ritz vectors Vh', then
    an orthonormal basis of the parts of X'X v_i orthogonal to them (one
    Krylov step past the block) for the last OVERSAMPLING of them, whose
    share of the directions beyond the block is the largest."""
    V = Vh.T
    W = X.T @ (X @ V[:, -OVERSAMPLING:])
    W -= V @ (V.T @ W)
    return np.hstack([V, np.linalg.qr(W)[0]])


def _svt_warm_numpy(X, tau, block):
    """svt_factors' warm loop in numpy: the (U, s, Vh) of the step it
    accepts, with all k values, or (None, s, Vh) of its last step where it
    declines. It runs where no compiled kernel is loaded, and it is the
    tests' oracle for the kernel's svt, which makes the same LAPACK and BLAS
    calls in the same order."""
    Z = X @ block
    for _ in range(MAX_STEPS):
        Q = np.linalg.qr(Z)[0]
        Ub, s, Vh = _ritz_triplets(Q.T @ X)
        kept = int(np.count_nonzero(s > tau))
        if kept == s.size:
            return None, s, Vh
        Z = X @ Vh.T
        U = Q @ Ub
        R = Z - U * s
        guard_res = np.linalg.norm(R[:, kept:], axis=0)
        guards_below = np.all(guard_res <= GUARD_TOL * (tau - s[kept:]))
        residual = np.linalg.norm(R[:, :kept])
        if guards_below and residual <= RITZ_TOL * s[0]:
            return U, s, Vh
    return None, s, Vh


def _ritz_triplets(P):
    """(Ub, s, Vh) of P = Q'X: G = PP' = Ub diag(s^2) Ub', Vh = diag(1/s)
    Ub'P; LAPACK's SVD where G is not finite or s_k <= GRAM_MIN_RATIO s_1."""
    G = P @ P.T
    if np.isfinite(G).all():
        lam, W = np.linalg.eigh(G)
        s, Ub = np.sqrt(np.maximum(lam[::-1], 0.0)), W[:, ::-1].copy()
        if s[-1] > GRAM_MIN_RATIO * s[0]:
            return Ub, s, (Ub.T @ P) / s[:, None]
    return np.linalg.svd(P, full_matrices=False)


def gram_eigh(X):
    """(s, W): the singular values of X, descending, read from the
    eigendecomposition of its smaller Gram matrix (X'X for a tall X, XX'
    for a wide one), and that matrix's eigenvectors in the same order, the
    right singular vectors of a tall X and the left ones of a wide X.
    Costs one product and one symmetric eigendecomposition of the smaller
    side, about a third of LAPACK's thin SVD at 400 x 200."""
    G = X.T @ X if X.shape[0] >= X.shape[1] else X @ X.T
    lam, W = np.linalg.eigh(G)
    return np.sqrt(np.maximum(lam[::-1], 0.0)), W[:, ::-1]


def gram_factors(X, s, W, tau, scale=1.0):
    """SvtFactors of svt(scale * X, tau) from gram_eigh(X) = (s, W), or
    None where the guard fails: a kept value at or below GRAM_MIN_RATIO *
    s_1, or a value that is not finite (LAPACK then raises).

    For a tall X the kept left singular vectors are recovered as X w / s,
    and the block is the leading eigenvectors. For a wide X the right ones,
    block columns included, are X' w normalized (zero where X' w is).
    Squaring X perturbs the Gram matrix by about eps * s_1^2, so a kept
    value s_k is off by about eps * s_1^2 / s_k and the recovered vectors
    are orthonormal to about eps * (s_1 / s_k)^2; the guard keeps that
    below 1e-11.
    """
    kept = int(np.count_nonzero(scale * s > tau))
    if not np.isfinite(s).all() or (
            kept and not s[kept - 1] > GRAM_MIN_RATIO * s[0]):
        return None
    if X.shape[0] >= X.shape[1]:
        block = W[:, :kept + OVERSAMPLING]
        U, Vh = (X @ block[:, :kept]) / s[:kept], block[:, :kept].T
    else:
        U, Z = W[:, :kept], X.T @ W[:, :kept + OVERSAMPLING]
        norms = np.linalg.norm(Z, axis=0)
        block = np.divide(Z, norms, out=np.zeros_like(Z), where=norms > 0.0)
        Vh = block[:, :kept].T
    return SvtFactors(U, scale * s[:kept] - tau, Vh, block)


def lapack_factors(X, tau):
    """SvtFactors of svt(X, tau) from LAPACK's thin SVD of X."""
    U, s, Vh = np.linalg.svd(X, full_matrices=False)
    return threshold_factors(U, s, Vh, tau)


def threshold_factors(U, s, Vh, tau):
    """SvtFactors of U diag(s) Vh at tau; s descending."""
    kept = int(np.count_nonzero(s > tau))
    return SvtFactors(U[:, :kept], s[:kept] - tau, Vh[:kept],
                      Vh[:kept + OVERSAMPLING].T)

