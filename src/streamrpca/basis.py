"""Block-coordinate basis update with warm restart.

One sweep updates each basis column in turn against the accumulator pair
(A, B), minimizing

    g(U) = 0.5*Tr[U'(A + lambda1*I)U] - Tr(U'B)

subject to each column lying in the unit ball. Because the per-column
quadratic is isotropic, projecting the unconstrained column minimizer onto
the ball gives the exact constrained block minimizer, so g never increases
across a sweep (for feasible warm starts).
"""

import math

import numpy as np

from . import kernel
from .exceptions import ContractViolation

_SYM_TOL = 1e-8


def _asymmetric(A):
    """Whether A is not symmetric to _SYM_TOL * (1 + max|A|)."""
    scale = 1.0 + np.abs(A).max(initial=0.0)
    return np.abs(A - A.T).max(initial=0.0) > _SYM_TOL * scale


def basis_objective(U, A, B, lambda1):
    """g(U) = 0.5*Tr[U'(A + lambda1*I)U] - Tr(U'B)."""
    At = A + lambda1 * np.eye(A.shape[0])
    return 0.5 * np.trace(U.T @ U @ At) - np.trace(U.T @ B)


def update_basis(U, A, B, lambda1):
    """Run one block-coordinate sweep over the columns of U, in place.

    For each column j (with At = A + lambda1*I):
        u_tilde = (B[:, j] - U @ At[:, j]) / At[j, j] + U[:, j]
        U[:, j] = u_tilde / max(||u_tilde||, 1)

    One warm-started pass, as OR-PCA makes per sample; k calls make k
    sweeps. It sweeps the rows of U', of B' and of At's off-diagonal, both
    divided by At's diagonal, writing U in place: rows of U' are contiguous
    when U is column-major, as SubspaceModel holds it. U is returned
    (unchanged if r = 0). Not safe for concurrent mutation of the same array.
    """
    if A.shape[0] != A.shape[1] or U.shape[1] != A.shape[0] or B.shape != U.shape:
        raise ContractViolation(
            f"update_basis: inconsistent shapes U{U.shape} A{A.shape} B{B.shape}"
        )
    if not lambda1 > 0:
        raise ContractViolation("update_basis: lambda1 must be > 0")
    if kernel.ACTIVE == "compiled" and kernel.sweep(U, A, B, lambda1,
                                                    _SYM_TOL):
        return U
    if _asymmetric(A):
        raise ContractViolation("update_basis: A is not symmetric")
    return _sweep_numpy(U, A, B, lambda1)


def _sweep_numpy(U, A, B, lambda1):
    """update_basis in numpy, on checked inputs: the path where no compiled
    kernel is loaded, and the tests' oracle for the kernel."""
    diag = A.diagonal() + lambda1
    Ct = A.T / diag[:, None]
    np.fill_diagonal(Ct, 0.0)
    Bt = B.T / diag[:, None]
    Ut = U.T
    for b, c, u_j in zip(Bt, Ct, Ut):
        u = b - c.dot(Ut)   # ndarray.dot: less call overhead than @
        np.divide(u, max(math.sqrt(u.dot(u)), 1.0), out=u_j)
    return U
