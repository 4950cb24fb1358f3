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

from .exceptions import ContractViolation

_SYM_TOL = 1e-8


def basis_objective(U, A, B, lambda1):
    """g(U) = 0.5*Tr[U'(A + lambda1*I)U] - Tr(U'B)."""
    At = A + lambda1 * np.eye(A.shape[0])
    return 0.5 * np.trace(U.T @ U @ At) - np.trace(U.T @ B)


def update_basis(U, A, B, lambda1, sweeps=1):
    """Run `sweeps` block-coordinate sweeps over the columns of U, in place.

    For each column j (with At = A + lambda1*I):
        u_tilde = (B[:, j] - U @ At[:, j]) / At[j, j] + U[:, j]
        U[:, j] = u_tilde / max(||u_tilde||, 1)

    It sweeps contiguous rows of U', B' and At' (row j of At' is At[:, j])
    and writes them back into U, which is returned (unchanged if r = 0).
    Not safe for concurrent mutation of the same array.
    """
    if A.shape[0] != A.shape[1] or U.shape[1] != A.shape[0] or B.shape != U.shape:
        raise ContractViolation(
            f"update_basis: inconsistent shapes U{U.shape} A{A.shape} B{B.shape}"
        )
    scale = 1.0 + np.abs(A).max(initial=0.0)
    if np.abs(A - A.T).max(initial=0.0) > _SYM_TOL * scale:
        raise ContractViolation("update_basis: A is not symmetric")
    if lambda1 <= 0:
        raise ContractViolation("update_basis: lambda1 must be > 0")

    At = A + lambda1 * np.eye(U.shape[1])
    diag = At.diagonal().tolist()
    Att, Bt, Ut = (np.ascontiguousarray(X.T) for X in (At, B, U))
    for _ in range(sweeps):
        for j, d in enumerate(diag):
            u = (Bt[j] - Att[j] @ Ut) / d + Ut[j]
            Ut[j] = u / max(math.sqrt(u @ u), 1.0)
    U[...] = Ut.T
    return U
