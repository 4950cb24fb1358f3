"""Per-sample projection onto the current basis.

Solves, for a fixed basis U and one observation m_t,

    min_{v, s}  0.5*||m_t - U v - s||^2 + (lambda1/2)*||v||^2 + lambda2*||s||_1

The problem is jointly strictly convex for lambda1 > 0, so a point that
meets the KKT conditions is the unique minimizer.
"""

from dataclasses import dataclass

import numpy as np

from . import kernel, prox
from .exceptions import ContractViolation, is_count
from .prox import _cholesky_solver, shrink_matrix


@dataclass
class ProjectionConfig:
    """Stopping rule of the alternation: quit once the max-norm change of
    both v and s is < tol, or after max_iter alternations (a backstop: the
    linear rate degrades while a shrinkage boundary stays active). tol does
    not bound the exact finish on a support, which passes a KKT check."""

    tol: float = 1e-7
    max_iter: int = 1000

    def __post_init__(self):
        if not self.tol > 0:
            raise ContractViolation("ProjectionConfig: tol must be > 0")
        if not (is_count(self.max_iter) and self.max_iter >= 1):
            raise ContractViolation(
                "ProjectionConfig: max_iter must be an int >= 1")


def projection_objective(U, m_t, v, s, lambda1, lambda2):
    """Objective value at (v, s); used by tests and diagnostics."""
    resid = m_t - U @ v - s
    return (0.5 * resid @ resid
            + 0.5 * lambda1 * (v @ v)
            + lambda2 * np.abs(s).sum())


def project_sample(U, m_t, lambda1, lambda2, config=None):
    """Return the coefficient vector v and sparse vector s for one sample.

    Factors G = U'U + lambda1*I and forms U'm_t once, starts from s = 0 and
    alternates v <- G^{-1}(U'm_t - U's) (an r-vector solve on the factor),
    s <- shrink(m_t - U v, lambda2). Once two alternations in a row give the
    same sign pattern sigma, or the stopping rule fires, it solves for v
    exactly on the support S of sigma: (G - U_S'U_S) v = U'm_t - U_S'm_S +
    lambda2*U_S'sigma_S, G downdated to the Gram matrix of the rows off S
    (formed from those rows if the downdate fails to factor). If
    s = shrink(m_t - U v, lambda2) has the signs sigma, the KKT conditions
    hold and it returns s and v = G^{-1}U'(m_t - s). If not, it takes the
    longest halving of the step toward that v that lowers the objective (a
    damped Newton step in v) and alternates on.

    Raises ContractViolation for a non-finite input, and for a finite one
    whose U'U or U'm_t overflows.
    """
    if config is None:
        config = ProjectionConfig()
    U = np.asarray(U, dtype=float)
    m_t = np.asarray(m_t, dtype=float)
    if U.ndim != 2 or m_t.ndim != 1 or U.shape[0] != m_t.shape[0]:
        raise ContractViolation(
            f"project_sample: incompatible shapes U{U.shape} vs m_t{m_t.shape}"
        )
    if not (lambda1 > 0 and lambda2 > 0):
        raise ContractViolation("project_sample: lambda1, lambda2 must be > 0")
    if kernel.ACTIVE == "compiled":
        out = kernel.project(U, m_t, lambda1, lambda2, config.tol,
                             config.max_iter)
        if out is not None:
            return out[:2]
    if not (np.isfinite(U).all() and np.isfinite(m_t).all()):
        raise ContractViolation("project_sample: non-finite input")
    return _project_numpy(U, m_t, lambda1, lambda2, config)


def _project_numpy(U, m_t, lambda1, lambda2, config):
    """project_sample in numpy, on checked inputs: the path where no
    compiled kernel is loaded, and the tests' oracle for the kernel."""
    G = U.T @ U
    G.flat[::U.shape[1] + 1] += lambda1
    Um = U.T @ m_t
    if not (np.isfinite(G).all() and np.isfinite(Um).all()):
        raise ContractViolation("project_sample: U'U or U'm_t overflows")
    solve = _cholesky_solver(G)[1]
    v = np.zeros(U.shape[1])
    s = np.zeros_like(m_t)
    signs = None
    for _ in range(config.max_iter):
        v_new = solve(Um - U.T @ s)
        s_new = shrink_matrix(m_t - U @ v_new, lambda2)
        # a v step of tol or more decides both tests below on its own
        step = np.abs(v_new - v).max(initial=0.0)
        if step < config.tol:
            step = max(step, np.abs(s_new - s).max())
        v, s = v_new, s_new
        if step == 0:  # a fixed point: the KKT conditions hold exactly
            break
        prev, signs = signs, np.sign(s)
        converged = step < config.tol
        if not (converged or np.array_equal(prev, signs)):
            continue
        on = signs != 0
        U_on = U[on]
        factor, solve_off = _cholesky_solver(G - U_on.T @ U_on)
        if factor is None:
            U_off = U[~on]
            solve_off = _cholesky_solver(
                U_off.T @ U_off + lambda1 * np.eye(U.shape[1]))[1]
        v_sup = solve_off(Um - U_on.T @ (m_t[on] - lambda2 * signs[on]))
        # via prox: calls of this module's shrink_matrix count alternations
        s_sup = prox.shrink_matrix(m_t - U @ v_sup, lambda2)
        if np.array_equal(np.sign(s_sup), signs):
            return solve(Um - U.T @ s_sup), s_sup
        if converged:
            break
        f = projection_objective(U, m_t, v, s, lambda1, lambda2)
        for _ in range(30):
            if projection_objective(U, m_t, v_sup, s_sup, lambda1,
                                    lambda2) < f:
                v, s = v_sup, s_sup
                break
            v_sup = 0.5 * (v + v_sup)
            s_sup = prox.shrink_matrix(m_t - U @ v_sup, lambda2)
    return v, s
