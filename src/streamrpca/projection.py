"""Per-sample projection onto the current basis.

Solves, for a fixed basis U and one observation m_t,

    min_{v, s}  0.5*||m_t - U v - s||^2 + (lambda1/2)*||v||^2 + lambda2*||s||_1

The problem is jointly strictly convex for lambda1 > 0, so a point that
meets the KKT conditions is the unique minimizer.
"""

from dataclasses import dataclass

import numpy as np

from . import kernel, prox
from .exceptions import ContractViolation, is_count, is_positive_real
from .prox import shrink_matrix


@dataclass
class ProjectionConfig:
    """Stopping rule of the alternation: quit once the max-norm change of
    both v and s is < tol, or after max_iter alternations (a backstop: the
    linear rate degrades while a shrinkage boundary stays active). tol does
    not bound the exact finish on a support, which passes a KKT check."""

    tol: float = 1e-7
    max_iter: int = 1000

    def __post_init__(self):
        if not is_positive_real(self.tol):
            raise ContractViolation("ProjectionConfig: tol must be > 0 and "
                                    f"finite, not {self.tol!r}")
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

    Forms G = U'U + lambda1*I and U'm_t once, starts from s = 0 and
    alternates v <- G^{-1}(U'm_t - U's), s <- shrink(m_t - U v, lambda2).
    Once two alternations in a row give the same sign pattern sigma, or the
    stopping rule fires, it solves for v exactly on the support S of sigma:
    (G - U_S'U_S) v = U'm_t - U_S'm_S + lambda2*U_S'sigma_S, where G - U_S'U_S
    is the Gram matrix of the rows off S. The compiled kernel downdates G
    to it, and forms it from the rows off S where the downdate fails to
    factor; the numpy path always forms it from those rows. If
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
    # ndarray.dot, not @: an alternation is a few small products, and @
    # costs about 0.4 us more dispatch per call at r = 10
    G = U.T.dot(U)
    G.flat[::U.shape[1] + 1] += lambda1
    Um = U.T.dot(m_t)
    if not (np.isfinite(G).all() and np.isfinite(Um).all()):
        raise ContractViolation("project_sample: U'U or U'm_t overflows")
    # v = G^{-1}U'(m_t - s) = Pm - P s: one numpy.linalg call per sample,
    # not one per alternation, as each costs microseconds at r = 10
    G_inv = np.linalg.inv(G)
    P, Pm = G_inv.dot(U.T), G_inv.dot(Um)
    v = np.zeros(U.shape[1])
    s = np.zeros_like(m_t)
    pattern = None
    for _ in range(config.max_iter):
        v_new = Pm - P.dot(s)
        s_new = shrink_matrix(m_t - U.dot(v_new), lambda2)
        # a v step of tol or more decides both tests below on its own
        step = np.abs(v_new - v).max(initial=0.0)
        if step < config.tol:
            step = max(step, np.abs(s_new - s).max())
        v, s = v_new, s_new
        if step == 0:  # a fixed point: the KKT conditions hold exactly
            break
        # np.sign maps -0.0 to 0.0, so equal bytes are equal sign patterns
        signs = np.sign(s)
        prev, pattern = pattern, signs.tobytes()
        converged = step < config.tol
        if not (converged or prev == pattern):
            continue
        on = signs != 0
        U_off = U.compress(~on, axis=0)
        G_off = U_off.T.dot(U_off)
        G_off.flat[::U.shape[1] + 1] += lambda1
        # U'm_t - U_S'(m_S - lambda2 sigma_S) = U'w, w = m_t off S and
        # lambda2 sigma on it
        v_sup = np.linalg.solve(
            G_off, U.T.dot(np.where(on, lambda2 * signs, m_t)))
        # via prox: calls of this module's shrink_matrix count alternations
        s_sup = prox.shrink_matrix(m_t - U.dot(v_sup), lambda2)
        if np.sign(s_sup).tobytes() == pattern:
            return Pm - P.dot(s_sup), s_sup
        if converged:
            break
        f = projection_objective(U, m_t, v, s, lambda1, lambda2)
        for _ in range(30):
            if projection_objective(U, m_t, v_sup, s_sup, lambda1,
                                    lambda2) < f:
                v, s = v_sup, s_sup
                break
            v_sup = 0.5 * (v + v_sup)
            s_sup = prox.shrink_matrix(m_t - U.dot(v_sup), lambda2)
    return v, s
