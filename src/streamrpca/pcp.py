"""Batch low-rank + sparse decomposition and burn-in model construction.

The batch solver alternates a singular-value-thresholding step for the
low-rank part, an elementwise shrinkage step for the sparse part, and a dual
update, with a fixed penalty parameter mu, until the relative primal residual
||M - L - S||_F / ||M||_F drops below ``tol``.

``burnin_initialize`` turns the batch decomposition of an initial sample
block into the seed state of the online trackers: estimated rank, a scaled
basis, the two accumulator matrices, and the ring-buffer seed covering the
trailing window.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ContractViolation, InitializationError
from .prox import shrink_matrix, svt


@dataclass
class PcpConfig:
    """Solver configuration.

    lam: sparse-penalty weight; None picks 1/sqrt(max(m, n)).
    mu: penalty parameter; "auto" picks m*n / (4 * ||M||_1).
    tol: relative primal-residual stopping threshold (must be < 1).
    max_iter: iteration cap.
    """

    lam: float | None = None
    mu: float | str = "auto"
    tol: float = 1e-7
    max_iter: int = 500

    def __post_init__(self):
        if self.lam is not None and self.lam <= 0:
            raise ContractViolation("PcpConfig: lam must be positive")
        if not (0 < self.tol < 1):
            raise ContractViolation("PcpConfig: tol must be in (0, 1)")
        if self.max_iter < 1:
            raise ContractViolation("PcpConfig: max_iter must be >= 1")
        if self.mu != "auto" and (not np.isscalar(self.mu) or self.mu <= 0):
            raise ContractViolation("PcpConfig: mu must be positive or 'auto'")


@dataclass
class PcpResult:
    L: np.ndarray
    S: np.ndarray
    iterations: int
    converged: bool


@dataclass
class BurninInit:
    """Seed state for the online trackers, derived from a burn-in block.

    window_seed holds the trailing n_win tuples (m_i, v_i, s_i) in
    chronological order. L_b and S_b are the full burn-in decomposition,
    kept so that restarts can report estimates for burn-in samples.
    """

    r: int
    U0: np.ndarray
    A0: np.ndarray
    B0: np.ndarray
    window_seed: list = field(repr=False)
    L_b: np.ndarray = field(default=None, repr=False)
    S_b: np.ndarray = field(default=None, repr=False)


def default_pcp_lambda(m, n):
    """Rule-of-thumb sparse penalty for an m x n matrix: 1/sqrt(max(m, n))."""
    if m < 1 or n < 1:
        raise ContractViolation("default_pcp_lambda: dimensions must be >= 1")
    return 1.0 / np.sqrt(max(m, n))


def default_mu(M):
    """Default penalty parameter: m*n / (4*||M||_1), or 1.0 for a zero matrix."""
    M = np.asarray(M, dtype=float)
    l1 = np.abs(M).sum()
    if l1 == 0.0:
        return 1.0
    return M.size / (4.0 * l1)


def pcp_alm(M, config=None):
    """Decompose M into low-rank L plus sparse S.

    Iterates, starting from S = Y = 0:
        L <- svt(M - S + Y/mu, 1/mu)
        S <- shrink(M - L + Y/mu, lam/mu)
        Y <- Y + mu*(M - L - S)
    until ||M - L - S||_F <= tol * ||M||_F or max_iter sweeps.

    Non-convergence is not an error: the best iterate is returned with
    converged=False and the caller decides.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ContractViolation("pcp_alm: M must be a 2-D matrix")
    if not np.isfinite(M).all():
        raise ContractViolation("pcp_alm: M contains non-finite entries")
    if config is None:
        config = PcpConfig()
    lam = config.lam if config.lam is not None else default_pcp_lambda(*M.shape)
    mu = default_mu(M) if config.mu == "auto" else float(config.mu)

    norm_M = np.linalg.norm(M)
    stop = config.tol * norm_M
    S = np.zeros_like(M)
    Y = np.zeros_like(M)
    L = np.zeros_like(M)
    converged = False
    k = 0
    for k in range(1, config.max_iter + 1):
        L = svt(M - S + Y / mu, 1.0 / mu)
        S = shrink_matrix(M - L + Y / mu, lam / mu)
        residual = M - L - S
        Y += mu * residual
        if np.linalg.norm(residual) <= stop:
            converged = True
            break
    return PcpResult(L=L, S=S, iterations=k, converged=converged)


def estimate_rank(L, rel_tol=1e-6):
    """Count singular values above rel_tol times the largest one.

    Returns 0 for the zero matrix. The batch solver leaves trailing singular
    values numerically zero, so the count is insensitive to rel_tol over a
    wide range.
    """
    if not (0 < rel_tol < 1):
        raise ContractViolation("estimate_rank: rel_tol must be in (0, 1)")
    s = np.linalg.svd(np.asarray(L, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def burnin_initialize(M_b, lambda1, lambda2, n_win, pcp_config=None):
    """Build tracker seed state from a burn-in sample block.

    Runs the batch solver on M_b, takes the thin SVD of the low-rank part
    L_b = U_hat * diag(s) * Vh, estimates the rank r, and forms:

        U0   = U_hat[:, :r] * sqrt(s[:r])
        v_i  = sqrt(s[:r]) * Vh[:r, i]          (per-sample coefficients)
        A0   = sum of v_i v_i'   over the trailing n_win samples
        B0   = sum of (m_i - s_i) v_i'  over the same window

    window_seed holds the trailing n_win (m_i, v_i, s_i) tuples.
    """
    M_b = np.asarray(M_b, dtype=float)
    if M_b.ndim != 2:
        raise ContractViolation("burnin_initialize: M_b must be 2-D")
    m, n_burnin = M_b.shape
    if n_win > n_burnin:
        raise ContractViolation(
            f"burnin_initialize: n_win={n_win} exceeds n_burnin={n_burnin}"
        )
    if n_win < 1:
        raise ContractViolation("burnin_initialize: n_win must be >= 1")
    if lambda1 <= 0 or lambda2 <= 0:
        raise ContractViolation("burnin_initialize: lambda1, lambda2 must be > 0")

    result = pcp_alm(M_b, config=pcp_config)
    U_hat, s, Vh = np.linalg.svd(result.L, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise InitializationError("burn-in produced a zero low-rank part")
    r = int(np.count_nonzero(s > 1e-6 * s[0]))  # estimate_rank's default
    if r == 0:
        raise InitializationError("burn-in produced a zero-rank low-rank part")

    scale = np.sqrt(s[:r])
    U0 = U_hat[:, :r] * scale
    # coefficients for every burn-in sample; column i reconstructs L_b[:, i]
    V = scale[:, None] * Vh[:r, :]

    A0 = np.zeros((r, r))
    B0 = np.zeros((m, r))
    window_seed = []
    for i in range(n_burnin - n_win, n_burnin):
        v_i = V[:, i].copy()
        s_i = result.S[:, i].copy()
        m_i = M_b[:, i].copy()
        A0 += np.outer(v_i, v_i)
        B0 += np.outer(m_i - s_i, v_i)
        window_seed.append((m_i, v_i, s_i))

    return BurninInit(r=r, U0=U0, A0=A0, B0=B0, window_seed=window_seed,
                      L_b=result.L, S_b=result.S)
