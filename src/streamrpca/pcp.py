"""Batch low-rank + sparse decomposition and burn-in model construction.

The batch solver is the inexact ALM of Lin, Chen & Ma (2010) with a penalty
mu that grows only while the primal residual outweighs the dual one (residual
balancing, Boyd et al. 2011, 3.4.1; growing it every sweep stalls short of
the optimum). The rank is read at a loose-tolerance iterate, because a large
final mu leaves small spurious singular values in L.

``burnin_initialize`` turns the batch decomposition of an initial sample
block into the seed state of the online trackers: estimated rank, a scaled
basis, the two accumulator matrices, and the ring-buffer seed covering the
trailing window.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ContractViolation, InitializationError
from .prox import shrink_matrix, svt

MU_GROWTH = 1.2     # penalty growth per sweep (Lin et al. use 1.5)
DUAL_WEIGHT = 3.0   # the dual residual is relative to DUAL_WEIGHT * sqrt(m*n)
RANK_TOL = 1e-3     # relative primal residual at which the rank is read


@dataclass
class PcpConfig:
    """Solver configuration.

    lam: sparse-penalty weight; None picks 1/sqrt(max(m, n)).
    mu: initial penalty parameter; "auto" picks 1.25 / ||M||_2.
    tol: threshold of the relative primal and dual residuals (must be < 1).
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
    rank: int


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
    iterations: int = 0
    converged: bool = True


def default_pcp_lambda(m, n):
    """Rule-of-thumb sparse penalty for an m x n matrix: 1/sqrt(max(m, n))."""
    if m < 1 or n < 1:
        raise ContractViolation("default_pcp_lambda: dimensions must be >= 1")
    return 1.0 / np.sqrt(max(m, n))


def default_mu(M):
    """Default initial penalty: 1.25 / ||M||_2, or 1.0 for a zero matrix."""
    norm_two = np.linalg.norm(np.asarray(M, dtype=float), 2)
    return 1.25 / norm_two if norm_two > 0.0 else 1.0


def pcp_alm(M, config=None):
    """Decompose M into low-rank L plus sparse S.

    Iterates, from S = 0, Y = M / max(||M||_2, ||M||_inf / lam), mu = mu0:
        L <- svt(M - S + Y/mu, 1/mu)
        S <- shrink(M - L + Y/mu, lam/mu)
        Y <- Y + mu*(M - L - S)
    and mu *= MU_GROWTH while p > d, until p <= tol and d <= tol or max_iter
    sweeps; p = ||M - L - S||_F / ||M||_F, d = mu*||S - S_prev||_F /
    (DUAL_WEIGHT * sqrt(m*n)). rank is estimate_rank of the first L with
    p <= RANK_TOL, or of the last L.

    Non-convergence is not an error: the last iterate is returned with
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
    norm_two = np.linalg.norm(M, 2)
    mu0 = 1.25 / norm_two if norm_two > 0.0 else 1.0   # default_mu(M)
    mu = mu0 if config.mu == "auto" else float(config.mu)
    norm_M = np.linalg.norm(M) or 1.0
    dual_scale = DUAL_WEIGHT * np.sqrt(M.size)
    Y = M / (max(norm_two, np.abs(M).max(initial=0.0) / lam) or 1.0)
    S = np.zeros_like(M)
    rank = None
    for k in range(1, config.max_iter + 1):
        L = svt(M - S + Y / mu, 1.0 / mu)
        S_prev, S = S, shrink_matrix(M - L + Y / mu, lam / mu)
        residual = M - L - S
        Y += mu * residual
        primal = np.linalg.norm(residual) / norm_M
        dual = mu * np.linalg.norm(S - S_prev) / dual_scale
        if rank is None and primal <= RANK_TOL:
            rank = estimate_rank(L)
        converged = bool(primal <= config.tol and dual <= config.tol)
        if converged:
            break
        if primal > dual:
            mu *= MU_GROWTH
    return PcpResult(L=L, S=S, iterations=k, converged=converged,
                     rank=estimate_rank(L) if rank is None else rank)


def estimate_rank(L, rel_tol=1e-6):
    """Count singular values above rel_tol times the largest one.

    Returns 0 for the zero matrix. pcp_alm applies it to a loose-tolerance
    iterate, whose trailing singular values are still exactly zero, so the
    count is insensitive to rel_tol over a wide range.
    """
    if not (0 < rel_tol < 1):
        raise ContractViolation("estimate_rank: rel_tol must be in (0, 1)")
    s = np.linalg.svd(np.asarray(L, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def burnin_initialize(M_b, lambda1, lambda2, n_win, pcp_config=None):
    """Build tracker seed state from a burn-in sample block.

    Runs the batch solver on M_b, takes its rank r and the thin SVD of the
    low-rank part L_b = U_hat * diag(s) * Vh, and forms:

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
    r = result.rank
    if r == 0 or s[0] == 0.0:
        raise InitializationError("burn-in produced a zero low-rank part")

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
                      L_b=result.L, S_b=result.S,
                      iterations=result.iterations, converged=result.converged)
