"""Batch low-rank + sparse decomposition and burn-in model construction.

The batch solver is the inexact ALM of Lin, Chen & Ma (2010) with a penalty
mu that grows while the primal residual outweighs the dual one and shrinks
while the dual one outweighs it tenfold (residual balancing, Boyd et al.
2011, 3.4.1). The rank is read at a loose-tolerance iterate, because a large
final mu leaves small spurious singular values in L.

The solve's first sweep reads ||M||_2 and the first thresholded iterate
from one eigendecomposition of M's Gram matrix (``prox.gram_eigh``). Every
later sweep thresholds through ``prox.svt_factors``, warm-started from the
previous sweep's leading right singular vectors: a few block subspace-
iteration steps with an accuracy check, on a block that widens where the
check fails and narrows to the kept count plus a few guard columns once
that count holds; the exact thin SVD, read from the Gram matrix where its
guard holds, is left for blocks past min(m, n) / 4. The solve returns its
last thresholded factors, from which the rank and the burn-in basis are
read without another SVD.

``burnin_initialize`` turns the batch decomposition of an initial sample
block into the seed state of the online trackers: estimated rank, a scaled
basis, the two accumulator matrices (``window_sums``, which the drift
correction shares), and the trailing window that seeds the ring buffer.
"""

import mmap
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import kernel
from .exceptions import (ContractViolation, InitializationError, is_count,
                         is_positive_real)
from .prox import (OVERSAMPLING, SvtFactors, gram_eigh, gram_factors,
                   lapack_factors, shrink_matrix, threshold_factors)
from .prox import svt_factors as svt

MU_GROWTH = 1.5     # penalty growth (and shrink) per sweep, Lin et al.'s
DUAL_RATIO = 10.0   # mu shrinks while the dual residual is over this * primal
DUAL_WEIGHT = 3.0   # the dual residual is relative to DUAL_WEIGHT * sqrt(m*n)
RANK_TOL = 1e-3     # relative primal residual at which the rank is read
RANK_REL_TOL = 1e-6  # singular values counted: above this times the largest


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
        if self.lam is not None and not is_positive_real(self.lam):
            raise ContractViolation(
                f"PcpConfig: lam must be finite and > 0, not {self.lam!r}")
        if not (is_positive_real(self.tol) and self.tol < 1):
            raise ContractViolation(
                f"PcpConfig: tol must be in (0, 1), not {self.tol!r}")
        if not (is_count(self.max_iter) and self.max_iter >= 1):
            raise ContractViolation("PcpConfig: max_iter must be an int >= 1")
        if not (is_positive_real(self.mu)
                or isinstance(self.mu, str) and self.mu == "auto"):
            raise ContractViolation("PcpConfig: mu must be finite and > 0, "
                                    f"or 'auto', not {self.mu!r}")


@dataclass
class PcpResult:
    """Batch decomposition M ~ L + S.

    rank is counted at sweep rank_iteration; factors is the last sweep's
    thresholded SVD, L == (factors.U * factors.s) @ factors.Vh.
    """

    L: np.ndarray
    S: np.ndarray
    iterations: int
    converged: bool
    rank: int
    rank_iteration: int
    factors: SvtFactors = field(repr=False)


@dataclass
class BurninInit:
    """Seed state for the online trackers, derived from a burn-in block.

    window_seed is the trailing window's (M_w - S_w, V_w), n_win x m and r,
    one sample per row, oldest first. L_b and S_b are the full burn-in
    decomposition, kept so that restarts can report burn-in estimates.
    """

    r: int
    U0: np.ndarray
    A0: np.ndarray
    B0: np.ndarray
    window_seed: tuple = field(repr=False)
    L_b: np.ndarray = field(default=None, repr=False)
    S_b: np.ndarray = field(default=None, repr=False)
    iterations: int = 0
    converged: bool = True


def pcp_alm(M, config=None):
    """Decompose M into low-rank L plus sparse S.

    Iterates, from S = 0, Y = M / J with J = max(||M||_2, ||M||_inf / lam)
    and mu = mu0:
        L <- svt(M - S + Y/mu, 1/mu)
        S <- shrink(M - L + Y/mu, lam/mu)
        Y <- Y + mu*(M - L - S)
    and mu *= MU_GROWTH while p > d, mu /= MU_GROWTH while d > DUAL_RATIO p,
    until p, d <= tol or max_iter sweeps; p = ||M - L - S||_F / ||M||_F, d =
    mu*||S - S_prev||_F / (DUAL_WEIGHT * sqrt(m*n)). rank counts the
    thresholded spectrum of the first L with p <= RANK_TOL (rank_iteration
    is its sweep), or of the last L; see _count_rank.

    The first thresholding input (1 + 1/(J*mu)) * M is a multiple of M, so
    the first sweep reads ||M||_2 and its iterate from one eigendecomposition
    of M's Gram matrix (see _first_sweep). Every later sweep makes one call
    to ``svt``, which is ``prox.svt_factors``: it warm-starts the subspace
    iteration from the previous sweep's block, widens the block where the
    loop declines, and takes the exact thin SVD only past min(m, n) / 4
    columns. The block keeps every column that call hands on while the kept
    count changes, and narrows to the kept count plus OVERSAMPLING guards
    once two sweeps in a row keep the same count: the count falls to 0 in
    the early sweeps and then climbs to the rank, and a block cut to it in
    between declines when the count jumps. The rest of a sweep is two
    elementwise passes (kernel.alm_input, the SVT input, and
    kernel.alm_update, everything after L with both norms' sums), each one
    loop of the compiled kernel over four arrays mapped up front: L, Y, S
    and the SVT input. Their pages go back to the system when the solve
    returns (malloc would keep those of per-sweep temporaries resident).
    Without the kernel, the passes are numpy's (_alm_input_numpy,
    _alm_update_numpy), on three more mapped arrays, with the same S, Y and
    L bit for bit; the kernel's sums differ from numpy's in the last bits.
    M is made row-major first (a copy for any other layout), so every array
    of the solve is, and its result does not depend on M's layout. The
    result carries the last sweep's factors, L = (U * s) @ Vh.

    Non-convergence is not an error: the last iterate is returned with
    converged=False and the caller decides.
    """
    M = np.ascontiguousarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ContractViolation("pcp_alm: M must be a non-empty 2-D matrix")
    if not np.isfinite(M).all():
        raise ContractViolation("pcp_alm: M contains non-finite entries")
    if config is None:
        config = PcpConfig()
    lam = (1.0 / np.sqrt(max(M.shape)) if config.lam is None
           else float(config.lam))
    mu, J, factors = _first_sweep(M, lam, config.mu)
    norm_M = np.linalg.norm(M) or 1.0
    dual_scale = DUAL_WEIGHT * np.sqrt(M.size)
    L, Y, S, work = (_zeros(*M.shape, mapped=True) for _ in range(4))
    if kernel.ACTIVE == "compiled":
        alm_input, alm_update = kernel.alm_input, kernel.alm_update
    else:
        scratch = tuple(_zeros(*M.shape, mapped=True) for _ in range(3))
        alm_input = partial(_alm_input_numpy, scratch=scratch)
        alm_update = partial(_alm_update_numpy, scratch=scratch)
    np.divide(M, J, out=Y)
    rank, block = None, factors.block
    for k in range(1, config.max_iter + 1):
        if k > 1:
            alm_input(M, S, Y, mu, work)
            kept = factors.s.size
            factors = svt(work, 1.0 / mu, block)
            block = (factors.block[:, :kept + OVERSAMPLING]
                     if factors.s.size == kept else factors.block)
        np.matmul(factors.U * factors.s, factors.Vh, out=L)
        residual_sq, step_sq = alm_update(M, L, Y, S, mu, lam)
        primal = np.sqrt(residual_sq) / norm_M
        dual = mu * np.sqrt(step_sq) / dual_scale
        if rank is None and primal <= RANK_TOL:
            rank, rank_iteration = _count_rank(factors.s), k
        converged = bool(primal <= config.tol and dual <= config.tol)
        if converged:
            break
        if primal > dual:
            mu *= MU_GROWTH
        elif dual > DUAL_RATIO * primal:
            mu /= MU_GROWTH
    if rank is None:
        rank, rank_iteration = _count_rank(factors.s), k
    return PcpResult(L=L, S=S, iterations=k, converged=converged, rank=rank,
                     rank_iteration=rank_iteration, factors=factors)


def _alm_input_numpy(M, S, Y, mu, out, scratch=None):
    """kernel.alm_input in numpy, with its argument list: the path where no
    compiled kernel is loaded. scratch is _alm_update_numpy's, whose second
    array takes Y / mu."""
    Y_mu = np.divide(Y, mu, out=None if scratch is None else scratch[1])
    np.add(np.subtract(M, S, out=out), Y_mu, out=out)


def _alm_update_numpy(M, L, Y, S, mu, lam, scratch=None):
    """kernel.alm_update in numpy, with its argument list: the path where no
    compiled kernel is loaded, and the tests' oracle. S <- shrink(M - L +
    Y/mu, lam/mu) and Y <- Y + mu*(M - L - S) in place; returns the squared
    norms of M - L - S and of S - S_old as np.linalg.norm sums them.
    scratch holds three C-order arrays of M's shape, for the residual, Y/mu
    and S_old; new ones where it is None."""
    residual, Y_mu, S_old = scratch or tuple(np.empty(M.shape)
                                             for _ in range(3))
    np.copyto(S_old, S)
    np.subtract(M, L, out=residual)
    np.add(residual, np.divide(Y, mu, out=Y_mu), out=Y_mu)
    shrink_matrix(Y_mu, lam / mu, out=S)
    residual -= S
    Y += np.multiply(mu, residual, out=Y_mu)
    r, d = residual.ravel(), np.subtract(S, S_old, out=S_old).ravel()
    return r.dot(r), d.dot(d)


def _zeros(rows, cols, mapped):
    """A zeroed C-order float64 rows x cols array; mapped, in private pages
    of its own, which dropping it hands back to the system at once (shared
    ones, mmap's default, fault in more slowly)."""
    if not mapped:
        return np.zeros((rows, cols))
    pages = mmap.mmap(-1, max(8 * rows * cols, 1), flags=mmap.MAP_PRIVATE)
    return np.ndarray((rows, cols), buffer=pages)


def _first_sweep(M, lam, mu):
    """(mu0, J, factors) of pcp_alm's first sweep, for the configured mu
    (a number or "auto"): mu0 = 1.25 / ||M||_2 under "auto", J =
    max(||M||_2, ||M||_inf / lam), and the factors of the first iterate
    svt((1 + 1/(J mu0)) M, 1/mu0), all from one eigendecomposition of M's
    Gram matrix (prox.gram_eigh). Under "auto" the kept values are at least
    0.44 ||M||_2, so gram_factors' guard holds. Where it fails (an explicit
    mu far above 1.25 / ||M||_2 keeps small values), the sweep reads all
    three from LAPACK's thin SVD of M, as it did before the Gram path."""
    def penalties(s):
        norm_two = s[0] if s.size else 0.0
        mu0 = float(mu) if mu != "auto" else (
            1.25 / norm_two if norm_two > 0.0 else 1.0)
        J = max(norm_two, np.abs(M).max(initial=0.0) / lam) or 1.0
        return mu0, J, 1.0 + 1.0 / (J * mu0)

    s, W = gram_eigh(M)
    mu0, J, scale = penalties(s)
    factors = gram_factors(M, s, W, 1.0 / mu0, scale)
    if factors is None:
        U, s, Vh, _ = lapack_factors(M, 0.0)
        mu0, J, scale = penalties(s)
        factors = threshold_factors(U, scale * s, Vh, 1.0 / mu0)
    return mu0, J, factors


def _count_rank(s):
    """Number of values of the descending spectrum s above RANK_REL_TOL *
    s[0]; 0 for an empty or zero spectrum. pcp_alm counts the thresholded
    spectrum of a loose-tolerance iterate, whose trailing values are exactly
    zero, so the count is insensitive to RANK_REL_TOL over a wide range."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_REL_TOL * s[0]))


def window_sums(E, V):
    """Accumulators of a window whose rows are the samples' (e_i, v_i), with
    e_i = m_i - s_i: A = sum v_i v_i' = V'V and B = sum e_i v_i' = E'V."""
    return V.T @ V, E.T @ V


def burnin_initialize(M_b, lambda1, lambda2, n_win):
    """Build tracker seed state from a burn-in sample block.

    Runs the batch solver (default PcpConfig) on M_b, takes its rank r and
    the factors of its low-rank part L_b = U_hat * diag(s) * Vh, and forms:

        U0   = U_hat[:, :r] * sqrt(s[:r])
        v_i  = sqrt(s[:r]) * Vh[:r, i]          (per-sample coefficients)
        A0, B0 = window_sums(E_w, V_w)          over the trailing n_win samples

    window_seed is that (E_w, V_w) = (M_w - S_w, V_w), oldest row first.
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
    if not (lambda1 > 0 and lambda2 > 0):
        raise ContractViolation("burnin_initialize: lambda1, lambda2 must be > 0")

    result = pcp_alm(M_b)
    U_hat, s, Vh, _ = result.factors
    r = min(result.rank, s.size)
    if r == 0:
        raise InitializationError("burn-in produced a zero low-rank part")

    scale = np.sqrt(s[:r])
    U0 = U_hat[:, :r] * scale
    # coefficients for every burn-in sample; column i reconstructs L_b[:, i]
    V = scale[:, None] * Vh[:r, :]

    window = slice(n_burnin - n_win, n_burnin)
    window_seed = (M_b[:, window].T - result.S[:, window].T, V[:, window].T)
    A0, B0 = window_sums(*window_seed)

    return BurninInit(r=r, U0=U0, A0=A0, B0=B0, window_seed=window_seed,
                      L_b=result.L, S_b=result.S,
                      iterations=result.iterations, converged=result.converged)
