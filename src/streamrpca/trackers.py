"""Online trackers: cumulative ("stoc") and moving-window ("omw").

One step function, omw_step, serves both: project the sample onto the
current basis, fold the coefficient/sparse pair into the accumulators A and
B, and run one block-coordinate sweep of the basis update. Without a window
the sums keep growing (cumulative); with a ring buffer of the most recent
n_win samples the step also subtracts the contribution of the sample falling
out, so the state size is independent of how long the tracker has run.

The one runtime of every mode, changepoint.OmwCpPipeline, steps a stream with
omw_step; its two switches are eviction (a window buffer) and the detector.

A tracker is single-owner mutable state: one step at a time, no concurrent
steps. Independent instances can run on different threads, and state can be
handed between threads between steps.
"""

import mmap
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .basis import _check_accumulator, update_basis
from .exceptions import ContractViolation
from .pcp import burnin_initialize, window_sums
from .projection import ProjectionConfig, project_sample

# Recompute A/B from the ring buffer every DRIFT_CORRECTION_FACTOR * n_win
# steps to cancel float accumulation drift from the add/subtract updates.
DRIFT_CORRECTION_FACTOR = 10


@dataclass
class SubspaceModel:
    """Mutable tracker state: basis, accumulators, penalties, step count;
    it owns copies of U, A and B, with U and B column-major."""

    U: np.ndarray
    A: np.ndarray
    B: np.ndarray
    lambda1: float
    lambda2: float
    t: int = 0

    def __post_init__(self):
        self.U, self.B = (np.array(X, dtype=float, order="F")
                          for X in (self.U, self.B))
        self.A = np.array(self.A, dtype=float)
        m, r = self.U.shape
        if self.A.shape != (r, r) or self.B.shape != (m, r):
            raise ContractViolation(
                f"SubspaceModel: inconsistent shapes U{self.U.shape} "
                f"A{self.A.shape} B{self.B.shape}"
            )
        if not (0 < self.lambda1 < np.inf and 0 < self.lambda2 < np.inf):
            raise ContractViolation(
                "SubspaceModel: lambdas must be finite and > 0")
        _check_accumulator(self.A, "SubspaceModel")

    @property
    def m(self):
        return self.U.shape[0]

    @property
    def r(self):
        return self.U.shape[1]


class WindowBuffer:
    """The last n_win samples' (m_i, v_i, s_i) as the rows of three arrays.

    Built full from a window's (M, V, S), one sample per row, oldest first
    (n_win x m, n_win x r, n_win x m); the arrays are copied. Each step
    overwrites the oldest row, the views of oldest(), in place and then
    advances the head, so the buffer stays full and the head index points
    at the oldest row.
    """

    def __init__(self, M, V, S):
        M, V, S = self._rows = tuple(np.array(X, dtype=float, order="C")
                                     for X in (M, V, S))
        if not (M.ndim == V.ndim == 2 and S.shape == M.shape
                and len(V) == len(M) > 0):
            raise ContractViolation(f"WindowBuffer: empty or ragged rows "
                                    f"M{M.shape} V{V.shape} S{S.shape}")
        self._head = 0

    @property
    def capacity(self):
        return len(self._rows[0])

    def oldest(self):
        """The oldest row (m, v, s), as views for the step to overwrite."""
        M, V, S = self._rows
        return M[self._head], V[self._head], S[self._head]

    def advance(self):
        """Make the oldest row, once overwritten, the newest."""
        self._head = (self._head + 1) % self.capacity

    def rows(self):
        """(M, V, S) with one sample per row, oldest first (copies)."""
        return tuple(np.roll(X, -self._head, axis=0) for X in self._rows)

    def recompute_accumulators(self):
        """Rebuild A = sum v v' and B = sum (m - s) v' from the window."""
        return window_sums(*self.rows())


def _zeros(rows, cols, mapped):
    """A zeroed float64 rows x cols array; mapped, in pages of its own, which
    dropping it hands back to the system at once."""
    if not mapped:
        return np.zeros((rows, cols))
    pages = mmap.mmap(-1, max(8 * rows * cols, 1))
    return np.frombuffer(pages, count=rows * cols).reshape(rows, cols)


class ColumnStore:
    """Tracked (l, s) columns in row blocks of BLOCK columns: l dense, s as
    its nonzeros (int32 row, value; -0.0 counts) with each column's end
    offset in its block."""

    BLOCK = 256
    # Stacked outputs of this many elements (4 MB) or more are mapped, as
    # the l blocks are: malloc keeps the freed pages of such arrays
    # resident, dead weight beside the next run's blocks. Smaller ones stay
    # on the heap, whose free space the caller's next arrays reuse.
    MAPPED_OUTPUT = 2**19

    def __init__(self, m):
        self.m, self.n, self.blocks = m, 0, []

    def append(self, l, s):
        b, k = divmod(self.n, self.BLOCK)
        if b == len(self.blocks):
            self.blocks.append([_zeros(self.BLOCK, self.m, mapped=True),
                                np.empty(self.BLOCK, np.int64),
                                np.empty(0, np.int32), np.empty(0)])
        block = self.blocks[b]
        block[0][k] = l
        nz = s.view(np.int64).nonzero()[0]
        start = block[1][k - 1] if k else 0
        end = block[1][k] = start + nz.size
        if end > block[2].size:  # grow past twice the filled part
            block[2:] = (np.concatenate([X[:start], np.empty(end, X.dtype)])
                         for X in block[2:])
        block[2][start:end], block[3][start:end] = nz, s[nz]
        self.n += 1

    def extend(self, L, S):
        """Append the columns of m x k matrices L and S."""
        for l, s in zip(L.T, S.T):
            self.append(l, s)

    def truncate(self, n):
        """Drop the columns from the n-th on."""
        self.n = n
        del self.blocks[-(-n // self.BLOCK):]

    def dense(self, drain=False):
        """(L, S): m x n, C order. drain empties the store, dropping each l
        block once copied and before S is allocated: the blocks, L and S
        are then not all held at once."""
        n, blocks = self.n, self.blocks
        if drain:
            self.n, self.blocks = 0, []
        spans = [(lo, min(self.BLOCK, n - lo))
                 for lo in range(0, n, self.BLOCK)]
        mapped = self.m * n >= self.MAPPED_OUTPUT
        L = _zeros(self.m, n, mapped)
        for (lo, k), block in zip(spans, blocks):
            L[:, lo:lo + k] = block[0][:k].T
            if drain:
                block[0] = None
        S = _zeros(self.m, n, mapped)
        for (lo, k), (_, ends, rows, values) in zip(spans, blocks):
            cols = lo + np.repeat(np.arange(k), np.diff(ends[:k], prepend=0))
            S[rows[:ends[k - 1]], cols] = values[:ends[k - 1]]
        return L, S


@dataclass
class StepOutput:
    v: np.ndarray
    s: np.ndarray
    l: np.ndarray  # U_t @ v_t, computed with the post-update basis


@dataclass
class DecompositionResult:
    """Per-time low-rank and sparse estimates plus detected change points."""

    L: np.ndarray
    S: np.ndarray
    change_points: list = field(default_factory=list)


# TrackerConfig's fields that only the detector reads
DETECTOR_FIELDS = ("n_cp_burnin", "n_test", "n_check", "alpha", "alpha_prop",
                   "n_positive", "n_tol")


@dataclass
class TrackerConfig:
    """Configuration of every mode: the tracker's settings, and the
    detector's, which only omw-cp reads.

    lambda1/lambda2 default to the rule-of-thumb 1/sqrt(max(m, n_win)) and
    100/sqrt(max(m, n_win)) once the sample dimension is known. n_check
    should stay below n_win/2 to avoid missing change points (tuning
    guidance, not enforced).
    """

    n_burnin: int
    n_win: int
    lambda1: float | None = None
    lambda2: float | None = None
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)
    n_cp_burnin: int = 100
    n_test: int = 100
    n_check: int = 20
    alpha: float = 0.01
    alpha_prop: float = 0.5
    n_positive: int = 3
    n_tol: int = 0

    def __post_init__(self):
        if self.n_burnin < 1 or self.n_win < 1:
            raise ContractViolation(
                "TrackerConfig: n_burnin, n_win must be >= 1")
        if self.n_win > self.n_burnin:
            raise ContractViolation("TrackerConfig: n_win must be <= n_burnin")
        if not all(0 < x < np.inf for x in (self.lambda1, self.lambda2)
                   if x is not None):
            raise ContractViolation(
                "TrackerConfig: lambda1, lambda2 must be finite and > 0")
        if min(self.n_cp_burnin, self.n_test, self.n_check,
               self.n_positive) < 1:
            raise ContractViolation("TrackerConfig: counts must be >= 1")
        if not (0 < self.alpha < 1):
            raise ContractViolation("TrackerConfig: alpha must be in (0, 1)")
        if not (0 < self.alpha_prop <= 1):
            raise ContractViolation(
                "TrackerConfig: alpha_prop must be in (0, 1]")
        if self.n_positive > self.n_check:
            raise ContractViolation(
                "TrackerConfig: n_positive must be <= n_check")
        if self.n_tol < 0:
            raise ContractViolation("TrackerConfig: n_tol must be >= 0")

    def resolved_lambdas(self, m):
        scale = 1.0 / np.sqrt(max(m, self.n_win))
        lambda1 = self.lambda1 if self.lambda1 is not None else scale
        lambda2 = self.lambda2 if self.lambda2 is not None else 100.0 * scale
        return lambda1, lambda2


def stoc_step(model, m_t, projection_config=None):
    """One cumulative step: omw_step without a window."""
    return omw_step(model, None, m_t, projection_config)


def omw_step(model, buffer, m_t, projection_config=None):
    """One tracker step; buffer None is the cumulative tracker.

    Projects the sample and adds its outer products to A and B. With a
    window, one eviction rule: the oldest row's terms are subtracted, the
    row is overwritten in place with (m_t, v, s), and only then does the
    head advance. Then it updates the basis. A step that fails before the
    basis update leaves the model and the window as they were. Every
    DRIFT_CORRECTION_FACTOR * n_win steps a window recomputes A and B from
    its rows to cancel float drift.
    """
    m_t = np.asarray(m_t, dtype=float)
    if m_t.shape != (model.m,):
        raise ContractViolation(
            f"omw_step: sample dimension {m_t.shape} != ({model.m},)"
        )
    v, s = project_sample(model.U, m_t, model.lambda1, model.lambda2,
                          projection_config)
    oldest = () if buffer is None else buffer.oldest()
    accumulate = (kernel.accumulate if kernel.ACTIVE == "compiled"
                  else _accumulate_numpy)
    accumulate(model.A, model.B, m_t, v, s, *oldest)
    if buffer is not None:
        buffer.advance()
    update_basis(model.U, model.A, model.B, model.lambda1)
    model.t += 1
    if (buffer is not None and
            model.t % (DRIFT_CORRECTION_FACTOR * buffer.capacity) == 0):
        model.A[...], model.B[...] = buffer.recompute_accumulators()
    return StepOutput(v=v, s=s, l=model.U @ v)


def _accumulate_numpy(A, B, x, v, s, *oldest):
    """kernel.accumulate in numpy, with its argument list: the path where
    no compiled kernel is loaded. The oldest row's shapes are checked
    against (x, v, x) before anything is written."""
    # the evicted terms are subtracted from the increment before it is
    # added, so A += outer(v, v) - outer(v_old, v_old) keeps its bits; B's
    # increment is built transposed, on the contiguous rows of B.T
    dA = np.outer(v, v)
    dBt = np.outer(v, x - s)
    if oldest:
        shapes = tuple(np.shape(X) for X in oldest)
        if shapes != (x.shape, v.shape, x.shape):
            raise ContractViolation(f"omw_step: oldest row shapes {shapes} "
                                    f"do not fit {(x.shape, v.shape)}")
        m_old, v_old, s_old = oldest
        dA -= np.outer(v_old, v_old)
        dBt -= np.outer(v_old, m_old - s_old)
        m_old[...], v_old[...], s_old[...] = x, v, s
    A += dA
    np.add(B.T, dBt, out=B.T)


def state_element_count(model, buffer=None):
    """Structural size of tracker state in stored float elements."""
    count = model.U.size + model.A.size + model.B.size
    if buffer is not None:
        count += sum(X.size for X in buffer._rows)
    return count


def seed_tracker(stream, index, config, evict):
    """Batch burn-in on stream samples [index, index + n_burnin): returns
    (BurninInit, model, buffer), or None if the stream ends first. The
    buffer, None unless evict, holds the burn-in's trailing n_win samples."""
    burn = [stream.get(i) for i in range(index, index + config.n_burnin)]
    if burn[-1] is None:  # get() is None at every index past the end
        return None
    M_b = np.column_stack(burn)
    lambda1, lambda2 = config.resolved_lambdas(M_b.shape[0])
    init = burnin_initialize(M_b, lambda1, lambda2, config.n_win)
    model = SubspaceModel(U=init.U0, A=init.A0, B=init.B0, lambda1=lambda1,
                          lambda2=lambda2)
    return init, model, WindowBuffer(*init.window_seed) if evict else None
