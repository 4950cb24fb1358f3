"""Change-point detection wrapped around the moving-window tracker.

The pipeline monitors the support size of each sparse estimate. A tracked
segment goes through three phases:

  CP_BURNIN    let the freshly initialized subspace settle; nothing recorded.
  TEST_FILL    record support sizes into the normal-period histogram.
  MONITORING   per step, compute the empirical tail p-value of the current
               support size against the histogram, flag it if p <= alpha,
               and keep the last n_check (size, flag) pairs in FIFO buffers.
               A pair aging out of the FIFO is absorbed into the histogram,
               so no observation ever contributes to its own test.

When at least alpha_prop * n_check of the buffered flags are abnormal, the
buffer is scanned oldest-to-newest for the first run of n_positive
consecutive flags; the run's first time index t0 is declared a change
point. The pipeline then rewinds the stream to t0 and restarts end to end:
fresh batch burn-in starting at t0 (whose decomposition overwrites the
estimates for the burn-in span), fresh histogram, fresh buffers. Change
points closer together than n_burnin + n_cp_burnin + n_test samples are
structurally undetectable because detection is off during those phases.

All reported time indices are 1-based positions in the tracked stream
(the sample right after the initial burn-in block is t = 1) and are
absolute: they are not re-based after restarts.

The pipeline is a single-owner sequential state machine. Its stream must
support replay from a retained horizon of at least n_burnin + n_check
samples, since a restart rewinds to the detected change point.
"""

import enum
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ContractViolation
# burnin_initialize and omw_step are unused here; bench/tracer.py wraps them.
from .pcp import burnin_initialize
from .trackers import (DecompositionResult, Tracker, TrackerConfig, omw_step,
                       seed_tracker)


class CpPhase(enum.Enum):
    CP_BURNIN = "cp-burnin"
    TEST_FILL = "test-fill"
    MONITORING = "monitoring"


@dataclass(kw_only=True)
class CpConfig(TrackerConfig):
    """The tracker's configuration plus the detector's (keyword-only) fields.

    n_check should stay below n_win/2 to avoid missing change points
    (tuning guidance, not enforced).
    """

    n_cp_burnin: int
    n_test: int
    n_check: int
    alpha: float = 0.01
    alpha_prop: float = 0.5
    n_positive: int = 3
    n_tol: int = 0

    def __post_init__(self):
        super().__post_init__()
        if min(self.n_cp_burnin, self.n_test, self.n_check,
               self.n_positive) < 1:
            raise ContractViolation("CpConfig: counts must be >= 1")
        if not (0 < self.alpha < 1):
            raise ContractViolation("CpConfig: alpha must be in (0, 1)")
        if not (0 < self.alpha_prop <= 1):
            raise ContractViolation("CpConfig: alpha_prop must be in (0, 1]")
        if self.n_positive > self.n_check:
            raise ContractViolation("CpConfig: n_positive must be <= n_check")
        if self.n_tol < 0:
            raise ContractViolation("CpConfig: n_tol must be >= 0")


class SupportHistogram:
    """Counts of past normal-period support sizes, indexed 0..m."""

    def __init__(self, m, counts=None):
        self.m = m
        if counts is None:
            self.counts = np.zeros(m + 1, dtype=np.int64)
        else:
            self.counts = np.asarray(counts, dtype=np.int64).copy()
            if self.counts.shape != (m + 1,):
                raise ContractViolation("SupportHistogram: bad counts shape")

    @property
    def total(self):
        return int(self.counts.sum())

    def record(self, c):
        if not 0 <= c <= self.m:
            raise ContractViolation(
                f"SupportHistogram: support size {c} outside [0, {self.m}]")
        self.counts[c] += 1

    def count_at_least(self, c_min):
        c_min = max(int(c_min), 0)
        if c_min > self.m:
            return 0
        return int(self.counts[c_min:].sum())


class FlagBuffers:
    """Paired FIFOs of recent support sizes and abnormality flags."""

    def __init__(self, capacity):
        if capacity < 1:
            raise ContractViolation("FlagBuffers: capacity must be >= 1")
        self.capacity = capacity
        self.sizes = deque()
        self.flags = deque()

    def __len__(self):
        return len(self.flags)

    def clear(self):
        self.sizes.clear()
        self.flags.clear()


@dataclass
class CpDiagnostic:
    """Per-step monitoring record; p and flag are None outside MONITORING."""

    t: int
    support_size: int
    p: float | None
    flag: int | None
    phase: str


@dataclass
class ChangePointReport:
    change_points: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    status: str = "ok"
    warnings: list = field(default_factory=list)


def support_size(s, zero_eps=0.0):
    """Number of entries with magnitude above zero_eps.

    The projection solver produces exact zeros through shrinkage, so
    zero_eps = 0 is exact on solver output.
    """
    return int(np.count_nonzero(np.abs(np.asarray(s)) > zero_eps))


def p_value(hist, c_t, n_tol=0):
    """Fraction of recorded support sizes >= c_t - n_tol (clamped at 0)."""
    total = hist.total
    if total == 0:
        raise ContractViolation("p_value: empty histogram")
    return hist.count_at_least(c_t - n_tol) / total


def flag_observation(p, alpha):
    """1 iff p <= alpha (boundary inclusive)."""
    return 1 if p <= alpha else 0


def buffer_advance(buffers, hist, c_t, f_t):
    """Append (c_t, f_t); once the FIFOs exceed capacity, age out the oldest
    pair and absorb its support size into the histogram."""
    buffers.sizes.append(c_t)
    buffers.flags.append(f_t)
    if len(buffers.flags) == buffers.capacity + 1:
        c_old = buffers.sizes.popleft()
        buffers.flags.popleft()
        hist.record(c_old)


def scan_for_changepoint(flags, alpha_prop, n_check, n_positive, current_t):
    """Locate a change point in a full flag buffer.

    flags[k] corresponds to time current_t - n_check + 1 + k. If the number
    of abnormal flags reaches alpha_prop * n_check, the first run of
    n_positive consecutive flags is located and the time of its first
    element returned; otherwise (including threshold met but no such run)
    returns None.
    """
    flags = list(flags)
    if len(flags) != n_check:
        raise ContractViolation(
            f"scan_for_changepoint: buffer holds {len(flags)} flags, "
            f"expected {n_check}")
    if sum(flags) < alpha_prop * n_check:
        return None
    run = 0
    for k, f in enumerate(flags):
        run = run + 1 if f else 0
        if run == n_positive:
            return current_t - n_check + 1 + (k - n_positive + 1)
    return None


class OmwCpPipeline:
    """Resumable tracking + detection: the detector of a trackers.Tracker.

    run() seeds a moving-window Tracker and runs it with this pipeline as
    its detector: after each step the tracker calls observe() (phases,
    histogram, flag FIFOs, scan). Because a restart rewrites recent
    columns, snapshots carry the tracker's column list along with the
    tracker and detector state.
    """

    STATUS_OK = "ok"
    STATUS_INSUFFICIENT = "insufficient-stream"

    def __init__(self, config):
        self.config = config
        self.tracker = None    # built once a full burn-in block was read
        self.hist = None
        self.flag_buffers = FlagBuffers(config.n_check)
        self.change_points = []
        self.detection_enabled = True
        self.status = self.STATUS_OK
        self.warnings = []

    @property
    def t(self):  # tracked time of the next sample
        return self.tracker.t if self.tracker is not None else 1

    def run(self, stream):
        """Consume the stream to exhaustion; resumable across calls."""
        self.diagnostics = []
        if self.tracker is None and not self._seed(stream):
            self.status = self.STATUS_INSUFFICIENT
            self.warnings.append(f"stream shorter than n_burnin="
                                 f"{self.config.n_burnin}; nothing tracked")
            L = S = np.zeros((0, 0))
        else:
            self.tracker.run(stream, detector=self)
            L, S = self.tracker.outputs()
        result = DecompositionResult(L=L, S=S,
                                     change_points=list(self.change_points))
        report = ChangePointReport(change_points=list(self.change_points),
                                   diagnostics=self.diagnostics,
                                   status=self.status,
                                   warnings=list(self.warnings))
        return result, report

    def _seed(self, stream):
        # its own frame, so that the BurninInit is freed before tracking
        seeded = seed_tracker(stream, 0, self.config, evict=True)
        if seeded is None:
            return False
        init, model, buffer = seeded
        self._check_burnin(init, "before t=1")
        self.hist = SupportHistogram(model.m)
        self.tracker = Tracker(model, buffer, self.config.n_burnin,
                               self.config.projection)
        return True

    def _check_burnin(self, init, where):
        if not init.converged:
            self.warnings.append(f"burn-in {where}: batch solve unconverged "
                                 f"after {init.iterations} iterations")

    def observe(self, tracker, stream, t, s):
        """Detector step after the tracker stepped tracked time t with
        sparse output s; a change point restarts the tracker."""
        cfg = self.config
        c_t = support_size(s)
        offset = t - tracker.t_start
        if offset < cfg.n_cp_burnin:
            phase = CpPhase.CP_BURNIN
        elif offset < cfg.n_cp_burnin + cfg.n_test:
            phase = CpPhase.TEST_FILL
        else:
            phase = CpPhase.MONITORING
        p = f = t0 = None
        if phase is CpPhase.TEST_FILL and self.detection_enabled:
            self.hist.record(c_t)
        elif phase is CpPhase.MONITORING and self.detection_enabled:
            p = p_value(self.hist, c_t, cfg.n_tol)
            f = flag_observation(p, cfg.alpha)
            buffer_advance(self.flag_buffers, self.hist, c_t, f)
            if len(self.flag_buffers) == cfg.n_check:
                t0 = scan_for_changepoint(
                    self.flag_buffers.flags, cfg.alpha_prop, cfg.n_check,
                    cfg.n_positive, current_t=t)
        self.diagnostics.append(CpDiagnostic(
            t=t, support_size=c_t, p=p, flag=f, phase=phase.value))
        if t0 is None:
            return
        self.change_points.append(t0)
        if (init := tracker.restart(stream, t0, cfg)) is not None:
            self._check_burnin(init, f"from t={t0}")
            self.hist = SupportHistogram(self.hist.m)
            self.flag_buffers.clear()
            return
        self.warnings.append(
            f"change point at t={t0} leaves fewer than "
            f"n_burnin={cfg.n_burnin} samples; tail processed in "
            "tracking-only mode")
        self.detection_enabled = False


def run_omw_cp(stream, config):
    """Run the moving-window tracker with change-point detection.

    Returns (DecompositionResult, ChangePointReport). The stream must hold
    the burn-in block in its first n_burnin samples; tracked estimates cover
    everything after it.
    """
    return OmwCpPipeline(config).run(stream)
