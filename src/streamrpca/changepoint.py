"""Change-point detection around the moving-window tracker, and the one
runtime (OmwCpPipeline) of every mode.

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
If the stream ends inside the restart's burn-in block, the restart stays
pending: steps are recorded but not tested until a later run() reads the
block.

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


def p_value(counts, c_t, n_tol=0):
    """Fraction of the histogram counts (indexed by support size) at sizes
    >= c_t - n_tol (clamped at 0)."""
    total = int(counts.sum())
    if total == 0:
        raise ContractViolation("p_value: empty histogram")
    return int(counts[max(c_t - n_tol, 0):].sum()) / total


def flag_observation(p, alpha):
    """1 iff p <= alpha (boundary inclusive)."""
    return 1 if p <= alpha else 0


def buffer_advance(recent, counts, c_t, f_t):
    """Append (c_t, f_t) to the deque recent (maxlen n_check); once it is
    full, its oldest pair ages out and that support size is counted."""
    if len(recent) == recent.maxlen:
        counts[recent[0][0]] += 1
    recent.append((c_t, f_t))


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


MODES = ("stoc", "omw", "omw-cp")


class OmwCpPipeline:
    """The runtime of every mode: seeds a Tracker from the stream's burn-in
    block and runs it, resumable across run() calls.

    The mode is "stoc" (no eviction), "omw" (a moving window) or "omw-cp" (a
    moving window with this pipeline as the tracker's detector: after each
    step the tracker calls observe()). The detector state is plain data: the
    histogram counts, indexed by support size, and the last n_check
    (size, flag) pairs. A change point whose burn-in block the stream does
    not hold yet is pending: its restart is retried at the next run().
    """

    def __init__(self, config, mode="omw-cp"):
        if mode not in MODES:
            raise ContractViolation(f"unknown mode {mode!r}")
        self.config, self.mode = config, mode
        self.tracker = None    # built once a full burn-in block was read
        self.counts = None
        self.recent = (deque(maxlen=config.n_check) if mode == "omw-cp"
                       else None)     # (size, flag) of the last n_check steps
        self.change_points = []
        self.pending = None    # t0 of a restart waiting for its burn-in block
        self.status = "ok"
        self.warnings = []

    def run(self, stream):
        """Consume the stream to exhaustion. Returns (DecompositionResult,
        ChangePointReport), the report None outside omw-cp."""
        self.diagnostics = []
        detector = self if self.mode == "omw-cp" else None
        if self.tracker is None and not self._seed(stream):
            if detector is None:
                raise ContractViolation(f"{self.mode}: stream shorter than "
                                        f"n_burnin={self.config.n_burnin}")
            self.status = "insufficient-stream"
            self.warnings.append(f"stream shorter than n_burnin="
                                 f"{self.config.n_burnin}; nothing tracked")
            L = S = np.zeros((0, 0))
        else:
            if self.pending is not None:
                self._restart(self.tracker, stream, self.pending)
            self.tracker.run(stream, detector)
            L, S = self.tracker.cols.dense(drain=detector is None)
        result = DecompositionResult(L=L, S=S,
                                     change_points=list(self.change_points))
        if detector is None:
            return result, None
        warnings = list(self.warnings)
        if self.pending is not None:
            warnings.append(
                f"change point at t={self.pending} leaves fewer than "
                f"n_burnin={self.config.n_burnin} samples; tail processed in "
                "tracking-only mode")
        return result, ChangePointReport(
            change_points=list(self.change_points),
            diagnostics=self.diagnostics, status=self.status,
            warnings=warnings)

    def _seed(self, stream):
        # its own frame, so that the BurninInit is freed before tracking
        seeded = seed_tracker(stream, 0, self.config,
                              evict=self.mode != "stoc")
        if seeded is None:
            return False
        init, model, buffer = seeded
        self._check_burnin(init, "before t=1")
        self.counts = np.zeros(model.m + 1, dtype=np.int64)
        self.tracker = Tracker(model, buffer, self.config.n_burnin,
                               self.config.projection)
        return True

    def _check_burnin(self, init, where):
        if not init.converged:
            self.warnings.append(f"burn-in {where}: batch solve unconverged "
                                 f"after {init.iterations} iterations")

    def _restart(self, tracker, stream, t0):
        """Seed the tracker afresh from tracked time t0, or leave the restart
        pending if the stream ends inside its burn-in block."""
        init = tracker.restart(stream, t0, self.config)
        self.pending = t0 if init is None else None
        if init is not None:
            self._check_burnin(init, f"from t={t0}")
            self.counts[:] = 0
            self.recent.clear()

    def observe(self, tracker, stream, t, s):
        """Detector step after the tracker stepped tracked time t with
        sparse output s; a change point restarts the tracker. While a
        restart is pending, steps are recorded but not tested."""
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
        if phase is CpPhase.TEST_FILL and self.pending is None:
            self.counts[c_t] += 1
        elif phase is CpPhase.MONITORING and self.pending is None:
            p = p_value(self.counts, c_t, cfg.n_tol)
            f = flag_observation(p, cfg.alpha)
            buffer_advance(self.recent, self.counts, c_t, f)
            if len(self.recent) == cfg.n_check:
                t0 = scan_for_changepoint(
                    [flag for _, flag in self.recent], cfg.alpha_prop,
                    cfg.n_check, cfg.n_positive, current_t=t)
        self.diagnostics.append(CpDiagnostic(
            t=t, support_size=c_t, p=p, flag=f, phase=phase.value))
        if t0 is not None:
            self.change_points.append(t0)
            self._restart(tracker, stream, t0)


def run_omw_cp(stream, config):
    """Run the moving-window tracker with change-point detection.

    Returns (DecompositionResult, ChangePointReport). The stream must hold
    the burn-in block in its first n_burnin samples; tracked estimates cover
    everything after it.
    """
    return OmwCpPipeline(config).run(stream)
