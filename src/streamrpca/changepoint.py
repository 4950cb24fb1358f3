"""Change-point detection around the moving-window tracker, and the one
runtime (OmwCpPipeline) of every mode.

The pipeline monitors the support size of each sparse estimate. A tracked
segment goes through three phases:

  cp-burnin    let the freshly initialized subspace settle; nothing recorded.
  test-fill    record support sizes into the normal-period histogram.
  monitoring   per step, compute the empirical tail p-value of the current
               support size against the histogram, flag it if p <= alpha,
               and keep the last n_check sizes and flags in two FIFOs. A
               size aging out of its FIFO is absorbed into the histogram,
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
samples, since a restart rewinds to the detected change point:
TrackerConfig.replay_horizon, which track and experiment use.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ContractViolation, TrackerStepError
# burnin_initialize is unused here; bench/tracer.py wraps it.
from .pcp import burnin_initialize
from .projection import ProjectionConfig
from .trackers import (ColumnStore, DecompositionResult, TrackerConfig,
                       omw_step, seed_tracker)


@dataclass
class CpDiagnostic:
    """Per-step monitoring record; phase is "cp-burnin", "test-fill" or
    "monitoring", and p and flag are None outside "monitoring"."""

    t: int
    support_size: int
    p: float | None
    flag: int | None
    phase: str


@dataclass
class ChangePointReport:
    diagnostics: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def support_size(s):
    """Number of entries with magnitude above 0, which is exact on solver
    output: the projection produces exact zeros through shrinkage."""
    return int(np.count_nonzero(np.abs(np.asarray(s)) > 0.0))


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


def buffer_advance(sizes, flags, counts, c_t, f_t):
    """Append c_t to sizes and f_t to flags, deques of maxlen n_check; once
    they are full, the oldest size ages out and is counted."""
    if len(sizes) == sizes.maxlen:
        counts[sizes[0]] += 1
    sizes.append(c_t)
    flags.append(f_t)


def scan_for_changepoint(flags, alpha_prop, n_check, n_positive, current_t):
    """Locate a change point in a full flag buffer.

    flags[k] corresponds to time current_t - n_check + 1 + k. If the number
    of abnormal flags reaches alpha_prop * n_check, the first run of
    n_positive consecutive flags is located and the time of its first
    element returned; otherwise (including threshold met but no such run)
    returns None.
    """
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
    """The runtime of every mode: seeds the tracker from the stream's burn-in
    block and steps it to the end of the stream, resumable across run()
    calls.

    The mode is "stoc" (no eviction), "omw" (a moving window) or "omw-cp" (a
    moving window and the detector, which sees each step and may restart the
    tracker at a change point). The next sample has stream index cursor and
    tracked time t_start + model.t; cols, a ColumnStore, holds the (l, s)
    outputs in tracked-time order up to it: in omw-cp the last run's L and
    S, read-only, then the columns tracked since. The detector state is
    plain data: the histogram counts, indexed by support size, and the last
    n_check support sizes and flags. A change point whose burn-in block the
    stream does not hold yet is pending: its restart is retried at the next
    run().
    """

    def __init__(self, config, mode="omw-cp"):
        if mode not in MODES:
            raise ContractViolation(f"unknown mode {mode!r}")
        self.config, self.mode = config, mode
        # the tracker's state, set once a full burn-in block was read
        self.model = self.buffer = self.cursor = self.cols = None
        self.t_start = 1
        self.counts = None
        self.sizes = deque(maxlen=config.n_check)
        self.flags = deque(maxlen=config.n_check)
        self.change_points = []
        self.pending = None    # t0 of a restart waiting for its burn-in block
        self.warnings = []

    @property
    def t(self):
        return self.t_start + self.model.t

    def run(self, stream):
        """Consume the stream to exhaustion. Returns (DecompositionResult,
        ChangePointReport) in every mode: the report holds the run's
        warnings, and its diagnostics are empty outside omw-cp. L and S
        hold this run's columns, or in omw-cp every column from t = 1,
        read-only: the next run() reads them again. A stream shorter than
        the burn-in block raises ContractViolation, and a failing step
        raises TrackerStepError carrying its tracked time."""
        self.diagnostics = []
        detect = self.mode == "omw-cp"
        if self.model is None and self._seed(stream, 0, "before t=1") is None:
            raise ContractViolation(f"{self.mode}: stream shorter than "
                                    f"n_burnin={self.config.n_burnin}")
        if self.pending is not None:
            self._restart(stream, self.pending)
        projection = self.config.projection
        while (x := stream.get(self.cursor)) is not None:
            t = self.t
            try:
                out = omw_step(self.model, self.buffer, x, projection)
            except Exception as exc:
                raise TrackerStepError(t, str(exc)) from exc
            self.cols.append(out.l, out.s)
            self.cursor += 1
            if detect:
                self._observe(stream, t, out.s)
        L, S = self.cols.dense()
        if detect:  # a later restart may rewrite the last columns
            self.cols.hold(L, S)
        result = DecompositionResult(L=L, S=S,
                                     change_points=list(self.change_points))
        warnings = list(self.warnings)
        if self.pending is not None:
            warnings.append(
                f"change point at t={self.pending} leaves fewer than "
                f"n_burnin={self.config.n_burnin} samples; tail processed in "
                "tracking-only mode")
        return result, ChangePointReport(diagnostics=self.diagnostics,
                                         warnings=warnings)

    def _seed(self, stream, index, where):
        """Batch burn-in on stream samples [index, index + n_burnin), then
        track on from tracked time index + 1: returns the BurninInit, or
        None, changing nothing, if the stream ends first."""
        seeded = seed_tracker(stream, index, self.config,
                              evict=self.mode != "stoc")
        if seeded is None:
            return None
        init, model, buffer = seeded
        if not init.converged:
            self.warnings.append(f"burn-in {where}: batch solve unconverged "
                                 f"after {init.iterations} iterations")
        self._take_over(model, buffer, index + self.config.n_burnin)
        self.t_start = index + 1
        return init

    def _take_over(self, model, buffer, cursor):
        """Track on from (model, buffer) at stream index cursor, with an
        empty histogram and flag buffer; the outputs so far are kept."""
        if buffer is not None:
            E, V = (X.shape for X in buffer._rows)
            if (E[1], V[1]) != (model.m, model.r):
                raise ContractViolation(f"window rows E{E} V{V} do not fit a "
                                        f"model with U{model.U.shape}")
        self.model, self.buffer, self.cursor = model, buffer, cursor
        if self.cols is None:
            self.cols = ColumnStore(model.m)
        self.counts = np.zeros(model.m + 1, dtype=np.int64)
        self.sizes.clear()
        self.flags.clear()

    def _restart(self, stream, t0):
        """Seed afresh from tracked time t0, rewriting the outputs from t0
        on with the burn-in block's: returns the BurninInit, or None, leaving
        the restart pending, if the stream ends inside that block."""
        back = self.t - t0              # samples from t0 up to the cursor
        kept = max(0, self.cols.n - back)
        init = self._seed(stream, self.cursor - back, f"from t={t0}")
        self.pending = t0 if init is None else None
        if init is not None:
            self.cols.truncate(kept)
            self.cols.extend(init.L_b, init.S_b)
        return init

    def _observe(self, stream, t, s):
        """Detector step after the tracker stepped tracked time t with
        sparse output s; a change point restarts the tracker. While a
        restart is pending, steps are recorded but not tested."""
        cfg = self.config
        c_t = support_size(s)
        offset = t - self.t_start
        if offset < cfg.n_cp_burnin:
            phase = "cp-burnin"
        elif offset < cfg.n_cp_burnin + cfg.n_test:
            phase = "test-fill"
        else:
            phase = "monitoring"
        p = f = t0 = None
        if phase == "test-fill" and self.pending is None:
            self.counts[c_t] += 1
        elif phase == "monitoring" and self.pending is None:
            p = p_value(self.counts, c_t, cfg.n_tol)
            f = flag_observation(p, cfg.alpha)
            buffer_advance(self.sizes, self.flags, self.counts, c_t, f)
            if len(self.flags) == cfg.n_check:
                t0 = scan_for_changepoint(self.flags, cfg.alpha_prop,
                                          cfg.n_check, cfg.n_positive,
                                          current_t=t)
        self.diagnostics.append(CpDiagnostic(
            t=t, support_size=c_t, p=p, flag=f, phase=phase))
        if t0 is not None:
            self.change_points.append(t0)
            self._restart(stream, t0)


def run_omw_cp(stream, config):
    """Run the moving-window tracker with change-point detection.

    Returns (DecompositionResult, ChangePointReport). The stream must hold
    the burn-in block in its first n_burnin samples; tracked estimates cover
    everything after it.
    """
    return OmwCpPipeline(config).run(stream)


def _check_shell_mode(name, mode):
    if mode not in ("stoc", "omw"):
        raise ContractViolation(f"{name}: mode {mode!r} is not stoc or omw")


def init_tracker(stream, mode, config):
    """Consume the leading n_burnin samples and build the tracker state.

    Returns (model, buffer, next_index); buffer is None for "stoc".
    """
    _check_shell_mode("init_tracker", mode)
    seeded = seed_tracker(stream, 0, config, evict=mode == "omw")
    if seeded is None:
        raise ContractViolation(
            f"init_tracker: stream shorter than n_burnin={config.n_burnin}")
    return (*seeded[1:], config.n_burnin)


def continue_tracker(stream, mode, model, buffer, start_index,
                     projection_config=None):
    """Step from stream index start_index to exhaustion.

    Mutates model (and buffer); returns (DecompositionResult, next_index).
    Step failures carry the absolute tracked time, model.t + 1.
    """
    _check_shell_mode("continue_tracker", mode)
    if (mode == "omw") != (buffer is not None):
        raise ContractViolation(
            f"continue_tracker: mode {mode!r} does not match the buffer")
    # a pipeline that took over its state reads only the projection settings
    config = TrackerConfig(n_burnin=1, n_win=1,
                           projection=projection_config or ProjectionConfig())
    pipeline = OmwCpPipeline(config, mode)
    pipeline._take_over(model, buffer, start_index)
    return pipeline.run(stream)[0], pipeline.cursor


def run_tracker(stream, mode, config):
    """Drive a tracker over a stream whose first n_burnin samples are burn-in.

    mode is "stoc" or "omw". Returns the estimates for every post-burn-in
    sample; the burn-in block itself is consumed for initialization only.
    """
    _check_shell_mode("run_tracker", mode)
    return OmwCpPipeline(config, mode).run(stream)[0]
