"""Per-layer tracing from outside the package.

The tracer replaces functions at the module binding their caller looks them
up through (for example ``streamrpca.trackers.project_sample``, the name
``omw_step`` calls) and puts the originals back afterwards. Calls made once
per sample become spans (name, start, end, parent) kept in memory; calls
made once per solver iteration are only counted and, where noted, timed, so
that the trace does not dwarf the work it measures.

Wrappers pass arguments and results through untouched, so a traced run
computes bit-identical outputs.
"""

import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import streamrpca.changepoint
import streamrpca.pcp
import streamrpca.projection
import streamrpca.trackers

# (module, attribute, span name): per-sample or per-segment calls.
SPANS = [
    (streamrpca.trackers, "burnin_initialize", "burnin"),
    (streamrpca.changepoint, "burnin_initialize", "burnin"),
    (streamrpca.pcp, "pcp_alm", "pcp"),
    (streamrpca.trackers, "stoc_step", "step"),
    (streamrpca.trackers, "omw_step", "step"),
    (streamrpca.changepoint, "omw_step", "step"),
    (streamrpca.trackers, "project_sample", "projection"),
    (streamrpca.trackers, "update_basis", "basis"),
    (streamrpca.trackers.WindowBuffer, "recompute_accumulators", "recompute"),
]

# (module, attribute, counter name, timed): per-iteration calls.
COUNTERS = [
    (streamrpca.pcp, "svt", "svt", True),
    (streamrpca.projection, "shrink_matrix", "shrink", False),
    (streamrpca.changepoint, "support_size", "detector", True),
    (streamrpca.changepoint, "p_value", "detector", True),
    (streamrpca.changepoint, "flag_observation", "detector", True),
    (streamrpca.changepoint, "buffer_advance", "detector", True),
    (streamrpca.changepoint, "scan_for_changepoint", "scan", True),
]


class Tracer:
    """Spans and counters of one traced pass; install() ... uninstall()."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.busy = defaultdict(float)
        self.pcp_results = []    # PcpResult of every batch solve
        self.projection_iters = []
        self.last_step_args = None
        self._stack = []
        self._saved = []

    def install(self):
        for owner, attr, name in SPANS:
            self._replace(owner, attr, self._span(name, getattr(owner, attr)))
        for owner, attr, name, timed in COUNTERS:
            fn = getattr(owner, attr)
            self._replace(owner, attr, self._timed(name, fn) if timed
                          else self._counted(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            shrink_before = counts["shrink"]
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if name == "pcp":
                self.pcp_results.append(out)
            elif name == "projection":
                self.projection_iters.append(counts["shrink"] - shrink_before)
            elif name == "step":
                self.last_step_args = args
            return out

        return wrapper

    def _timed(self, name, fn):
        counts, busy = self.counts, self.busy

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += perf_counter() - t0
                counts[name] += 1

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self):
        """Per-span self time: duration minus what its child spans cover.

        Children of one parent never overlap (one thread), so their
        durations add up to the covered part.
        """
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]


def _pct(values, q):
    return float(np.percentile(values, q))


def layer_metrics(tracer, max_projection_iter, detector_steps):
    """Per-layer metrics of one traced pass, keyed by metric name.

    detector_steps is the number of steps the change-point monitor saw (0
    outside omw-cp), used to express detector time per step.
    """
    projections = tracer.durations("projection")
    basis = tracer.durations("basis")
    recompute = tracer.durations("recompute")
    selfs = tracer.self_times()
    step_self = [s for s, rec in zip(selfs, tracer.spans) if rec[0] == "step"]
    pcp_busy = sum(tracer.durations("pcp"))
    iters = [r.iterations for r in tracer.pcp_results]
    model_buffer = _model_and_buffer(tracer.last_step_args)
    return {
        "pcp.calls": len(tracer.pcp_results),
        "pcp.busy_s": pcp_busy,
        "pcp.alm_iters_mean": statistics.fmean(iters) if iters else 0.0,
        "pcp.converged_ratio": (sum(r.converged for r in tracer.pcp_results)
                                / len(iters) if iters else 0.0),
        "pcp.seed_s": sum(s for s, rec in zip(selfs, tracer.spans)
                          if rec[0] == "burnin"),
        "prox.svt_calls": tracer.counts["svt"],
        "prox.svt_s": tracer.busy["svt"],
        "projection.calls": len(projections),
        "projection.p50_us": _pct(projections, 50) * 1e6,
        "projection.p99_us": _pct(projections, 99) * 1e6,
        "projection.busy_s": sum(projections),
        "projection.iters_mean": statistics.fmean(tracer.projection_iters),
        "projection.cap_hits": sum(1 for k in tracer.projection_iters
                                   if k >= max_projection_iter),
        "basis.p50_us": _pct(basis, 50) * 1e6,
        "basis.busy_s": sum(basis),
        "trackers.step_self_us": _pct(step_self, 50) * 1e6,
        "trackers.recompute_calls": len(recompute),
        "trackers.recompute_s": sum(recompute),
        "trackers.state_elements": streamrpca.trackers.state_element_count(
            *model_buffer),
        "changepoint.detector_us": (
            (tracer.busy["detector"] + tracer.busy["scan"])
            / detector_steps * 1e6 if detector_steps else 0.0),
        "changepoint.restarts": max(0, len(tracer.durations("burnin")) - 1),
        "changepoint.scan_calls": tracer.counts["scan"],
    }


def _model_and_buffer(step_args):
    """(model, buffer) from the arguments of the last traced step call."""
    model = step_args[0]
    buffer = step_args[1]
    if isinstance(buffer, streamrpca.trackers.WindowBuffer):
        return model, buffer
    return model, None
