"""The benchmark workloads and how one pass of each drives the library.

A pass is one complete use of the public API on a pre-generated stream
file: from the entry call until both outputs are written with
write_raw_f64. The program pulls samples from an ObservationStream whose
source is a Feed; the Feed reads the file through ingest_stream and stamps
every sample when it hands it over, so the gap between one stamp and the
next is that sample's service time.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

from streamrpca import (Drift, ObservationStream, SimSpec, Stable,
                        TrackerConfig, continue_tracker, full_stream_matrix,
                        generate, ingest_stream, init_tracker, load_state,
                        run_omw_cp, run_tracker, save_state, snapshot_tracker,
                        write_raw_f64)
from streamrpca.experiments import study_spec

# The CLI's `track` retains n_burnin + n_check + 8 samples for replay, with
# n_check = 20 unless the change-point config sets it.
CLI_N_CHECK = 20
CLI_RETAIN_EXTRA = 8

# A run cycles its passes over this many independently generated streams,
# so that one seed's data (the batch solver needs 2-3x more iterations on
# some paper-scale burn-ins) does not decide the run's median.
STREAMS_PER_RUN = 3


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str            # "omw", "omw-cp" or "stoc"
    chunk: int = 0       # samples tracked between snapshot round trips

    def spec(self, seed):
        """(SimSpec, TrackerConfig or CpConfig) for a seed."""
        if self.name == "drift-omw":
            sim = SimSpec(m=100, t=10000, n_burnin=100, rho=0.01, seed=seed,
                          variant=Drift(r=10, r0=3, t_p=125))
            return sim, TrackerConfig(n_burnin=100, n_win=100)
        if self.name == "switch-omw-cp":
            return study_spec(3, "paper", seed)
        sim = SimSpec(m=400, t=5000, n_burnin=200, rho=0.01, seed=seed,
                      variant=Stable(r=10))
        return sim, TrackerConfig(n_burnin=200, n_win=200)

    def retain(self, config):
        n_check = getattr(config, "n_check", CLI_N_CHECK)
        return config.n_burnin + n_check + CLI_RETAIN_EXTRA


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in [
    Workload("drift-omw", "omw"),
    Workload("switch-omw-cp", "omw-cp"),
    Workload("stable-stoc-resume", "stoc", chunk=500),
]}


def data_seeds(seed):
    """Simulator seeds of the STREAMS_PER_RUN inputs of the run for seed."""
    return [seed * STREAMS_PER_RUN + k for k in range(STREAMS_PER_RUN)]


def write_inputs(workload, seed, work_dir):
    """Generate the workload's stream and ground truth into work_dir."""
    sim, _ = workload.spec(seed)
    gt = generate(sim)
    work = Path(work_dir)
    write_raw_f64(work / "stream.f64", full_stream_matrix(gt))
    np.save(work / "L_true.npy", gt.L)
    np.save(work / "S_true.npy", gt.S)
    (work / "truth.json").write_text(json.dumps({"cps": gt.cps}),
                                     encoding="ascii")


class Feed:
    """The sample source handed to the program, with hand-over stamps.

    requested[i] / handed[i]: when sample i was first asked for / handed
    over. marks (wall clock), cpu_marks (thread CPU time) and indices list
    every stamp in order; index -1 marks a request past the end of a
    stream. With count_replays, gets of samples
    already handed over are counted (traced passes only).
    """

    def __init__(self, path, retain, count_replays=False):
        self._file = ingest_stream(str(path), "raw-f64", retain=retain)
        self.retain = retain
        self.count_replays = count_replays
        self.requested = []
        self.handed = []
        self.marks = []
        self.cpu_marks = []
        self.indices = []
        self.replays = 0

    def stream(self, lo=0, hi=None):
        """An ObservationStream over file samples [lo, hi), indexed from 0."""
        stream = ObservationStream(self._source(lo, hi), retain=self.retain,
                                   dim=self._file.dim)
        if self.count_replays:
            get = stream.get

            def counting_get(i):
                if lo + i < len(self.handed):
                    self.replays += 1
                return get(i)

            stream.get = counting_get
        return stream

    def _source(self, lo, hi):
        i = lo
        while True:
            t_request = perf_counter()
            cpu_request = thread_time()
            x = self._file.get(i) if hi is None or i < hi else None
            t = perf_counter()
            cpu = thread_time()
            if x is None:
                self.marks.append(t_request)
                self.cpu_marks.append(cpu_request)
                self.indices.append(-1)
                return
            self.requested.append(t_request)
            self.handed.append(t)
            self.marks.append(t)
            self.cpu_marks.append(cpu)
            self.indices.append(i)
            yield x
            i += 1

    def service_times(self, first, excluded, cpu=False):
        """Gap after each hand-over of a sample i >= first not in excluded:
        in wall time, or with cpu in the CPU time of the calling thread."""
        marks = self.cpu_marks if cpu else self.marks
        indices = self.indices
        return [marks[p + 1] - marks[p] for p in range(len(marks) - 1)
                if indices[p] >= first and indices[p] not in excluded]


@dataclass
class PassRecord:
    """What one pass produced and when."""

    L: np.ndarray
    S: np.ndarray
    change_points: list
    t_entry: float
    t_done: float
    write_s: float
    diagnostics: list = field(default_factory=list)
    save_s: list = field(default_factory=list)
    load_s: list = field(default_factory=list)
    snapshot_bytes: int = 0


def _write_outputs(out_dir, L, S):
    t0 = perf_counter()
    write_raw_f64(out_dir / "L.f64", L)
    write_raw_f64(out_dir / "S.f64", S)
    return perf_counter() - t0


def run_pass(workload, config, feed, n_samples, out_dir):
    """Drive one pass through the public API over a file of n_samples
    samples; returns a PassRecord."""
    out_dir = Path(out_dir)
    if workload.mode == "omw":
        t_entry = perf_counter()
        result = run_tracker(feed.stream(), "omw", config)
        write_s = _write_outputs(out_dir, result.L, result.S)
        return PassRecord(result.L, result.S, result.change_points, t_entry,
                          perf_counter(), write_s)
    if workload.mode == "omw-cp":
        t_entry = perf_counter()
        result, report = run_omw_cp(feed.stream(), config)
        write_s = _write_outputs(out_dir, result.L, result.S)
        return PassRecord(result.L, result.S, result.change_points, t_entry,
                          perf_counter(), write_s,
                          diagnostics=report.diagnostics)
    return _resume_pass(workload, config, feed, n_samples, out_dir)


def _resume_pass(workload, config, feed, n_samples, out_dir):
    """Cumulative tracker in chunks: after each chunk save a snapshot, load
    it back and continue from the loaded state, as `track --resume` does."""
    snap_path = out_dir / "state.npz"
    save_s, load_s = [], []
    Ls, Ss = [], []
    t_entry = perf_counter()
    stream = feed.stream(0, config.n_burnin + workload.chunk)
    model, buffer, start = init_tracker(stream, "stoc", config)
    lo = 0
    while True:
        result, end = continue_tracker(stream, "stoc", model, buffer, start,
                                       config.projection)
        Ls.append(result.L)
        Ss.append(result.S)
        t0 = perf_counter()
        save_state(snap_path, snapshot_tracker("stoc", model, buffer,
                                               lo + end))
        t1 = perf_counter()
        snapshot = load_state(snap_path)
        save_s.append(t1 - t0)
        load_s.append(perf_counter() - t1)
        if lo + end >= n_samples:
            break
        model, buffer, lo = snapshot.model, snapshot.buffer, snapshot.cursor
        stream = feed.stream(lo, lo + workload.chunk)
        start = 0
    L, S = np.hstack(Ls), np.hstack(Ss)
    write_s = _write_outputs(out_dir, L, S)
    return PassRecord(L, S, [], t_entry, perf_counter(), write_s,
                      save_s=save_s, load_s=load_s,
                      snapshot_bytes=snap_path.stat().st_size)


def restart_geometry(record, n_burnin):
    """(trigger index, last burn-in index) in the file for each restart.

    The trigger is the sample whose step detected the change point; a
    restart at tracked time t0 re-runs burn-in on tracked [t0, t0+n_burnin),
    i.e. file samples n_burnin+t0-1 onward, and tracking resumes at
    t0+n_burnin. Each jump in the diagnostics' time index therefore marks
    the step that triggered a restart.
    """
    times = [d.t for d in record.diagnostics]
    triggers = [t for t, nxt in zip(times, times[1:]) if nxt != t + 1]
    return [(n_burnin + t_detect - 1, n_burnin + t0 + n_burnin - 2)
            for t_detect, t0 in zip(triggers, record.change_points)]
