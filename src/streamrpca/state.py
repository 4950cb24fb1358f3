"""Tracker state snapshots.

A snapshot captures everything needed to resume a tracker mid-stream with
bit-identical behavior: the subspace model, the ring buffer, the detector
state for change-point runs, and the absolute index of the next unread
sample. Change-point snapshots also carry the estimates accumulated so far,
because a later restart may rewrite recently emitted columns.

Snapshots are stored as .npz containers; floats round-trip exactly.
"""

from dataclasses import dataclass

import numpy as np

from .changepoint import MODES, OmwCpPipeline
from .exceptions import ContractViolation, SnapshotError
from .trackers import DETECTOR_FIELDS, SubspaceModel, WindowBuffer

SNAPSHOT_VERSION = 1
_BUFFER_KEYS = ("buffer_m", "buffer_v", "buffer_s")
# the config fields a restart reads, stored in omw-cp files as det_<field>
_RESTART_FIELDS = ("n_burnin", *DETECTOR_FIELDS)
# every det_<key> entry that an omw-cp file must hold
_DETECTOR_KEYS = ("hist_counts", "fb_sizes", "fb_flags", "t_start", "next_t",
                  "change_points", "detection_enabled", "warnings",
                  "L_partial", "S_partial", *_RESTART_FIELDS)


@dataclass
class StateSnapshot:
    version: int
    kind: str                 # "stoc" | "omw" | "omw-cp"
    model: SubspaceModel
    buffer: WindowBuffer | None
    cursor: int               # absolute stream index of the next unread sample
    detector: dict | None = None


def snapshot_tracker(kind, model, buffer=None, cursor=0, detector=None):
    return StateSnapshot(version=SNAPSHOT_VERSION, kind=kind, model=model,
                         buffer=buffer, cursor=cursor, detector=detector)


def snapshot_pipeline(pipeline, result):
    """Capture an OmwCpPipeline after a run() that returned result.

    An omw-cp snapshot carries the detector dict, the one list of detector
    keys (save_state stores each as a det_<key> entry), with the run's L and
    S, since a later restart may rewrite recent columns, and the detector's
    and the restart's settings."""
    if pipeline.model is None:
        raise SnapshotError("cannot snapshot an uninitialized pipeline")
    detector = None
    if pipeline.mode == "omw-cp":
        detector = {
            "hist_counts": pipeline.counts.copy(),
            "fb_sizes": np.array([c for c, _ in pipeline.recent], np.int64),
            "fb_flags": np.array([f for _, f in pipeline.recent], np.int64),
            "t_start": pipeline.t_start,
            "next_t": pipeline.t,
            "change_points": np.array(pipeline.change_points, dtype=np.int64),
            "detection_enabled": pipeline.pending is None,
            "warnings": np.array(pipeline.warnings, dtype=str),
            "L_partial": result.L,
            "S_partial": result.S,
            **{key: getattr(pipeline.config, key) for key in _RESTART_FIELDS},
        }
    return snapshot_tracker(pipeline.mode, pipeline.model, pipeline.buffer,
                            pipeline.cursor, detector)


def restore_pipeline(snapshot, config):
    """Rebuild the OmwCpPipeline of a snapshot taken with the same config."""
    det, kind, m = snapshot.detector, snapshot.kind, snapshot.model.m
    if (kind not in MODES or (det is None) == (kind == "omw-cp")
            or (snapshot.buffer is None) != (kind == "stoc")):
        raise SnapshotError(f"snapshot kind {kind!r} does not match its "
                            "window or det_* entries")
    # another config would take over at the next restart, mid-run
    taken = (config.n_win if kind == "stoc" else snapshot.buffer.capacity,
             snapshot.model.lambda1, snapshot.model.lambda2)
    given = (config.n_win, *map(float, config.resolved_lambdas(m)))
    if taken != given:
        raise ContractViolation(f"snapshot has n_win, lambda1, lambda2 = "
                                f"{taken}, not {given}")
    pipeline = OmwCpPipeline(config, kind)
    pipeline._take_over(snapshot.model, snapshot.buffer, snapshot.cursor)
    if det is None:
        return pipeline
    missing = [f"det_{key}" for key in _DETECTOR_KEYS if key not in det]
    if missing:
        raise SnapshotError(f"omw-cp snapshot has no {', '.join(missing)}")
    differ = [f"{key} = {det[key]}, not {getattr(config, key)}"
              for key in _RESTART_FIELDS if det[key] != getattr(config, key)]
    if differ:
        raise ContractViolation(f"snapshot has {'; '.join(differ)}")
    counts = det["hist_counts"]
    if not (counts.shape == (m + 1,) and counts.dtype.kind in "iu"
            and np.all(counts >= 0)):
        raise SnapshotError(f"det_hist_counts: not {m + 1} integer counts "
                            f">= 0 (shape {counts.shape}, {counts.dtype})")
    pipeline.counts = counts.astype(np.int64)
    sizes, flags = det["fb_sizes"], det["fb_flags"]
    if not (sizes.shape == flags.shape == (sizes.size,)
            and sizes.size <= config.n_check and np.all(sizes >= 0)
            and np.all(sizes <= m) and np.isin(flags, (0, 1)).all()):
        raise SnapshotError(f"det_fb_sizes, det_fb_flags: not up to n_check="
                            f"{config.n_check} pairs of a support size in "
                            f"[0, {m}] and a flag 0 or 1")
    pipeline.recent.extend(zip(map(int, sizes), map(int, flags)))
    pipeline.warnings = [str(w) for w in det["warnings"]]
    pipeline.t_start = int(det["t_start"])
    if int(det["next_t"]) != pipeline.t:
        raise SnapshotError(
            f"det_next_t {int(det['next_t'])} != t_start + t = {pipeline.t}")
    cps = pipeline.change_points = [int(c) for c in det["change_points"]]
    if not all(a < b for a, b in zip(cps, cps[1:] + [pipeline.t])):
        raise SnapshotError(f"det_change_points {cps}: not strictly "
                            f"increasing and below det_next_t = {pipeline.t}")
    if not bool(det["detection_enabled"]):
        if not cps:
            raise SnapshotError("det_detection_enabled is false, but no "
                                "change point is pending")
        if cps[-1] < pipeline.t_start:
            raise SnapshotError(f"pending change point {cps[-1]} is before "
                                f"det_t_start = {pipeline.t_start}")
        pipeline.pending = cps[-1]
    L, S = det["L_partial"], det["S_partial"]
    if not L.shape == S.shape == (m, pipeline.t - 1):
        raise SnapshotError(f"det_L_partial, det_S_partial have shapes "
                            f"{L.shape}, {S.shape}, expected "
                            f"{(m, pipeline.t - 1)}: the columns up to "
                            f"det_next_t")
    pipeline.cols.extend(L, S)
    return pipeline


def save_state(path, snapshot):
    """Write a snapshot to an .npz file."""
    arrays = {
        "version": np.int64(snapshot.version),
        "kind": np.str_(snapshot.kind),
        "cursor": np.int64(snapshot.cursor),
        # C order, so that a column-major model writes the bytes of v1 files
        "U": np.ascontiguousarray(snapshot.model.U),
        "A": snapshot.model.A,
        "B": np.ascontiguousarray(snapshot.model.B),
        "lambda1": np.float64(snapshot.model.lambda1),
        "lambda2": np.float64(snapshot.model.lambda2),
        "t": np.int64(snapshot.model.t),
        "has_buffer": np.bool_(snapshot.buffer is not None),
    }
    if snapshot.buffer is not None:
        arrays["buffer_capacity"] = np.int64(snapshot.buffer.capacity)
        arrays.update(zip(_BUFFER_KEYS, snapshot.buffer.rows()))
    for key, value in (snapshot.detector or {}).items():
        arrays[f"det_{key}"] = np.asarray(value)
    np.savez(path, **arrays)


def load_state(path):
    """Read a snapshot; corrupt or version-mismatched files raise
    SnapshotError without returning partial state."""
    try:
        with np.load(path, allow_pickle=False) as data:
            if "version" not in data:
                raise SnapshotError(f"{path}: not a state snapshot")
            version = int(data["version"])
            if version != SNAPSHOT_VERSION:
                raise SnapshotError(
                    f"{path}: snapshot version {version} unsupported "
                    f"(expected {SNAPSHOT_VERSION})")
            kind = str(data["kind"])
            model = SubspaceModel(U=data["U"], A=data["A"], B=data["B"],
                                  lambda1=float(data["lambda1"]),
                                  lambda2=float(data["lambda2"]),
                                  t=int(data["t"]))
            buffer = None
            if bool(data["has_buffer"]):
                n_win = int(data["buffer_capacity"])
                rows = [data[key] for key in _BUFFER_KEYS]
                for key, X, width in zip(_BUFFER_KEYS, rows,
                                         (model.m, model.r, model.m)):
                    if X.shape != (n_win, width):
                        raise SnapshotError(
                            f"{path}: {key} has shape {X.shape}, expected "
                            f"({n_win}, {width}) from buffer_capacity and U")
                buffer = WindowBuffer(*rows)
            detector = {key[4:]: data[key].copy() for key in data.files
                        if key.startswith("det_")} or None
            return StateSnapshot(version=version, kind=kind, model=model,
                                 buffer=buffer, cursor=int(data["cursor"]),
                                 detector=detector)
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotError(f"{path}: unreadable snapshot: {exc}") from exc
