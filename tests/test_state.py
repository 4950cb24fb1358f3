import copy
import dataclasses
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamrpca.changepoint import (OmwCpPipeline, continue_tracker,
                                    init_tracker, run_tracker)
from streamrpca.exceptions import ContractViolation, SnapshotError
from streamrpca.pcp import burnin_initialize
from streamrpca.simgen import (ChangePoints, SimSpec, Stable,
                               full_stream_matrix, generate)
from streamrpca.state import (SNAPSHOT_VERSION, load_state, restore_pipeline,
                              save_state, snapshot_pipeline, snapshot_tracker)
import streamrpca.changepoint
from streamrpca.streams import ObservationStream
from streamrpca.trackers import TrackerConfig, omw_step

from conftest import seeded


def build_omw(seed=80, m=25, t=150, n_burnin=20, n_win=20):
    spec = SimSpec(m=m, t=t, n_burnin=n_burnin, rho=0.02, seed=seed,
                   variant=Stable(r=3))
    gt = generate(spec)
    init = burnin_initialize(gt.M_b, 0.1, 2.0, n_win=n_win)
    model, buffer = seeded(init, 0.1, 2.0)
    return gt, model, buffer


def test_tracker_snapshot_round_trip_bit_identical(tmp_path):
    gt, model, buffer = build_omw()
    for t in range(30):
        omw_step(model, buffer, gt.M[:, t])
    path = tmp_path / "snap.npz"
    save_state(path, snapshot_tracker("omw", model, buffer, cursor=50))
    snap = load_state(path)
    assert snap.kind == "omw"
    assert snap.cursor == 50
    np.testing.assert_array_equal(snap.model.U, model.U)
    np.testing.assert_array_equal(snap.model.A, model.A)
    np.testing.assert_array_equal(snap.model.B, model.B)
    assert snap.model.t == model.t

    # resumed stepping must be bit-identical to the uninterrupted run
    resumed_out = []
    baseline_out = []
    for t in range(30, 130):
        resumed_out.append(omw_step(snap.model, snap.buffer, gt.M[:, t]))
        baseline_out.append(omw_step(model, buffer, gt.M[:, t]))
    for a, b in zip(resumed_out, baseline_out):
        np.testing.assert_array_equal(a.l, b.l)
        np.testing.assert_array_equal(a.s, b.s)


def _npz_members(path):
    """(name, bytes) of every member, in order; the zip entries' times are
    the only other content of the file."""
    with zipfile.ZipFile(path) as archive:
        return [(info.filename, archive.read(info))
                for info in archive.infolist()]


def test_saved_bytes_do_not_depend_on_the_model_layout(tmp_path):
    # the model holds U and B column-major; the file keeps the bytes a
    # row-major model writes, as v1 files always had
    gt, model, buffer = build_omw(seed=86)
    for t in range(5):
        omw_step(model, buffer, gt.M[:, t])
    row_major = copy.copy(model)
    row_major.U = np.ascontiguousarray(model.U)
    row_major.B = np.ascontiguousarray(model.B)
    assert model.U.flags.f_contiguous and not model.U.flags.c_contiguous
    for name, snap_model in (("f.npz", model), ("c.npz", row_major)):
        save_state(tmp_path / name, snapshot_tracker("omw", snap_model,
                                                     buffer, cursor=25))
    assert _npz_members(tmp_path / "f.npz") == _npz_members(tmp_path / "c.npz")
    with np.load(tmp_path / "f.npz") as data:
        assert data["U"].flags.c_contiguous and data["B"].flags.c_contiguous


def test_truncated_snapshot_rejected(tmp_path):
    gt, model, buffer = build_omw(seed=81)
    path = tmp_path / "snap.npz"
    save_state(path, snapshot_tracker("omw", model, buffer, cursor=0))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(SnapshotError, match="unreadable"):
        load_state(path)


def test_version_mismatch_names_both_versions(tmp_path):
    gt, model, buffer = build_omw(seed=82)
    path = tmp_path / "snap.npz"
    save_state(path, snapshot_tracker("omw", model, buffer, cursor=0))
    _rewrite(path, version=np.int64(999))
    with pytest.raises(SnapshotError) as err:
        load_state(path)
    assert "999" in str(err.value)
    assert str(SNAPSHOT_VERSION) in str(err.value)


def test_load_refuses_an_npz_without_a_version(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, U=np.eye(2))
    with pytest.raises(SnapshotError, match="not a state snapshot"):
        load_state(path)


def test_unseeded_pipeline_cannot_be_saved():
    _, config = cp_setup()
    with pytest.raises(SnapshotError, match="uninitialized pipeline"):
        snapshot_pipeline(OmwCpPipeline(config), None)


TRACKER_KEYS = {"version", "kind", "cursor", "U", "A", "B", "lambda1",
                "lambda2", "t", "buffer_e", "buffer_v"}


def test_omw_snapshot_format_past_a_ring_wrap(tmp_path):
    # 47 steps wrap the 20-row ring twice and leave its head mid-array; the
    # file keeps the v2 layout with the window's rows (m_t - s_t, v_t) oldest
    # first, and the resumed run crosses the drift correction at t = 200 bit
    # for bit
    gt, model, buffer = build_omw(seed=85, t=260)
    steps = [(gt.M[:, t], omw_step(model, buffer, gt.M[:, t]))
             for t in range(47)]
    path = tmp_path / "snap.npz"
    save_state(path, snapshot_tracker("omw", model, buffer, cursor=67))
    with np.load(path) as data:
        assert set(data.files) == TRACKER_KEYS
        assert int(data["version"]) == SNAPSHOT_VERSION == 2
        window = steps[-20:]
        np.testing.assert_array_equal(data["buffer_e"],
                                      [m_t - out.s for m_t, out in window])
        np.testing.assert_array_equal(data["buffer_v"],
                                      [out.v for _, out in window])
    snap = load_state(path)
    for t in range(47, 260):
        resumed = omw_step(snap.model, snap.buffer, gt.M[:, t])
        single = omw_step(model, buffer, gt.M[:, t])
        np.testing.assert_array_equal(resumed.l, single.l)
        np.testing.assert_array_equal(resumed.s, single.s)
    np.testing.assert_array_equal(snap.model.A, model.A)
    np.testing.assert_array_equal(snap.model.B, model.B)


def _rewrite(path, **changes):
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    np.savez(path, **{**arrays, **changes})


DATA = Path(__file__).with_name("data")


@pytest.mark.parametrize("version,key,change", [
    (1, "buffer_v", lambda X: X[:-1]),                  # one row short
    (1, "buffer_capacity", lambda n: n + 1),            # rows != capacity
    (1, "buffer_m", lambda X: X[:, :-1]),               # narrower than U
    (1, "buffer_v", lambda X: X[:, :1]),                # one column, r = 2
    (1, "buffer_s", lambda X: np.hstack([X, X[:, :1]])),  # wider than U
    (2, "buffer_v", lambda X: X[:-1]),                  # one row short
    (2, "buffer_e", lambda X: X[:, :-1]),               # narrower than U
    (2, "buffer_v", lambda X: X[:, :1]),                # one column, r = 3
], ids=["short-rows", "capacity", "m-width", "v-width", "s-width",
        "v2-short-rows", "v2-e-width", "v2-v-width"])
def test_snapshot_window_shape_is_checked(tmp_path, version, key, change):
    # a version-1 file's rows are checked against its buffer_capacity and
    # U, a version-2 file's against buffer_e's row count and U
    path = tmp_path / "snap.npz"
    if version == 1:
        path.write_bytes((DATA / "snapshot-v1-omw.npz").read_bytes())
    else:
        gt, model, buffer = build_omw(seed=86)
        for t in range(25):
            omw_step(model, buffer, gt.M[:, t])
        save_state(path, snapshot_tracker("omw", model, buffer, cursor=45))
    with np.load(path) as data:
        assert int(data["version"]) == version
        changed = change(data[key])
    _rewrite(path, **{key: changed})
    with pytest.raises(SnapshotError, match=key):
        load_state(path)


def v1_fixture_setup():
    """The stream and config of tests/data/snapshot-v1-*.npz, which the
    version-1 writer saved from OmwCpPipeline(config, mode) after its run()
    over the stream's first n_burnin + cut samples: omw at cut 57 (the
    ring's head mid-array) and omw-cp at cut 210 (past the restart at
    t = 101, monitoring with a full flag buffer)."""
    spec = SimSpec(m=16, t=440, n_burnin=40, rho=0.01, seed=3,
                   variant=ChangePoints(ranks=(2, 8), cps=(100,), r0=2,
                                        t_p=60))
    config = TrackerConfig(n_burnin=40, n_win=40, n_cp_burnin=20, n_test=30,
                           n_check=10, lambda2=3.0)
    return full_stream_matrix(generate(spec)), config


@pytest.mark.parametrize("mode,cut", [("omw", 57), ("omw-cp", 210)])
def test_version_1_snapshot_resumes_bit_for_bit(mode, cut):
    # a v1 window loads as buffer_m - buffer_s, bit for bit the rows of the
    # tracker run to the cut, and the resumed run is the uninterrupted one
    # (omw crosses the drift correction at t = 400)
    full, config = v1_fixture_setup()
    path = DATA / f"snapshot-v1-{mode}.npz"
    with np.load(path) as data:
        assert int(data["version"]) == 1 and "buffer_m" in data
    snapshot = load_state(path)
    assert snapshot.cursor == config.n_burnin + cut
    head = OmwCpPipeline(config, mode)
    head.run(ObservationStream.from_matrix(full[:, :config.n_burnin + cut]))
    for X, Y in zip(snapshot.buffer.rows(), head.buffer.rows()):
        assert X.tobytes() == Y.tobytes()
    result = restore_pipeline(snapshot, config).run(
        ObservationStream.from_matrix(full))[0]
    ref = OmwCpPipeline(config, mode).run(
        ObservationStream.from_matrix(full))[0]
    first = 0 if mode == "omw-cp" else cut
    assert result.change_points == ref.change_points
    assert ref.change_points == ([101] if mode == "omw-cp" else [])
    np.testing.assert_array_equal(result.L, ref.L[:, first:])
    np.testing.assert_array_equal(result.S, ref.S[:, first:])


def test_snapshot_with_an_asymmetric_a_is_refused(tmp_path):
    gt, model, buffer = build_omw(seed=87)
    path = tmp_path / "snap.npz"
    save_state(path, snapshot_tracker("omw", model, buffer, cursor=20))
    A = model.A.copy()
    A[0, 1] += 0.5
    _rewrite(path, A=A)
    with pytest.raises(SnapshotError, match="A is not symmetric"):
        load_state(path)


def test_snapshot_with_a_non_finite_a_is_refused(tmp_path):
    gt, model, buffer = build_omw(seed=88)
    path = tmp_path / "snap.npz"
    save_state(path, snapshot_tracker("omw", model, buffer, cursor=20))
    A = model.A.copy()
    A[0, 1] = np.nan
    _rewrite(path, A=A)
    with pytest.raises(SnapshotError, match="A is not finite"):
        load_state(path)


def test_restore_checks_next_t(tmp_path):
    gt, config = cp_setup()
    pipeline = OmwCpPipeline(config)
    result, _ = pipeline.run(
        ObservationStream.from_matrix(full_stream_matrix(gt)[:, :130]))
    path = tmp_path / "cp.npz"
    save_state(path, snapshot_pipeline(pipeline, result))
    with np.load(path) as data:
        next_t = int(data["det_next_t"])
    restore_pipeline(load_state(path), config)
    _rewrite(path, det_next_t=np.int64(next_t + 1))
    with pytest.raises(SnapshotError, match="det_next_t"):
        restore_pipeline(load_state(path), config)


def test_restore_refuses_a_config_that_is_not_the_snapshots(tmp_path):
    # a later restart would switch to the config's window, penalties,
    # burn-in length and detector settings in the middle of the run; the
    # penalties are compared once resolved
    gt, config = cp_setup()
    pipeline = OmwCpPipeline(config)
    result, _ = pipeline.run(
        ObservationStream.from_matrix(full_stream_matrix(gt)[:, :130]))
    path = tmp_path / "cp.npz"
    save_state(path, snapshot_pipeline(pipeline, result))
    lambda1 = config.resolved_lambdas(gt.M.shape[0])[0]
    restore_pipeline(load_state(path),
                     dataclasses.replace(config, lambda1=lambda1))
    for change, match in [({"n_win": 40}, r"\(50, .*\), not \(40, "),
                          ({"lambda2": 2.0}, r", 3\.0\), not \(50, .*, 2\.0"),
                          ({"lambda1": 2 * lambda1}, "not"),
                          ({"n_burnin": 80}, "has n_burnin = 50, not 80$"),
                          ({"n_check": 6}, "has n_check = 10, not 6$"),
                          ({"alpha": 0.02, "n_tol": 1}, "has alpha = 0.01, "
                           "not 0.02; n_tol = 0, not 1$")]:
        with pytest.raises(ContractViolation, match=match):
            restore_pipeline(load_state(path),
                             dataclasses.replace(config, **change))
    # a file without the settings is refused: nothing to check them against
    snapshot = load_state(path)
    for key in ("n_burnin", "n_cp_burnin", "n_test", "n_check", "alpha",
                "alpha_prop", "n_positive", "n_tol"):
        del snapshot.detector[key]
    with pytest.raises(SnapshotError, match="has no det_n_burnin, "
                       "det_n_cp_burnin, .*, det_n_tol$"):
        restore_pipeline(snapshot, dataclasses.replace(
            config, n_burnin=80, n_check=6, alpha=0.02))


def cp_setup(seed=83):
    spec = SimSpec(m=40, t=400, n_burnin=50, rho=0.01, seed=seed,
                   variant=ChangePoints(ranks=(3, 15), cps=(200,), r0=2,
                                        t_p=100))
    gt = generate(spec)
    config = TrackerConfig(n_burnin=50, n_win=50, n_cp_burnin=50, n_test=50,
                           n_check=10, lambda2=3.0)
    return gt, config


def test_cp_pipeline_snapshot_resume_spans_restart(tmp_path):
    gt, config = cp_setup()
    full = full_stream_matrix(gt)

    # uninterrupted reference
    ref_pipeline = OmwCpPipeline(config)
    ref_result, _ = ref_pipeline.run(ObservationStream.from_matrix(full))
    assert len(ref_result.change_points) == 1

    # run only the first `cut` tracked samples, snapshot, then resume over
    # the full stream. Cuts fall inside CP_BURNIN, TEST_FILL and MONITORING
    # (the detection and restart happen after the resume point), and just
    # after the restart's burn-in block.
    t0 = ref_result.change_points[0]
    for cut in (30, 80, 180, t0 + config.n_burnin - 1):
        head = ObservationStream.from_matrix(full[:, :50 + cut])
        pipeline = OmwCpPipeline(config)
        first, _ = pipeline.run(head)
        assert pipeline.t == cut + 1
        path = tmp_path / f"cp{cut}.npz"
        save_state(path, snapshot_pipeline(pipeline, first))

        snap = load_state(path)
        resumed = restore_pipeline(snap, config)
        result, report = resumed.run(ObservationStream.from_matrix(full))
        assert result.change_points == ref_result.change_points, cut
        np.testing.assert_array_equal(result.L, ref_result.L, err_msg=cut)
        np.testing.assert_array_equal(result.S, ref_result.S, err_msg=cut)


@pytest.mark.parametrize("mode", ["stoc", "omw"])
def test_tracker_snapshot_resume_matches_single_run(tmp_path, mode):
    gt, _ = cp_setup()
    full = full_stream_matrix(gt)
    config = TrackerConfig(n_burnin=50, n_win=50)
    ref = run_tracker(ObservationStream.from_matrix(full), mode, config)

    head = ObservationStream.from_matrix(full[:, :50 + 120])
    model, buffer, start = init_tracker(head, mode, config)
    first, cursor = continue_tracker(head, mode, model, buffer, start,
                                     config.projection)
    path = tmp_path / "snap.npz"
    save_state(path, snapshot_tracker(mode, model, buffer, cursor))
    snap = load_state(path)
    rest, _ = continue_tracker(ObservationStream.from_matrix(full), mode,
                               snap.model, snap.buffer, snap.cursor,
                               config.projection)
    np.testing.assert_array_equal(np.hstack([first.L, rest.L]), ref.L)
    np.testing.assert_array_equal(np.hstack([first.S, rest.S]), ref.S)
    assert first.change_points == rest.change_points == ref.change_points


def test_restore_rejects_wrong_kind(tmp_path):
    # an omw-cp file must carry the detector's det_* entries
    gt, model, buffer = build_omw(seed=84)
    path = tmp_path / "snap.npz"
    save_state(path, snapshot_tracker("omw-cp", model, buffer, cursor=0))
    snap = load_state(path)
    assert snap.detector is None
    config = TrackerConfig(n_burnin=20, n_win=20, n_cp_burnin=20, n_test=20,
                           n_check=5)
    with pytest.raises(SnapshotError, match="det_"):
        restore_pipeline(snap, config)


def test_pending_restart_is_saved_without_its_warning(tmp_path):
    # a head that ends inside the burn-in block of the restart at t=201
    # leaves that restart pending: the report warns, the file stores
    # det_detection_enabled = False and no warning, and a resumed run
    # retries the restart
    gt, config = cp_setup()
    full = full_stream_matrix(gt)
    pipeline = OmwCpPipeline(config)
    first, report = pipeline.run(ObservationStream.from_matrix(
        full[:, :50 + 220]))
    assert pipeline.pending == 201 and first.change_points == [201]
    assert report.warnings == ["change point at t=201 leaves fewer than "
                               "n_burnin=50 samples; tail processed in "
                               "tracking-only mode"]
    path = tmp_path / "pending.npz"
    save_state(path, snapshot_pipeline(pipeline, first))
    with np.load(path) as data:
        assert not bool(data["det_detection_enabled"])
        assert data["det_warnings"].size == 0
    resumed = restore_pipeline(load_state(path), config)
    assert resumed.pending == 201 and resumed.warnings == []
    _, again = resumed.run(ObservationStream.from_matrix(full[:, :50 + 230]))
    assert again.warnings == report.warnings
    result, final = resumed.run(ObservationStream.from_matrix(full))
    assert resumed.pending is None and final.warnings == []
    assert result.change_points == [201]
    _rewrite(path, det_change_points=np.zeros(0, dtype=np.int64))
    with pytest.raises(SnapshotError, match="pending"):
        restore_pipeline(load_state(path), config)


@pytest.fixture(scope="module")
def single_runs():
    """Uninterrupted run of each mode over cp_setup's stream."""
    gt, config = cp_setup()
    full = full_stream_matrix(gt)
    runs = {mode: run_tracker(ObservationStream.from_matrix(full), mode,
                              config) for mode in ("stoc", "omw")}
    runs["omw-cp"] = OmwCpPipeline(config).run(
        ObservationStream.from_matrix(full))[0]
    return runs


@settings(max_examples=12, deadline=None)
@given(mode=st.sampled_from(["stoc", "omw", "omw-cp"]),
       cut=st.integers(1, 399))
@example(mode="omw-cp", cut=205)  # heads that end inside the burn-in block
@example(mode="omw-cp", cut=249)  # of the restart at t=201
def test_resume_at_any_cut_is_bit_identical(single_runs, mode, cut):
    # Saving after `cut` tracked samples and resuming from the file must
    # reproduce the uninterrupted run bit for bit: nothing a step uses may
    # live outside the snapshot. stoc and omw resume both through the
    # pipeline, as `track --resume` does, and through the init_tracker /
    # continue_tracker shells; their runs drain the outputs, so the resumed
    # run returns the columns after the cut only.
    gt, config = cp_setup()
    full = full_stream_matrix(gt)
    ref = single_runs[mode]
    head = ObservationStream.from_matrix(full[:, :50 + cut])
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap.npz"
        pipeline = OmwCpPipeline(config, mode)
        first, _ = pipeline.run(head)
        save_state(path, snapshot_pipeline(pipeline, first))
        resumed = restore_pipeline(load_state(path), config)
        runs.append((first, resumed.run(
            ObservationStream.from_matrix(full))[0]))
        if mode != "omw-cp":
            model, buffer, start = init_tracker(head, mode, config)
            first, cursor = continue_tracker(head, mode, model, buffer, start,
                                             config.projection)
            save_state(path, snapshot_tracker(mode, model, buffer, cursor))
            snap = load_state(path)
            runs.append((first, continue_tracker(
                ObservationStream.from_matrix(full), mode, snap.model,
                snap.buffer, snap.cursor, config.projection)[0]))
    for first, result in runs:
        L, S = result.L, result.S
        if mode != "omw-cp":
            L, S = np.hstack([first.L, L]), np.hstack([first.S, S])
        assert result.change_points == ref.change_points
        np.testing.assert_array_equal(L, ref.L)
        np.testing.assert_array_equal(S, ref.S)


class StackedColumns:
    """OmwCpPipeline.cols as the list of per-step (l, s) arrays that
    ColumnStore replaced, stacked by np.column_stack: the reference for its
    bytes."""

    def __init__(self, m):
        self.m, self.cols = m, []

    @property
    def n(self):
        return len(self.cols)

    def append(self, l, s):
        self.cols.append((l.copy(), s.copy()))

    def extend(self, L, S):
        for l, s in zip(L.T, S.T):
            self.append(l, s)

    def hold(self, L, S):
        self.cols = []
        self.extend(L, S)

    def truncate(self, n):
        del self.cols[n:]

    def dense(self):
        cols, self.cols = self.cols, []
        if not cols:
            return np.zeros((self.m, 0)), np.zeros((self.m, 0))
        L, S = zip(*cols)
        return np.column_stack(L), np.column_stack(S)


@pytest.mark.parametrize("case", ["restart", "resume", "dense-s"])
def test_outputs_are_the_stacked_step_outputs(tmp_path, monkeypatch, case):
    # the column blocks give the bytes of the per-step columns stacked, also
    # across a restart, a snapshot resume after it, and an s with no zeros
    gt, config = cp_setup()
    full = full_stream_matrix(gt)
    if case == "dense-s":
        config = dataclasses.replace(config, lambda2=1e-12)

    def run():
        pipeline = OmwCpPipeline(config)
        if case == "resume":
            first, _ = pipeline.run(
                ObservationStream.from_matrix(full[:, :50 + 300]))
            save_state(tmp_path / "snap.npz",
                       snapshot_pipeline(pipeline, first))
            pipeline = restore_pipeline(load_state(tmp_path / "snap.npz"),
                                        config)
        return pipeline.run(ObservationStream.from_matrix(full))[0]

    blocks = run()
    monkeypatch.setattr(streamrpca.changepoint, "ColumnStore", StackedColumns)
    stacked = run()
    if case == "dense-s":
        assert np.all(stacked.S != 0)
    else:
        assert len(stacked.change_points) == 1
    assert blocks.change_points == stacked.change_points
    for X, Y in ((blocks.L, stacked.L), (blocks.S, stacked.S)):
        assert X.flags.c_contiguous and X.shape == Y.shape
        assert X.tobytes() == Y.tobytes()


def test_omw_cp_outputs_are_held_read_only_until_the_next_run(tmp_path):
    # omw-cp keeps its L and S as the first columns of its next run(), and a
    # resumed pipeline the snapshot's, without a copy: writing into them
    # raises, and the next run reads them and leaves their bytes as they were
    gt, config = cp_setup()
    full = full_stream_matrix(gt)
    pipeline = OmwCpPipeline(config)
    first, _ = pipeline.run(ObservationStream.from_matrix(full[:, :50 + 300]))
    save_state(tmp_path / "snap.npz", snapshot_pipeline(pipeline, first))
    snap = load_state(tmp_path / "snap.npz")
    resumed = restore_pipeline(snap, config)
    held = [first.L, first.S, snap.detector["L_partial"],
            snap.detector["S_partial"]]
    saved = [X.tobytes() for X in held]
    for X in held:
        with pytest.raises(ValueError, match="read-only"):
            X[0, 0] = 1.0
    for p in (pipeline, resumed):
        result, _ = p.run(ObservationStream.from_matrix(full))
        assert result.L.shape == (40, 400) and not result.L.flags.writeable
    assert [X.tobytes() for X in held] == saved
    for mode in ("stoc", "omw"):
        result = OmwCpPipeline(config, mode).run(
            ObservationStream.from_matrix(full))[0]
        assert result.L.flags.writeable and result.S.flags.writeable
