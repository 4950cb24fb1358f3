from collections import deque
from pathlib import Path

import numpy as np
import pytest

from streamrpca.changepoint import (ChangePointReport, OmwCpPipeline,
                                    buffer_advance, continue_tracker,
                                    flag_observation, init_tracker, p_value,
                                    run_omw_cp, run_tracker,
                                    scan_for_changepoint, support_size)
from streamrpca.exceptions import ContractViolation
from streamrpca.pcp import PcpConfig
from streamrpca.simgen import (ChangePoints, SimSpec, Stable,
                               full_stream_matrix, generate)
from streamrpca.state import load_state, save_state, snapshot_tracker
from streamrpca.streams import ObservationStream, write_raw_f64
from streamrpca.trackers import TrackerConfig

from conftest import child_memory, needs_proc_status


def test_support_size():
    assert support_size(np.zeros(3)) == 0
    assert support_size(np.array([0.5, 0.0, -2.0])) == 2


def hist_from(counts_by_size, m=10):
    counts = np.zeros(m + 1, dtype=np.int64)
    for size, count in counts_by_size.items():
        counts[size] += count
    return counts


def test_p_value_cases():
    hist = hist_from({2: 8, 3: 2})
    assert p_value(hist, 3, n_tol=0) == pytest.approx(0.2)
    assert p_value(hist, 0, n_tol=0) == 1.0
    assert p_value(hist, 3, n_tol=1) == 1.0


def test_p_value_empty_histogram_rejected():
    with pytest.raises(ContractViolation):
        p_value(np.zeros(6, dtype=np.int64), 1)


def test_p_value_monotonicity():
    rng = np.random.Generator(np.random.PCG64(50))
    hist = np.bincount(rng.integers(0, 21, size=300), minlength=21)
    for n_tol in (0, 1, 3):
        ps = [p_value(hist, c, n_tol) for c in range(21)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))  # non-increasing in c
    for c in (0, 5, 12, 20):
        ps = [p_value(hist, c, n_tol) for n_tol in range(5)]
        assert all(a <= b for a, b in zip(ps, ps[1:]))  # non-decreasing in n_tol


def test_flag_boundary_inclusive():
    assert flag_observation(0.2, 0.01) == 0
    assert flag_observation(0.009, 0.01) == 1
    assert flag_observation(0.01, 0.01) == 1


def test_buffer_advance_fifo_mechanics():
    hist = np.zeros(11, dtype=np.int64)
    sizes, flags = deque(maxlen=2), deque(maxlen=2)
    buffer_advance(sizes, flags, hist, 5, 0)
    buffer_advance(sizes, flags, hist, 6, 0)
    assert hist.sum() == 0
    buffer_advance(sizes, flags, hist, 7, 1)
    assert list(sizes) == [6, 7] and list(flags) == [0, 1]
    assert hist.sum() == 1 and hist[5] == 1
    # flags never enter the histogram; size stays capped
    for c in (8, 9):
        buffer_advance(sizes, flags, hist, c, 1)
    assert len(sizes) == len(flags) == 2
    assert list(sizes) == [8, 9] and list(flags) == [1, 1]
    assert hist.sum() == 3 and hist[6] == hist[7] == 1


def test_scan_finds_first_run():
    # threshold 0.5*6 = 3 met, run of 3 starts at the third element
    t0 = scan_for_changepoint([0, 0, 1, 1, 1, 0], 0.5, 6, 3, current_t=100)
    assert t0 == 100 - 6 + 1 + 2


def test_scan_threshold_met_but_no_run():
    assert scan_for_changepoint([1, 0, 1, 0, 1, 0], 0.5, 6, 3,
                                current_t=100) is None


def test_scan_threshold_unmet():
    assert scan_for_changepoint([0, 0, 0, 0, 0, 0], 0.5, 6, 3,
                                current_t=100) is None


def test_scan_requires_full_buffer():
    with pytest.raises(ContractViolation):
        scan_for_changepoint([1, 1], 0.5, 6, 3, current_t=10)


def test_scan_fractional_threshold_exact_comparison():
    # alpha_prop * n_check = 0.5 * 5 = 2.5; two flags stay below, three trip
    assert scan_for_changepoint([1, 1, 0, 0, 0], 0.5, 5, 2,
                                current_t=10) is None
    assert scan_for_changepoint([1, 1, 1, 0, 0], 0.5, 5, 2, current_t=10) == 6


def desk_cp_config(**overrides):
    base = dict(n_burnin=50, n_win=50, n_cp_burnin=50, n_test=50, n_check=10,
                alpha=0.01, alpha_prop=0.5, n_positive=3, n_tol=0,
                lambda2=3.0)
    base.update(overrides)
    return TrackerConfig(**base)


def test_stable_stream_no_detection_and_matches_plain_tracking():
    spec = SimSpec(m=40, t=300, n_burnin=50, rho=0.01, seed=51,
                   variant=Stable(r=3))
    gt = generate(spec)
    full = full_stream_matrix(gt)
    config = desk_cp_config(lambda2=None)
    result, report = run_omw_cp(ObservationStream.from_matrix(full), config)
    assert result.change_points == []
    tracker_cfg = TrackerConfig(n_burnin=50, n_win=50)
    plain = run_tracker(ObservationStream.from_matrix(full), "omw",
                        tracker_cfg)
    np.testing.assert_array_equal(result.L, plain.L)
    np.testing.assert_array_equal(result.S, plain.S)


def test_phases_in_diagnostics():
    spec = SimSpec(m=30, t=150, n_burnin=50, rho=0.01, seed=52,
                   variant=Stable(r=2))
    gt = generate(spec)
    result, report = run_omw_cp(
        ObservationStream.from_matrix(full_stream_matrix(gt)),
        desk_cp_config(lambda2=None))
    phases = {d.t: d.phase for d in report.diagnostics}
    assert phases[1] == "cp-burnin"
    assert phases[50] == "cp-burnin"
    assert phases[51] == "test-fill"
    assert phases[100] == "test-fill"
    assert phases[101] == "monitoring"
    mon = [d for d in report.diagnostics if d.phase == "monitoring"]
    assert all(d.p is not None and d.flag is not None for d in mon)
    pre = [d for d in report.diagnostics if d.phase != "monitoring"]
    assert all(d.p is None and d.flag is None for d in pre)


def test_histogram_purity_no_observation_tests_itself():
    # during monitoring with n_check = 10, the histogram trails the tested
    # observation by exactly the buffer length
    spec = SimSpec(m=30, t=200, n_burnin=50, rho=0.02, seed=53,
                   variant=Stable(r=2))
    gt = generate(spec)
    config = desk_cp_config(lambda2=None)
    result, report = run_omw_cp(
        ObservationStream.from_matrix(full_stream_matrix(gt)), config)
    mon = [d for d in report.diagnostics if d.phase == "monitoring"]
    sizes = [d.support_size for d in mon]
    # recompute each p-value from scratch off earlier observations only
    test_fill = [d.support_size for d in report.diagnostics
                 if d.phase == "test-fill"]
    for k, d in enumerate(mon):
        hist = np.bincount(test_fill + sizes[:max(k - config.n_check, 0)],
                           minlength=31)
        assert d.p == pytest.approx(p_value(hist, d.support_size, 0))


def make_cp_stream(seed, m=60, t=450, cp=200, ranks=(3, 20)):
    spec = SimSpec(m=m, t=t, n_burnin=50, rho=0.01, seed=seed,
                   variant=ChangePoints(ranks=ranks, cps=(cp,), r0=2,
                                        t_p=100))
    return generate(spec)


def test_detects_rank_jump_and_restarts():
    gt = make_cp_stream(seed=54)
    config = desk_cp_config()
    result, report = run_omw_cp(
        ObservationStream.from_matrix(full_stream_matrix(gt)), config)
    assert len(result.change_points) == 1
    t0 = result.change_points[0]
    assert 200 <= t0 <= 220
    assert result.L.shape == (60, 450)


def test_restart_soundness_fresh_state():
    # nothing before t0 may influence post-restart state: replaying the
    # stream from t0 alone must reproduce every post-restart estimate
    gt = make_cp_stream(seed=55)
    config = desk_cp_config()
    full = full_stream_matrix(gt)
    result, report = run_omw_cp(ObservationStream.from_matrix(full), config)
    assert len(result.change_points) == 1
    t0 = result.change_points[0]
    cut = 50 + t0 - 1  # stream index of tracked time t0

    # replay only the post-t0 segment through a fresh pipeline: its burn-in
    # block is exactly the restart burn-in of the original run
    tail_stream = ObservationStream.from_matrix(full[:, cut:])
    tail_result, _ = run_omw_cp(tail_stream, config)
    # tracked columns after the restart burn-in must be bit-identical
    post = result.L[:, t0 + config.n_burnin - 1:]
    assert tail_result.L.shape[1] == post.shape[1]
    np.testing.assert_array_equal(post, tail_result.L)

    # the overwritten burn-in region itself comes from batch pcp on the
    # post-t0 block alone
    from streamrpca.pcp import pcp_alm
    block = full[:, cut:cut + config.n_burnin]
    pcp = pcp_alm(block)
    np.testing.assert_array_equal(
        result.L[:, t0 - 1:t0 - 1 + config.n_burnin], pcp.L)


def test_large_n_tol_suppresses_detection():
    # the conservative variant shifts the p-value tail; with n_tol at the
    # full dimension every p-value is 1 and nothing can be flagged
    gt = make_cp_stream(seed=54)
    config = desk_cp_config(n_tol=60)
    result, report = run_omw_cp(
        ObservationStream.from_matrix(full_stream_matrix(gt)), config)
    assert result.change_points == []
    mon = [d for d in report.diagnostics if d.phase == "monitoring"]
    assert mon and all(d.p == 1.0 and d.flag == 0 for d in mon)


def test_tail_too_short_for_restart_goes_tracking_only():
    gt = make_cp_stream(seed=56, t=230, cp=200)  # 30 samples after cp
    config = desk_cp_config()
    result, report = run_omw_cp(
        ObservationStream.from_matrix(full_stream_matrix(gt)), config)
    assert len(result.change_points) == 1
    assert any("tracking-only" in w for w in report.warnings)
    assert result.L.shape[1] == 230


def test_insufficient_stream_for_initial_burnin():
    # one rule in every mode: a stream that ends inside the first burn-in
    # block is refused
    config = desk_cp_config()
    for mode in ("stoc", "omw", "omw-cp"):
        stream = ObservationStream.from_matrix(np.zeros((10, 49)))
        with pytest.raises(ContractViolation, match=f"^{mode}: stream "
                           "shorter than n_burnin=50$"):
            OmwCpPipeline(config, mode).run(stream)


def test_short_run_does_not_stick_to_a_later_full_run():
    # in every mode, a pipeline that refused a short stream runs the full
    # one as a fresh pipeline does
    spec = SimSpec(m=20, t=100, n_burnin=50, rho=0.01, seed=57,
                   variant=Stable(r=2))
    gt = generate(spec)
    full = full_stream_matrix(gt)
    for mode in ("stoc", "omw", "omw-cp"):
        pipeline = OmwCpPipeline(desk_cp_config(), mode)
        with pytest.raises(ContractViolation, match="shorter than n_burnin"):
            pipeline.run(ObservationStream.from_matrix(full[:, :30]))
        result, report = pipeline.run(ObservationStream.from_matrix(full))
        assert result.L.shape == result.S.shape == gt.L.shape
        fresh, fresh_report = OmwCpPipeline(desk_cp_config(), mode).run(
            ObservationStream.from_matrix(full))
        np.testing.assert_array_equal(result.L, fresh.L, err_msg=mode)
        np.testing.assert_array_equal(result.S, fresh.S, err_msg=mode)
        assert result.change_points == fresh.change_points
        assert report == fresh_report


def test_config_validation():
    with pytest.raises(ContractViolation):
        desk_cp_config(alpha=1.5)
    with pytest.raises(ContractViolation):
        desk_cp_config(n_positive=99)
    with pytest.raises(ContractViolation):
        desk_cp_config(alpha_prop=0.0)
    with pytest.raises(ContractViolation):
        desk_cp_config(n_win=51)  # exceeds n_burnin = 50


def test_unconverged_burnin_is_reported(monkeypatch):
    import streamrpca.pcp as pcp
    from streamrpca.trackers import seed_tracker
    solve = pcp.pcp_alm
    monkeypatch.setattr(pcp, "pcp_alm",
                        lambda M, config=None: solve(M, PcpConfig(max_iter=15)))
    gt = make_cp_stream(seed=54)
    full = full_stream_matrix(gt)
    config = desk_cp_config()
    init, _, _ = seed_tracker(ObservationStream.from_matrix(full), 0, config,
                              evict=True)
    assert not init.converged and init.iterations == 15
    result, report = run_omw_cp(ObservationStream.from_matrix(full), config)
    assert result.change_points
    note = ": batch solve unconverged after 15 iterations"
    assert report.warnings == ["burn-in before t=1" + note] + [
        f"burn-in from t={t0}" + note for t0 in result.change_points]


@pytest.mark.parametrize("mode", ["stoc", "omw"])
def test_every_mode_reports_an_unconverged_burnin(monkeypatch, mode):
    # without the detector the report still carries the run's warnings,
    # with no diagnostics
    import streamrpca.pcp as pcp
    solve = pcp.pcp_alm
    monkeypatch.setattr(pcp, "pcp_alm",
                        lambda M, config=None: solve(M, PcpConfig(max_iter=15)))
    full = full_stream_matrix(make_cp_stream(seed=54))
    _, report = OmwCpPipeline(desk_cp_config(), mode).run(
        ObservationStream.from_matrix(full))
    assert report == ChangePointReport(warnings=[
        "burn-in before t=1: batch solve unconverged after 15 iterations"])


def test_unknown_mode_is_refused():
    with pytest.raises(ContractViolation, match="^unknown mode 'bogus'$"):
        OmwCpPipeline(desk_cp_config(), "bogus")


def test_tracer_wraps_the_bindings_the_pipeline_calls(monkeypatch, tmp_path):
    # bench/tracer.py swaps functions at their module bindings by name
    # (burn-in and step in trackers and changepoint, stoc_step, the
    # detector functions), so each must be bound there; a traced run of each
    # way bench drives the package must go through the wrapped ones: one
    # step and one projection span per tracked sample, one burn-in span per
    # segment
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    from tracer import COUNTERS, SPANS, Tracer, layer_metrics
    for owner, attr, *_ in SPANS + COUNTERS:
        assert attr in owner.__dict__, (owner, attr)
    full = full_stream_matrix(make_cp_stream(seed=54))
    config = desk_cp_config()
    n_tracked = full.shape[1] - config.n_burnin

    def traced(run):
        tracer = Tracer()
        tracer.install()
        try:
            return tracer, run()
        finally:
            tracer.uninstall()

    def assert_spans(tracer, n_steps, n_segments):
        assert len(tracer.durations("step")) == n_steps
        assert len(tracer.durations("projection")) == n_steps
        assert len(tracer.durations("burnin")) == n_segments

    tracer, (result, report) = traced(lambda: run_omw_cp(
        ObservationStream.from_matrix(full), config))
    assert len(result.change_points) == 1
    assert_spans(tracer, len(report.diagnostics), 2)
    assert tracer.counts["scan"] > 0
    metrics = layer_metrics(tracer, max_projection_iter=1000,
                            detector_steps=len(report.diagnostics))
    assert metrics["changepoint.restarts"] == 1
    assert metrics["trackers.state_elements"] > 0

    tracer, result = traced(lambda: run_tracker(
        ObservationStream.from_matrix(full), "omw", config))
    assert result.L.shape[1] == n_tracked
    assert_spans(tracer, n_tracked, 1)

    def chunked(chunk=100):
        # bench's resumed stoc pass: a snapshot round trip after each chunk
        path = tmp_path / "state.npz"
        stream = ObservationStream.from_matrix(full[:, :config.n_burnin
                                                    + chunk])
        model, buffer, start = init_tracker(stream, "stoc", config)
        lo, tracked = 0, 0
        while True:
            result, end = continue_tracker(stream, "stoc", model, buffer,
                                           start, config.projection)
            tracked += result.L.shape[1]
            save_state(path, snapshot_tracker("stoc", model, buffer,
                                              lo + end))
            snapshot = load_state(path)
            if lo + end >= full.shape[1]:
                return tracked
            model, buffer = snapshot.model, snapshot.buffer
            lo = snapshot.cursor
            stream = ObservationStream.from_matrix(full[:, lo:lo + chunk])
            start = 0

    tracer, tracked = traced(chunked)
    assert tracked == n_tracked
    assert_spans(tracer, n_tracked, 1)


@needs_proc_status
def test_omw_cp_output_memory_is_about_one_stacked_copy(tmp_path):
    # the omw-cp twin of the omw test in test_trackers, over a stream whose
    # change point restarts the tracker at t = 3001. The run drops each l
    # block once it is stacked, as omw does: its peak RSS read 1.37x the
    # bytes of L and S (16 MB), against 1.88x while omw-cp kept every block
    # until its L and S were both built. Both read 0.15x in tracemalloc.
    sim = SimSpec(m=100, t=10000, n_burnin=100, rho=0.01, seed=11,
                  variant=ChangePoints(ranks=(5, 12), cps=(3000,), r0=3,
                                       t_p=125))
    write_raw_f64(tmp_path / "in.f64", full_stream_matrix(generate(sim)))
    rss, traced, outputs = child_memory(f"""
        from streamrpca import OmwCpPipeline, TrackerConfig, ingest_stream

        def run():
            config = TrackerConfig(n_burnin=100, n_win=100, lambda2=3.0)
            stream = ingest_stream({str(tmp_path / "in.f64")!r}, "raw-f64",
                                   retain=config.replay_horizon)
            result, _ = OmwCpPipeline(config).run(stream)
            assert result.change_points == [3001]
            return result
    """)
    assert outputs == 2 * 100 * 10000 * 8
    assert rss <= 1.6 * outputs
    assert traced <= 0.25 * outputs
