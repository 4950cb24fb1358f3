import json
import subprocess
import sys

import numpy as np
import pytest

import streamrpca.pcp
import streamrpca.trackers
from streamrpca.cli import main
from streamrpca.pcp import PcpConfig
from streamrpca.simgen import (ChangePoints, SimSpec, Stable,
                               full_stream_matrix, generate)
from streamrpca.state import _DETECTOR_KEYS
from streamrpca.streams import ingest_stream, write_raw_f64

from conftest import child_env, write_csv


def read_matrix(path):
    stream = ingest_stream(path, "raw-f64")
    cols = []
    i = 0
    while (x := stream.get(i)) is not None:
        cols.append(x)
        i += 1
    return np.column_stack(cols) if cols else np.zeros((stream.dim or 0, 0))


def test_simulate_writes_artifacts(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--variant", "stable", "--m", "20", "--t", "50",
               "--n-burnin", "10", "--seed", "3", "--out-dir", str(out)])
    assert rc == 0
    M = read_matrix(out / "M.f64")
    L = read_matrix(out / "L_true.f64")
    S = read_matrix(out / "S_true.f64")
    assert M.shape == (20, 50)
    np.testing.assert_array_equal(M, L + S)
    truth = json.loads((out / "truth.json").read_text())
    assert truth["seed"] == 3


def test_pcp_command(tmp_path):
    rng = np.random.Generator(np.random.PCG64(90))
    L = np.outer(rng.standard_normal(15), rng.standard_normal(12))
    src = tmp_path / "m.csv"
    write_csv(src, L)
    out = tmp_path / "out"
    rc = main(["pcp", "--input", str(src), "--format", "csv",
               "--out-dir", str(out)])
    assert rc == 0
    L_hat = read_matrix(out / "L.f64")
    assert np.linalg.norm(L_hat - L) / np.linalg.norm(L) < 1e-4
    result = json.loads((out / "result.json").read_text())
    assert result["converged"] is True


@pytest.mark.parametrize("flag", ["--lam", "--mu"])
def test_pcp_refuses_a_non_finite_penalty(tmp_path, capsys, flag):
    # refused where it enters, as a contract error with exit code 1, not as
    # a LinAlgError from inside the solve
    src = tmp_path / "m.csv"
    write_csv(src, np.ones((6, 5)))
    assert main(["pcp", "--input", str(src), flag, "nan",
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert "must be finite" in capsys.readouterr().err


def test_pcp_refuses_mu_zero(tmp_path, capsys):
    # before: a zero --mu was taken for "not given" and ran with the
    # automatic mu
    src = tmp_path / "m.csv"
    write_csv(src, np.ones((6, 5)))
    assert main(["pcp", "--input", str(src), "--mu", "0",
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert "mu must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--variant", "drift", "--t-p", "0"], "and t_p >= 1"),
    (["--r", "-1"], "r must be >= 0"),
    (["--variant", "drift", "--r", "-1"], "need 0 <= r0 <= every rank"),
    (["--variant", "drift", "--r0", "-1"], "need 0 <= r0"),
    (["--variant", "changepoints", "--cps", "50,100", "--r0", "-1"],
     "need 0 <= r0"),
])
def test_simulate_refuses_a_variant_it_cannot_build(tmp_path, capsys, flags,
                                                    message):
    # an error line and exit code 1, not a traceback
    assert main(["simulate", *flags, "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not list(tmp_path.iterdir())


def test_simulate_changepoints_runs_with_its_defaults(tmp_path):
    assert main(["simulate", "--variant", "changepoints",
                 "--out-dir", str(tmp_path)]) == 0
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["T"] == 1000 and truth["cps"] == [330, 660]
    assert read_matrix(tmp_path / "M.f64").shape == (100, 1000)


@pytest.mark.parametrize("flag,value", [("--ranks", "5,x"),
                                        ("--cps", "500,1e3")])
def test_simulate_refuses_a_list_that_is_not_integers(tmp_path, capsys, flag,
                                                      value):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--variant", "changepoints", flag, value,
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument {flag}: not a list of integers: '{value}'" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("flag", ["--lambda1", "--lambda2"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_track_refuses_a_non_finite_penalty(tmp_path, capsys, step_paths,
                                            flag, bad):
    # refused before any step: on a NaN penalty the step paths disagree (the
    # compiled one runs on with every s = 0, the numpy one raises)
    sim = SimSpec(m=30, t=80, n_burnin=40, rho=0.01, seed=49,
                  variant=Stable(r=3))
    src = tmp_path / "m.f64"
    write_raw_f64(src, full_stream_matrix(generate(sim)))
    for path in step_paths:
        with path:
            assert main(["track", "--input", str(src), "--format", "raw-f64",
                         "--n-burnin", "40", "--n-win", "40", flag, bad,
                         "--out-dir", str(tmp_path / "out")]) == 1
        assert "finite and > 0" in capsys.readouterr().err


def test_track_command_and_exit_codes(tmp_path):
    spec = SimSpec(m=20, t=80, n_burnin=20, rho=0.02, seed=91,
                   variant=Stable(r=2))
    gt = generate(spec)
    src = tmp_path / "stream.f64"
    write_raw_f64(src, full_stream_matrix(gt))
    out = tmp_path / "track"
    rc = main(["track", "--input", str(src), "--format", "raw-f64",
               "--mode", "omw", "--n-burnin", "20", "--n-win", "20",
               "--out-dir", str(out)])
    assert rc == 0
    L = read_matrix(out / "L.f64")
    assert L.shape == (20, 80)
    cps = json.loads((out / "changepoints.json").read_text())
    assert cps["change_points"] == []


def test_track_missing_input_is_io_error(tmp_path):
    rc = main(["track", "--input", str(tmp_path / "nope.csv"),
               "--out-dir", str(tmp_path)])
    assert rc == 2


def test_track_bad_config_is_contract_violation(tmp_path):
    src = tmp_path / "m.csv"
    write_csv(src, np.zeros((4, 30)))
    rc = main(["track", "--input", str(src), "--n-burnin", "10",
               "--n-win", "20", "--out-dir", str(tmp_path)])
    assert rc == 1


def test_track_save_and_resume_matches_single_run(tmp_path):
    spec = SimSpec(m=15, t=120, n_burnin=15, rho=0.02, seed=92,
                   variant=Stable(r=2))
    gt = generate(spec)
    full = full_stream_matrix(gt)

    whole = tmp_path / "whole.f64"
    write_raw_f64(whole, full)
    head = tmp_path / "head.f64"
    write_raw_f64(head, full[:, :60])

    out_once = tmp_path / "once"
    assert main(["track", "--input", str(whole), "--format", "raw-f64",
                 "--mode", "omw", "--n-burnin", "15", "--n-win", "15",
                 "--out-dir", str(out_once)]) == 0

    snap = tmp_path / "snap.npz"
    out_head = tmp_path / "head_out"
    assert main(["track", "--input", str(head), "--format", "raw-f64",
                 "--mode", "omw", "--n-burnin", "15", "--n-win", "15",
                 "--save-state", str(snap), "--out-dir", str(out_head)]) == 0
    out_tail = tmp_path / "tail_out"
    assert main(["track", "--input", str(whole), "--format", "raw-f64",
                 "--mode", "omw", "--n-burnin", "15", "--n-win", "15",
                 "--resume", str(snap), "--out-dir", str(out_tail)]) == 0

    L_once = read_matrix(out_once / "L.f64")
    L_head = read_matrix(out_head / "L.f64")
    L_tail = read_matrix(out_tail / "L.f64")
    np.testing.assert_array_equal(np.hstack([L_head, L_tail]), L_once)


MODES = ("stoc", "omw", "omw-cp")
SMALL_TRACK = ["--format", "raw-f64", "--n-burnin", "15", "--n-win", "15"]


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """A small stream and one `track --save-state` snapshot per mode."""
    tmp = tmp_path_factory.mktemp("snapshots")
    spec = SimSpec(m=15, t=60, n_burnin=15, rho=0.02, seed=93,
                   variant=Stable(r=2))
    src = tmp / "stream.f64"
    write_raw_f64(src, full_stream_matrix(generate(spec)))
    for mode in MODES:
        assert main(["track", "--input", str(src), "--mode", mode,
                     *SMALL_TRACK, "--save-state", str(tmp / f"{mode}.npz"),
                     "--out-dir", str(tmp / mode)]) == 0
    return tmp


@pytest.mark.parametrize("kind,mode", [(k, m) for k in MODES for m in MODES
                                       if k != m])
def test_track_resume_rejects_a_snapshot_of_another_mode(snapshots, tmp_path,
                                                         capsys, kind, mode):
    rc = main(["track", "--input", str(snapshots / "stream.f64"),
               "--mode", mode, *SMALL_TRACK,
               "--resume", str(snapshots / f"{kind}.npz"),
               "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"mode {kind!r}, not {mode!r}" in err
    assert not (tmp_path / "L.f64").exists()


@pytest.mark.parametrize("mode,flags,message", [
    ("omw", ["--n-win", "10"], "not (10, "),
    ("omw-cp", ["--n-win", "10"], "not (10, "),
    ("stoc", ["--lambda1", "0.5"], "not (15, 0.5, "),
    ("omw", ["--lambda2", "1.0"], ", 1.0)"),
    ("omw-cp", ["--lambda1", "0.5"], "not (15, 0.5, "),
])
def test_track_resume_rejects_a_config_that_is_not_the_snapshots(
        snapshots, tmp_path, capsys, mode, flags, message):
    # a later restart would switch to the flags' window and penalties in
    # the middle of the run
    rc = main(["track", "--input", str(snapshots / "stream.f64"),
               "--mode", mode, *SMALL_TRACK, *flags,
               "--resume", str(snapshots / f"{mode}.npz"),
               "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: snapshot has n_win, lambda1, lambda2 = (15, " in err
    assert message in err
    assert not (tmp_path / "L.f64").exists()


@pytest.mark.parametrize("flags,message", [
    (["--n-burnin", "20"], "n_burnin = 15, not 20"),
    (["--n-check", "6"], "n_check = 20, not 6"),
    (["--alpha", "0.02", "--n-tol", "1"],
     "alpha = 0.01, not 0.02; n_tol = 0, not 1"),
])
def test_track_resume_rejects_detector_settings_that_are_not_the_snapshots(
        snapshots, tmp_path, capsys, flags, message):
    # a later restart would seed from another burn-in length, or test with
    # other settings, than the run before the snapshot
    rc = main(["track", "--input", str(snapshots / "stream.f64"),
               "--mode", "omw-cp", *SMALL_TRACK, *flags,
               "--resume", str(snapshots / "omw-cp.npz"),
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert f"error: snapshot has {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "L.f64").exists()


def test_track_save_state_stacks_the_columns_once(snapshots, tmp_path,
                                                  monkeypatch):
    calls = []
    dense = streamrpca.trackers.ColumnStore.dense

    def counting_dense(self, *args, **kwargs):
        calls.append(self.n)
        return dense(self, *args, **kwargs)

    monkeypatch.setattr(streamrpca.trackers.ColumnStore, "dense",
                        counting_dense)
    assert main(["track", "--input", str(snapshots / "stream.f64"),
                 "--mode", "omw-cp", *SMALL_TRACK,
                 "--save-state", str(tmp_path / "snap.npz"),
                 "--out-dir", str(tmp_path)]) == 0
    assert calls == [60]
    with np.load(tmp_path / "snap.npz") as data:
        np.testing.assert_array_equal(data["det_L_partial"],
                                      read_matrix(tmp_path / "L.f64"))


def test_track_writes_the_detector_report(tmp_path):
    # track writes the report's warnings with the change points, as
    # experiment does: a head that ends inside the burn-in block of the
    # restart at t=201 leaves that restart pending
    spec = SimSpec(m=40, t=400, n_burnin=50, rho=0.01, seed=83,
                   variant=ChangePoints(ranks=(3, 15), cps=(200,), r0=2,
                                        t_p=100))
    src = tmp_path / "head.f64"
    write_raw_f64(src, full_stream_matrix(generate(spec))[:, :50 + 220])
    out = tmp_path / "out"
    assert main(["track", "--input", str(src), "--format", "raw-f64",
                 "--mode", "omw-cp", "--n-burnin", "50", "--n-win", "50",
                 "--n-cp-burnin", "50", "--n-test", "50", "--n-check", "10",
                 "--lambda2", "3", "--out-dir", str(out)]) == 0
    assert json.loads((out / "changepoints.json").read_text()) == {
        "change_points": [201],
        "warnings": ["change point at t=201 leaves fewer than n_burnin=50 "
                     "samples; tail processed in tracking-only mode"]}
    lines = (out / "diagnostics.jsonl").read_text().splitlines()
    assert [json.loads(line)["t"] for line in lines] == list(range(1, 221))


@pytest.mark.parametrize("mode", MODES)
def test_track_writes_one_output_in_every_mode(snapshots, tmp_path,
                                               monkeypatch, mode):
    # every mode writes the same four files, and its changepoints.json
    # carries the run's warnings: here the start-up burn-in's, with the
    # batch solve capped at 20 of the 44 sweeps it takes
    solve = streamrpca.pcp.pcp_alm
    monkeypatch.setattr(streamrpca.pcp, "pcp_alm",
                        lambda M, config=None: solve(M, PcpConfig(max_iter=20)))
    out = tmp_path / "out"
    assert main(["track", "--input", str(snapshots / "stream.f64"),
                 "--mode", mode, *SMALL_TRACK, "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "L.f64", "S.f64", "changepoints.json", "diagnostics.jsonl"]
    assert json.loads((out / "changepoints.json").read_text()) == {
        "change_points": [],
        "warnings": ["burn-in before t=1: batch solve unconverged after 20 "
                     "iterations"]}
    lines = (out / "diagnostics.jsonl").read_text().splitlines()
    assert len(lines) == (60 if mode == "omw-cp" else 0)


@pytest.mark.parametrize("mode", MODES)
def test_track_refuses_a_stream_shorter_than_the_burn_in(snapshots, tmp_path,
                                                         capsys, mode):
    # one rule in every mode
    src = tmp_path / "short.f64"
    write_raw_f64(src, read_matrix(snapshots / "stream.f64")[:, :14])
    rc = main(["track", "--input", str(src), "--mode", mode, *SMALL_TRACK,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert (f"error: {mode}: stream shorter than n_burnin=15\n"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_omw_cp_snapshot_holds_every_detector_key(snapshots):
    with np.load(snapshots / "omw-cp.npz") as data:
        stored = [key[4:] for key in data.files if key.startswith("det_")]
    assert sorted(stored) == sorted(_DETECTOR_KEYS)


@pytest.mark.parametrize("key", _DETECTOR_KEYS)
def test_track_resume_refuses_an_omw_cp_snapshot_without_an_entry(
        snapshots, tmp_path, capsys, key):
    with np.load(snapshots / "omw-cp.npz") as data:
        arrays = {name: data[name] for name in data.files
                  if name != f"det_{key}"}
    path = tmp_path / "snap.npz"
    np.savez(path, **arrays)
    rc = main(["track", "--input", str(snapshots / "stream.f64"),
               "--mode", "omw-cp", *SMALL_TRACK, "--resume", str(path),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert (f"error: omw-cp snapshot has no det_{key}\n"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


CP_TRACK = ["--format", "raw-f64", "--mode", "omw-cp", "--n-burnin", "50",
            "--n-win", "50", "--n-cp-burnin", "50", "--n-test", "50",
            "--n-check", "10", "--lambda2", "3"]


@pytest.fixture(scope="module")
def monitoring_snapshot(tmp_path_factory):
    """The m = 40 stream with a change at t = 200, and an omw-cp snapshot
    taken at t = 150, in monitoring with a full flag buffer."""
    tmp = tmp_path_factory.mktemp("monitoring")
    spec = SimSpec(m=40, t=400, n_burnin=50, rho=0.01, seed=83,
                   variant=ChangePoints(ranks=(3, 15), cps=(200,), r0=2,
                                        t_p=100))
    full = full_stream_matrix(generate(spec))
    write_raw_f64(tmp / "full.f64", full)
    write_raw_f64(tmp / "head.f64", full[:, :50 + 150])
    assert main(["track", "--input", str(tmp / "head.f64"), *CP_TRACK,
                 "--save-state", str(tmp / "snap.npz"),
                 "--out-dir", str(tmp / "head")]) == 0
    return tmp


@pytest.mark.parametrize("change", [
    lambda sizes, flags: (np.r_[99, sizes[1:]], flags),
    lambda sizes, flags: (np.r_[-1, sizes[1:]], flags),
    lambda sizes, flags: (sizes, flags[:3]),
    lambda sizes, flags: (np.r_[sizes, sizes], np.r_[flags, flags]),
    lambda sizes, flags: (sizes, np.r_[2, flags[1:]]),
], ids=["size-above-m", "negative-size", "short-flags", "n_check-exceeded",
        "flag-not-0-or-1"])
def test_track_resume_refuses_a_flag_buffer_the_config_cannot_hold(
        monitoring_snapshot, tmp_path, capsys, change):
    # a size above m failed once it aged into the histogram; extra sizes
    # or pairs were dropped without a word
    def edit(arrays):
        sizes, flags = arrays["det_fb_sizes"], arrays["det_fb_flags"]
        assert sizes.shape == flags.shape == (10,)
        arrays["det_fb_sizes"], arrays["det_fb_flags"] = change(sizes, flags)

    assert ("error: det_fb_sizes, det_fb_flags: not up to n_check=10 pairs "
            "of a support size in [0, 40] and a flag 0 or 1\n"
            in resume_edited(monitoring_snapshot, tmp_path, capsys, edit))


@pytest.mark.parametrize("cut,shapes", [
    (lambda L, S: (L[:, :-5], S[:, :-5]), "(40, 145), (40, 145)"),
    (lambda L, S: (L[:-1], S), "(39, 150), (40, 150)"),
], ids=["columns", "row"])
def test_track_resume_refuses_partial_outputs_that_do_not_fit(
        monitoring_snapshot, tmp_path, capsys, cut, shapes):
    # saved at det_next_t = 151 on the m = 40 stream: 5 columns cut resumed
    # and wrote 395 of 400 columns, a row cut died in ColumnStore.append
    def edit(arrays):
        L, S = arrays["det_L_partial"], arrays["det_S_partial"]
        assert L.shape == S.shape == (40, 150)
        arrays["det_L_partial"], arrays["det_S_partial"] = cut(L, S)

    assert (f"error: det_L_partial, det_S_partial have shapes {shapes}, "
            "expected (40, 150): the columns up to det_next_t\n"
            in resume_edited(monitoring_snapshot, tmp_path, capsys, edit))


@pytest.mark.parametrize("change", [
    lambda counts: np.r_[-1000, counts[1:]],
    lambda counts: counts + 0.5,
    lambda counts: counts[:-1],
], ids=["negative", "non-integer", "short"])
def test_track_resume_refuses_a_histogram_it_cannot_test_against(
        monitoring_snapshot, tmp_path, capsys, change):
    # a count of -1000 resumed with exit 0: its p-values went below 0, and
    # it reported a change point at t=169 where a single run reports 201
    def edit(arrays):
        assert arrays["det_hist_counts"].shape == (41,)
        arrays["det_hist_counts"] = change(arrays["det_hist_counts"])

    assert ("error: det_hist_counts: not 41 integer counts >= 0"
            in resume_edited(monitoring_snapshot, tmp_path, capsys, edit))


@pytest.mark.parametrize("pending,change,message", [
    (True, lambda next_t: [next_t + 40],
     "det_change_points [191]: not strictly increasing and below "
     "det_next_t = 151"),
    (True, lambda next_t: [next_t], "det_change_points [151]: not"),
    (False, lambda next_t: [120, 110], "det_change_points [120, 110]: not"),
    (True, lambda next_t: [0],
     "pending change point 0 is before det_t_start = 1"),
], ids=["pending-past-next-t", "pending-at-next-t", "decreasing",
        "pending-before-t-start"])
def test_track_resume_refuses_change_points_it_cannot_replay(
        monitoring_snapshot, tmp_path, capsys, pending, change, message):
    # a pending t0 at or past det_next_t died in a ValueError traceback
    def edit(arrays):
        arrays["det_detection_enabled"] = np.bool_(not pending)
        arrays["det_change_points"] = np.array(
            change(int(arrays["det_next_t"])), dtype=np.int64)

    assert (f"error: {message}"
            in resume_edited(monitoring_snapshot, tmp_path, capsys, edit))


def resume_edited(monitoring_snapshot, tmp_path, capsys, edit):
    """stderr of track --resume from the monitoring snapshot with its arrays
    changed in place by edit; the run must exit 2 and write nothing."""
    with np.load(monitoring_snapshot / "snap.npz") as data:
        arrays = {name: data[name] for name in data.files}
    edit(arrays)
    path = tmp_path / "snap.npz"
    np.savez(path, **arrays)
    capsys.readouterr()
    rc = main(["track", "--input", str(monitoring_snapshot / "full.f64"),
               *CP_TRACK, "--resume", str(path),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert not (tmp_path / "out").exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("methods", ["omw,bogus", ",", ""])
def test_experiment_refuses_a_method_list_it_cannot_run(tmp_path, capsys,
                                                        methods):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--study", "1", "--methods", methods,
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert ("argument --methods: not a list of modes among stoc, omw, "
            f"omw-cp: '{methods}'") in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_experiment_command_smoke(tmp_path):
    # tiny surrogate for the experiment path: desk study 1 with the full
    # sample budget is exercised in the acceptance suite
    out = tmp_path / "exp"
    rc = main(["experiment", "--study", "1", "--seed", "5",
               "--methods", "omw", "--out-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "omw" / "report.json").read_text())
    assert "err_L" in report and report["change_points"] == []


def test_console_entry_point(tmp_path):
    src = tmp_path / "m.csv"
    write_csv(src, np.outer(np.arange(1, 5, dtype=float), np.ones(8)))
    proc = subprocess.run(
        [sys.executable, "-m", "streamrpca.cli", "pcp", "--input", str(src),
         "--out-dir", str(tmp_path / "o")],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr


def test_track_needs_an_output_directory(snapshots, capsys, monkeypatch):
    monkeypatch.delenv("STREAMRPCA_OUT_DIR", raising=False)
    rc = main(["track", "--input", str(snapshots / "stream.f64"),
               *SMALL_TRACK])
    assert rc == 1
    assert ("error: no output directory: pass --out-dir or set "
            "STREAMRPCA_OUT_DIR\n" in capsys.readouterr().err)


def test_pcp_refuses_an_empty_input(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("")
    rc = main(["pcp", "--input", str(src), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "error: pcp: empty input stream\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_env_var_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("STREAMRPCA_OUT_DIR", str(tmp_path / "envout"))
    rc = main(["simulate", "--m", "10", "--t", "20", "--n-burnin", "5",
               "--seed", "1"])
    assert rc == 0
    assert (tmp_path / "envout" / "M.f64").exists()
