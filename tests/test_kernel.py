"""The compiled step kernel against the numpy code it replaces, and the
loader that builds, caches and falls back."""

import os
import shlex
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import streamrpca
from streamrpca import kernel
from streamrpca.basis import _sweep_numpy
from streamrpca.cli import main
from streamrpca.experiments import study_spec
from streamrpca.pcp import burnin_initialize
from streamrpca.projection import ProjectionConfig, _project_numpy
from streamrpca.simgen import (Drift, SimSpec, Stable, full_stream_matrix,
                               generate)
from streamrpca.streams import ObservationStream, write_raw_f64
from streamrpca.changepoint import run_tracker
from streamrpca.trackers import TrackerConfig, omw_init, omw_step

compiled = pytest.mark.skipif(kernel.ACTIVE != "compiled",
                              reason="no compiled kernel could be built")
SRC = Path(streamrpca.__file__).resolve().parent.parent


def assert_close(actual, expected, rtol=1e-12):
    assert (np.linalg.norm(actual - expected)
            <= rtol * np.linalg.norm(expected)), (actual, expected)


def assert_kernel_matches_numpy_on_steps(full, start, config, steps):
    """Burn in on full[:, start:start + n_burnin], then before each of
    `steps` omw steps compare the kernel's projection of the next sample
    and its sweep of the current (U, A, B) with the numpy code's."""
    m = full.shape[0]
    lambda1, lambda2 = config.resolved_lambdas(m)
    init = burnin_initialize(full[:, start:start + config.n_burnin], lambda1,
                             lambda2, config.n_win)
    model, buffer = omw_init(init, lambda1, lambda2, config.n_win)
    projection = ProjectionConfig()
    for x in full[:, start + config.n_burnin:][:, :steps].T:
        v, s, _ = kernel.project(model.U, x, lambda1, lambda2,
                                 projection.tol, projection.max_iter)
        v_ref, s_ref = _project_numpy(model.U, x, lambda1, lambda2,
                                      projection)
        assert_close(v, v_ref)
        assert_close(s, s_ref)
        U = model.U.copy(order="F")
        assert kernel.sweep(U, model.A, model.B, lambda1, 1, 1e-8)
        assert_close(U, _sweep_numpy(model.U.copy(order="F"), model.A,
                                     model.B, lambda1, 1))
        omw_step(model, buffer, x)
    return model


@compiled
def test_kernel_matches_numpy_on_drift_states():
    # the drift-omw benchmark's stream shape: m = 100, rank 10, drifting
    sim = SimSpec(m=100, t=400, n_burnin=100, rho=0.01, seed=3,
                  variant=Drift(r=10, r0=3, t_p=125))
    full = full_stream_matrix(generate(sim))
    config = TrackerConfig(n_burnin=100, n_win=100)
    assert_kernel_matches_numpy_on_steps(full, 0, config, steps=400)


@compiled
def test_kernel_matches_numpy_on_rank_55_states():
    # paper-scale study 3, seed 0: the restart after the first change point
    # burns in on stream samples 1200-1399 and finds rank 55
    sim, config = study_spec(3, "paper", 0)
    full = full_stream_matrix(generate(sim))
    model = assert_kernel_matches_numpy_on_steps(full, 1200, config,
                                                 steps=40)
    assert model.r == 55


@compiled
def test_trackers_on_threads_match_their_sequential_runs():
    # six independent trackers of one shape on threads, more than there are
    # cores, switching often: the kernel calls release the interpreter lock,
    # and each thread has its own scratch arrays
    config = TrackerConfig(n_burnin=40, n_win=40)
    streams = [full_stream_matrix(generate(SimSpec(
        m=30, t=300, n_burnin=40, rho=0.02, seed=seed, variant=Stable(r=3))))
        for seed in range(6)]

    def run(M):
        return run_tracker(ObservationStream.from_matrix(M), "omw", config)

    expected = [run(M) for M in streams]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(streams)) as pool:
            results = list(pool.map(run, streams, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(results, expected):
        assert got.L.tobytes() == want.L.tobytes()
        assert got.S.tobytes() == want.S.tobytes()


def test_scratch_is_one_array_per_thread_grown_to_its_largest_shape():
    # the three ranks of a switch-omw-cp stream, then the first again: the
    # scratch of rank 55 serves the smaller shapes too
    def scratch_after_each_shape():
        out = []
        for r in (10, 55, 30, 10):
            work = kernel._work(400, r)
            assert work.size >= 3 * r * r + 4 * r + 7 * 400 + 400 * r
            assert work is kernel._local.work
            out.append(work)
        return out

    with ThreadPoolExecutor(max_workers=1) as pool:
        first, *rest = pool.submit(scratch_after_each_shape).result(60)
    assert first.size < rest[0].size
    assert all(scratch is rest[0] for scratch in rest)


@compiled
def test_entry_points_refuse_bad_arrays():
    # the module checks each array's dtype, order and shape and the work
    # size in C, the window's oldest row as three 1-d views like x, v and s:
    # a bad one raises ValueError before anything is written
    rng = np.random.Generator(np.random.PCG64(46))
    m, r, n = 12, 3, 4
    b = min(r, kernel._ext.BLOCK)
    U = np.asfortranarray(rng.standard_normal((m, r)))
    B = np.asfortranarray(rng.standard_normal((m, r)))
    window = [rng.standard_normal((n, k)) for k in (m, r, m)]
    good = dict(U=U, A=np.eye(r), B=B, x=rng.standard_normal(m),
                v=rng.standard_normal(r), s=rng.standard_normal(m),
                work=kernel._work(m, r), m_old=window[0][1],
                v_old=window[1][1], s_old=window[2][1])
    need = {"project": 3 * r * r + 4 * r + 7 * m + m * r,
            "accumulate": 2 * m, "sweep": r + b + m * b}
    ext = kernel._ext
    calls = {
        "project": lambda a: ext.project(a["U"], a["x"], a["v"], a["s"],
                                         a["work"], 0.1, 1.0, 1e-7, 100),
        "accumulate": lambda a: ext.accumulate(
            a["A"], a["B"], a["x"], a["v"], a["s"], a["work"], a["m_old"],
            a["v_old"], a["s_old"]),
        "sweep": lambda a: ext.sweep(a["U"], a["A"], a["B"], a["work"], 0.1,
                                     1, 1e-8),
    }
    cases = [(name, "U", U.astype(np.float32)) for name in ("project",
                                                            "sweep")]
    cases += [(name, "U", np.ascontiguousarray(U)) for name in ("project",
                                                                "sweep")]
    cases += [(name, "B", np.ascontiguousarray(B)) for name in ("accumulate",
                                                                "sweep")]
    cases += [(name, key, good[key][:-1]) for name in ("project",
                                                       "accumulate")
              for key in ("x", "v", "s")]
    cases += [(name, "work", good["work"][:k - 1]) for name, k in need.items()]
    # the oldest row too short, 2-D (a view into the window) or float32
    cases += [("accumulate", key, bad) for key in ("m_old", "v_old", "s_old")
              for bad in (good[key][:-1], good[key][None],
                          good[key].astype(np.float32))]
    state = [U, good["A"], B, *window]
    before = [X.copy() for X in state]
    for name, key, value in cases:
        with pytest.raises(ValueError, match="kernel: "):
            calls[name]({**good, key: value})
        for X, X0 in zip(state, before):
            np.testing.assert_array_equal(X, X0, err_msg=f"{name} {key}")
    for name in ("project", "accumulate", "sweep"):  # the good arrays pass
        calls[name](good)
    np.testing.assert_array_equal(window[1][1], good["v"])


@compiled
def test_kernel_compiles_without_warnings(tmp_path):
    # the cached build hides compiler warnings: -Wall -Werror shows them
    # (-Wextra would flag the unused self parameters and PyModuleDef's
    # m_slots, both idiomatic)
    command = kernel._compile_command() + ["-Wall", "-Werror"]
    result = subprocess.run([*command, "-o", str(tmp_path / "kernel.so"),
                             str(kernel.SOURCE), "-lm"],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


@compiled
def test_compiled_import_leaves_out_scipy_linalg(tmp_path):
    # the BLAS/LAPACK capsules come from scipy's linalg folder without
    # running scipy/linalg/__init__.py, and only the numpy path imports it
    code = ("import sys, streamrpca; print(streamrpca.kernel.ACTIVE, "
            "'scipy.linalg' in sys.modules)")
    assert run_python(code, tmp_path / "cache") == "compiled False"


def run_python(code, cache, *args, src=SRC, **env):
    """stdout of `python -c code *args` with streamrpca from src and its
    kernel cache under cache."""
    env = dict(os.environ, PYTHONPATH=str(src), XDG_CACHE_HOME=str(cache),
               **env)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=300).stdout.strip()


ACTIVE = "import streamrpca.kernel as k; print(k.ACTIVE)"
TRACK = ("import sys; from streamrpca.cli import main; "
         "sys.exit(main(sys.argv[1:]))")


def test_without_a_compiler_the_numpy_path_runs(tmp_path, monkeypatch):
    # with no compiler and an empty cache, import works and the outputs are
    # the numpy path's, bit for bit
    sim = SimSpec(m=30, t=200, n_burnin=40, rho=0.02, seed=7,
                  variant=Stable(r=3))
    src = tmp_path / "in.f64"
    write_raw_f64(src, full_stream_matrix(generate(sim)))
    args = ["track", "--input", str(src), "--format", "raw-f64", "--mode",
            "omw", "--n-burnin", "40", "--n-win", "40", "--out-dir"]
    cache = tmp_path / "cache"
    assert run_python(ACTIVE, cache, CC="/bin/false") == "numpy"
    run_python(TRACK, cache, *args, str(tmp_path / "fallback"),
               CC="/bin/false")
    monkeypatch.setattr(kernel, "ACTIVE", "numpy")
    assert main([*args, str(tmp_path / "numpy")]) == 0
    for name in ("L.f64", "S.f64"):
        assert ((tmp_path / "fallback" / name).read_bytes()
                == (tmp_path / "numpy" / name).read_bytes())


@compiled
def test_second_load_reuses_the_cache(tmp_path):
    cache = tmp_path / "cache"
    # $CC is a script that runs this process's compile command (the flags
    # it is passed come twice, which a compiler accepts), then stops
    # working: the command, and so the library's name, stays the same
    compiler = tmp_path / "cc"
    compiler.write_text("#!/bin/sh\nexec "
                        f"{shlex.join(kernel._compile_command())} \"$@\"\n")
    compiler.chmod(0o755)
    cc = shlex.quote(str(compiler))
    assert run_python(ACTIVE, cache, CC=cc) == "compiled"
    built = {p: p.stat().st_mtime_ns for p in cache.rglob("*.so")}
    assert len(built) == 1
    # no compiler now: only the cached library can make the kernel active
    compiler.write_text("#!/bin/sh\nexit 1\n")
    assert run_python(ACTIVE, cache, CC=cc) == "compiled"
    assert {p: p.stat().st_mtime_ns for p in cache.rglob("*.so")} == built


def test_library_name_is_keyed_on_the_compile_command(monkeypatch):
    monkeypatch.setenv("CC", "cc")
    command = kernel._compile_command()
    assert command[0] == "cc"
    name = kernel._library_name(command)
    assert kernel._library_name(list(command)) == name
    monkeypatch.setenv("CC", "clang -m64")
    assert kernel._compile_command()[:2] == ["clang", "-m64"]
    for other in (kernel._compile_command(), [*command, "-march=native"],
                  command[:-1], ["cc -O2", *command[2:]]):
        assert kernel._library_name(other) != name


def copy_package(tmp_path):
    """A copy of the streamrpca package under tmp_path/src/streamrpca."""
    copy = tmp_path / "src"
    shutil.copytree(SRC / "streamrpca", copy / "streamrpca",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return copy


@compiled
def test_routines_the_kernel_does_not_expect_leave_the_numpy_path(tmp_path):
    # srp_bind checks the number of routines it is handed: one too few
    # makes the loader fall back instead of calling through a bad pointer
    copy = copy_package(tmp_path)
    loader = copy / "streamrpca" / "kernel.py"
    source = loader.read_text(encoding="ascii")
    assert source.count(', "dpotrs")') == 1
    loader.write_text(source.replace(', "dpotrs")', ")"), encoding="ascii")
    assert run_python(ACTIVE, tmp_path / "cache", src=copy) == "numpy"


@compiled
def test_edited_source_rebuilds(tmp_path):
    cache = tmp_path / "cache"
    assert run_python(ACTIVE, cache) == "compiled"
    copy = copy_package(tmp_path)
    with open(copy / "streamrpca" / "kernel.c", "a", encoding="ascii") as fh:
        fh.write("/* edited */\n")
    assert run_python(ACTIVE, cache, src=copy) == "compiled"
    assert len(list(cache.rglob("*.so"))) == 2
