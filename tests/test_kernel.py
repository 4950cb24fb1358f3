"""The compiled step kernel against the numpy code it replaces, and the
loader that builds, caches and falls back."""

import itertools
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
from streamrpca import kernel, prox
from streamrpca.basis import _sweep_numpy
from streamrpca.cli import main
from streamrpca.experiments import study_spec
from streamrpca.pcp import (_alm_input_numpy, _alm_update_numpy,
                            burnin_initialize, pcp_alm)
from streamrpca.projection import ProjectionConfig, _project_numpy
from streamrpca.simgen import (Drift, SimSpec, Stable, full_stream_matrix,
                               generate)
from streamrpca.streams import ObservationStream, write_raw_f64
from streamrpca.changepoint import run_tracker
from streamrpca.trackers import TrackerConfig, _accumulate_numpy, omw_step

from conftest import seeded

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
    model, buffer = seeded(init, lambda1, lambda2)
    projection = ProjectionConfig()
    for x in full[:, start + config.n_burnin:][:, :steps].T:
        v, s, _ = kernel.project(model.U, x, lambda1, lambda2,
                                 projection.tol, projection.max_iter)
        v_ref, s_ref = _project_numpy(model.U, x, lambda1, lambda2,
                                      projection)
        assert_close(v, v_ref)
        assert_close(s, s_ref)
        U = model.U.copy(order="F")
        assert kernel.sweep(U, model.A, model.B, lambda1, 1e-8)
        assert_close(U, _sweep_numpy(model.U.copy(order="F"), model.A,
                                     model.B, lambda1))
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


def warm_args():
    return prox.MAX_STEPS, prox.GUARD_TOL, prox.RITZ_TOL, prox.GRAM_MIN_RATIO


def assert_svt_matches_numpy(X, tau, block, svt_warm=kernel.svt_warm):
    """kernel.svt_warm against the numpy warm loop, bit for bit, the last
    step's s and Vh of a declined loop included; its U, None where both
    decline."""
    got = svt_warm(X, tau, block, *warm_args())
    want = prox._svt_warm_numpy(X, tau, block)
    assert (got[0] is None) == (want[0] is None)
    for a, b in zip(got, want):
        assert a is None or (a.shape == b.shape
                             and a.tobytes() == b.tobytes())
    return got[0]


@compiled
def test_svt_matches_the_numpy_loop_on_desk_study_3_burn_ins(monkeypatch):
    # every warm SVT of the start-up and restart burn-ins of desk study 3,
    # whose blocks come from the warm loop (F-order) or from the Gram path of
    # a square X (a reversed, non-contiguous view, which numpy copies)
    svt_warm, outcomes = kernel.svt_warm, []

    def checked(X, tau, block, *args):
        outcomes.append(
            assert_svt_matches_numpy(X, tau, block, svt_warm) is not None)
        return svt_warm(X, tau, block, *args)

    monkeypatch.setattr(kernel, "svt_warm", checked)
    M = full_stream_matrix(generate(study_spec(3, "desk", 0)[0]))
    for start in (0, 300, 600):
        pcp_alm(M[:, start:start + 100])
    assert any(outcomes) and not all(outcomes)  # accepts and declines


PAPER_SVT = """
import numpy as np
from streamrpca import kernel, prox
from streamrpca.experiments import study_spec
from streamrpca.pcp import pcp_alm
from streamrpca.simgen import full_stream_matrix, generate

svt_warm, outcomes = kernel.svt_warm, []

def checked(X, tau, block, *args):
    got = svt_warm(X, tau, block, *args)
    want = prox._svt_warm_numpy(X, tau, block)
    outcomes.append(((got[0] is None) == (want[0] is None) and all(
        a is None or a.tobytes() == b.tobytes() for a, b in zip(got, want)),
        got[0] is not None))
    return got

kernel.svt_warm = checked
M = full_stream_matrix(generate(study_spec(3, "paper", 0)[0]))
for start in (0, 1200):
    pcp_alm(M[:, start:start + 200])
print(all(same for same, _ in outcomes), len(outcomes),
      sum(accepted for _, accepted in outcomes))
"""


def assert_paper_svt_matches_numpy(tmp_path, threads):
    same, calls, accepted = run_python(
        PAPER_SVT, tmp_path / "cache", OPENBLAS_NUM_THREADS=threads).split()
    assert same == "True" and int(calls) > int(accepted) > 0


@compiled
def test_svt_matches_the_numpy_loop_on_paper_burn_ins(tmp_path):
    # paper study 3's start-up block and its first restart block (rank 10
    # and 55, 400 x 200, so the Gram path's blocks are a tall X's) take the
    # kernel, and match numpy bit for bit
    assert_paper_svt_matches_numpy(tmp_path, "1")


@compiled
def test_svt_matches_the_numpy_loop_on_two_blas_threads(tmp_path):
    # the kernel calls numpy's OpenBLAS, so a product split over two threads
    # is split, and rounds, as numpy's is
    assert_paper_svt_matches_numpy(tmp_path, "2")


@compiled
@pytest.mark.parametrize("layout", ["F", "C", "reversed"])
@pytest.mark.parametrize("m,n", [(120, 40), (40, 120)])
def test_svt_matches_the_numpy_loop_on_random_blocks(m, n, layout):
    # tall and wide X, a block near X's right singular vectors or a random
    # one, in each layout svt_factors hands over: the warm loop's (F), the
    # Gram path's of a wide X (C) and of a tall one (a reversed view)
    rng = np.random.Generator(np.random.PCG64(m * n))
    k = min(m, n) // 4
    X = ((rng.standard_normal((m, 6)) * 10.0 * 0.7 ** np.arange(6))
         @ rng.standard_normal((6, n)) / np.sqrt(m * n)
         + 0.01 * rng.standard_normal((m, n)))
    s_all = np.linalg.svd(X, compute_uv=False)
    accepted = 0
    for near in (True, False):
        base = (np.linalg.svd(X + 1e-3 * rng.standard_normal((m, n)))[2][:k].T
                if near else rng.standard_normal((n, k)))
        block = {"F": np.asfortranarray(base), "C": np.ascontiguousarray(base),
                 "reversed": np.ascontiguousarray(base[:, ::-1])[:, ::-1]
                 }[layout]
        assert block.flags.f_contiguous == (layout == "F")
        for tau in (0.5 * s_all[3], 0.5 * s_all[k + 2]):
            accepted += assert_svt_matches_numpy(X, tau, block) is not None
    assert accepted


@compiled
@pytest.mark.parametrize("spectrum,gram", [
    ((10.0, 8.0, 6.0, 5.0, 4.0, 0.5, 0.4, 0.3), True),
    ((10.0, 8.0, 6.0, 5.0, 4.0), False)])
def test_svt_matches_the_numpy_loop_on_both_ritz_paths(monkeypatch, spectrum,
                                                       gram):
    # k = 8 block values: all of them above GRAM_MIN_RATIO times the top
    # one take the Gram step (dsyrk, dsyevd); a rank-5 X leaves three at
    # the noise level, far below it, and every step takes dgesdd
    rng = np.random.Generator(np.random.PCG64(63))
    m, n, k = 90, 70, 8
    left = np.linalg.qr(rng.standard_normal((m, len(spectrum))))[0]
    right = np.linalg.qr(rng.standard_normal((n, len(spectrum))))[0]
    X = (left * spectrum) @ right.T + 1e-7 * rng.standard_normal((m, n))
    block = np.linalg.svd(X + 1e-3 * rng.standard_normal((m, n)))[2][:k].T
    calls = {"svd": 0, "eigh": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(np.linalg, name), **kw):
            calls[_name] += 1
            return _f(*args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    assert assert_svt_matches_numpy(X, 2.0, block) is not None
    assert calls["eigh"] > 0
    assert calls["svd"] == (0 if gram else calls["eigh"])


@compiled
def test_svt_declines_where_the_numpy_loop_does(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(61))
    m, n, k = 80, 60, prox.OVERSAMPLING
    X = rng.standard_normal((m, n))
    s_all = np.linalg.svd(X, compute_uv=False)
    near = np.linalg.svd(X)[2][:k].T
    # kept == k: every value of the block's projection exceeds tau
    assert assert_svt_matches_numpy(X, 0.5 * s_all[k], near) is None
    # no step accepted: a flat spectrum, a random block, and MAX_STEPS steps
    # that leave the Ritz residual far above RITZ_TOL
    tau = 0.5 * (s_all[1] + s_all[2])
    assert assert_svt_matches_numpy(X, tau, rng.standard_normal((n, k))) \
        is None
    assert assert_svt_matches_numpy(X, tau, near) is not None
    # svt_factors takes the kernel from a block of OVERSAMPLING columns, and
    # where it declines widens the block by OVERSAMPLING columns up to
    # min(m, n) / 4 = 15, then returns the exact path
    widths = []
    svt_warm = kernel.svt_warm
    monkeypatch.setattr(kernel, "svt_warm", lambda X, tau, block, *args:
                        widths.append(block.shape[1])
                        or svt_warm(X, tau, block, *args))
    exact = prox.svt_factors(X, 0.5 * s_all[k])
    for got, want in zip(prox.svt_factors(X, 0.5 * s_all[k], near), exact):
        np.testing.assert_array_equal(got, want)
    assert widths == list(range(k, 15 + 1, k))
    widths.clear()
    prox.svt_factors(X, tau, near[:, :k - 1])
    assert not widths
    # a rank-8 X whose 6 values above tau saturate the block: one widening
    # takes the leading directions, and the loop accepts them
    left = np.linalg.qr(rng.standard_normal((m, 8)))[0]
    right = np.linalg.qr(rng.standard_normal((n, 8)))[0]
    X = (left * 0.8 ** np.arange(8)) @ right.T + 1e-6 * rng.standard_normal(
        (m, n))
    tau = 0.5 * (0.8 ** 5 + 0.8 ** 6)
    U, s, Vh, block = prox.svt_factors(X, tau, right[:, :k])
    assert widths == [k, 2 * k] and block.shape == (n, 2 * k)
    want = prox.svt_factors(X, tau)
    assert s.size == 6 and np.linalg.norm(
        (U * s) @ Vh - (want.U * want.s) @ want.Vh) <= prox.RITZ_TOL


@compiled
def test_svt_raises_where_numpys_svd_does():
    rng = np.random.Generator(np.random.PCG64(62))
    X = rng.standard_normal((40, 40))
    X[3, 7] = np.nan
    block = rng.standard_normal((40, prox.OVERSAMPLING))
    for warm in (lambda: kernel.svt_warm(X, 1.0, block, *warm_args()),
                 lambda: prox._svt_warm_numpy(X, 1.0, block)):
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not "):
            warm()


@compiled
@pytest.mark.parametrize("window", [False, True], ids=["cumulative",
                                                       "window"])
@pytest.mark.parametrize("m,r", [(1, 1), (100, 10), (400, 55)])
def test_accumulate_matches_numpy_bit_for_bit(m, r, window):
    # elementwise products and differences in the numpy code's order, with
    # no contraction or reassociation: the vectorized loops must round each
    # one as numpy does, and overwrite the oldest row with (x - s, v)
    rng = np.random.Generator(np.random.PCG64(m * r))

    def draw(*shape):  # entries over twelve decades, so rounding shows
        return (rng.standard_normal(shape)
                * 10.0 ** rng.uniform(-6, 6, shape))

    half = draw(r, r)
    x, v, s = draw(m), draw(r), draw(m) * (rng.random(m) < 0.2)
    states = [[half + half.T, np.asfortranarray(draw(m, r)),
               *(draw(4, k) for k in (m, r))]]
    states.append([X.copy(order="K") for X in states[0]])
    for accumulate, (A, B, *rows) in zip(
            (kernel.accumulate, _accumulate_numpy), states):
        accumulate(A, B, x, v, s, *([X[2] for X in rows] if window else []))
    for X, Y in zip(*states):
        assert X.tobytes() == Y.tobytes()
    E, V = states[0][2:]
    assert window == all(np.array_equal(X[2], y)
                         for X, y in ((E, x - s), (V, v)))


def assert_kkt(U, x, v, s, lambda1, lambda2):
    """The projection's KKT conditions, to rounding in U'(x - Uv - s)."""
    resid = x - U @ v - s
    scale = 1e-12 * (1.0 + np.abs(U).T @ np.abs(x))
    assert np.all(np.abs(U.T @ resid - lambda1 * v) <= scale)
    on = s != 0
    np.testing.assert_allclose(resid[on], lambda2 * np.sign(s[on]),
                               rtol=0, atol=1e-9)
    assert np.all(np.abs(resid[~on]) <= lambda2 + 1e-9)


def support_edge(case):
    """(U, x, lambda1, lambda2, support) of a projection whose support
    solve gathers the first or the last row, every row, or, where the
    downdate of U'U + lambda1*I by the support rows rounds to a singular
    matrix, the rows off the support."""
    rng = np.random.Generator(np.random.PCG64(60))
    m, r = 30, 4
    U = rng.standard_normal((m, r)) / np.sqrt(m)
    x = U @ rng.standard_normal((r,)) * 3 + 0.01 * rng.standard_normal(m)
    if case in ("first", "last"):
        row = 0 if case == "first" else m - 1
        x[[row, m // 2]] += [40.0, -25.0]
        return U, x, 0.1, 0.5, sorted([row, m // 2])
    if case == "every":  # no fit of 4 columns leaves a residual below 0.01
        return U, 10 * rng.standard_normal(m), 0.1, 0.01, list(range(m))
    # rows 0 and 9 put 2**54 each into the second diagonal entry of the
    # Gram matrix, which loses lambda1 = 1 to rounding, so its downdate by
    # them is singular. The rows off the support fit v = (1, 0) to 0.25,
    # and the support rows' pull on v cancels in column 2, so the answer,
    # v = (1, 0) and s = 49, -49 on the support, is exact in floats; the
    # solve on any other rows than those off the support misses it.
    U = np.zeros((10, 2))
    U[1:-1, 0] = [1, 2, 0.5, 1.5, 1, 1, 0.5, 0.5]
    U[[0, -1]] = [[1.0, 2.0**27], [2.0, 2.0**27]]
    x = U[:, 0] + 0.25
    x[[0, -1]] = [51.0, -48.0]
    return U, x, 1.0, 1.0, [0, 9]


@compiled
@pytest.mark.parametrize("case", ["first", "last", "every", "downdate"])
def test_support_solve_gathers_the_edge_rows(case):
    U, x, lambda1, lambda2, support = support_edge(case)
    if case == "downdate":
        G = U.T @ U + lambda1 * np.eye(U.shape[1])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(G - U[support].T @ U[support])
    v, s, _ = kernel.project(U, x, lambda1, lambda2, 1e-7, 1000)
    v_ref, s_ref = _project_numpy(U, x, lambda1, lambda2, ProjectionConfig())
    assert np.flatnonzero(s_ref).tolist() == support
    assert_close(v, v_ref)
    assert_close(s, s_ref)
    assert_kkt(U, x, v, s, lambda1, lambda2)


@compiled
def test_trackers_on_threads_match_their_sequential_runs():
    # six independent trackers of different shapes on threads, more than
    # there are cores, switching often: the kernel calls release the
    # interpreter lock, and each call has its own scratch of its own size
    config = TrackerConfig(n_burnin=40, n_win=40)
    shapes = [(30, 3), (80, 20), (45, 9), (60, 5), (100, 12), (35, 16)]
    streams = [full_stream_matrix(generate(SimSpec(
        m=m, t=300, n_burnin=40, rho=0.02, seed=seed, variant=Stable(r=r))))
        for seed, (m, r) in enumerate(shapes)]

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


def alm_state(rng, m, n, mu, lam):
    """(M, L, Y, S) of a pcp_alm sweep whose shrink input M - L + Y/mu
    takes each value that rounds at an edge: exactly +-tau, +-0.0 (one from
    a zero difference, one a true negative zero) and +-1e150, beside
    entries over twelve decades; S_old has zeros, as a shrunk S does."""
    tau = lam / mu

    def draw(*shape):
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)

    M, L, S = draw(m, n), draw(m, n), draw(m, n) * (rng.random((m, n)) < 0.3)
    Y = draw(m, n)
    edges = [tau, -tau, 0.0, -0.0, 1e150, -1e150, np.nextafter(tau, 0.0),
             np.nextafter(-tau, 0.0)]
    for k, value in enumerate(edges):  # M - L = value, Y = +-0.0 there
        i, j = divmod(7 * k + 3, n)
        M[i, j], L[i, j], Y[i, j] = value, 0.0, 0.0 * value
    M[0, 0] = L[0, 0] = 2.5  # M - L = +0.0, then +0.0 + Y/mu
    Y[0, 0] = -0.0
    return M, L, Y, S


@compiled
@pytest.mark.parametrize("m,n", [(1, 60), (13, 9), (40, 200)])
def test_alm_passes_match_numpy_bit_for_bit(m, n):
    # the SVT input, S and Y match numpy's arithmetic bit for bit, the
    # shrink's edges included; the sums in the pass match numpy's norms
    rng = np.random.Generator(np.random.PCG64(m * n + 1))
    mu, lam = 0.37, 1.0 / np.sqrt(max(m, n))
    M, L, Y, S = alm_state(rng, m, n, mu, lam)
    out = [np.empty((m, n)) for _ in range(2)]
    kernel.alm_input(M, S, Y, mu, out[0])
    _alm_input_numpy(M, S, Y, mu, out[1])
    assert out[0].tobytes() == out[1].tobytes()
    states = [(Y.copy(), S.copy()) for _ in range(2)]
    sums = [update(M, L, *state, mu, lam) for update, state in zip(
        (kernel.alm_update, _alm_update_numpy), states)]
    for X, Z in zip(*states):
        assert X.tobytes() == Z.tobytes()
    np.testing.assert_allclose(sums[0], sums[1], rtol=1e-12, atol=0.0)
    # tau = 0 (lam / mu underflows): S is the shrink input, as
    # prox.shrink_matrix copies it, signed zeros included
    zero_tau = [(Y.copy(), S.copy()) for _ in range(2)]
    for update, state in zip((kernel.alm_update, _alm_update_numpy),
                             zero_tau):
        update(M, L, *state, 1e300, 1e-300)
    for X, Z in zip(*zero_tau):
        assert X.tobytes() == Z.tobytes()


@compiled
def test_entry_points_refuse_bad_arrays():
    # the module checks each array's dtype, order and shape in C, the
    # window's oldest row as two 1-d views like x and v: a bad one raises
    # ValueError before anything is written
    rng = np.random.Generator(np.random.PCG64(46))
    m, r, n = 12, 3, 4
    U = np.asfortranarray(rng.standard_normal((m, r)))
    B = np.asfortranarray(rng.standard_normal((m, r)))
    window = [rng.standard_normal((n, k)) for k in (m, r)]
    good = dict(U=U, A=np.eye(r), B=B, x=rng.standard_normal(m),
                v=rng.standard_normal(r), s=rng.standard_normal(m),
                e_old=window[0][1], v_old=window[1][1])
    X = rng.standard_normal((m + 4, m))
    good.update(X=X, block=rng.standard_normal((m, 3)),
                U_svt=np.zeros((m + 4, 3)), s_svt=np.zeros(3),
                Vh=np.zeros((3, m)))
    good.update({key: rng.standard_normal((m, n))
                 for key in ("M", "L", "Y", "S_alm", "work")})
    ext = kernel._ext
    calls = {
        "project": lambda a: ext.project(a["U"], a["x"], a["v"], a["s"], 0.1,
                                         1.0, 1e-7, 100),
        "accumulate": lambda a: ext.accumulate(
            a["A"], a["B"], a["x"], a["v"], a["s"], a["e_old"], a["v_old"]),
        "sweep": lambda a: ext.sweep(a["U"], a["A"], a["B"], 0.1, 1e-8),
        "svt": lambda a: ext.svt(a["X"], a["block"], a["U_svt"], a["s_svt"],
                                 a["Vh"], 0.5, 4, 0.25, 1e-6, 5e-3),
        "alm_input": lambda a: ext.alm_input(a["M"], a["S_alm"], a["Y"], 0.5,
                                             a["work"]),
        "alm_update": lambda a: ext.alm_update(a["M"], a["L"], a["Y"],
                                               a["S_alm"], 0.5, 0.1),
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
    # the oldest row too short, 2-D (a view into the window) or float32
    cases += [("accumulate", key, bad) for key in ("e_old", "v_old")
              for bad in (good[key][:-1], good[key][None],
                          good[key].astype(np.float32))]
    # X row-major; the block C- or F-contiguous, of 1 to min(m, n) columns;
    # the outputs row-major and writable
    read_only = good["Vh"].copy()
    read_only.flags.writeable = False
    cases += [("svt", "X", bad) for bad in (
        X.astype(np.float32), np.asfortranarray(X), X[:, :-1], X[0])]
    cases += [("svt", "block", bad) for bad in (
        good["block"][:-1], good["block"][:, :0], X.T,
        np.ones((m, 6))[:, ::2], good["block"].astype(np.float32))]
    cases += [("svt", key, bad) for key in ("U_svt", "s_svt", "Vh")
              for bad in (good[key][:-1], good[key].astype(np.float32))]
    cases += [("svt", "U_svt", np.asfortranarray(good["U_svt"])),
              ("svt", "Vh", read_only)]
    # the m x n arrays row-major (not a slice of a wider array's columns),
    # of M's shape, float64, Y, S and the SVT input writable
    alm = {"alm_input": ("M", "S_alm", "Y", "work"),
           "alm_update": ("M", "L", "Y", "S_alm")}
    wide = np.hstack([good["M"], np.ones((m, 3))])
    for name, keys in alm.items():
        cases += [(name, key, bad) for key in keys for bad in (
            good[key][:-1], good[key][:, :-1], good[key][0],
            good[key].astype(np.float32), np.asfortranarray(good[key]))]
        cases += [(name, "M", np.ones((m, 2 * n))[:, ::2]),
                  (name, "M", np.ones((m + 1, n))[:0:-1]),
                  (name, "M", wide[:, :n])]
    read_only_alm = good["Y"].copy()
    read_only_alm.flags.writeable = False
    cases += [("alm_input", "work", read_only_alm),
              ("alm_update", "Y", read_only_alm),
              ("alm_update", "S_alm", read_only_alm)]
    for key in ("U_svt", "s_svt", "Vh"):
        good[key][...] = 7.0
    state = [U, good["A"], B, *window, good["U_svt"], good["s_svt"],
             good["Vh"], good["Y"], good["S_alm"], good["work"]]
    before = [X.copy() for X in state]
    for name, key, value in cases:
        with pytest.raises(ValueError, match="kernel: "):
            calls[name]({**good, key: value})
        for X, X0 in zip(state, before):
            np.testing.assert_array_equal(X, X0, err_msg=f"{name} {key}")
    # the oldest row is (e_old, v_old): 6 arguments, or the 8 of a row
    # (m_old, v_old, s_old), are refused
    args = [good[key] for key in ("A", "B", "x", "v", "s", "e_old", "v_old")]
    for bad in (args[:6], args + [good["s"]]):
        with pytest.raises(TypeError, match="5 or 7 arguments"):
            ext.accumulate(*bad)
        for X, X0 in zip(state, before):
            np.testing.assert_array_equal(X, X0, err_msg=f"{len(bad)} args")
    for name in calls:  # the good arrays pass
        calls[name](good)
    np.testing.assert_array_equal(window[0][1], good["x"] - good["s"])
    np.testing.assert_array_equal(window[1][1], good["v"])


def test_kernel_compiles_without_warnings(tmp_path):
    # the cached build hides compiler warnings: -Wall -Werror shows them
    # (-Wextra would flag the unused self parameters and PyModuleDef's
    # m_slots, both idiomatic). It needs a compiler, not a loaded kernel
    command = kernel._compile_command() + ["-Wall", "-Werror"]
    if shutil.which(command[0]) is None:
        pytest.skip(f"no compiler {command[0]!r} found")
    result = subprocess.run([*command, "-o", str(tmp_path / "kernel.so"),
                             str(kernel.SOURCE), "-lm"],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


SANITIZED_STUDIES = (
    "import sys; from streamrpca import experiments, kernel; "
    "assert kernel.ACTIVE == 'compiled', 'the sanitized build failed'; "
    "calls = []; svt_warm = kernel.svt_warm; "
    "kernel.svt_warm = lambda *a: calls.append(1) or svt_warm(*a); "
    "[experiments.run_experiment(study, 'desk', 0, f'{sys.argv[1]}/{study}') "
    "for study in (1, 3)]; "
    "assert calls, 'the burn-ins took no compiled svt'")


@compiled
def test_kernel_runs_clean_under_address_and_undefined_sanitizers(tmp_path):
    # desk studies 1 and 3 in all three modes on a kernel built with ASan
    # and UBSan: a read or write past a routine's scratch, or undefined
    # behaviour, aborts the run. The build must be the one that runs: a
    # failed one would fall back to numpy and check nothing.
    command = kernel._compile_command()
    cc = list(itertools.takewhile(lambda arg: not arg.startswith("-O"),
                                  command))
    libasan = subprocess.run([*cc, "-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(libasan) or not os.path.isfile(libasan):
        pytest.skip("the compiler has no libasan.so")
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path),
               CC=shlex.join([*cc, "-fsanitize=address,undefined",
                              "-fno-sanitize-recover=undefined"]),
               LD_PRELOAD=libasan, ASAN_OPTIONS="detect_leaks=0")
    result = subprocess.run([sys.executable, "-c", SANITIZED_STUDIES,
                             str(tmp_path / "out")], env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-4000:]


SCIPY_BLOCKED_RUNS = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
from streamrpca import kernel
from streamrpca.changepoint import OmwCpPipeline
from streamrpca.experiments import study_spec
from streamrpca.simgen import full_stream_matrix, generate
from streamrpca.streams import ObservationStream

calls = []
svt_warm = kernel.svt_warm
kernel.svt_warm = lambda *args: calls.append(1) or svt_warm(*args)
sim, config = study_spec(3, "desk", 0)
M = full_stream_matrix(generate(sim))
for mode in ("stoc", "omw", "omw-cp"):
    pipeline = OmwCpPipeline(config, mode)
    pipeline.run(ObservationStream.from_matrix(M))
print(kernel.ACTIVE, len(pipeline.change_points), bool(calls))
"""


@pytest.mark.parametrize("path", [pytest.param("compiled", marks=compiled),
                                  "numpy"])
def test_every_mode_runs_with_scipy_blocked(tmp_path, path):
    # numpy is the only run-time dependency: with every scipy import
    # refused, each mode runs on either path, through the burn-ins and the
    # restarts (desk study 3 has two) that take the compiled svt where the
    # kernel is built; the numpy path is the one without a compiler
    env = {} if path == "compiled" else {"CC": "/bin/false"}
    out = run_python(SCIPY_BLOCKED_RUNS, tmp_path / "cache", **env)
    assert out == f"{path} 2 {path == 'compiled'}"


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


def track_args(tmp_path):
    """`track` arguments of an omw run on a small stable stream, up to the
    output folder."""
    sim = SimSpec(m=30, t=200, n_burnin=40, rho=0.02, seed=7,
                  variant=Stable(r=3))
    src = tmp_path / "in.f64"
    write_raw_f64(src, full_stream_matrix(generate(sim)))
    return ["track", "--input", str(src), "--format", "raw-f64", "--mode",
            "omw", "--n-burnin", "40", "--n-win", "40", "--out-dir"]


def assert_outputs_are_the_numpy_paths(tmp_path, monkeypatch, args):
    """tmp_path/fallback holds the L and S of the numpy path, bit for bit."""
    monkeypatch.setattr(kernel, "ACTIVE", "numpy")
    assert main([*args, str(tmp_path / "numpy")]) == 0
    for name in ("L.f64", "S.f64"):
        assert ((tmp_path / "fallback" / name).read_bytes()
                == (tmp_path / "numpy" / name).read_bytes())


def test_without_a_compiler_the_numpy_path_runs(tmp_path, monkeypatch):
    # with no compiler and an empty cache, import works and the outputs are
    # the numpy path's, bit for bit
    args = track_args(tmp_path)
    cache = tmp_path / "cache"
    assert run_python(ACTIVE, cache, CC="/bin/false") == "numpy"
    run_python(TRACK, cache, *args, str(tmp_path / "fallback"),
               CC="/bin/false")
    assert_outputs_are_the_numpy_paths(tmp_path, monkeypatch, args)


LOOKUP_FAILS = """
import ctypes, sys
import numpy

def library(name, *args, **kwargs):
    if sys.argv[1] == "open":
        raise OSError(name)
    return object()  # a library without scipy-openblas64's names

ctypes.CDLL = library
from streamrpca import kernel
from streamrpca.cli import main
print(kernel.ACTIVE)
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("fails", ["open", "symbol"])
def test_without_numpys_openblas_the_numpy_path_runs(tmp_path, monkeypatch,
                                                     fails):
    # a numpy on another BLAS: its LAPACK module's libraries do not open, or
    # export no scipy_<name>_64_. The loader falls back, and the outputs are
    # the numpy path's, bit for bit
    args = track_args(tmp_path)
    out = run_python(LOOKUP_FAILS, tmp_path / "cache", fails, *args,
                     str(tmp_path / "fallback"))
    assert out.splitlines()[0] == "numpy"
    assert_outputs_are_the_numpy_paths(tmp_path, monkeypatch, args)


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


def test_compile_command_keeps_every_rounding(monkeypatch):
    # the vectorized loops match the scalar code bit for bit only while no
    # a*b + c is contracted and no sum is reordered
    monkeypatch.delenv("CC", raising=False)
    command = kernel._compile_command()
    assert "-ffp-contract=off" in command
    assert not {"-Ofast", "-ffast-math", "-fassociative-math",
                "-funsafe-math-optimizations"} & set(command)


def test_library_name_is_keyed_on_the_compile_command(monkeypatch):
    monkeypatch.setenv("CC", "cc")
    command = kernel._compile_command()
    assert command[0] == "cc"
    name = kernel._library_name(command)
    assert kernel._library_name(list(command)) == name
    monkeypatch.setenv("CC", "clang -m64")
    assert kernel._compile_command()[:2] == ["clang", "-m64"]
    for other in (kernel._compile_command(), [*command, "-march=native"],
                  command[:-1], ["cc -O3", *command[2:]]):
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
    assert source.count(', "dsyevd")') == 1
    loader.write_text(source.replace(', "dsyevd")', ")"), encoding="ascii")
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
