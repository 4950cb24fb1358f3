import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import streamrpca
from streamrpca import kernel
from streamrpca.exceptions import ContractViolation
from streamrpca.experiments import study_spec
from streamrpca.prox import _cholesky_solver, svt_factors
from streamrpca.simgen import full_stream_matrix, generate
from streamrpca.trackers import SubspaceModel, WindowBuffer


class StepPath:
    """A context that makes one step path active: "compiled" (the kernel)
    or "numpy"."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        self.saved, kernel.ACTIVE = kernel.ACTIVE, self.name

    def __exit__(self, *exc):
        kernel.ACTIVE = self.saved


@pytest.fixture(scope="session")
def step_paths():
    """Every step path a test should run on: the compiled kernel, where one
    could be built, and the numpy code."""
    names = ["compiled", "numpy"] if kernel.ACTIVE == "compiled" else ["numpy"]
    return [StepPath(name) for name in names]


def write_csv(path, M):
    """Write an m x T matrix as csv, one sample per line."""
    M = np.asarray(M, dtype=float)
    with open(path, "w", encoding="ascii") as fh:
        for i in range(M.shape[1]):
            fh.write(",".join(repr(float(x)) for x in M[:, i]) + "\n")


def child_env():
    """os.environ for a child Python that imports the package this suite
    tests, installed or not: its folder leads PYTHONPATH."""
    path = os.pathsep.join(filter(None, [
        str(Path(streamrpca.__file__).parents[1]),
        os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


needs_proc_status = pytest.mark.skipif(
    not Path("/proc/self/status").is_file(),
    reason="reads the peak RSS from /proc/self/status")


def child_memory(setup):
    """Measure run(), which the Python source setup defines and which
    returns a DecompositionResult, in a fresh process: its first call by
    the growth of the peak RSS (VmHWM: ru_maxrss starts from the parent's
    peak after a fork), which covers mapped pages that tracemalloc does not
    see, and its second by tracemalloc's heap peak. Returns (RSS growth,
    heap peak, bytes of the first result's L and S)."""
    code = textwrap.dedent(setup) + textwrap.dedent("""
        import tracemalloc

        def peak_rss():
            with open("/proc/self/status", encoding="ascii") as fh:
                return 1024 * next(int(line.split()[1]) for line in fh
                                   if line.startswith("VmHWM:"))

        before = peak_rss()
        result = run()
        outputs = result.L.nbytes + result.S.nbytes
        rss = peak_rss() - before
        del result
        tracemalloc.start()
        run()
        print(rss, tracemalloc.get_traced_memory()[1], outputs)
    """)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=600,
                         env=child_env())
    return tuple(map(int, out.stdout.split()))


def study3_blocks(scale, seed):
    """Burn-in block and the blocks starting 3 samples after each change
    point of study 3, with the study's burn-in length."""
    sim, cp = study_spec(3, scale, seed)
    gt = generate(sim)
    X = full_stream_matrix(gt)
    starts = [0] + [sim.n_burnin + c + 3 for c in gt.cps]
    return [X[:, i:i + cp.n_burnin] for i in starts]


def svt(X, tau):
    """Singular value thresholding: soft-threshold the spectrum, reconstruct.

    The result does not depend on the non-uniqueness of the SVD because only
    the reconstructed product is returned.
    """
    U, s, Vh, _ = svt_factors(X, tau)
    return (U * s) @ Vh


def ridge_regress(U, y, lambda1):
    """Solve min_v 0.5*||y - U v||^2 + (lambda1/2)*||v||^2: returns
    (U'U + lambda1*I)^{-1} U'y, through the projection's Cholesky solve."""
    U = np.asarray(U, dtype=float)
    y = np.asarray(y, dtype=float)
    if U.ndim != 2 or y.ndim != 1 or U.shape[0] != y.shape[0]:
        raise ContractViolation(
            f"ridge_regress: incompatible shapes U{U.shape} vs y{y.shape}"
        )
    if not (np.isfinite(U).all() and np.isfinite(y).all()):
        raise ContractViolation("ridge_regress: non-finite input")
    if not lambda1 > 0:
        raise ContractViolation("ridge_regress: lambda1 must be > 0")
    return _cholesky_solver(U.T @ U + lambda1 * np.eye(U.shape[1]))[1](U.T @ y)


def basis_objective(U, A, B, lambda1):
    """g(U) = 0.5*Tr[U'(A + lambda1*I)U] - Tr(U'B), which update_basis
    lowers."""
    At = A + lambda1 * np.eye(A.shape[0])
    return 0.5 * np.trace(U.T @ U @ At) - np.trace(U.T @ B)


def seeded(init, lambda1, lambda2):
    """(model, window) of a tracker seeded from a BurninInit, as
    trackers.seed_tracker builds them."""
    return (SubspaceModel(U=init.U0, A=init.A0, B=init.B0, lambda1=lambda1,
                          lambda2=lambda2),
            WindowBuffer(*init.window_seed))
