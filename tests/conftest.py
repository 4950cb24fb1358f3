import os
from pathlib import Path

import numpy as np
import pytest

import streamrpca
from streamrpca import kernel


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
