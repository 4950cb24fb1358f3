import pytest

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
