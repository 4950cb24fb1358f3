"""Shared exception types for the streamrpca package, and the number checks
of its contracts."""

import math
from numbers import Integral, Real


def is_count(x):
    """Whether x is an integer (Python's or numpy's) and not a bool."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def is_real(x):
    """Whether x is a real number (Python's or numpy's) and not a bool: not
    a string, an array or None."""
    return isinstance(x, Real) and not isinstance(x, bool)


def is_positive_real(x):
    """Whether x is a finite real number > 0 and not a bool (is_real)."""
    return is_real(x) and 0 < x < math.inf


class ContractViolation(ValueError):
    """An argument or state violates a documented precondition."""


class InitializationError(RuntimeError):
    """Burn-in produced an unusable model (e.g. a zero-rank low-rank part)."""


class TrackerStepError(RuntimeError):
    """A tracker step failed. t is the sample's absolute 1-based tracked
    time (t = 1 right after the initial burn-in block, not re-based after a
    resume or a restart), the index CpDiagnostic.t uses."""

    def __init__(self, t, message):
        super().__init__(f"step t={t}: {message}")
        self.t = t


class ParseError(ValueError):
    """Malformed input file. Carries location context when available."""

    def __init__(self, message, path=None, line=None, offset=None):
        parts = [message]
        if path is not None:
            parts.append(f"path={path}")
        if line is not None:
            parts.append(f"line={line}")
        if offset is not None:
            parts.append(f"byte-offset={offset}")
        super().__init__("; ".join(str(p) for p in parts))
        self.path = path
        self.line = line
        self.offset = offset


class SnapshotError(RuntimeError):
    """A state snapshot could not be read or is incompatible."""
