"""Evaluation metrics for decompositions and detected change points."""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ContractViolation


@dataclass
class EvalReport:
    err_L: float
    err_S: float
    f_S: float
    cp_deviations: list = field(default_factory=list)
    cp_misses: list = field(default_factory=list)
    cp_false_alarms: list = field(default_factory=list)
    runtime_seconds: float = 0.0


@dataclass
class CpMatch:
    """Greedy nearest matching of detected to true change points.

    deviations[i] = detected - true for the i-th matched true change point;
    misses lists unmatched true points, false_alarms unmatched detections.
    """

    deviations: list
    misses: list
    false_alarms: list


def err_rel(est, truth):
    """Relative Frobenius error ||est - truth||_F / ||truth||_F."""
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise ContractViolation(
            f"err_rel: shape mismatch {est.shape} vs {truth.shape}")
    denom = np.linalg.norm(truth)
    if denom == 0.0:
        raise ContractViolation("err_rel: zero-norm truth")
    return float(np.linalg.norm(est - truth) / denom)


def support_mismatch(est_S, true_S):
    """Fraction of entries whose nonzero indicator (|.| > 0) differs. Lower
    is better."""
    est_S = np.asarray(est_S)
    true_S = np.asarray(true_S)
    if est_S.shape != true_S.shape:
        raise ContractViolation(
            f"support_mismatch: shape mismatch {est_S.shape} vs {true_S.shape}")
    est_nz = np.abs(est_S) > 0.0
    true_nz = true_S != 0
    return float(np.count_nonzero(est_nz != true_nz) / true_S.size)


def cp_deviation(detected, truth, window=None):
    """Match each true change point to the nearest unmatched detection.

    True points are processed in order; each takes the closest remaining
    detection (within +-window when given, e.g. the tracker's n_win).
    Returns a CpMatch with signed deviations (detected - true), missed true
    points, and unmatched detections.
    """
    remaining = list(detected)
    deviations = []
    misses = []
    for t_true in truth:
        if not remaining:
            misses.append(t_true)
            continue
        nearest = min(remaining, key=lambda d: (abs(d - t_true), d))
        if window is not None and abs(nearest - t_true) > window:
            misses.append(t_true)
            continue
        deviations.append(nearest - t_true)
        remaining.remove(nearest)
    return CpMatch(deviations=deviations, misses=misses,
                   false_alarms=remaining)
