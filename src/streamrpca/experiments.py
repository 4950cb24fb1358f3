"""Study harness: generate data, run the three trackers, score and emit.

Three studies are built in, each at two scales:

  study 1  stable subspace
  study 2  slowly drifting subspace
  study 3  drifting subspace with two abrupt change points

Desk scale (default) keeps runs interactive: m = 100 streams of at most
1500 samples. Paper scale is the full-size setup (m = 400, T = 5000 or
3000) and is opt-in.

All artifacts written by run_experiment are deterministic functions of
(study, scale, seed): matrices go out as raw-f64 bytes and records as
sorted-key JSON. Wall-clock timings are therefore *not* written into the
output directory; they are returned in-memory and logged to stderr.
"""

import json
import sys
import time
from pathlib import Path

from .changepoint import MODES, CpConfig, OmwCpPipeline
from .exceptions import ContractViolation
from .metrics import EvalReport, cp_deviation, err_rel, support_mismatch
from .simgen import (ChangePoints, Drift, SimSpec, Stable, full_stream_matrix,
                     generate)
from .streams import ObservationStream, write_raw_f64

# Desk-scale study 3 uses a reduced sparse penalty: the rule-of-thumb
# 100/sqrt(max(m, n_win)) = 10 sits at 2-4.5 standard deviations of the
# low-rank entries for ranks (5, 25, 12) at m = 100, which would leave a
# subspace switch almost invisible to the support-size monitor. 3.0 restores
# the penalty-to-signal ratio of the full-scale setup.
_DESK_STUDY3_LAMBDA2 = 3.0


def study_spec(study, scale, seed):
    """Pinned (SimSpec, CpConfig) pair for a study/scale/seed triple."""
    if scale == "desk":
        if study == 1:
            sim = SimSpec(m=100, t=1000, n_burnin=100, rho=0.01, seed=seed,
                          variant=Stable(r=5))
            lambda2 = None
        elif study == 2:
            sim = SimSpec(m=100, t=1000, n_burnin=100, rho=0.01, seed=seed,
                          variant=Drift(r=10, r0=3, t_p=125))
            lambda2 = None
        elif study == 3:
            sim = SimSpec(m=100, t=1500, n_burnin=100, rho=0.01, seed=seed,
                          variant=ChangePoints(ranks=(5, 25, 12),
                                               cps=(500, 1000), r0=3,
                                               t_p=125))
            lambda2 = _DESK_STUDY3_LAMBDA2
        else:
            raise ContractViolation(f"unknown study {study}")
        cp = CpConfig(n_burnin=100, n_win=100, n_cp_burnin=100, n_test=100,
                      n_check=20, alpha=0.01, alpha_prop=0.5, n_positive=3,
                      n_tol=0, lambda2=lambda2)
        return sim, cp
    if scale == "paper":
        if study == 1:
            sim = SimSpec(m=400, t=5000, n_burnin=200, rho=0.01, seed=seed,
                          variant=Stable(r=10))
        elif study == 2:
            sim = SimSpec(m=400, t=5000, n_burnin=200, rho=0.01, seed=seed,
                          variant=Drift(r=10, r0=5, t_p=250))
        elif study == 3:
            sim = SimSpec(m=400, t=3000, n_burnin=200, rho=0.01, seed=seed,
                          variant=ChangePoints(ranks=(10, 50, 25),
                                               cps=(1000, 2000), r0=5,
                                               t_p=250))
        else:
            raise ContractViolation(f"unknown study {study}")
        cp = CpConfig(n_burnin=200, n_win=200, n_cp_burnin=200, n_test=100,
                      n_check=20, alpha=0.01, alpha_prop=0.5, n_positive=3,
                      n_tol=0)
        return sim, cp
    raise ContractViolation(f"unknown scale {scale!r}")


def run_method(method, gt, cp_config):
    """Run one tracker over the generated data; returns
    (DecompositionResult, ChangePointReport-or-None, runtime_seconds)."""
    stream = ObservationStream.from_matrix(full_stream_matrix(gt))
    start = time.perf_counter()
    result, report = OmwCpPipeline(cp_config, method).run(stream)
    return result, report, time.perf_counter() - start


def evaluate(result, gt, n_win, runtime_seconds=0.0):
    match = cp_deviation(result.change_points, gt.cps, window=n_win)
    return EvalReport(
        err_L=err_rel(result.L, gt.L),
        err_S=err_rel(result.S, gt.S),
        f_S=support_mismatch(result.S, gt.S),
        cp_deviations=match.deviations,
        cp_misses=match.misses,
        cp_false_alarms=match.false_alarms,
        runtime_seconds=runtime_seconds,
    )


def _json_line(obj):
    return json.dumps(obj, sort_keys=True) + "\n"


def _write_report(path, report, change_points):
    payload = {
        "err_L": report.err_L,
        "err_S": report.err_S,
        "f_S": report.f_S,
        "cp_deviations": report.cp_deviations,
        "cp_misses": report.cp_misses,
        "cp_false_alarms": report.cp_false_alarms,
        "change_points": change_points,
    }
    Path(path).write_text(_json_line(payload), encoding="ascii")


def write_ground_truth(out, gt, spec, **fields):
    """Write gt's matrices as raw-f64 files under the directory out, and
    truth.json: the true change points, spec's sizes and seed, and fields."""
    for name, X in (("M", gt.M), ("L_true", gt.L), ("S_true", gt.S),
                    ("Mb", gt.M_b)):
        write_raw_f64(out / f"{name}.f64", X)
    (out / "truth.json").write_text(
        _json_line({"cps": gt.cps, "m": spec.m, "T": spec.t,
                    "n_burnin": spec.n_burnin, "rho": spec.rho,
                    "seed": spec.seed, **fields}), encoding="ascii")


def _write_diagnostics(path, diagnostics):
    with open(path, "w", encoding="ascii") as fh:
        for d in diagnostics:
            fh.write(_json_line({"t": d.t, "c": d.support_size, "p": d.p,
                                 "f": d.flag, "phase": d.phase}))


def run_experiment(study, scale, seed, out_dir, methods=MODES):
    """Run every method on one generated stream and write all artifacts.

    Returns {method: EvalReport}. Identical (study, scale, seed) inputs
    produce byte-identical files under out_dir.
    """
    sim, cp_config = study_spec(study, scale, seed)
    if scale == "paper":
        print("warning: paper scale generates full-size streams; this can "
              "take many minutes", file=sys.stderr)
    gt = generate(sim)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_ground_truth(out, gt, sim, study=study, scale=scale)

    reports = {}
    for method in methods:
        result, cp_report, runtime = run_method(method, gt, cp_config)
        report = evaluate(result, gt, cp_config.n_win, runtime)
        reports[method] = report
        mdir = out / method.replace("-", "_")
        mdir.mkdir(exist_ok=True)
        write_raw_f64(mdir / "L.f64", result.L)
        write_raw_f64(mdir / "S.f64", result.S)
        _write_report(mdir / "report.json", report, result.change_points)
        if cp_report is not None:
            _write_diagnostics(mdir / "diagnostics.jsonl",
                               cp_report.diagnostics)
            (mdir / "changepoints.json").write_text(
                _json_line({"change_points": cp_report.change_points,
                            "status": cp_report.status,
                            "warnings": cp_report.warnings}),
                encoding="ascii")
        print(f"study {study} ({scale}, seed {seed}) {method}: "
              f"err_L={report.err_L:.4g} err_S={report.err_S:.4g} "
              f"f_S={report.f_S:.4g} cps={result.change_points} "
              f"({runtime:.1f}s)", file=sys.stderr)
    return reports
