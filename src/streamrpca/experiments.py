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
from dataclasses import asdict
from pathlib import Path

from .changepoint import MODES, OmwCpPipeline
from .exceptions import ContractViolation
from .metrics import EvalReport, cp_deviation, err_rel, support_mismatch
from .simgen import ChangePoints, Drift, SimSpec, Stable, generate
from .streams import ObservationStream, write_raw_f64
from .trackers import TrackerConfig

# Desk-scale study 3 uses a reduced sparse penalty: the rule-of-thumb
# 100/sqrt(max(m, n_win)) = 10 sits at 2-4.5 standard deviations of the
# low-rank entries for ranks (5, 25, 12) at m = 100, which would leave a
# subspace switch almost invisible to the support-size monitor. 3.0 restores
# the penalty-to-signal ratio of the full-scale setup.
_DESK_STUDY3_LAMBDA2 = 3.0

# scale -> (m, n_burnin = n_win, n_cp_burnin, {study -> (T, variant)})
_STUDIES = {
    "desk": (100, 100, 100, {
        1: (1000, Stable(r=5)),
        2: (1000, Drift(r=10, r0=3, t_p=125)),
        3: (1500, ChangePoints(ranks=(5, 25, 12), cps=(500, 1000), r0=3,
                               t_p=125)),
    }),
    "paper": (400, 200, 200, {
        1: (5000, Stable(r=10)),
        2: (5000, Drift(r=10, r0=5, t_p=250)),
        3: (3000, ChangePoints(ranks=(10, 50, 25), cps=(1000, 2000), r0=5,
                               t_p=250)),
    }),
}


def study_spec(study, scale, seed):
    """Pinned (SimSpec, TrackerConfig) pair for a study/scale/seed triple."""
    if scale not in _STUDIES:
        raise ContractViolation(f"unknown scale {scale!r}")
    m, n_burnin, n_cp_burnin, studies = _STUDIES[scale]
    if study not in studies:
        raise ContractViolation(f"unknown study {study}")
    t, variant = studies[study]
    lambda2 = _DESK_STUDY3_LAMBDA2 if (study, scale) == (3, "desk") else None
    return (SimSpec(m=m, t=t, n_burnin=n_burnin, rho=0.01, seed=seed,
                    variant=variant),
            TrackerConfig(n_burnin=n_burnin, n_win=n_burnin,
                          n_cp_burnin=n_cp_burnin, lambda2=lambda2))


def run_method(method, gt, config):
    """Run one tracker over gt's burn-in block and then its stream, column
    by column; returns (DecompositionResult, ChangePointReport, seconds)."""
    samples = (x.copy() for X in (gt.M_b, gt.M) for x in X.T)
    stream = ObservationStream(samples, retain=config.replay_horizon)
    start = time.perf_counter()
    result, report = OmwCpPipeline(config, method).run(stream)
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
    payload = {**asdict(report), "change_points": change_points}
    del payload["runtime_seconds"]  # wall clock, kept out of the artifacts
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


def write_run(out, result, report):
    """Write a run's output under the directory out: L.f64 and S.f64,
    changepoints.json with the change points and the report's warnings, and
    the report's diagnostics to diagnostics.jsonl."""
    write_raw_f64(out / "L.f64", result.L)
    write_raw_f64(out / "S.f64", result.S)
    (out / "changepoints.json").write_text(
        _json_line({"change_points": result.change_points,
                    "warnings": report.warnings}), encoding="ascii")
    with open(out / "diagnostics.jsonl", "w", encoding="ascii") as fh:
        for d in report.diagnostics:
            fh.write(_json_line({"t": d.t, "c": d.support_size, "p": d.p,
                                 "f": d.flag, "phase": d.phase}))


def run_experiment(study, scale, seed, out_dir, methods=MODES):
    """Run every method on one generated stream and write all artifacts.

    Returns {method: EvalReport}. Identical (study, scale, seed) inputs
    produce byte-identical files under out_dir.
    """
    if not set(methods) <= set(MODES):
        raise ContractViolation(f"run_experiment: methods {list(methods)} "
                                f"are not all among {', '.join(MODES)}")
    sim, config = study_spec(study, scale, seed)
    if scale == "paper":
        print("warning: paper scale generates full-size streams; this can "
              "take many minutes", file=sys.stderr)
    gt = generate(sim)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_ground_truth(out, gt, sim, study=study, scale=scale)

    reports = {}
    for method in methods:
        result, cp_report, runtime = run_method(method, gt, config)
        report = evaluate(result, gt, config.n_win, runtime)
        reports[method] = report
        mdir = out / method.replace("-", "_")
        mdir.mkdir(exist_ok=True)
        write_run(mdir, result, cp_report)
        _write_report(mdir / "report.json", report, result.change_points)
        print(f"study {study} ({scale}, seed {seed}) {method}: "
              f"err_L={report.err_L:.4g} err_S={report.err_S:.4g} "
              f"f_S={report.f_S:.4g} cps={result.change_points} "
              f"({runtime:.1f}s)", file=sys.stderr)
    return reports
