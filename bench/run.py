"""End-to-end and per-layer benchmark of the streamrpca pipeline.

Run from the root of a checkout; the package is imported from ./src:

    python3 bench/run.py --workload drift-omw --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Load model: closed loop, one caller, one process. Each run generates the
workload's streams from --seed in a child process (so generation memory and
time stay out of the measurement), then repeats complete passes over them
for about --seconds. With --trace 0 the passes are untraced and the end-to-end
metrics are reported; with --trace 1 untraced and traced passes alternate,
and the per-layer metrics plus the tracing overhead are reported. Every pass
goes through the correctness gate (reference.json); any failure makes the
result "correct": false and the exit code 1. The last stdout line is the
result as one JSON object.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

# BLAS threads are fixed before numpy loads. One thread: on a 2-core machine
# two OpenBLAS threads made the paper-scale burn-ins slower, not faster.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

E2E_UNITS = {
    "throughput_sps": "samples/s",
    "setup_s": "s",
    "step_p50_ms": "ms",
    "step_p99_ms": "ms",
    "step_cpu_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "err_L": "ratio",
    "err_S": "ratio",
    "restart_s": "s",
    "cp_dev_mean": "samples",
    "cp_missed": "count",
    "cp_false": "count",
    "failed_ratio": "ratio",
}
# The result line: metrics every workload reports, never 0, and steady
# enough from run to run to gate on. throughput_sps, step_p50_ms and
# step_p99_ms are printed but not gated: on the shared 2-core host the
# baseline was taken on, the CPU ran in a fast or a slow state for minutes
# at a time, which moved them by 16-46% (quartile spread over ten runs),
# and the hypervisor's pauses filled the wall-clock tail. See README.md.
E2E_RESULT = ["setup_s", "step_cpu_p99_ms", "peak_rss_mb"]
# step_cpu_p99_ms is taken per window of this many steps (_windowed_p99).
WINDOW_STEPS = 1000

LAYER_UNITS = {
    "pcp.calls": "count",
    "pcp.busy_s": "s",
    "pcp.alm_iters_mean": "count",
    "pcp.converged_ratio": "ratio",
    "pcp.seed_s": "s",
    "prox.svt_calls": "count",
    "prox.svt_s": "s",
    "projection.calls": "count",
    "projection.p50_us": "us",
    "projection.p99_us": "us",
    "projection.busy_s": "s",
    "projection.iters_mean": "count",
    "projection.cap_hits": "count",
    "basis.p50_us": "us",
    "basis.busy_s": "s",
    "trackers.step_self_us": "us",
    "trackers.recompute_calls": "count",
    "trackers.recompute_s": "s",
    "trackers.state_elements": "count",
    "changepoint.detector_us": "us",
    "changepoint.restarts": "count",
    "changepoint.scan_calls": "count",
    "streams.pull_us": "us",
    "streams.replays": "count",
    "streams.write_s": "s",
    "state.save_ms": "ms",
    "state.load_ms": "ms",
    "state.snapshot_bytes": "bytes",
    "trace.untraced_sps": "samples/s",
    "trace.traced_sps": "samples/s",
    "trace.overhead_pct": "%",
}
# Times of a layer that only some workloads use (detector, drift
# correction, snapshots) would read 0 on the others; they are printed and
# kept in the report but left out of the result line.
LAYER_RESULT = [name for name in LAYER_UNITS
                if name not in ("changepoint.detector_us",
                                "trackers.recompute_s", "state.save_ms",
                                "state.load_ms", "pcp.seed_s")]


def _import_package():
    """Import streamrpca from this checkout's src/, never from elsewhere."""
    if not (SRC / "streamrpca" / "__init__.py").is_file():
        sys.exit(f"bench: no streamrpca sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import streamrpca
    if Path(streamrpca.__file__).resolve().parent != SRC / "streamrpca":
        sys.exit(f"bench: imported streamrpca from {streamrpca.__file__}")


def environment():
    """Where and on what the numbers were measured."""
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "streamrpca").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# -- correctness gate ---------------------------------------------------------

def gate(name, seed, err_L, err_S, change_points, true_cps, n_win):
    """Problems with one pass's scores against reference.json (empty = ok).

    Errors may differ from the reference for this seed by at most
    err_tolerance of it, either way: a speed change should leave outputs
    where they were. For a seed not recorded they must lie within
    unseen_tolerance below the best and above the worst recorded seed.
    Change points must match the truth within n_win with nothing missed or
    false, and for a recorded seed lie within cp_slack of the reference.
    """
    from streamrpca import cp_deviation
    reference = json.loads((BENCH / "reference.json").read_text())
    ref = reference["workloads"][name]
    known = ref["seeds"].get(str(seed))
    problems = []
    for metric, value in (("err_L", err_L), ("err_S", err_S)):
        if known:
            tol = reference["err_tolerance"]
            lo = known[metric] * (1 - tol)
            hi = known[metric] * (1 + tol)
        else:
            tol = reference["unseen_tolerance"]
            lo = min(r[metric] for r in ref["seeds"].values()) * (1 - tol)
            hi = max(r[metric] for r in ref["seeds"].values()) * (1 + tol)
        if not lo <= value <= hi:
            problems.append(f"{metric}={value:.6g} outside [{lo:.6g}, "
                            f"{hi:.6g}]")
    match = cp_deviation(change_points, true_cps, window=n_win)
    if match.misses or match.false_alarms:
        problems.append(f"change points {change_points} vs truth {true_cps}")
    if known is not None:
        ref_cps = known["change_points"]
        if (len(ref_cps) != len(change_points)
                or any(abs(a - b) > reference["cp_slack"]
                       for a, b in zip(change_points, ref_cps))):
            problems.append(f"change points {change_points} vs reference "
                            f"{ref_cps}")
    return problems


# -- one pass -----------------------------------------------------------------

def one_pass(workload, data_seed, data_dir, traced):
    """Run and time one pass over the stream in data_dir; returns a dict of
    its measurements. The outputs are scored later, by score(), once every
    pass of the run is done, so that scoring does not set the peak RSS."""
    from tracer import Tracer, layer_metrics
    from workloads import Feed, restart_geometry, run_pass

    sim, config = workload.spec(data_seed)
    n_burnin = config.n_burnin
    tracked = sim.t
    out = {"seed": data_seed, "traced": traced, "tracked": tracked}
    feed = Feed(data_dir / "stream.f64", workload.retain(config),
                count_replays=traced)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        record = run_pass(workload, config, feed, n_burnin + sim.t, data_dir)
    except Exception:  # a failing pass is scored as failed, not fatal
        traceback.print_exc(file=sys.stderr)
        return dict(out, problems=["pass raised"])
    finally:
        if tracer:
            tracer.uninstall()
    if record.L.shape != (sim.m, tracked) or record.S.shape != (sim.m,
                                                                 tracked):
        return dict(out, problems=[f"output shape {record.L.shape}, "
                                   f"expected {(sim.m, tracked)}"])

    geometry = restart_geometry(record, n_burnin)
    excluded = set()
    for trigger, last in geometry:
        excluded.update(range(trigger, last + 1))
    out.update({
        "problems": [],
        "digest": _digest(record.L, record.S),
        "throughput_sps": tracked / (record.t_done - record.t_entry),
        "setup_s": feed.requested[n_burnin] - record.t_entry,
        "steps": feed.service_times(n_burnin, excluded),
        "cpu_steps": feed.service_times(n_burnin, excluded, cpu=True),
        "restart_stalls": [feed.requested[last + 1] - feed.handed[trigger]
                           for trigger, last in geometry],
        "change_points": record.change_points,
        "streams.pull_us": statistics.fmean(
            h - r for h, r in zip(feed.handed, feed.requested)) * 1e6,
        "streams.replays": feed.replays,
        "streams.write_s": record.write_s,
        "state.save_ms": statistics.fmean(record.save_s) * 1e3
        if record.save_s else 0.0,
        "state.load_ms": statistics.fmean(record.load_s) * 1e3
        if record.load_s else 0.0,
        "state.snapshot_bytes": record.snapshot_bytes,
    })
    if tracer:
        out.update(layer_metrics(tracer, config.projection.max_iter,
                                 len(record.diagnostics)))
        out["spans"] = [(n, s - record.t_entry, e - record.t_entry, p)
                        for n, s, e, p in tracer.spans]
    return out


def _digest(L, S):
    # Hashed in place: copies of L and S would add to the peak RSS.
    import numpy as np
    digest = hashlib.sha256()
    for array in (L, S):
        digest.update(np.ascontiguousarray(array))
    return digest.hexdigest()


def _read_output(path):
    """An m x T matrix from a raw-f64 file written by write_raw_f64."""
    import numpy as np
    from streamrpca import ingest_stream
    stream = ingest_stream(str(path), "raw-f64", retain=1)
    columns = []
    while (x := stream.get(len(columns))) is not None:
        columns.append(x)
    return np.column_stack(columns)


def score(workload, data_seed, data_dir, passes):
    """Score the outputs the last pass over data_dir wrote; returns (scores,
    problems). Every pass of a stream must give bit-identical outputs (run()
    checks the digests), so the file stands for all of them."""
    import numpy as np
    from streamrpca import err_rel

    _, config = workload.spec(data_seed)
    last = passes[-1]
    L = _read_output(data_dir / "L.f64")
    S = _read_output(data_dir / "S.f64")
    problems = []
    if _digest(L, S) != last["digest"]:
        problems.append("written outputs differ from the returned ones")
    finite = np.isfinite(L).all(axis=0) & np.isfinite(S).all(axis=0)
    failed = int(L.shape[1] - finite.sum())
    if failed:
        problems.append(f"{failed} samples without finite L/S")
    true_cps = json.loads((data_dir / "truth.json").read_text())["cps"]
    err_L = err_rel(L, np.load(data_dir / "L_true.npy"))
    err_S = err_rel(S, np.load(data_dir / "S_true.npy"))
    problems += gate(workload.name, data_seed, err_L, err_S,
                     last["change_points"], true_cps, config.n_win)
    if any(p["change_points"] != last["change_points"] for p in passes):
        problems.append("change points differ between passes")
    return {"failed": failed, "err_L": err_L, "err_S": err_S,
            "change_points": last["change_points"], "true_cps": true_cps,
            "n_win": config.n_win}, problems


def _windowed_p99(step_lists):
    """Median over windows of each window's 99th percentile step time. Each
    list (one pass's steps) is cut into windows of at least WINDOW_STEPS
    consecutive steps, ten or more beyond the 99th percentile. On a shared
    host a burst of interference fills the 1% tail of a whole run from a few
    windows; the median window shows the program's own tail."""
    import numpy as np
    windows = [window for steps in step_lists
               for window in np.array_split(
                   np.asarray(steps), max(1, len(steps) // WINDOW_STEPS))]
    return float(np.median([np.percentile(w, 99) for w in windows]))


def summarize(passes, scores, peak_rss_mb):
    """Metrics of a run from its passes and the scores of its streams:
    medians over passes for pass-level times, percentiles over all steps,
    means over the streams for output scores."""
    import numpy as np
    from streamrpca import cp_deviation

    plain = [p for p in passes if not p["traced"] and "digest" in p]
    traced = [p for p in passes if p["traced"] and "digest" in p]
    metrics = {}
    if plain:
        steps = [s for p in plain for s in p["steps"]]
        stalls = [s for p in plain for s in p["restart_stalls"]]
        metrics.update({
            "throughput_sps": statistics.median(
                p["throughput_sps"] for p in plain),
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "step_p50_ms": float(np.percentile(steps, 50)) * 1e3,
            "step_p99_ms": float(np.percentile(steps, 99)) * 1e3,
            "step_cpu_p99_ms": _windowed_p99(
                [p["cpu_steps"] for p in plain]) * 1e3,
            "step_samples": len(steps),
        })
        if stalls:
            metrics["restart_s"] = statistics.fmean(stalls)
            metrics["restarts"] = len(stalls)
    if scores:
        per_stream = list(scores.values())
        metrics["err_L"] = statistics.fmean(s["err_L"] for s in per_stream)
        metrics["err_S"] = statistics.fmean(s["err_S"] for s in per_stream)
        if any(s["true_cps"] for s in per_stream):
            matches = [cp_deviation(s["change_points"], s["true_cps"],
                                    window=s["n_win"]) for s in per_stream]
            deviations = [d for m in matches for d in m.deviations]
            if deviations:
                metrics["cp_dev_mean"] = statistics.fmean(deviations)
            metrics["cp_missed"] = sum(len(m.misses) for m in matches)
            metrics["cp_false"] = sum(len(m.false_alarms) for m in matches)
    metrics["peak_rss_mb"] = peak_rss_mb
    if traced:
        for name in LAYER_UNITS:
            if not name.startswith("trace."):
                metrics[name] = statistics.median(p[name] for p in traced)
        if plain:
            traced_sps = statistics.median(p["throughput_sps"]
                                           for p in traced)
            metrics["trace.untraced_sps"] = metrics["throughput_sps"]
            metrics["trace.traced_sps"] = traced_sps
            metrics["trace.overhead_pct"] = (
                metrics["throughput_sps"] / traced_sps - 1) * 100
    return metrics


# -- a run --------------------------------------------------------------------

def run(args):
    from workloads import WORKLOADS, data_seeds

    workload = WORKLOADS[args.workload]
    seeds = data_seeds(args.seed)
    env = environment()
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        work = Path(tmp)
        t0 = perf_counter()
        subprocess.run([sys.executable, __file__, "--workload", args.workload,
                        "--seed", str(args.seed), "--generate-into", tmp],
                       check=True, timeout=170)
        gen_s = perf_counter() - t0
        passes = []
        begin = perf_counter()
        for round_no in itertools.count():
            data_seed = seeds[round_no % len(seeds)]
            order = [False]
            if args.trace:
                order = [False, True] if round_no % 2 == 0 else [True, False]
            t_round = perf_counter()
            for traced in order:
                passes.append(one_pass(workload, data_seed,
                                       work / str(data_seed), traced))
            round_s = perf_counter() - t_round
            # Stop where the run ends closest to --seconds.
            if perf_counter() - begin + round_s / 2 >= args.seconds:
                break
        measured_s = perf_counter() - begin
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024)

        problems = [f"seed {p['seed']}: {msg}" for p in passes
                    for msg in p["problems"]]
        scores = {}
        for seed in seeds:
            done = [p for p in passes if p["seed"] == seed and "digest" in p]
            if len({p["digest"] for p in done}) > 1:
                problems.append(f"seed {seed}: outputs differ between passes")
            if done:
                scores[seed], found = score(workload, seed, work / str(seed),
                                            done)
                problems += [f"seed {seed}: {msg}" for msg in found]
                for p in done:
                    p["failed"] = scores[seed]["failed"]

    metrics = summarize(passes, scores, peak_rss_mb)
    attempted = sum(p["tracked"] for p in passes)
    failed = attempted if problems else sum(p["failed"] for p in passes)
    metrics["failed_ratio"] = failed / attempted
    correct = not problems

    report = {
        "workload": args.workload, "seed": args.seed,
        "data_seeds": seeds, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "gen_s": gen_s, "measured_s": measured_s,
        "passes": len(passes), "correct": correct, "problems": problems,
        "change_points": {seed: s["change_points"]
                          for seed, s in scores.items()},
        "metrics": metrics,
    }
    _print_report(report)
    if args.out:
        _write_report(Path(args.out), report, passes)

    # A metric no pass could measure (every pass raised) reads 0 in a
    # result that is already marked incorrect.
    names = LAYER_RESULT if args.trace else E2E_RESULT
    units = LAYER_UNITS if args.trace else E2E_UNITS
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics.get(name, 0.0),
                                 "unit": units[name]} for name in names}}
    print(json.dumps(result))
    return 0 if correct else 1


def _print_report(report):
    print(f"environment {json.dumps(report['environment'], sort_keys=True)}")
    print(f"workload {report['workload']} seed {report['seed']} "
          f"trace {report['trace']}: {report['passes']} passes in "
          f"{report['measured_s']:.1f} s, input generated in "
          f"{report['gen_s']:.2f} s")
    metrics = report["metrics"]
    for name, value in metrics.items():
        unit = E2E_UNITS.get(name) or LAYER_UNITS.get(name) or "count"
        if value is not None:
            print(f"  {name:28s} {value:14.6g} {unit}")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")


def _write_report(out_dir, report, passes):
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
    keep = [{k: v for k, v in p.items()
             if k not in ("steps", "cpu_steps", "spans")}
            for p in passes]
    (out_dir / f"{stem}.json").write_text(
        json.dumps(dict(report, pass_records=keep), indent=1) + "\n",
        encoding="ascii")
    traced = [p for p in passes if "spans" in p]
    if traced:
        with open(out_dir / f"{stem}-spans.jsonl", "w",
                  encoding="ascii") as fh:
            for name, start, end, parent in traced[-1]["spans"]:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


# -- smoke test ---------------------------------------------------------------

def smoke():
    """Run every workload briefly in both modes and validate the result
    lines against BENCHMARK.json. Exit code 0 iff all are valid."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS
    errors = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.py")
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed",
                   "0", "--seconds", "1", "--trace", str(trace)]
            t0 = perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=180)
            where = f"{name} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                errors.append(f"{where}: no result line; stderr: "
                              f"{proc.stderr[-500:]}")
                continue
            errors += [f"{where}: {e}"
                       for e in _schema_errors(result, expected[trace])]
            if proc.returncode != 0:
                errors.append(f"{where}: exit code {proc.returncode}")
            print(f"smoke {where}: exit {proc.returncode}, "
                  f"{perf_counter() - t0:.1f} s")
    for error in errors:
        print(f"SMOKE FAILED: {error}")
    print("smoke ok" if not errors else "smoke failed")
    return 0 if not errors else 1


def _schema_errors(result, units):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
        return errors
    if result["correct"] is not True:
        errors.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted < 1")
    metrics = result["metrics"]
    if set(metrics) != set(units):
        errors.append("metric names differ: "
                      f"{sorted(set(metrics) ^ set(units))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or value != value or value in (float("inf"), float("-inf"))):
            errors.append(f"{name}: value {value!r} is not a finite number")
        if name in units and entry.get("unit") != units[name]:
            errors.append(f"{name}: unit {entry.get('unit')!r}, expected "
                          f"{units[name]!r}")
    return errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="directory for the full JSON report "
                        "(and the spans of the last traced pass)")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly, validate output")
    parser.add_argument("--generate-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_package()
    sys.path.insert(0, str(BENCH))
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS, data_seeds, write_inputs
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.generate_into:
        workload = WORKLOADS[args.workload]
        for data_seed in data_seeds(args.seed):
            data_dir = Path(args.generate_into) / str(data_seed)
            data_dir.mkdir()
            write_inputs(workload, data_seed, data_dir)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
