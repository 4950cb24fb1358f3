"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 0-9 --trace 0 \
        --out bench/results/baseline-e2e.json

Workloads are interleaved seed by seed so that slow drift of the machine
spreads over all of them. For every metric of the runs' reports it prints
the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread: the distance between the quartiles as a share of the median. Gated
metrics are compared with a third of their bound in BENCHMARK.json. With
--out the per-run results and reports, the summary and the environment are
written as one JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs, bounds):
    """{workload: {metric: quartiles and spread}} over the runs' reports."""
    summary = {}
    for name, results in runs.items():
        summary[name] = {}
        reports = [r["report"]["metrics"] for r in results]
        for metric in reports[0]:
            values = [m.get(metric) for m in reports]
            if any(not isinstance(v, (int, float)) for v in values):
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else None
            summary[name][metric] = {"median": median, "q1": q1, "q3": q3,
                                     "spread": spread, "values": values}
            flag = ""
            if metric in bounds and metric != "setup_s":
                third = bounds[metric] / 3
                flag = ("ok" if spread is not None and spread < third
                        else f"ABOVE bound/3 = {third:.4f}")
            spread_text = f"{spread:.4f}" if spread is not None else "n/a"
            print(f"{name:20s} {metric:26s} median {median:12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread_text} {flag}")
    return summary


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        for seed in args.seeds:
            for name in workloads:
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload",
                       name, "--seed", str(seed), "--seconds",
                       str(args.seconds), "--trace", str(args.trace),
                       "--out", tmp]
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      cwd=ROOT, timeout=600)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                report = json.loads(
                    (Path(tmp) / f"{name}-seed{seed}-trace{args.trace}.json")
                    .read_text())
                report.pop("pass_records")
                runs[name].append({"seed": seed, "exit": proc.returncode,
                                   "result": result, "report": report})
                values = " ".join(f"{k}={v['value']:.5g}" for k, v in
                                  result["metrics"].items())
                print(f"{name} seed {seed} exit {proc.returncode} "
                      f"correct {result['correct']}: {values}", flush=True)

    summary = summarize(runs, bounds if not args.trace else {})
    if args.out:
        first = runs[workloads[0]][0]["report"]
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({
            "command": f"python3 bench/spread.py --seeds {args.seeds[0]}-"
                       f"{args.seeds[-1]} --seconds {args.seconds} "
                       f"--trace {args.trace}",
            "environment": first["environment"],
            "summary": summary,
            "runs": runs,
        }, indent=1) + "\n", encoding="ascii")
    return 0 if all(r["exit"] == 0 for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
