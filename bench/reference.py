"""Record the correctness reference the benchmark gates on.

    python3 bench/reference.py --seeds 0-19

Runs one untraced pass of every workload per seed and writes err_L, err_S
and the detected change points to bench/reference.json. Run it only at a
commit whose outputs are the accepted reference; the gate in run.py then
holds later commits to it.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-19")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import run  # first: fixes the BLAS thread count before numpy loads
    import numpy as np
    from streamrpca import err_rel
    from workloads import WORKLOADS, Feed, run_pass, write_inputs

    path = BENCH / "reference.json"
    reference = json.loads(path.read_text())
    for name, workload in WORKLOADS.items():
        entries = {}
        for seed in seeds:
            sim, config = workload.spec(seed)
            with tempfile.TemporaryDirectory(prefix=".bench-work-",
                                             dir=ROOT) as work:
                work = Path(work)
                write_inputs(workload, seed, work)
                feed = Feed(work / "stream.f64", workload.retain(config))
                record = run_pass(workload, config, feed,
                                  sim.n_burnin + sim.t, work)
                entries[str(seed)] = {
                    "err_L": err_rel(record.L, np.load(work / "L_true.npy")),
                    "err_S": err_rel(record.S, np.load(work / "S_true.npy")),
                    "change_points": record.change_points,
                }
            print(name, seed, entries[str(seed)],
                  f"pass {record.t_done - record.t_entry:.2f} s", flush=True)
        reference["workloads"][name] = {"seeds": entries}
    reference["commit"] = run._git_commit()
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
