"""Command-line surface.

Subcommands: simulate, pcp, track (--mode stoc|omw|omw-cp), experiment.
The default output directory is taken from the STREAMRPCA_OUT_DIR
environment variable when --out-dir is omitted.

Exit codes: 0 success, 1 contract violation or failed tracker step, 2 I/O
or parse error.
"""

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import experiments
from .changepoint import MODES, OmwCpPipeline
from .exceptions import (ContractViolation, InitializationError, ParseError,
                         SnapshotError, TrackerStepError)
from .pcp import PcpConfig, pcp_alm
from .simgen import ChangePoints, Drift, SimSpec, Stable, generate
from .state import load_state, restore_pipeline, save_state, snapshot_pipeline
from .streams import ingest_stream, write_raw_f64
from .trackers import DETECTOR_FIELDS, TrackerConfig

OUT_DIR_ENV = "STREAMRPCA_OUT_DIR"


def _out_dir(args):
    out = args.out_dir or os.environ.get(OUT_DIR_ENV)
    if not out:
        raise ContractViolation(
            f"no output directory: pass --out-dir or set {OUT_DIR_ENV}")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _int_list(text):
    """The integers of a comma-separated list, as a tuple."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}")


def _mode_list(text):
    """The modes of a non-empty comma-separated list, as a tuple."""
    modes = tuple(m.strip() for m in text.split(",") if m.strip())
    if not modes or not set(modes) <= set(MODES):
        raise argparse.ArgumentTypeError(
            f"not a list of modes among {', '.join(MODES)}: {text!r}")
    return modes


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="streamrpca",
        description="Streaming robust PCA with change-point detection")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic stream")
    p.add_argument("--variant", choices=["stable", "drift", "changepoints"],
                   default="stable")
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--t", type=int, default=1000)
    p.add_argument("--n-burnin", type=int, default=100)
    p.add_argument("--rho", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r", type=int, default=5)
    p.add_argument("--r0", type=int, default=3)
    p.add_argument("--t-p", type=int, default=125)
    p.add_argument("--ranks", type=_int_list, default="5,25,12",
                   help="comma-separated per-piece ranks (changepoints)")
    p.add_argument("--cps", type=_int_list, default="330,660",
                   help="comma-separated change points (changepoints)")
    p.add_argument("--out-dir", default=None)

    p = sub.add_parser("pcp", help="batch low-rank + sparse decomposition")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["csv", "raw-f64"], default="csv")
    p.add_argument("--lam", type=float)
    p.add_argument("--mu", type=float, help="initial penalty; 1.25/||M||_2")
    p.add_argument("--tol", type=float, default=PcpConfig.tol)
    p.add_argument("--max-iter", type=int, default=PcpConfig.max_iter)
    p.add_argument("--out-dir", default=None)

    p = sub.add_parser("track", help="online tracking over a stream file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["csv", "raw-f64"], default="csv")
    p.add_argument("--mode", choices=MODES, default="omw")
    p.add_argument("--n-burnin", type=int, default=100)
    p.add_argument("--n-win", type=int, default=100)
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    for f in fields(TrackerConfig):
        if f.name in DETECTOR_FIELDS:
            p.add_argument(f"--{f.name.replace('_', '-')}", type=f.type,
                           default=f.default)
    p.add_argument("--save-state", default=None,
                   help="write a resumable snapshot after the run")
    p.add_argument("--resume", default=None,
                   help="resume from a snapshot written by --save-state")
    p.add_argument("--out-dir", default=None)

    p = sub.add_parser("experiment", help="run a full study")
    p.add_argument("--study", type=int, choices=[1, 2, 3], required=True)
    p.add_argument("--scale", choices=["desk", "paper"], default="desk")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--methods", type=_mode_list, default=MODES)
    p.add_argument("--out-dir", default=None)

    return parser


def _cmd_simulate(args):
    if args.variant == "stable":
        variant = Stable(r=args.r)
    elif args.variant == "drift":
        variant = Drift(r=args.r, r0=args.r0, t_p=args.t_p)
    else:
        variant = ChangePoints(ranks=args.ranks, cps=args.cps, r0=args.r0,
                               t_p=args.t_p)
    spec = SimSpec(m=args.m, t=args.t, n_burnin=args.n_burnin, rho=args.rho,
                   seed=args.seed, variant=variant)
    gt = generate(spec)
    out = _out_dir(args)
    experiments.write_ground_truth(out, gt, spec, variant=args.variant)
    print(f"wrote stream of {spec.t} samples (dim {spec.m}) to {out}")
    return 0


def _cmd_pcp(args):
    stream = ingest_stream(args.input, args.format)
    cols = []
    i = 0
    while (x := stream.get(i)) is not None:
        cols.append(x)
        i += 1
    if not cols:
        raise ContractViolation("pcp: empty input stream")
    M = np.column_stack(cols)
    config = PcpConfig(lam=args.lam,
                       mu=PcpConfig.mu if args.mu is None else args.mu,
                       tol=args.tol, max_iter=args.max_iter)
    result = pcp_alm(M, config)
    out = _out_dir(args)
    write_raw_f64(out / "L.f64", result.L)
    write_raw_f64(out / "S.f64", result.S)
    (out / "result.json").write_text(
        json.dumps({"iterations": result.iterations,
                    "converged": result.converged}, sort_keys=True) + "\n",
        encoding="ascii")
    print(f"pcp: {result.iterations} iterations, converged={result.converged}")
    return 0


def _cmd_track(args):
    retain = args.n_burnin + args.n_check + 8
    stream = ingest_stream(args.input, args.format, retain=retain)
    config = TrackerConfig(
        n_burnin=args.n_burnin, n_win=args.n_win, lambda1=args.lambda1,
        lambda2=args.lambda2,
        **{name: getattr(args, name) for name in DETECTOR_FIELDS})
    if args.resume:
        snapshot = load_state(args.resume)
        if snapshot.kind != args.mode:
            raise ContractViolation(
                f"snapshot was taken in mode {snapshot.kind!r}, "
                f"not {args.mode!r}")
        pipeline = restore_pipeline(snapshot, config)
    else:
        pipeline = OmwCpPipeline(config, args.mode)
    result, report = pipeline.run(stream)

    experiments.write_run(_out_dir(args), result, report)
    if args.save_state:
        save_state(args.save_state, snapshot_pipeline(pipeline, result))
    print(f"tracked {result.L.shape[1]} samples; "
          f"change points: {result.change_points}")
    return 0


def _cmd_experiment(args):
    # run_experiment prints each method's result line
    experiments.run_experiment(args.study, args.scale, args.seed,
                               _out_dir(args), methods=args.methods)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "pcp": _cmd_pcp,
    "track": _cmd_track,
    "experiment": _cmd_experiment,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, SnapshotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractViolation, InitializationError, TrackerStepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
