"""Command line front end: train, sweep, evaluate, summarize.

Flags mirror RunConfig fields; every run directory gets the full config
echoed (defaults included) before training starts.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    RunConfig, evaluate, run_experiment, summarize, summary_table, sweep_lambda_tp,
)
from .trainer import field_parsers


def _add_config_args(p: argparse.ArgumentParser) -> None:
    defaults = RunConfig()
    for name, parse in field_parsers(RunConfig).items():
        p.add_argument(f"--{name.replace('_', '-')}", type=parse,
                       default=getattr(defaults, name), dest=name)


def _config_from_args(args) -> RunConfig:
    return RunConfig(**{name: getattr(args, name) for name in field_parsers(RunConfig)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="a3ctp")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training experiment")
    _add_config_args(p_train)

    p_sweep = sub.add_parser("sweep", help="lambda_tp sensitivity sweep")
    _add_config_args(p_sweep)
    p_sweep.add_argument("--values", default="0.25,0.5,0.75,1",
                         help="comma-separated lambda_tp values")
    p_sweep.add_argument("--seeds", default="0,1,2",
                         help="comma-separated run seeds")

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("--env", default="gridgoal")
    p_eval.add_argument("--env-size", type=int, default=8)
    p_eval.add_argument("--episodes", type=int, default=100)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--greedy", action="store_true")
    p_eval.add_argument("--replay-dir", default=None)

    p_sum = sub.add_parser("summarize", help="aggregate run directories")
    p_sum.add_argument("run_dirs", nargs="+")
    p_sum.add_argument("--threshold", type=float, required=True)
    p_sum.add_argument("--out", default=None, help="also write the table here")

    args = parser.parse_args(argv)
    if args.command == "train":
        run_dir = run_experiment(_config_from_args(args))
        print(f"run complete: {run_dir}")
    elif args.command == "sweep":
        values = [float(v) for v in args.values.split(",")]
        seeds = [int(s) for s in args.seeds.split(",")]
        dirs = sweep_lambda_tp(_config_from_args(args), values, seeds)
        print("\n".join(dirs))
    elif args.command == "evaluate":
        report = evaluate(args.checkpoint, args.env, args.episodes, args.seed,
                          env_kwargs={"size": args.env_size},
                          sample=not args.greedy, replay_dir=args.replay_dir)
        print(f"episodes={report.episodes} mean_reward={report.mean_reward:.4f} "
              f"mean_length={report.mean_length:.1f}")
        for k in sorted(report.outcome_counts):
            print(f"  {k}: {report.outcome_counts[k]}")
    elif args.command == "summarize":
        table = summary_table(summarize(args.run_dirs, args.threshold))
        print(table, end="")
        if args.out:
            with open(args.out, "w") as f:
                f.write(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
