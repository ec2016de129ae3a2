"""Benchmark command for a3ctp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ./src and
every file the run writes goes under ./.bench_runs, which is removed at the
end. The run sets up its inputs, then repeats whole rounds of its workload
for about S seconds, checking every output. With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced rounds
and prints the per-layer metrics, the trace's coverage of the training
wall time and its overhead. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 7       # fresh processes timed for setup_s, at least; the median is reported
# Times are reported in seconds at reference speed: a measured time times
# REFERENCE_PROBE_S over the run's median reference probe time (workloads.Clock).
# The constant is near the probe's median time on the machine in the README.
REFERENCE_PROBE_S = 0.020


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes and the fewest rounds, with every check")
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Put ./src first on the path and make sure a3ctp comes from there."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "a3ctp", "__init__.py")):
        raise SystemExit(f"perfbench: no program at {src}/a3ctp; run from a checkout's root")
    sys.path[:0] = [src, HERE]
    import a3ctp
    if not os.path.abspath(a3ctp.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: a3ctp imported from {a3ctp.__file__}, not {src}")


def setup_only(args) -> None:
    """Child process: import the program, build the workload's inputs and
    print the seconds that took."""
    t0 = time.perf_counter()
    import_program()
    from workloads import WORKLOADS
    WORKLOADS[args.workload](args.seed, args.setup_only, args.quick).setup()
    print(repr(time.perf_counter() - t0))


def measure_setup(args, workdir: str, runs: int, clock) -> list[float]:
    """Set-up times of `runs` fresh processes, as measured."""
    times = []
    for i in range(runs):
        setup_dir = os.path.join(workdir, f"setup{i}")
        os.makedirs(setup_dir)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only", setup_dir]
        if args.quick:
            cmd.append("--quick")
        out, _ = clock.time(subprocess.run, cmd, capture_output=True, text=True,
                            timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
        shutil.rmtree(setup_dir)
    return times


def run_rounds(wl, args, tracer, between):
    """Whole rounds until the time is up, calling between() after each; in a
    traced run, even rounds are untraced and odd rounds traced. Returns
    (rounds, traced flags, operations attempted, operations failed, failure
    messages, correct)."""
    from checks import CheckError

    rounds, traced, messages = [], [], []
    failed = 0
    correct = True
    min_rounds = 2 if tracer is not None else 1
    t_start = time.perf_counter()
    index = 0
    while True:
        use = tracer if index % 2 == 1 else None
        t0 = time.perf_counter()
        try:
            res = wl.round(index, use)
        except CheckError as exc:
            correct = False
            messages.append(f"round {index}: {exc}")
        except Exception as exc:  # a fault of the program: the round's operations failed
            failed += wl.ops_per_round
            messages.append(f"round {index}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        else:
            rounds.append(res)
            traced.append(use is not None)
        index += 1
        took = time.perf_counter() - t0
        between()
        if index >= min_rounds and (
                args.quick or time.perf_counter() - t_start + took / 2 >= args.seconds):
            break
    for m in messages:
        print(f"perfbench: {m}", file=sys.stderr)
    return rounds, traced, index * wl.ops_per_round, failed, messages, correct


def total(rounds, field):
    return sum(sum(getattr(r, field)) for r in rounds)


def end_to_end(rounds, setup_times, scale) -> dict:
    """scale turns measured seconds into seconds at reference speed."""
    runs = sum(len(r.train_s) for r in rounds)
    train_s = total(rounds, "train_s") * scale
    eval_s = total(rounds, "eval_s") * scale
    values = {
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "time_to_target_s": (train_s / runs, "s"),
        "episodes_to_target": (total(rounds, "episodes") / runs, "episodes"),
        "updates_per_s": (total(rounds, "updates") / train_s, "1/s"),
        "env_steps_per_s": (total(rounds, "steps") / train_s, "1/s"),
        "episodes_per_s": (total(rounds, "eval_episodes") / eval_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(rounds, traced, tracer) -> dict:
    """Per-layer figures of the traced rounds. When every traced or every
    untraced round failed, the figures that need both read 0."""
    on = [r for r, t in zip(rounds, traced) if t]
    off = [r for r, t in zip(rounds, traced) if not t]
    metrics = tracer.layer_metrics(max(1, len(on)))

    def overhead_pct(work, seconds):
        if not (on and off):
            return 0.0
        per_work = [total(rs, seconds) / total(rs, work) for rs in (on, off)]
        return 100 * (per_work[0] / per_work[1] - 1)

    wall = sum(sum(r.train_s) * r.workers for r in on)
    coverage = 100 * tracer.blocking_seconds() / wall if wall else 0.0
    metrics["trace.coverage_pct"] = {"value": coverage, "unit": "%"}
    metrics["trace.overhead_train_pct"] = {"value": overhead_pct("updates", "train_s"), "unit": "%"}
    metrics["trace.overhead_eval_pct"] = {"value": overhead_pct("eval_steps", "eval_s"), "unit": "%"}
    metrics["trace.forward_checks"] = {"value": tracer.forward_checks, "unit": "count"}
    metrics["trace.adam_checks"] = {"value": tracer.adam_checks, "unit": "count"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup_only(args)
        return 0
    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workdir = os.path.join(os.getcwd(), ".bench_runs",
                           f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, args.quick)
        # Set-up runs are spread over the run, so that their median does not
        # hang on one moment of the machine's load.
        setup_runs = 1 if args.quick else SETUP_RUNS
        setup_times = measure_setup(args, workdir, 1 if args.quick else 2, wl.clock)

        def between_rounds():
            if not args.quick:
                setup_times.extend(measure_setup(args, workdir, 1, wl.clock))

        wl.setup()
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        rounds, traced, attempted, failed, messages, correct = run_rounds(
            wl, args, tracer, between_rounds)
        setup_times += measure_setup(args, workdir, max(0, setup_runs - len(setup_times)), wl.clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not rounds:
        # Nothing to measure, but the tallies still say what went wrong.
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    # The raw times, before scaling, so that a change that fools the scaling shows.
    print("perfbench raw: " + json.dumps({"setup_s": setup_times, "probes": wl.clock.probes,
                                          "traced": traced, "rounds": [vars(r) for r in rounds]}),
          file=sys.stderr)
    if tracer is not None:
        metrics = per_layer(rounds, traced, tracer)
    else:
        scale = REFERENCE_PROBE_S / statistics.median(wl.clock.probes)
        metrics = end_to_end(rounds, setup_times, scale)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
