"""Experiment orchestration: run configuration, metrics persistence,
multi-seed comparisons, loss-weight sweeps, summaries, and checkpoint
evaluation.

A run directory is self-describing:
    config.txt      every config key (defaults echoed), key=value text
    metrics.csv     one row per episode within the budget, in the order the
                    trainer booked them, fixed column order
    timing.csv      wall-clock sidecar (episode, seconds); kept out of
                    metrics.csv so metrics are bit-reproducible
    checkpoints/    parameter checkpoints, final.ckpt always present
    replays/        evaluation episode replays (bomberman only)

`RunConfig`, the one description of a run, lives in `trainer` and is
imported here. `run_experiment` saves it as config.txt, calls `train` with
it in the calling thread, and hands it a writer as `on_episode`: the
trainer books each episode once, and the writer turns its row into one
line of each csv file as it is booked.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace

import numpy as np

from .envs import make_env
from .envs.minibomber.replay import save_replay
from .model import ModelConfig, forward_batch, sample_action
from .nn import ParamSet
# ALGORITHMS and RunConfig live in trainer and keep their harness names.
from .trainer import ALGORITHMS, METRICS_COLUMNS, MetricsRow, RunConfig, train


def _format(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def run_experiment(config: RunConfig) -> str:
    """One training run; returns the run directory path."""
    run_dir = config.out_dir
    ckpt_dir = os.path.join(run_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    config.save(os.path.join(run_dir, "config.txt"))
    env_factory = lambda wid: make_env(config.env, **config.env_kwargs())

    with open(os.path.join(run_dir, "metrics.csv"), "w", newline="") as mf, \
            open(os.path.join(run_dir, "timing.csv"), "w", newline="") as tf:
        metrics, timing = csv.writer(mf), csv.writer(tf)
        metrics.writerow(METRICS_COLUMNS)
        timing.writerow(("episode", "wall_time_s"))

        def write(row: MetricsRow) -> None:
            metrics.writerow([_format(getattr(row, c)) for c in METRICS_COLUMNS])
            timing.writerow([row.episode, f"{row.wall_time:.3f}"])

        try:
            train(config, env_factory, on_episode=write, checkpoint_dir=ckpt_dir)
        except Exception as exc:
            raise RuntimeError(f"training failed in {run_dir}") from exc
    return run_dir


def sweep_lambda_tp(base: RunConfig, values, seeds) -> list[str]:
    """Grid of runs: one directory per (lambda_tp value, seed), sharing the
    base config. Two pairs that name one directory (a repeated value or
    seed, or values equal under `:g`) are a config error, raised, like a
    rejected value or an empty list of values or seeds, before any run."""
    values, seeds = list(values), list(seeds)
    if not values or not seeds:
        raise ValueError("sweep needs at least one value and one seed")
    configs = [replace(base, lambda_tp=v, seed=s, algorithm="a3c-tp",
                       out_dir=os.path.join(base.out_dir, f"tp{v:g}_seed{s}"))
               for v in values for s in seeds]
    _reject_repeats((cfg.out_dir for cfg in configs), "two sweep runs share the directory {}")
    run_dirs = []
    failures = []
    for cfg in configs:
        try:
            run_dirs.append(run_experiment(cfg))
        except Exception as exc:
            failures.append((cfg.out_dir, exc))
    if failures:
        detail = "; ".join(f"{d}: {e}" for d, e in failures)
        raise RuntimeError(f"sweep had partial failures: {detail}")
    return run_dirs


def _reject_repeats(dirs, problem: str) -> None:
    """Raise ValueError, `problem` formatted with the directory, at the
    first of `dirs` that names a directory listed before it."""
    seen = set()
    for d in dirs:
        key = os.path.realpath(d)
        if key in seen:
            raise ValueError(problem.format(d))
        seen.add(key)


def read_metrics(run_dir: str) -> dict[str, np.ndarray]:
    with open(os.path.join(run_dir, "metrics.csv"), newline="") as f:
        rows = list(csv.DictReader(f))
    out = {}
    for col in METRICS_COLUMNS:
        vals = [r[col] for r in rows]
        if col in ("worker_id", "episode", "length"):
            out[col] = np.array([int(v) for v in vals], dtype=np.int64)
        else:
            out[col] = np.array([float(v) for v in vals])
    return out


@dataclass
class GroupSummary:
    env: str
    algorithm: str
    lambda_tp: float
    n_runs: int
    final_ma_mean: float
    final_ma_std: float          # population std
    episodes_to_threshold: list[int]
    threshold: float
    censored: list[bool]         # True where the threshold was never reached

    @property
    def mean_episodes_to_threshold(self) -> float:
        return float(np.mean(self.episodes_to_threshold))


def summarize(run_dirs, threshold: float) -> list[GroupSummary]:
    """Aggregate runs by (env, algorithm, lambda_tp) across seeds.

    Final moving-average reward is the last row's moving_avg_reward column.
    Episodes-to-threshold is the first episode whose full-window moving
    average crosses the threshold (partial windows at the start of a run
    are ignored so one lucky opening episode cannot count as a crossing);
    runs that never cross report their episode budget and a censored flag.
    Result order is deterministic and independent of the order run
    directories are supplied. A directory listed twice is an error: it
    would count as two runs.
    """
    if not run_dirs:
        raise ValueError("need at least one run directory")
    _reject_repeats(run_dirs, "run directory {} is listed twice")
    groups: dict[tuple, list[tuple[str, RunConfig]]] = {}
    for d in run_dirs:
        cfg = RunConfig.load(os.path.join(d, "config.txt"))
        groups.setdefault((cfg.env, cfg.algorithm, cfg.weights().lambda_tp), []).append((d, cfg))
    summaries = []
    for (env, algo, lam), runs in sorted(groups.items()):
        finals, etts, censored = [], [], []
        for d, cfg in sorted(runs, key=lambda run: run[0]):
            m = read_metrics(d)
            if m["episode"].size == 0:
                raise ValueError(f"run {d} has no completed episodes")
            ma = m["moving_avg_reward"]
            finals.append(float(ma[-1]))
            full = np.arange(ma.size) >= cfg.moving_window - 1
            crossed = np.nonzero(full & (ma >= threshold))[0]
            if crossed.size:
                etts.append(int(m["episode"][crossed[0]]))
                censored.append(False)
            else:
                etts.append(int(cfg.episode_budget))
                censored.append(True)
        finals = np.array(finals)
        summaries.append(GroupSummary(
            env=env, algorithm=algo, lambda_tp=lam, n_runs=len(runs),
            final_ma_mean=float(finals.mean()),
            final_ma_std=float(np.sqrt(np.mean((finals - finals.mean()) ** 2))),
            episodes_to_threshold=etts, threshold=threshold, censored=censored,
        ))
    return summaries


def summary_table(summaries: list[GroupSummary]) -> str:
    lines = ["env,algorithm,lambda_tp,n_runs,final_ma_mean,final_ma_std,"
             "mean_episodes_to_threshold,censored"]
    for s in summaries:
        cens = "|".join("1" if c else "0" for c in s.censored)
        lines.append(f"{s.env},{s.algorithm},{s.lambda_tp:g},{s.n_runs},"
                     f"{s.final_ma_mean:.6f},{s.final_ma_std:.6f},"
                     f"{s.mean_episodes_to_threshold:.1f},{cens}")
    return "\n".join(lines) + "\n"


@dataclass
class EvalReport:
    episodes: int
    mean_reward: float
    mean_length: float
    outcome_counts: dict[str, int]  # result and cause tallies (bomberman)


def evaluate(checkpoint_path: str, env_name: str, episodes: int, seed: int,
             env_kwargs: dict | None = None, sample: bool = True,
             replay_dir: str | None = None) -> EvalReport:
    """Roll out a trained checkpoint: reward and length statistics, a tally
    of the outcomes that terminal infos carry (bomberman), and, with
    replay_dir, each replay they carry. Raises ValueError for episodes
    below 1, before anything is loaded, and unless the checkpoint's tensor
    names and shapes are exactly those of the network for this environment
    (its hidden widths read from the checkpoint)."""
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, not {episodes}")
    env = make_env(env_name, **(env_kwargs or {}))
    spec = env.spec()
    params = ParamSet.load(checkpoint_path)
    hidden = _infer_hidden(params)
    cfg = ModelConfig(spec.obs_dim, spec.n_actions, hidden)
    expected = [(f"{name}.{k}", shape) for name, fan_in, fan_out in cfg.layers
                for k, shape in (("W", (fan_in, fan_out)), ("b", (fan_out,)))]
    if [(name, shape) for name, shape, _, _ in params.layout] != expected:
        raise ValueError(f"checkpoint {checkpoint_path} does not match the {env_name} network "
                         f"(obs {spec.obs_dim}, {spec.n_actions} actions, hidden {hidden})")
    rng = np.random.default_rng(seed)
    rewards, lengths = [], []
    counts: dict[str, int] = {}
    if replay_dir is not None:
        os.makedirs(replay_dir, exist_ok=True)
    for ep in range(episodes):
        obs = env.reset(rng)
        total, steps, done = 0.0, 0, False
        info = {}
        while not done:
            probs, _, _, _ = forward_batch(params, cfg, obs[None, :])
            action = sample_action(probs[0], rng) if sample else int(np.argmax(probs[0]))
            obs, r, done, info = env.step(action, rng)
            total += r
            steps += 1
        rewards.append(total)
        lengths.append(steps)
        if "outcome" in info:
            outcome = info["outcome"]
            counts[outcome.result] = counts.get(outcome.result, 0) + 1
            counts[outcome.cause] = counts.get(outcome.cause, 0) + 1
        if replay_dir is not None and "replay" in info:
            save_replay(os.path.join(replay_dir, f"ep{ep:05d}.replay"), *info["replay"])
    return EvalReport(
        episodes=episodes,
        mean_reward=float(np.mean(rewards)),
        mean_length=float(np.mean(lengths)),
        outcome_counts=counts,
    )


def _infer_hidden(params: ParamSet) -> tuple[int, ...]:
    """Trunk widths from the last dim of each trunk<i>.W. A weight that is
    not 2-d still yields widths, which evaluate's manifest check rejects."""
    hidden = []
    i = 0
    while f"trunk{i}.W" in params:
        hidden.extend(params[f"trunk{i}.W"].shape[-1:])
        i += 1
    return tuple(hidden)
