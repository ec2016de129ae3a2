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

`run_experiment` calls `train` in the calling thread and hands it a writer
in place of a queue: the trainer books each episode once, and the writer
turns its row into one line of each csv file as it is booked.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .envs import make_env
from .envs.minibomber.board import classify_outcome
from .envs.minibomber.env import MiniBomber
from .envs.minibomber.replay import save_replay
from .losses import LossWeights
from .model import ModelConfig, forward_batch, sample_action
from .nn import ParamSet
from .trainer import METRICS_COLUMNS, MetricsRow, TrainConfig, train

ALGORITHMS = ("a3c", "a3c-tp")


@dataclass
class RunConfig:
    env: str = "gridgoal"
    env_size: int = 8
    env_max_steps: int = 0        # 0 = environment default
    algorithm: str = "a3c-tp"
    lambda_v: float = 0.5
    lambda_pi: float = 1.0
    lambda_h: float = 0.01
    lambda_tp: float = 0.5
    gamma: float = 0.99
    t_max: int = 20
    hidden: str = "128,128"
    workers: int = 8
    seed: int = 0
    episode_budget: int = 1000
    checkpoint_cadence: int = 0
    lr: float = 1e-4
    clip_norm: float = 40.0
    moving_window: int = 100
    early_stop_reward: float = float("nan")  # nan = disabled
    out_dir: str = "runs/run"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")

    def weights(self) -> LossWeights:
        return LossWeights(self.lambda_v, self.lambda_pi, self.lambda_h,
                           self.lambda_tp, self.gamma, self.t_max)

    def hidden_sizes(self) -> tuple[int, ...]:
        return tuple(int(x) for x in self.hidden.split(",") if x)

    def env_kwargs(self) -> dict:
        kw = {"size": self.env_size}
        if self.env_max_steps > 0:
            kw["max_steps"] = self.env_max_steps
        return kw

    def save(self, path) -> None:
        with open(path, "w") as f:
            for fld in fields(self):
                f.write(f"{fld.name}={getattr(self, fld.name)}\n")

    @classmethod
    def load(cls, path) -> "RunConfig":
        kwargs = {}
        types = {f.name: f.type for f in fields(cls)}
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, value = line.split("=", 1)
                t = types[key]
                if t == "int":
                    kwargs[key] = int(value)
                elif t == "float":
                    kwargs[key] = float(value)
                else:
                    kwargs[key] = value
        return cls(**kwargs)


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

    probe = make_env(config.env, **config.env_kwargs())
    spec = probe.spec()
    model_cfg = ModelConfig(spec.obs_dim, spec.n_actions, config.hidden_sizes())
    early = None if np.isnan(config.early_stop_reward) else config.early_stop_reward
    tc = TrainConfig(
        model=model_cfg, weights=config.weights(), n_workers=config.workers,
        seed=config.seed, episode_budget=config.episode_budget,
        use_tp=(config.algorithm == "a3c-tp"), clip_norm=config.clip_norm,
        checkpoint_dir=ckpt_dir, checkpoint_cadence=config.checkpoint_cadence,
        early_stop_reward=early, early_stop_window=config.moving_window,
        lr=config.lr,
    )
    env_factory = lambda wid: make_env(config.env, **config.env_kwargs())

    with open(os.path.join(run_dir, "metrics.csv"), "w", newline="") as mf, \
            open(os.path.join(run_dir, "timing.csv"), "w", newline="") as tf:
        writer = _RunFiles(csv.writer(mf), csv.writer(tf))
        try:
            train(tc, env_factory, metrics_queue=writer)
        except Exception as exc:
            raise RuntimeError(f"training failed in {run_dir}") from exc
    return run_dir


class _RunFiles:
    """The metrics queue `train` puts rows to: each row is one line of
    metrics.csv and one of timing.csv; the final None is ignored."""

    def __init__(self, metrics, timing):
        self.metrics, self.timing = metrics, timing
        metrics.writerow(METRICS_COLUMNS)
        timing.writerow(("episode", "wall_time_s"))

    def put(self, row: MetricsRow | None) -> None:
        if row is not None:
            self.metrics.writerow([_format(getattr(row, c)) for c in METRICS_COLUMNS])
            self.timing.writerow([row.episode, f"{row.wall_time:.3f}"])


def sweep_lambda_tp(base: RunConfig, values, seeds) -> list[str]:
    """Grid of runs: one directory per (lambda_tp value, seed), sharing the
    base config. Duplicate values are a config error."""
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    if len(set(values)) != len(values):
        raise ValueError("duplicate lambda_tp values in sweep")
    run_dirs = []
    failures = []
    for v in values:
        for s in seeds:
            cfg = replace(base, lambda_tp=v, seed=s, algorithm="a3c-tp",
                          out_dir=os.path.join(base.out_dir,
                                               f"tp{v:g}_seed{s}"))
            try:
                run_dirs.append(run_experiment(cfg))
            except Exception as exc:
                failures.append((cfg.out_dir, exc))
    if failures:
        detail = "; ".join(f"{d}: {e}" for d, e in failures)
        raise RuntimeError(f"sweep had partial failures: {detail}")
    return run_dirs


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
    directories are supplied.
    """
    if not run_dirs:
        raise ValueError("need at least one run directory")
    groups: dict[tuple, list[str]] = {}
    for d in run_dirs:
        cfg = RunConfig.load(os.path.join(d, "config.txt"))
        lam = cfg.lambda_tp if cfg.algorithm == "a3c-tp" else 0.0
        groups.setdefault((cfg.env, cfg.algorithm, lam), []).append(d)
    summaries = []
    for (env, algo, lam), dirs in sorted(groups.items()):
        finals, etts, censored = [], [], []
        for d in sorted(dirs):
            cfg = RunConfig.load(os.path.join(d, "config.txt"))
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
            env=env, algorithm=algo, lambda_tp=lam, n_runs=len(dirs),
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
    """Roll out a trained checkpoint; outcome attribution for bomberman,
    plain reward statistics otherwise. Raises ValueError unless the
    checkpoint's tensor names and shapes are exactly those of the network
    for this environment (its hidden widths read from the checkpoint)."""
    env_kwargs = dict(env_kwargs or {})
    is_bomber = env_name.startswith("minibomber")
    if is_bomber and replay_dir is not None:
        env_kwargs["record_actions"] = True
    env = make_env(env_name, **env_kwargs)
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
        if is_bomber:
            outcome = info["outcome"]
            counts[outcome.result] = counts.get(outcome.result, 0) + 1
            counts[outcome.cause] = counts.get(outcome.cause, 0) + 1
            if replay_dir is not None:
                rseed, actions = info["replay"]
                save_replay(os.path.join(replay_dir, f"ep{ep:05d}.replay"),
                            env.n, env.step_cap, rseed, actions)
    return EvalReport(
        episodes=episodes,
        mean_reward=float(np.mean(rewards)) if rewards else 0.0,
        mean_length=float(np.mean(lengths)) if lengths else 0.0,
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
