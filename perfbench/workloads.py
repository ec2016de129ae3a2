"""The benchmark's workloads.

Each workload is a train-then-evaluate pipeline driven through the public
API only: `harness.run_experiment` trains and writes a run directory,
`harness.evaluate` rolls a checkpoint out, and `ParamSet.save` writes the
checkpoint the bomberman evaluation starts from. A run repeats whole rounds
of the same operations; every operation's output is checked before the
next one starts (see checks.py).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time

import numpy as np

from a3ctp import ModelConfig, RunConfig, evaluate, init_model, run_experiment
from a3ctp.envs import make_env

import checks

T_MAX = 20            # RunConfig default rollout length
HIDDEN = (128, 128)   # RunConfig default hidden sizes
EVAL_MODEL_SEED = 0   # seeds the init_model of the evaluated bomberman checkpoint


class Clock:
    """Times calls, and runs a fixed reference probe just before and just
    after each one.

    The probe is the benchmark's own work, independent of the program: small
    numpy products with tanh and a pure-Python loop, the mix the workloads
    run. The host this benchmark was tuned on slows every process by up to
    1.6x for seconds to minutes at a time. The probe slows with it, so the
    run's times are scaled by the median probe time (see README).
    """

    def __init__(self):
        self.probes: list[float] = []
        rng = np.random.default_rng(20190726)
        self.w1 = rng.normal(size=(64, 128)) / 8
        self.w2 = rng.normal(size=(128, 128)) / 11
        self.x = rng.normal(size=(1, 64))

    def probe(self) -> None:
        t0 = time.perf_counter()
        total = 0.0
        for _ in range(800):
            h = np.tanh(np.tanh(self.x @ self.w1) @ self.w2)
            total += float(h.sum())
            s = 0
            for j in range(100):
                s += j * j
        self.probes.append(time.perf_counter() - t0)

    def time(self, fn, *args, **kwargs):
        """Returns (fn's result, its seconds)."""
        self.probe()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0
        self.probe()
        return result, seconds


class Round:
    """Figures of one round: one entry per training run and per evaluation."""

    def __init__(self):
        self.train_s: list[float] = []
        self.episodes: list[int] = []
        self.updates: list[int] = []
        self.steps: list[int] = []
        self.eval_s: list[float] = []
        self.eval_episodes: list[int] = []
        self.eval_steps: list[int] = []
        self.workers = 1


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str, quick: bool):
        self.seed = seed
        self.workdir = workdir
        self.clock = Clock()

    def setup(self) -> None:
        """Build the inputs every round uses."""

    def round(self, index: int, tracer=None) -> Round:
        raise NotImplementedError

    def _call(self, tracer, fn, *args, **kwargs):
        """Time one call into the program. With a tracer, its wrappers are
        installed only for the duration of the call, so the checks stay
        untraced, and the evaluation itself is a span of the harness layer."""
        if tracer is None:
            return self.clock.time(fn, *args, **kwargs)
        if fn is evaluate:
            fn = tracer.span(fn, "harness.evaluate")
        tracer.install()
        try:
            result = self.clock.time(fn, *args, **kwargs)
        finally:
            tracer.uninstall()
        checks.require(not tracer.failures, "; ".join(tracer.failures[:3]))
        return result


class GridgoalSolve(Workload):
    """gridgoal 8x8 at workers=1: train a fixed list of seeds, each until the
    100-episode moving average reaches 0.9, then evaluate each final policy
    on held-out seeds. Single-worker training is bit-deterministic, so every
    round does exactly the same work."""

    name = "gridgoal-solve-1w"
    TRAIN_SEEDS = (0, 1)
    BUDGET = 1000
    TARGET = 0.9

    def __init__(self, seed, workdir, quick):
        super().__init__(seed, workdir, quick)
        seeds = self.TRAIN_SEEDS[:1] if quick else self.TRAIN_SEEDS
        # --seed fixes the order of the list and the held-out evaluation seeds.
        self.train_seeds = [int(s) for s in np.random.default_rng(seed).permutation(seeds)]
        self.eval_seeds = [10_000 + 100 * seed + j for j in range(1 if quick else 4)]
        self.chunk_episodes = 20 if quick else 50
        self.digests: dict[int, str] = {}
        # Per train seed: a training run and an evaluation per held-out seed.
        self.ops_per_round = len(self.train_seeds) * (1 + len(self.eval_seeds))

    def setup(self):
        self.configs = {
            s: RunConfig(env="gridgoal", env_size=checks.GRID_SIZE, algorithm="a3c-tp",
                         lambda_tp=0.5, workers=1, seed=s, episode_budget=self.BUDGET,
                         early_stop_reward=self.TARGET, out_dir="")
            for s in self.train_seeds
        }

    def round(self, index, tracer=None):
        res = Round()
        for s in self.train_seeds:
            out_dir = os.path.join(self.workdir, f"round{index}-seed{s}")
            cfg = self.configs[s]
            cfg.out_dir = out_dir
            _, seconds = self._call(tracer, run_experiment, cfg)
            res.train_s.append(seconds)

            m = checks.check_gridgoal_solve(out_dir, self.BUDGET, self.TARGET)
            with open(os.path.join(out_dir, "metrics.csv"), "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            checks.require(self.digests.setdefault(s, digest) == digest,
                           f"{out_dir}: metrics.csv differs from an earlier run of seed {s}")
            ckpt = os.path.join(out_dir, "checkpoints", "final.ckpt")
            tensors, fields = checks.read_tensors(ckpt)
            res.episodes.append(len(m["episode"]))
            res.updates.append(int(fields["version"]))
            res.steps.append(sum(m["length"]))

            if tracer is not None:
                tracer.reference_tensors = tensors
            for eval_seed in self.eval_seeds:
                report, seconds = self._call(
                    tracer, evaluate, ckpt, "gridgoal", self.chunk_episodes, eval_seed,
                    env_kwargs={"size": checks.GRID_SIZE}, sample=True)
                res.eval_s.append(seconds)
                res.eval_episodes.append(report.episodes)
                res.eval_steps.append(round(report.mean_length * report.episodes))
                # Rewards are 0 or 1, so the mean reward is the success rate.
                checks.check_beats_random(report.mean_reward, self.chunk_episodes, eval_seed)
            shutil.rmtree(out_dir)
        return res


class BomberTrain(Workload):
    """minibomber-static at workers=2 for a fixed episode budget with
    periodic checkpoints, then evaluations with sampled actions and replay
    recording against the rule-based opponent, of a checkpoint built from a
    seeded init_model."""

    name = "bomber-train-2w"
    WORKERS = 2
    STEP_CAP = 800   # minibomber default

    def __init__(self, seed, workdir, quick):
        super().__init__(seed, workdir, quick)
        self.budget = 10 if quick else 200
        self.cadence = 5 if quick else 50
        # The evaluation is the same in every run and every round: one
        # checkpoint and one list of episode seeds, so its time changes only
        # with speed. --seed picks the training seeds.
        self.eval_seeds = list(range(1 if quick else 6))
        self.chunk_episodes = 5 if quick else 25
        self.eval_ckpt = os.path.join(workdir, "eval-init.ckpt")
        self.ops_per_round = 1 + len(self.eval_seeds)

    def setup(self):
        spec = make_env("minibomber-rulebased").spec()
        self.model = ModelConfig(spec.obs_dim, spec.n_actions, HIDDEN)
        init_model(self.model, np.random.default_rng(EVAL_MODEL_SEED)).save(self.eval_ckpt)

    def initial_tensors(self, train_seed: int) -> dict[str, np.ndarray]:
        """The trainer's seeded initial parameters: the first of the
        worker-count-plus-one child seeds initialises the model."""
        child = np.random.SeedSequence(train_seed).spawn(self.WORKERS + 1)[0]
        return init_model(self.model, np.random.default_rng(child)).tensors

    def round(self, index, tracer=None):
        res = Round()
        res.workers = self.WORKERS
        train_seed = 1000 * self.seed + index
        out_dir = os.path.join(self.workdir, f"round{index}")
        cfg = RunConfig(env="minibomber-static", algorithm="a3c-tp", lambda_tp=0.5,
                        workers=self.WORKERS, seed=train_seed, episode_budget=self.budget,
                        checkpoint_cadence=self.cadence, out_dir=out_dir)
        _, seconds = self._call(tracer, run_experiment, cfg)
        res.train_s.append(seconds)
        m = checks.check_bomber_train(out_dir, self.budget, self.cadence, T_MAX,
                                      self.STEP_CAP, self.initial_tensors(train_seed))
        _, fields = checks.read_tensors(os.path.join(out_dir, "checkpoints", "final.ckpt"))
        res.episodes.append(len(m["episode"]))
        res.updates.append(int(fields["version"]))
        res.steps.append(sum(m["length"]))

        if tracer is not None:
            tracer.reference_tensors = checks.read_tensors(self.eval_ckpt)[0]
        for eval_seed in self.eval_seeds:
            replay_dir = os.path.join(out_dir, f"replays{eval_seed}")
            report, seconds = self._call(
                tracer, evaluate, self.eval_ckpt, "minibomber-rulebased", self.chunk_episodes,
                eval_seed, sample=True, replay_dir=replay_dir)
            res.eval_s.append(seconds)
            checks.check_eval_report(report, self.chunk_episodes)
            res.eval_episodes.append(report.episodes)
            res.eval_steps.append(checks.check_replays(replay_dir, report, self.chunk_episodes))
        shutil.rmtree(out_dir)
        return res


WORKLOADS = {w.name: w for w in (GridgoalSolve, BomberTrain)}
