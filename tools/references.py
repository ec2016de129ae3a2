"""Train a fixed table of runs and check that each reproduces its reference
bits: the sha256 prefixes of its `metrics.csv` and `final.ckpt`. Then
check two evaluations the same way: the `EvalReport`s of the
`gridgoal-solve-seed0` final checkpoint, and the replay files of a
`minibomber-rulebased` evaluation of a seeded `init_model` checkpoint.

Usage: python3 tools/references.py

Prints one "name prefix... ok|MISMATCH" line per run or evaluation, and
exits 1 naming every one whose digests differ from its reference.
`train` runs OpenBLAS on one thread whatever the caller's count, so the
training digests do not depend on OPENBLAS_NUM_THREADS. The 6x6 run pins
that: its first layer's rollout product rounds differently at two threads.
The evaluations run in the caller's pool, with 1-row forwards; their
references were taken with one thread, so the tool sets
OPENBLAS_NUM_THREADS=1 unless it is already set. Training bits depend on
the host's numpy/BLAS kernels, so a mismatch on another build does not by
itself mean the program changed; compare against a run of the parent
commit on the same host.

The polebalance run clips most of its updates, so it guards the gradient
norm's bits; in the other runs clipping never fires.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from a3ctp import ModelConfig, RunConfig, evaluate, init_model, run_experiment  # noqa: E402
from a3ctp.envs import make_env  # noqa: E402

GRIDGOAL_SOLVE = dict(env="gridgoal", env_size=8, workers=1, episode_budget=1000,
                      early_stop_reward=0.9)

# name -> (RunConfig fields, (metrics.csv, final.ckpt) sha256 prefixes)
REFERENCES = {
    "gridgoal-solve-seed0": (dict(GRIDGOAL_SOLVE, seed=0), ("e5dc0e81", "a95bda63")),
    "gridgoal-solve-seed1": (dict(GRIDGOAL_SOLVE, seed=1), ("37514b19", "3d55cc0d")),
    "gridgoal-solve-a3c": (dict(GRIDGOAL_SOLVE, seed=0, algorithm="a3c"),
                           ("0c7f75b0", "96e3cd77")),
    "minibomber-static": (dict(env="minibomber-static", workers=1, seed=0, episode_budget=60),
                          ("b8d21cd4", "24a645b3")),
    "minibomber-rulebased": (dict(env="minibomber-rulebased", workers=1, seed=0,
                                  episode_budget=20, env_max_steps=200),
                             ("cf366e14", "828d0fab")),
    "minibomber-static-6x6": (dict(env="minibomber-static", env_size=6, workers=1, seed=1,
                                   episode_budget=30),
                              ("ca284d82", "510ebaeb")),
    "minibomber-static-2w": (dict(env="minibomber-static", workers=2, seed=1, episode_budget=40,
                                  checkpoint_cadence=10),
                             ("d1d197e2", "88655fa6")),
    "polebalance": (dict(env="polebalance", workers=1, seed=0, episode_budget=300),
                    ("ba43284d", "f35b30af")),
}


# The sha256 prefixes of gridgoal_eval_digest on the gridgoal-solve-seed0
# run's final.ckpt and of bomber_replay_digest.
GRIDGOAL_EVAL_REFERENCE = "c626d11b"
BOMBER_REPLAYS_REFERENCE = "d5870ec3"


def _prefix(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:8]


def run_digests(fields: dict, out_dir: str) -> tuple[str, str]:
    """Train one run into out_dir; returns its (metrics.csv, final.ckpt)
    sha256 prefixes."""
    run_dir = run_experiment(RunConfig(out_dir=out_dir, **fields))
    return (_prefix(os.path.join(run_dir, "metrics.csv")),
            _prefix(os.path.join(run_dir, "checkpoints", "final.ckpt")))


def gridgoal_eval_digest(ckpt: str) -> str:
    """sha256 prefix of the reprs of the EvalReports of ckpt on gridgoal 8x8:
    50 sampled episodes at each of the seeds 10000-10003."""
    reports = [evaluate(ckpt, "gridgoal", 50, seed, env_kwargs={"size": 8})
               for seed in range(10_000, 10_004)]
    return hashlib.sha256(repr(reports).encode()).hexdigest()[:8]


def bomber_replay_digest(out_dir: str) -> str:
    """sha256 prefix of every replay file, in seed and then file-name order,
    of a minibomber-rulebased evaluation (25 sampled episodes at each of the
    seeds 0-5) of the default network's init_model seeded with 0."""
    spec = make_env("minibomber-rulebased").spec()
    cfg = ModelConfig(spec.obs_dim, spec.n_actions, RunConfig().hidden_sizes())
    ckpt = os.path.join(out_dir, "init.ckpt")
    os.makedirs(out_dir)
    init_model(cfg, np.random.default_rng(0)).save(ckpt)
    digest = hashlib.sha256()
    for seed in range(6):
        replay_dir = os.path.join(out_dir, f"replays{seed}")
        evaluate(ckpt, "minibomber-rulebased", 25, seed, replay_dir=replay_dir)
        for name in sorted(os.listdir(replay_dir)):
            with open(os.path.join(replay_dir, name), "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:8]


def main() -> int:
    failed = []

    def report(name, got, want):
        status = "ok" if got == want else f"MISMATCH (reference {' '.join(want)})"
        print(f"{name} {' '.join(got)} {status}", flush=True)
        if got != want:
            failed.append(name)

    with tempfile.TemporaryDirectory() as tmp:
        for name, (fields, want) in REFERENCES.items():
            report(name, run_digests(fields, os.path.join(tmp, name)), want)
        ckpt = os.path.join(tmp, "gridgoal-solve-seed0", "checkpoints", "final.ckpt")
        report("gridgoal-solve-seed0-eval", (gridgoal_eval_digest(ckpt),),
               (GRIDGOAL_EVAL_REFERENCE,))
        report("minibomber-rulebased-replays",
               (bomber_replay_digest(os.path.join(tmp, "bomber-eval")),),
               (BOMBER_REPLAYS_REFERENCE,))
    if failed:
        print(f"differ from their references: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
