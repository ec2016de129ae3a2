"""Train a fixed table of runs and check that each reproduces its reference
bits: the sha256 prefixes of its `metrics.csv` and `final.ckpt`.

Usage: python3 tools/references.py

Prints one "name metrics-prefix checkpoint-prefix ok|MISMATCH" line per
run, and exits 1 naming every run whose digests differ from its reference.
The references were taken with one OpenBLAS thread, so the tool sets
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

from a3ctp import RunConfig, run_experiment  # noqa: E402

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
    "minibomber-static-2w": (dict(env="minibomber-static", workers=2, seed=1, episode_budget=40,
                                  checkpoint_cadence=10),
                             ("d1d197e2", "88655fa6")),
    "polebalance": (dict(env="polebalance", workers=1, seed=0, episode_budget=300),
                    ("ba43284d", "f35b30af")),
}


def _prefix(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:8]


def run_digests(fields: dict, out_dir: str) -> tuple[str, str]:
    """Train one run into out_dir; returns its (metrics.csv, final.ckpt)
    sha256 prefixes."""
    run_dir = run_experiment(RunConfig(out_dir=out_dir, **fields))
    return (_prefix(os.path.join(run_dir, "metrics.csv")),
            _prefix(os.path.join(run_dir, "checkpoints", "final.ckpt")))


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (fields, want) in REFERENCES.items():
            got = run_digests(fields, os.path.join(tmp, name))
            status = "ok" if got == want else f"MISMATCH (reference {want[0]} {want[1]})"
            print(f"{name} {got[0]} {got[1]} {status}", flush=True)
            if got != want:
                failed.append(name)
    if failed:
        print(f"differ from their references: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
