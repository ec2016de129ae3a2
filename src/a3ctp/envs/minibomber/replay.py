"""Replay files: an episode is fully determined by the board seed and the
two agents' action streams, so re-simulation is bit-exact.

File format (text):
    minibomber-replay v1
    n <board size>
    cap <step cap>
    seed <board seed>
    <learner action> <opponent action>     (one line per step)
    end

load_replay reads exactly this layout and raises ValueError on anything
else (see docs/formats.md).
"""

from __future__ import annotations

import numpy as np

from .board import N_ACTIONS, BomberBoard, generate_board


def save_replay(path, n: int, step_cap: int, seed: int,
                actions: list[tuple[int, int]]) -> None:
    lines = ["minibomber-replay v1", f"n {n}", f"cap {step_cap}", f"seed {seed}"]
    lines += [f"{a} {b}" for a, b in actions]
    lines.append("end")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_replay(path) -> tuple[int, int, int, list[tuple[int, int]]]:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != "minibomber-replay v1":
        raise ValueError(f"{path}: not a replay file")
    if "end" not in lines[4:]:
        raise ValueError(f"{path}: no end line (truncated replay)")
    end = lines.index("end", 4)
    if end != len(lines) - 1:
        raise ValueError(f"{path}: {len(lines) - 1 - end} line(s) after end")
    header = [line.split(" ") for line in lines[1:4]]
    if ([p[0] for p in header] != ["n", "cap", "seed"]
            or not all(len(p) == 2 and p[1].isdigit() for p in header)):
        raise ValueError(f"{path}: header is not n, cap, seed lines: {lines[1:4]!r}")
    actions = []
    for line in lines[4:end]:
        pair = line.split(" ")
        if len(pair) != 2 or not all(a.isdigit() and int(a) < N_ACTIONS for a in pair):
            raise ValueError(f"{path}: bad action line {line!r}")
        actions.append((int(pair[0]), int(pair[1])))
    n, cap, seed = (int(p[1]) for p in header)
    return n, cap, seed, actions


def replay_board(n: int, step_cap: int, seed: int,
                 actions: list[tuple[int, int]]) -> BomberBoard:
    """Re-simulate a recorded episode and return the final board."""
    board = generate_board(np.random.default_rng(seed), n=n, step_cap=step_cap)
    for pair in actions:
        board.step(pair)
    return board
