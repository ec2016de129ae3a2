"""Episodic environment wrapper around the bomberman board: the learner
controls agent 0, the configured opponent controls agent 1.

Rewards are terminal-only: +1 for a win, -1 for a loss or a timeout tie.
The terminal info dict carries the classified outcome and the episode's
replay record (n, step_cap, seed, actions): the board side and step cap,
the board seed and the list of (learner, opponent) action pairs. It is the
tuple `load_replay` returns and the arguments `save_replay` and
`replay_board` take.
"""

from __future__ import annotations

import numpy as np

from ..base import Environment, EnvSpec
from .board import (
    DEFAULT_STEP_CAP, N_ACTIONS, BomberBoard, classify_outcome, generate_board,
)
from .obs import encode_observation, obs_dim
from .opponents import rulebased_opponent, static_opponent

OPPONENTS = ("static", "rulebased")


class MiniBomber(Environment):
    def __init__(self, n: int = 8, opponent: str = "static",
                 step_cap: int = DEFAULT_STEP_CAP):
        if opponent not in OPPONENTS:
            raise ValueError(f"unknown opponent {opponent!r}")
        self.n = n
        self.opponent = opponent
        self.step_cap = step_cap
        self.board: BomberBoard | None = None
        self.reset_seed: int | None = None
        self.action_log: list[tuple[int, int]] = []

    def spec(self) -> EnvSpec:
        return EnvSpec(f"minibomber-{self.opponent}", obs_dim(self.n),
                       N_ACTIONS, self.step_cap)

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        # A fresh child seed per episode makes each board reconstructible
        # from (seed, action log) alone.
        self.reset_seed = int(rng.integers(0, 2 ** 63 - 1))
        self.board = generate_board(np.random.default_rng(self.reset_seed), n=self.n,
                                    step_cap=self.step_cap)
        self.action_log = []
        return encode_observation(self.board, 0)

    def _opponent_action(self, rng: np.random.Generator) -> int:
        if self.opponent == "static":
            return static_opponent(self.board, 1)
        return rulebased_opponent(self.board, 1, rng)

    def step(self, action: int, rng: np.random.Generator):
        if self.board is None or self.board.done:
            raise RuntimeError("step on terminated episode")
        opp = self._opponent_action(rng)
        self.board.step((int(action), opp))
        self.action_log.append((int(action), opp))
        obs = encode_observation(self.board, 0)
        if self.board.done:
            # The next reset starts a new log, so this one stays as it is.
            info = {"outcome": classify_outcome(self.board),
                    "replay": (self.n, self.step_cap, self.reset_seed, self.action_log)}
            return obs, self.board.terminal_reward(), True, info
        return obs, 0.0, False, {}
