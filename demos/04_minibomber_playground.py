"""Poke at the two-agent bomberman board directly: generate a board, render
it as text, let the rule-based bot play against the static one, and replay
the episode bit-exactly from its action record."""

import numpy as np

from a3ctp.envs.minibomber.board import (
    STAY, board_to_text, classify_outcome, generate_board,
)
from a3ctp.envs.minibomber.env import MiniBomber
from a3ctp.envs.minibomber.opponents import rulebased_opponent
from a3ctp.envs.minibomber.replay import replay_board

rng = np.random.default_rng(7)
board = generate_board(rng)
print("generated 8x8 board (#=rigid, +=wood; agents and hidden "
      "power-ups listed below the grid):")
print(board_to_text(board))

# rule-based agent 0 vs static agent 1, raw board interface
while not board.done:
    a0 = rulebased_opponent(board, 0, rng)
    board.step((a0, STAY))
outcome = classify_outcome(board)
print(f"rule-based vs static: {outcome.result} by {outcome.cause} "
      f"after {board.step_count} steps")

# the gym-style wrapper records everything needed for an exact replay
env = MiniBomber(8, opponent="rulebased")
rng = np.random.default_rng(3)
obs = env.reset(rng)
print("observation vector length:", obs.shape[0], "(22 channels x 64 cells)")
done, info = False, {}
while not done:
    obs, reward, done, info = env.step(int(rng.integers(0, 6)), rng)
print(f"random learner vs rule-based: reward {reward}, "
      f"{info['outcome'].result} by {info['outcome'].cause}")

final = replay_board(*info["replay"])
print("replay reproduces the final board bit-exactly:",
      board_to_text(final) == board_to_text(env.board))
