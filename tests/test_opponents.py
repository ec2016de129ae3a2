"""Rule-based opponent regression: its action stream over seeded games is
pinned, so a rewrite of its search must choose exactly the same moves."""

import hashlib

import numpy as np

from a3ctp.envs.minibomber.board import generate_board
from a3ctp.envs.minibomber.opponents import rulebased_opponent

# sha256 of the opponent's actions, one byte each, over games 0..49 below.
ACTION_STREAM_SHA256 = "0ba56f1a875d6b38c48b611f5fe7f8f1ff8b437c9a08239f23471993dfbdddfb"


def test_action_stream_is_pinned():
    digest = hashlib.sha256()
    for game in range(50):
        board = generate_board(np.random.default_rng(game))
        learner = np.random.default_rng(1000 + game)
        opponent_rng = np.random.default_rng(2000 + game)
        while not board.done:
            action = rulebased_opponent(board, 1, opponent_rng)
            digest.update(bytes([action]))
            board.step((int(learner.integers(0, 6)), action))
    assert digest.hexdigest() == ACTION_STREAM_SHA256
