"""Rule-based opponent regression: its action stream and its escape
searches over seeded games are pinned, so a rewrite of its search must
choose exactly the same moves."""

import hashlib

import numpy as np
import pytest

from a3ctp.envs.minibomber.board import RIGHT, UP, generate_board
from a3ctp.envs.minibomber.opponents import _escape_route, danger_map, rulebased_opponent

# sha256 of the opponent's actions, one byte each, over games 0..49 on an
# n x n board in test_action_stream_is_pinned.
ACTION_STREAM_SHA256 = {
    6: "bd5c597c1847c817a1935e3eb09e21c17978c5842a26309a1775dbf0b8e57ee0",
    8: "0ba56f1a875d6b38c48b611f5fe7f8f1ff8b437c9a08239f23471993dfbdddfb",
    10: "dd8aaee7bc7d3fc4e57e3f18b6e3f9da10cad1036a29b83493ed1aa851186b64",
}

# sha256 of every `_escape_route` result, as its moves' bytes then b"|",
# over games 0..299 in test_escape_routes_are_pinned.
ESCAPE_ROUTES_SHA256 = "e57db38f447853418b80d87e554f5a6b36fd45eafa3913d9b947dc8bd97b0603"


@pytest.mark.parametrize("n", sorted(ACTION_STREAM_SHA256))
def test_action_stream_is_pinned(n):
    # A move (actions 1-4) made off the danger map comes from rule (3),
    # the approach search, so the floor shows that rule is exercised.
    digest = hashlib.sha256()
    approach_moves = 0
    for game in range(50):
        board = generate_board(np.random.default_rng(game), n=n)
        learner = np.random.default_rng(1000 + game)
        opponent_rng = np.random.default_rng(2000 + game)
        while not board.done:
            safe = board.agents[1].pos not in danger_map(board)
            action = rulebased_opponent(board, 1, opponent_rng)
            approach_moves += safe and UP <= action <= RIGHT
            digest.update(bytes([action]))
            board.step((int(learner.integers(0, 6)), action))
    assert approach_moves >= 400
    assert digest.hexdigest() == ACTION_STREAM_SHA256[n]


def test_escape_routes_are_pinned():
    # Before each step, each live agent searches twice: on the board's
    # danger map, and on that map plus its own blast at timer 10, the map
    # _bomb_pays searches. Most of these searches return a route and many
    # return several moves, so the order is pinned too.
    digest = hashlib.sha256()
    routes = 0
    for game in range(300):
        board = generate_board(np.random.default_rng(game), n=(6, 8, 10)[game % 3])
        learner = np.random.default_rng(10_000 + game)
        opponent_rng = np.random.default_rng(20_000 + game)
        while not board.done:
            danger = danger_map(board)
            for aid, me in enumerate(board.agents):
                if not me.alive:
                    continue
                with_mine = dict(danger)
                for cell in board.blast_cells(me.row, me.col, me.blast_radius):
                    with_mine[cell] = min(with_mine.get(cell, 10 ** 9), 10)
                for d in (danger, with_mine):
                    route = _escape_route(board, aid, d)
                    routes += bool(route)
                    digest.update(bytes(route) + b"|")
            action = rulebased_opponent(board, 1, opponent_rng)
            board.step((int(learner.integers(0, 6)), action))
    assert routes >= 20_000
    assert digest.hexdigest() == ESCAPE_ROUTES_SHA256
