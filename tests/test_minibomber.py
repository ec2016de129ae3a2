"""MiniBomber tests: scripted dynamics traces, board generation, the
22-channel observation encoding, opponents, serialization, and replays."""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a3ctp.envs.minibomber.board import (
    BOMB, DOWN, LEFT, MOVE_DELTAS, PASSAGE, RIGHT, RIGID, STAY, UP, WOOD,
    AgentState, Bomb, BomberBoard, Flame, KICK,
    board_from_text, board_to_text, classify_outcome, generate_board, _connected,
)
from a3ctp.envs.minibomber.env import MiniBomber
from a3ctp.envs.minibomber.obs import N_CHANNELS, encode_observation, obs_dim
from a3ctp.envs.minibomber.opponents import (
    danger_map, dijkstra, rulebased_opponent, static_opponent,
)
from a3ctp.envs.minibomber.replay import load_replay, replay_board, save_replay

from minibomber_traces import TRACES, _safe_neighbors, empty_board


@pytest.mark.parametrize("trace", TRACES, ids=lambda t: t.__name__)
def test_dynamics_trace(trace):
    trace()


# sha256 of board_to_text after every step, and of each final outcome and
# killers, over the 300 games of _play_pinned_games.
DYNAMICS_SHA256 = "3cedd33bb072d5c60aaea082d6f7315edc0b5712a2dab48a5c35acb26a252818"


def _play_pinned_games(games=300):
    """Random play on 6x6, 8x8 and 10x10 boards with three step caps; on odd
    games both agents start able to kick, with three bombs each. Returns the
    digest and a tally of chain steps (a bomb goes off before its timer
    runs out), kick steps (a bomb moves) and outcome causes."""
    digest = hashlib.sha256()
    seen = Counter()
    for game in range(games):
        rng = np.random.default_rng(game)
        board = generate_board(rng, n=(6, 8, 10)[game % 3], step_cap=(20, 60, 150)[game % 5 % 3])
        if game % 2:
            for agent in board.agents:
                agent.can_kick, agent.ammo = True, 3
        while not board.done:
            before = {id(x): (x.timer, x.row, x.col) for x in board.bombs}
            board.step((int(rng.integers(0, 6)), int(rng.integers(0, 6))))
            after = {id(x): (x.row, x.col) for x in board.bombs}
            seen["chain"] += any(t > 1 and k not in after for k, (t, _, _) in before.items())
            seen["kick"] += any(after.get(k, (r, c)) != (r, c) for k, (_, r, c) in before.items())
            digest.update(board_to_text(board).encode())
        outcome = classify_outcome(board)
        seen[outcome.cause] += 1
        digest.update(f"{outcome.result} {outcome.cause} {board.killers}\n".encode())
    return digest.hexdigest(), seen


def test_dynamics_are_pinned():
    digest, seen = _play_pinned_games()
    assert seen["chain"] >= 50 and seen["kick"] >= 30
    assert all(seen[cause] > 0 for cause in ("timeout", "our-suicide", "opponent-suicide",
                                             "enemy-killed-by-our-bomb", "killed-by-enemy"))
    assert digest == DYNAMICS_SHA256


class TestGeneration:
    def test_connectivity_always_holds(self):
        for seed in range(100):
            b = generate_board(np.random.default_rng(seed))
            assert _connected(b.grid, b.agents[0].pos, b.agents[1].pos)

    def test_agents_always_on_distinct_corners(self):
        corners = {(0, 0), (0, 7), (7, 0), (7, 7)}
        for seed in range(200):
            b = generate_board(np.random.default_rng(seed))
            assert b.agents[0].pos in corners
            assert b.agents[1].pos in corners
            assert b.agents[0].pos != b.agents[1].pos

    def test_same_seed_identical_boards(self):
        a = generate_board(np.random.default_rng(5))
        b = generate_board(np.random.default_rng(5))
        assert board_to_text(a) == board_to_text(b)

    def test_initial_loadout(self):
        b = generate_board(np.random.default_rng(0))
        for a in b.agents:
            assert a.ammo == 1 and a.blast_radius == 2 and not a.can_kick

    def test_six_by_six_supported(self):
        b = generate_board(np.random.default_rng(0), n=6)
        assert b.n == 6 and b.grid.shape == (6, 6)

    def test_side_of_one_rejected(self):
        # Both agents would spawn on (0, 0).
        for make in (lambda: generate_board(np.random.default_rng(0), n=1),
                     lambda: BomberBoard(1), lambda: replay_board(1, 800, 0, [])):
            with pytest.raises(ValueError, match="at least 2"):
                make()

    @pytest.mark.parametrize("n", [1, 0, -2])
    @pytest.mark.parametrize("make", [lambda n: generate_board(np.random.default_rng(0), n=n),
                                      lambda n: replay_board(n, 800, 0, [])],
                             ids=["generate_board", "replay_board"])
    def test_side_below_two_names_the_side(self, make, n):
        with pytest.raises(ValueError, match=f"board side must be at least 2, not {n}$"):
            make(n)


class TestInvariants:
    def _random_episode(self, seed, steps=150):
        rng = np.random.default_rng(seed)
        b = generate_board(rng)
        wood_counts, rigid_counts = [], []
        for _ in range(steps):
            if b.done:
                break
            timers_before = {id(x): x.timer for x in b.bombs}
            b.step((int(rng.integers(0, 6)), int(rng.integers(0, 6))))
            for x in b.bombs:
                if id(x) in timers_before and not x.just_placed:
                    assert x.timer == timers_before[id(x)] - 1
                assert 1 <= x.timer <= 10
            for f in b.flames:
                assert 1 <= f.life <= 2
            wood_counts.append(int(np.sum(b.grid == WOOD)))
            rigid_counts.append(int(np.sum(b.grid == RIGID)))
            for a in b.agents:
                assert b.grid[a.row, a.col] != RIGID
        assert all(x >= y for x, y in zip(wood_counts, wood_counts[1:]))
        assert len(set(rigid_counts)) <= 1

    @pytest.mark.parametrize("seed", range(10))
    def test_timer_flame_and_terrain_invariants(self, seed):
        self._random_episode(seed)

    def test_nonterminal_rewards_are_zero(self):
        env = MiniBomber(8, opponent="static")
        rng = np.random.default_rng(0)
        env.reset(rng)
        done = False
        while not done:
            _, r, done, _ = env.step(int(rng.integers(0, 6)), rng)
            if not done:
                assert r == 0.0
        assert r in (1.0, -1.0)

    def test_outcome_requires_terminal_board(self):
        b = empty_board()
        with pytest.raises(RuntimeError):
            classify_outcome(b)


class TestCellRules:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 12))
    def test_neighbors_are_the_in_bounds_move_deltas_in_order(self, n):
        b = BomberBoard(n)
        for r in range(n):
            for c in range(n):
                expect = [(action, (r + dr, c + dc)) for action, (dr, dc) in MOVE_DELTAS.items()
                          if 0 <= r + dr < n and 0 <= c + dc < n]
                assert list(b.neighbors(r, c)) == expect

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 10), steps=st.integers(0, 40))
    def test_open_cell_is_in_bounds_passage_without_bomb(self, seed, n, steps):
        rng = np.random.default_rng(seed)
        b = generate_board(rng, n=n)
        for _ in range(steps):
            if b.done:
                break
            b.step((int(rng.integers(0, 6)), int(rng.integers(0, 6))))
        bombs = {(x.row, x.col) for x in b.bombs}
        for r in range(-1, n + 1):
            for c in range(-1, n + 1):
                inside = 0 <= r < n and 0 <= c < n
                expect = inside and b.grid[r, c] == PASSAGE and (r, c) not in bombs
                assert b.open_cell(r, c) == expect


class TestObservation:
    def test_shape(self):
        b = empty_board()
        assert encode_observation(b).shape == (obs_dim(8),)
        assert obs_dim(8) == 22 * 64

    def test_empty_board_channels(self):
        b = empty_board()
        ch = encode_observation(b).reshape(N_CHANNELS, 8, 8)
        assert np.all(ch[0] == 1.0)           # all passage
        assert np.all(ch[1] == 0) and np.all(ch[2] == 0)
        for k in range(3, 11):                # entity channels empty
            assert np.all(ch[k] == 0)
        assert np.all(ch[13] == 1 / 5)        # base ammo
        assert np.all(ch[14] == 2 / 10)       # base radius
        assert np.all(ch[15] == 0)            # no kick
        assert np.all(ch[20] == 1.0) and np.all(ch[21] == 0.0)

    def test_agent_position_channels_one_hot(self):
        b = empty_board(a0=(2, 3), a1=(5, 6))
        ch = encode_observation(b, 0).reshape(N_CHANNELS, 8, 8)
        assert ch[11].sum() == 1.0 and ch[11][2, 3] == 1.0
        assert ch[12].sum() == 1.0 and ch[12][5, 6] == 1.0
        # perspective swap
        ch1 = encode_observation(b, 1).reshape(N_CHANNELS, 8, 8)
        assert ch1[11][5, 6] == 1.0 and ch1[12][2, 3] == 1.0

    def test_bomb_life_channel_fraction(self):
        b = empty_board()
        b.bombs.append(Bomb(4, 4, 0, 7, 3))
        ch = encode_observation(b).reshape(N_CHANNELS, 8, 8)
        assert ch[6][4, 4] == 1.0
        assert ch[7][4, 4] == 0.3
        assert ch[8][4, 4] == 0.7

    def test_flame_channels(self):
        b = empty_board()
        b.flames.append(Flame(1, 1, 1, {0}))
        ch = encode_observation(b).reshape(N_CHANNELS, 8, 8)
        assert ch[9][1, 1] == 1.0 and ch[10][1, 1] == 0.5

    def test_injective_on_encoded_fields(self):
        base = empty_board()
        variants = []
        b = empty_board(); b.grid[3, 3] = WOOD; variants.append(b)
        b = empty_board(); b.grid[3, 3] = RIGID; variants.append(b)
        b = empty_board(); b.bombs.append(Bomb(3, 3, 0, 5, 2)); variants.append(b)
        b = empty_board(); b.flames.append(Flame(3, 3, 2, {0})); variants.append(b)
        b = empty_board(); b.visible_powerup[3, 3] = KICK; variants.append(b)
        b = empty_board(a0=(1, 0)); variants.append(b)
        b = empty_board(); b.agents[0].ammo = 2; variants.append(b)
        b = empty_board(); b.agents[1].can_kick = True; variants.append(b)
        b = empty_board(); b.step_count = 5; variants.append(b)
        ref = encode_observation(base)
        seen = [ref]
        for v in variants:
            enc = encode_observation(v)
            for other in seen:
                assert not np.array_equal(enc, other)
            seen.append(enc)


class TestStaticOpponent:
    def test_always_stays(self):
        rng = np.random.default_rng(0)
        for seed in range(100):
            b = generate_board(np.random.default_rng(seed))
            assert static_opponent(b, 1) == STAY
        # even with incoming flames
        b = empty_board()
        b.flames.append(Flame(7, 6, 2, {0}))
        assert static_opponent(b, 1) == STAY


class TestRuleBasedOpponent:
    def test_flees_imminent_detonation(self):
        # bomb about to blow next to the agent, exactly one safe neighbor
        b = empty_board(a0=(0, 0), a1=(7, 7))
        b.bombs.append(Bomb(7, 6, 0, 1, 2))
        # blast covers (7,4)..(7,7) and (5,6),(6,6); (6,7) is safe
        danger = danger_map(b)
        assert (7, 7) in danger
        assert (6, 7) not in danger
        action = rulebased_opponent(b, 1, np.random.default_rng(0))
        assert action == UP  # only safe move

    def test_places_bomb_when_enemy_in_range_with_retreat(self):
        b = empty_board(a0=(7, 5), a1=(7, 7))
        action = rulebased_opponent(b, 1, np.random.default_rng(0))
        assert action == BOMB

    def test_no_bomb_without_safe_retreat(self):
        # boxed in: bombing would cover the only escape
        b = empty_board(a0=(7, 5), a1=(7, 7))
        b.grid[6, 7] = RIGID
        b.grid[6, 6] = RIGID
        b.grid[7, 4] = RIGID
        # retreat cells (7,6),(7,5 occupied by enemy)... all in own blast
        action = rulebased_opponent(b, 1, np.random.default_rng(0))
        assert action != BOMB

    def test_first_move_follows_shortest_path_to_powerup(self):
        b = empty_board(a0=(0, 0), a1=(7, 7))
        b.visible_powerup[7, 0] = KICK
        dist = dijkstra(b, (7, 7))
        assert dist[(7, 0)] == 7
        action = rulebased_opponent(b, 1, np.random.default_rng(0))
        assert action == LEFT  # the unique shortest-path direction along row 7

    def test_avoids_standing_in_danger_over_many_boards(self):
        # Every sixth step a bomb about to go off is put next to the
        # opponent, so it often stands on a cell lethal next step; there it
        # must step onto a safe neighbour whenever one exists.
        lethal = escapable = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            b = generate_board(rng)
            for step in range(60):
                if b.done:
                    break
                me = b.agents[1]
                spots = [cell for _, cell in b.neighbors(*me.pos)
                         if b.open_cell(*cell) and b.agent_at(*cell) is None]
                if step % 6 == 0 and spots:
                    b.bombs.append(Bomb(*spots[rng.integers(len(spots))], 0, 1, 2))
                a1 = rulebased_opponent(b, 1, rng)
                danger = danger_map(b)
                if danger.get(me.pos, 99) <= 1:
                    lethal += 1
                    safe = _safe_neighbors(b, 1, danger)
                    escapable += bool(safe)
                    assert not safe or a1 in safe
                b.step((int(rng.integers(0, 6)), a1))
        # The check bites only if such states occur; these floors keep it so.
        assert lethal >= 50 and escapable >= 30


BOARD_TEXT = """minibomber v2 n=4 step=3 cap=800 killers=-,-
....
.#+.
....
....
agent 0 0 0 alive=1 ammo=0 radius=2 kick=0
agent 1 3 3 alive=1 ammo=1 radius=2 kick=1
bomb 0 1 owner=0 timer=7 radius=2 dir=0,1
flame 2 2 life=2 owners=0,1
powerup 3 0 kind=3
hidden 1 2 kind=2
end
"""

# One case per rejection in docs/formats.md: test id -> (old, new), a
# replacement in BOARD_TEXT that makes it malformed.
BOARD_TEXT_REJECTIONS = {
    "header-missing-key": (" cap=800", ""),
    "header-extra-key": ("killers=-,-", "killers=-,- seed=3"),
    "header-not-an-int": ("step=3", "step=three"),
    "n-below-one": ("n=4", "n=0"),
    # The whole text: a well-formed board of side 1, both agents on one cell.
    "side-of-one": (BOARD_TEXT, "minibomber v2 n=1 step=0 cap=800 killers=-,-\n.\n"
                                "agent 0 0 0 alive=1 ammo=1 radius=2 kick=0\n"
                                "agent 1 0 0 alive=1 ammo=1 radius=2 kick=0\nend\n"),
    "killers-of-one-agent": ("killers=-,-", "killers=-"),
    "killer-not-an-agent": ("killers=-,-", "killers=-,2"),
    "too-few-rows": ("....\nagent 0", "agent 0"),
    "short-row": (".#+.\n", ".#+\n"),
    "long-row": (".#+.\n", ".#+..\n"),
    "unknown-cell-char": (".#+.\n", ".#x.\n"),
    "one-agent": ("agent 1 3 3 alive=1 ammo=1 radius=2 kick=1\n", ""),
    "three-agents": ("end\n", "agent 2 1 1 alive=1 ammo=1 radius=2 kick=0\nend\n"),
    "agents-out-of-order": ("agent 0 0 0", "agent 1 0 0"),
    "unknown-tag": ("end\n", "wall 1 1 kind=1\nend\n"),
    "blank-line": ("end\n", "\nend\n"),
    "missing-end": ("end\n", ""),
    "line-after-end": ("end\n", "end\nflame 0 0 life=1 owners=0\n"),
    "bomb-off-the-board": ("bomb 0 1", "bomb 9 9"),
    "flame-off-the-board": ("flame 2 2", "flame -1 2"),
    "missing-field": (" timer=7", ""),
    "field-without-value": ("timer=7", "timer"),
    "fields-out-of-order": ("timer=7 radius=2", "radius=2 timer=7"),
    "missing-cell": ("powerup 3 0", "powerup 3"),
    "value-not-an-int": ("timer=7", "timer=x"),
    "bad-direction": ("dir=0,1", "dir=1"),
    "bomb-owner-not-an-agent": ("owner=0", "owner=2"),
    "flame-owner-not-an-agent": ("owners=0,1", "owners=0,3"),
    "powerup-kind-unknown": ("kind=3", "kind=4"),
}


class TestSerialization:
    def test_text_roundtrip(self):
        rng = np.random.default_rng(3)
        b = generate_board(rng)
        b.step((BOMB, STAY))
        b.step((DOWN, STAY))
        b.flames.append(Flame(4, 4, 2, {0, 1}))
        text = board_to_text(b)
        restored = board_from_text(text)
        assert board_to_text(restored) == text

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_outcome_survives_text_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        b = generate_board(rng)
        while not b.done:
            b.step((int(rng.integers(0, 6)), int(rng.integers(0, 6))))
        restored = board_from_text(board_to_text(b))
        assert restored.killers == b.killers
        assert classify_outcome(restored) == classify_outcome(b)

    def test_v1_text_still_reads_without_killers(self):
        b = generate_board(np.random.default_rng(4))
        b.step((BOMB, STAY))
        b.killers = [None, None]
        v2 = board_to_text(b)
        head, rest = v2.split("\n", 1)
        assert head.startswith("minibomber v2 ") and head.endswith(" killers=-,-")
        v1 = head.replace("minibomber v2", "minibomber v1").rsplit(" killers=", 1)[0]
        assert board_to_text(board_from_text(v1 + "\n" + rest)) == v2

    def test_unknown_text_version_rejected(self):
        text = board_to_text(generate_board(np.random.default_rng(5)))
        with pytest.raises(ValueError):
            board_from_text(text.replace("minibomber v2", "minibomber v3", 1))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 10), steps=st.integers(0, 80))
    def test_text_round_trip_after_random_play(self, seed, n, steps):
        rng = np.random.default_rng(seed)
        b = generate_board(rng, n=n)
        if seed % 2:
            for agent in b.agents:
                agent.can_kick, agent.ammo = True, 3
        for _ in range(steps):
            if b.done:
                break
            b.step((int(rng.integers(0, 6)), int(rng.integers(0, 6))))
        text = board_to_text(b)
        assert board_to_text(board_from_text(text)) == text

    def test_reads_every_entity(self):
        b = board_from_text(BOARD_TEXT)
        assert b.grid[1].tolist() == [PASSAGE, RIGID, WOOD, PASSAGE]
        assert [(a.pos, a.ammo, a.can_kick) for a in b.agents] == [((0, 0), 0, False),
                                                                   ((3, 3), 1, True)]
        assert b.bombs == [Bomb(0, 1, 0, 7, 2, (0, 1))]
        assert b.flames == [Flame(2, 2, 2, {0, 1})]
        assert b.visible_powerup[3, 0] == KICK and b.hidden_powerup[1, 2] == 2
        assert board_to_text(b) == BOARD_TEXT

    @pytest.mark.parametrize("old, new", list(BOARD_TEXT_REJECTIONS.values()),
                             ids=list(BOARD_TEXT_REJECTIONS))
    def test_malformed_text_rejected(self, old, new):
        assert old in BOARD_TEXT
        with pytest.raises(ValueError):
            board_from_text(BOARD_TEXT.replace(old, new, 1))

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            board_from_text("")

    def test_replay_bit_exact(self, tmp_path):
        env = MiniBomber(8, opponent="rulebased")
        rng = np.random.default_rng(11)
        env.reset(rng)
        done = False
        info = {}
        while not done:
            _, _, done, info = env.step(int(rng.integers(0, 6)), rng)
        record = info["replay"]
        path = tmp_path / "ep.replay"
        save_replay(path, *record)
        n, cap, seed2, actions2 = load_replay(path)
        assert (n, cap, seed2, actions2) == record and (n, cap) == (8, 800)
        final = replay_board(n, cap, seed2, actions2)
        assert board_to_text(final) == board_to_text(env.board)


class TestEnvWrapper:
    def test_terminal_info_carries_outcome(self):
        env = MiniBomber(8, opponent="static")
        rng = np.random.default_rng(1)
        env.reset(rng)
        # suicide script: drop a bomb, stand still
        _, r, done, info = env.step(BOMB, rng)
        while not done:
            _, r, done, info = env.step(STAY, rng)
        assert r == -1.0
        assert info["outcome"].cause == "our-suicide"
        n, cap, seed, actions = info["replay"]
        assert (n, cap) == (8, env.step_cap)
        assert seed == env.reset_seed and actions[0] == (BOMB, STAY)
        assert len(actions) == env.board.step_count

    def test_reset_determinism_through_worker_rng(self):
        def run(seed):
            env = MiniBomber(8, opponent="static")
            rng = np.random.default_rng(seed)
            env.reset(rng)
            return board_to_text(env.board)
        assert run(4) == run(4)
        assert run(4) != run(5)
