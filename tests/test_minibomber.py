"""MiniBomber tests: scripted dynamics traces, board generation, the
22-channel observation encoding, opponents, serialization, and replays."""

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
        # never stays on a cell lethal next step when a safe neighbor exists
        for seed in range(30):
            rng = np.random.default_rng(seed)
            b = generate_board(rng)
            for _ in range(60):
                if b.done:
                    break
                a1 = rulebased_opponent(b, 1, rng)
                me = b.agents[1]
                danger = danger_map(b)
                lethal_now = danger.get(me.pos, 99) <= 1
                if lethal_now and a1 == STAY:
                    assert not _safe_neighbors(b, 1, danger)
                b.step((STAY, a1))


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

    def test_replay_bit_exact(self, tmp_path):
        env = MiniBomber(8, opponent="rulebased", record_actions=True)
        rng = np.random.default_rng(11)
        env.reset(rng)
        done = False
        info = {}
        while not done:
            _, _, done, info = env.step(int(rng.integers(0, 6)), rng)
        seed, actions = info["replay"]
        path = tmp_path / "ep.replay"
        save_replay(path, 8, 800, seed, actions)
        n, cap, seed2, actions2 = load_replay(path)
        assert (n, cap, seed2, actions2) == (8, 800, seed, actions)
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

    def test_reset_determinism_through_worker_rng(self):
        def run(seed):
            env = MiniBomber(8, opponent="static")
            rng = np.random.default_rng(seed)
            env.reset(rng)
            return board_to_text(env.board)
        assert run(4) == run(4)
        assert run(4) != run(5)
