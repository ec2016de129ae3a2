"""Stand-in environment tests: GridGoal and PoleBalance contracts."""

import numpy as np
import pytest

from a3ctp.envs import make_env
from a3ctp.envs.gridgoal import GridGoal
from a3ctp.envs.polebalance import PoleBalance


class TestGridGoal:
    def test_spec(self):
        env = GridGoal(8)
        spec = env.spec()
        assert spec.obs_dim == 64 and spec.n_actions == 4
        assert spec.max_steps == 256

    def test_reward_is_binary_per_episode(self):
        env = GridGoal(4, max_steps=30)
        rng = np.random.default_rng(0)
        for _ in range(20):
            env.reset(rng)
            total, done = 0.0, False
            while not done:
                _, r, done, _ = env.step(int(rng.integers(0, 4)), rng)
                total += r
            assert total in (0.0, 1.0)

    def test_optimal_path_length_is_manhattan_distance(self):
        env = GridGoal(5)
        rng = np.random.default_rng(0)
        env.reset(rng)
        steps = 0
        done = False
        # alternate down/right: 8 moves for a 5x5 grid
        moves = [1, 3] * 4
        for a in moves:
            assert not done
            _, r, done, _ = env.step(a, rng)
            steps += 1
        assert done and r == 1.0
        assert steps == (5 - 1) + (5 - 1)

    def test_walls_bounce(self):
        env = GridGoal(3)
        rng = np.random.default_rng(0)
        obs0 = env.reset(rng)
        obs1, _, _, _ = env.step(0, rng)  # up from (0,0) bounces
        assert np.array_equal(obs0, obs1)

    def test_step_cap_terminates_without_reward(self):
        env = GridGoal(8, max_steps=5)
        rng = np.random.default_rng(0)
        env.reset(rng)
        for _ in range(5):
            _, r, done, _ = env.step(0, rng)
        assert done and r == 0.0

    def test_invalid_action_rejected(self):
        env = GridGoal(3)
        rng = np.random.default_rng(0)
        env.reset(rng)
        with pytest.raises(IndexError):
            env.step(4, rng)


class TestPoleBalance:
    def test_spec(self):
        spec = PoleBalance(200).spec()
        assert spec.obs_dim == 4 and spec.n_actions == 2 and spec.max_steps == 200

    def test_reward_per_surviving_step(self):
        env = PoleBalance(200)
        rng = np.random.default_rng(1)
        env.reset(rng)
        total, done, steps = 0.0, False, 0
        while not done:
            _, r, done, _ = env.step(int(rng.integers(0, 2)), rng)
            total += r
            steps += 1
        assert total == steps

    def test_terminal_iff_bounds_or_cap(self):
        env = PoleBalance(10)
        rng = np.random.default_rng(2)
        env.reset(rng)
        done, steps = False, 0
        while not done:
            state, _, done, _ = env.step(1, rng)  # constant push destabilizes
            steps += 1
        out_of_bounds = abs(state[0]) > 2.4 or abs(state[2]) > 12 * np.pi / 180
        assert out_of_bounds or steps == 10

    def test_euler_update_matches_hand_computation(self):
        env = PoleBalance()
        rng = np.random.default_rng(3)
        env.reset(rng)
        x, xd, th, thd = env.state
        state, _, _, _ = env.step(1, rng)
        # position and angle integrate the *old* velocities
        assert np.isclose(state[0], x + 0.02 * xd)
        assert np.isclose(state[2], th + 0.02 * thd)

    def test_same_seed_same_trajectory(self):
        def run(seed):
            env = PoleBalance()
            rng = np.random.default_rng(seed)
            obs = env.reset(rng)
            traj = [obs]
            done = False
            while not done:
                obs, _, done, _ = env.step(int(rng.integers(0, 2)), rng)
                traj.append(obs)
            return np.vstack(traj)

        assert np.array_equal(run(7), run(7))


class TestMakeEnv:
    def test_names(self):
        assert make_env("gridgoal", size=6).spec().name == "gridgoal"
        assert make_env("polebalance").spec().name == "polebalance"
        assert make_env("minibomber-static").spec().name == "minibomber-static"
        assert make_env("minibomber-rulebased", size=6).spec().obs_dim == 22 * 36

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_env("atari")

    @pytest.mark.parametrize("name", ["gridgoal", "polebalance", "minibomber-static"])
    @pytest.mark.parametrize("size", [0, -3, 1])
    def test_size_below_one_rejected(self, name, size):
        # A side of 1 is rejected too: both minibomber agents would spawn
        # on one cell, and the gridgoal start would be its goal.
        with pytest.raises(ValueError, match="size must be at least 2"):
            make_env(name, size=size)

    @pytest.mark.parametrize("name, default", [
        ("gridgoal", 4 * 5 * 5), ("polebalance", 200), ("minibomber-static", 800)])
    def test_max_steps_zero_or_absent_is_the_env_default(self, name, default):
        assert make_env(name, size=5).spec().max_steps == default
        assert make_env(name, size=5, max_steps=0).spec().max_steps == default
        assert make_env(name, size=5, max_steps=7).spec().max_steps == 7

    def test_negative_max_steps_rejected(self):
        with pytest.raises(ValueError, match="max_steps must be nonnegative"):
            make_env("polebalance", max_steps=-1)
