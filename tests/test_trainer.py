"""Trainer tests: rollout collection, gradient updates, the shared
parameter store, and end-to-end determinism of training at any worker
count."""

import contextlib
import dataclasses
import multiprocessing
import os
import signal
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a3ctp import trainer
from a3ctp.envs import make_env
from a3ctp.envs.gridgoal import GridGoal
from a3ctp.losses import EPISODE_LENGTH_WINDOW, LossWeights, TPLabeler
from a3ctp.model import ModelConfig, forward_batch, init_model, sample_action
from a3ctp.nn import AdamState, ParamSet
from a3ctp.trainer import (
    GlobalStore, Rollout, RunConfig, collect_rollout, compute_update, train,
)


class ExitingGrid(GridGoal):
    """Ends its process without a word, as a crashed worker would."""

    def step(self, action, rng):
        os._exit(3)


class StepError(Exception):
    pass


class RaisingGrid(GridGoal):
    def step(self, action, rng):
        raise StepError("kaboom")


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the main thread if the block runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def tiny_model(obs_dim=16, n_actions=4, hidden=(8,)):
    cfg = ModelConfig(obs_dim, n_actions, hidden)
    params = init_model(cfg, np.random.default_rng(0))
    return cfg, params


def make_rollout(T=5, terminal=False, bootstrap=0.0):
    return Rollout(
        obs=np.random.default_rng(7).normal(size=(T, 16)), actions=np.zeros(T, dtype=np.int64),
        rewards=np.ones(T), values=np.zeros(T), step_indices=np.arange(T), terminal=terminal, bootstrap_value=bootstrap,
    )


def train_twice(cfg, env_factory, tmp_path):
    """Two runs of one config: per run, the repr of each metrics row with
    its wall time zeroed, and the bytes of each checkpoint file by name."""
    runs = []
    for i in range(2):
        rows, ckpt_dir = [], tmp_path / f"run{i}"
        train(cfg, env_factory, checkpoint_dir=str(ckpt_dir),
              on_episode=lambda row: rows.append(repr(dataclasses.replace(row, wall_time=0.0))))
        runs.append((rows, {p.name: p.read_bytes() for p in ckpt_dir.iterdir()}))
    return runs


def reference_rollout(params, cfg, env, obs, episode_step, rng, t_max):
    """collect_rollout's loop, acting through forward_batch on a 1-row batch."""
    obs_list, actions, rewards, values, indices = [], [], [], [], []
    done = False
    for _ in range(t_max):
        probs, v, _, _ = forward_batch(params, cfg, obs[None, :])
        action = sample_action(probs[0], rng)
        next_obs, reward, done, _ = env.step(action, rng)
        obs_list.append(obs)
        actions.append(action)
        rewards.append(reward)
        values.append(float(v[0]))
        indices.append(episode_step)
        episode_step += 1
        obs = next_obs
        if done:
            break
    bootstrap = 0.0 if done else float(forward_batch(params, cfg, obs[None, :])[1][0])
    rollout = Rollout(obs=np.array(obs_list), actions=np.array(actions),
                      rewards=np.array(rewards), values=np.array(values),
                      step_indices=np.array(indices), terminal=done, bootstrap_value=bootstrap)
    return rollout, obs, done


class TestRollout:
    def test_terminal_requires_zero_bootstrap(self):
        with pytest.raises(ValueError):
            make_rollout(terminal=True, bootstrap=0.3)
        make_rollout(terminal=True, bootstrap=0.0)  # fine

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_rollout(T=0)


class TestCollectRollout:
    def test_respects_t_max_and_episode_boundary(self):
        cfg, params = tiny_model()
        env = GridGoal(4, max_steps=50)
        rng = np.random.default_rng(0)
        obs = env.reset(rng)
        step = 0
        lengths = []
        done = False
        while not done:
            rollout, obs, done = collect_rollout(params, cfg, env, obs, step,
                                                 rng, t_max=7)
            assert 1 <= len(rollout.actions) <= 7
            assert np.array_equal(rollout.step_indices,
                                  np.arange(step, step + len(rollout.actions)))
            lengths.append(len(rollout.actions))
            step += len(rollout.actions)
        assert rollout.terminal and rollout.bootstrap_value == 0.0
        # every segment but the last is full length
        assert all(x == 7 for x in lengths[:-1])

    def test_nonterminal_bootstraps_from_critic(self):
        cfg, params = tiny_model()
        env = GridGoal(4, max_steps=1000)  # 3 steps can't reach the goal
        rng = np.random.default_rng(1)
        obs = env.reset(rng)
        rollout, _, done = collect_rollout(params, cfg, env, obs, 0, rng, t_max=3)
        assert not done and not rollout.terminal
        assert np.isfinite(rollout.bootstrap_value)

    @pytest.mark.parametrize("make", [lambda: GridGoal(8), lambda: make_env("minibomber-static")],
                             ids=["gridgoal-8", "minibomber-static"])
    def test_matches_a_reference_loop_that_acts_through_forward_batch(self, make):
        env, ref_env = make(), make()
        spec = env.spec()
        cfg = ModelConfig(spec.obs_dim, spec.n_actions, (16, 16))
        params = init_model(cfg, np.random.default_rng(3))
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        obs, ref_obs = env.reset(rng), ref_env.reset(ref_rng)
        step, episodes, segments = 0, 0, 0
        while episodes < 2:
            got = collect_rollout(params, cfg, env, obs, step, rng, t_max=5)
            want = reference_rollout(params, cfg, ref_env, ref_obs, step, ref_rng, t_max=5)
            (rollout, obs, done), (ref, ref_obs, ref_done) = got, want
            for name in ("obs", "actions", "rewards", "values", "step_indices"):
                a, b = getattr(rollout, name), getattr(ref, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert rollout.terminal == ref.terminal and done == ref_done
            assert rollout.bootstrap_value == ref.bootstrap_value
            assert np.array_equal(obs, ref_obs)
            step += len(rollout.actions)
            segments += 1
            if done:
                episodes += 1
                step, obs, ref_obs = 0, env.reset(rng), ref_env.reset(ref_rng)
        assert segments > episodes  # some segments bootstrapped from the critic

    def test_acts_once_per_distinct_observation(self, monkeypatch):
        calls = []
        real_act = trainer.act

        def counting_act(params, cfg, obs):
            calls.append(obs.tobytes())
            return real_act(params, cfg, obs)

        monkeypatch.setattr(trainer, "act", counting_act)
        cfg, params = tiny_model()
        env = GridGoal(4, max_steps=1000)
        rng = np.random.default_rng(6)  # visits 10 cells, in both halves of the grid
        rollout, next_obs, done = collect_rollout(params, cfg, env, env.reset(rng), 0, rng,
                                                  t_max=20)
        seen = [o.tobytes() for o in rollout.obs] + ([] if done else [next_obs.tobytes()])
        assert len(calls) == len(set(seen)) < len(seen)
        assert sorted(calls) == sorted(set(seen))


class TestComputeUpdate:
    def test_no_horizon_disables_tp_term(self):
        cfg, params = tiny_model()
        r = make_rollout()
        w = LossWeights()
        g_none, g_off = params.zeros_like(), params.zeros_like()
        parts_none = compute_update(r, params, cfg, w, horizon=None, grads=g_none)
        parts_off = compute_update(r, params, cfg, LossWeights(lambda_tp=0.0),
                                   horizon=10.0, grads=g_off)
        assert all(np.array_equal(g_none[k], g_off[k]) for k in g_none.names())
        assert parts_none.tp_loss == 0.0 == parts_off.tp_loss

    def test_tp_changes_only_tp_head_among_heads(self):
        cfg, params = tiny_model()
        r = make_rollout()
        w = LossWeights()
        g_tp, g_no = params.zeros_like(), params.zeros_like()
        parts = compute_update(r, params, cfg, w, horizon=10.0, grads=g_tp,
                               clip_norm=1e9)
        compute_update(r, params, cfg, w, horizon=None, grads=g_no,
                       clip_norm=1e9)
        assert parts.tp_loss > 0.0
        for head in ("policy", "value"):
            assert np.array_equal(g_tp[f"{head}.W"], g_no[f"{head}.W"])
            assert np.array_equal(g_tp[f"{head}.b"], g_no[f"{head}.b"])
        assert not np.array_equal(g_tp["tp.W"], g_no["tp.W"])

    def test_clip_applies(self):
        cfg, params = tiny_model()
        r = make_rollout()
        g = params.zeros_like()
        compute_update(r, params, cfg, LossWeights(), horizon=None, grads=g,
                       clip_norm=1e-3)
        assert g.global_norm() <= 1e-3 + 1e-12

    def test_reused_set_gives_the_bits_of_a_fresh_set(self):
        cfg, params = tiny_model()
        r = make_rollout()
        w = LossWeights()
        reused = params.zeros_like()
        reused.flat[:] = np.nan  # what the set held before must not matter
        # A TP-on update, then a TP-off one: the tp head's gradients go back to zero.
        for horizon in (10.0, None):
            fresh = params.zeros_like()
            want = compute_update(r, params, cfg, w, horizon, fresh)
            assert compute_update(r, params, cfg, w, horizon, reused) == want
            assert reused.equal_bits(fresh)
        assert want.tp_loss == 0.0
        assert not reused["tp.W"].any() and not reused["tp.b"].any()


class TestGlobalStore:
    def _store(self):
        cfg, params = tiny_model()
        return cfg, GlobalStore(params, AdamState.for_params(params), RunConfig())

    def test_version_counts_updates(self):
        cfg, store = self._store()
        g = store.params.zeros_like()
        g["policy.b"] = np.ones_like(g["policy.b"])
        v0 = store.version
        local = store.snapshot()
        store.apply_and_sync(g.copy(), local)
        store.apply_and_sync(g.copy(), local)
        assert store.version == v0 + 2 and store.optimizer.step == 2

    def test_sync_copies_into_the_local_buffer(self):
        cfg, store = self._store()
        local = store.snapshot()
        flat = local.flat
        g = store.params.zeros_like()
        g["policy.b"] = np.ones_like(g["policy.b"])
        assert store.apply_and_sync(g, local=local) is local
        assert local.flat is flat and local.version == store.version == 1
        assert local.equal_bits(store.params)
        assert not np.shares_memory(local.flat, store.params.flat)

    def test_snapshot_is_independent(self):
        cfg, store = self._store()
        snap = store.snapshot()
        snap["policy.b"][:] = 99.0
        assert not np.any(store.params["policy.b"] == 99.0)

    def test_book_moving_average(self):
        cfg, params = tiny_model()
        rows = []
        store = GlobalStore(params, AdamState.for_params(params),
                            RunConfig(episode_budget=100, early_stop_reward=0.5, moving_window=4),
                            rows.append)
        local, zeros = store.snapshot(), params.zeros_like()
        book = lambda r: store.book(0, zeros, local, (3, r, trainer.LossParts()))[1]
        for r in [1.0, 0.0, 1.0]:
            stop = book(r)
        assert store.episode_count == 3 and not stop  # window not yet full
        assert [row.moving_avg_reward for row in rows] == [1.0, 0.5, 2.0 / 3.0]
        stop = book(0.0)
        assert store.episode_count == 4 and rows[-1].moving_avg_reward == 0.5 and stop
        stop = book(0.0)  # the oldest reward is evicted
        assert store.episode_count == 5 and rows[-1].moving_avg_reward == 0.25 and not stop

    def test_book_stops_at_budget_and_books_no_row_past_it(self):
        cfg, params = tiny_model()
        rows = []
        store = GlobalStore(params, AdamState.for_params(params), RunConfig(episode_budget=2),
                            rows.append)
        local, zeros = store.snapshot(), params.zeros_like()
        stops = [store.book(0, zeros, local, (3, 0.0, trainer.LossParts()))[1] for _ in range(3)]
        assert stops == [False, True, True]
        assert [row.episode for row in rows] == [1, 2]

    @settings(max_examples=60, deadline=None)
    @given(updates=st.lists(st.one_of(st.none(), st.tuples(
               st.integers(0, 3), st.integers(1, 300), st.sampled_from((-1.0, 0.0, 0.5, 1.0)))),
               max_size=40),
           window=st.integers(1, 6), budget=st.integers(0, 25), cadence=st.integers(0, 4),
           target=st.sampled_from((float("nan"), -1.0, 0.0, 0.25, 0.5, 1.0)))
    def test_book_matches_a_plain_ledger(self, updates, window, budget, cadence, target):
        # updates: None for an update that ends no episode, else (worker,
        # length, reward) of the episode it ends. Rewards and targets come
        # from a few values, so a window's mean often equals the target.
        cfg, params = tiny_model()
        rows, lengths, rewards, want_rows, got, want = [], [], [], [], [], []

        def horizon():
            recent = lengths[-EPISODE_LENGTH_WINDOW:]
            return sum(recent) / len(recent) if recent else None

        with tempfile.TemporaryDirectory() as ckpt_dir:
            store = GlobalStore(params, AdamState.for_params(params),
                                RunConfig(moving_window=window, episode_budget=budget,
                                          checkpoint_cadence=cadence, early_stop_reward=target),
                                rows.append, ckpt_dir)
            local, zeros = store.snapshot(), params.zeros_like()
            for update in updates:
                if update is None:
                    got.append(store.book(0, zeros, local, None))
                    want.append((horizon(), False))
                    continue
                wid, length, reward = update
                got.append(store.book(wid, zeros, local, (length, reward, trainer.LossParts())))
                lengths.append(length)
                rewards.append(reward)
                mean = sum(rewards[-window:]) / len(rewards[-window:])
                index = len(rewards)
                if index <= budget:
                    want_rows.append((wid, index, length, reward, horizon(), mean))
                want.append((horizon(), index >= budget
                             or (len(rewards) >= window and mean >= target)))
            names = sorted(os.listdir(ckpt_dir))
        assert store.episode_count == len(rewards) and store.version == len(updates)
        assert [(r.worker_id, r.episode, r.length, r.reward, r.running_n, r.moving_avg_reward)
                for r in rows] == want_rows
        assert got == want
        assert names == [f"ep{i:08d}.ckpt" for i in range(1, min(len(rewards), budget) + 1)
                         if cadence > 0 and i % cadence == 0]


class TestTrain:
    def _config(self, **kw):
        # hidden 8 on GridGoal(4) is the network ModelConfig(16, 4, (8,))
        defaults = dict(hidden="8", workers=1, seed=3, episode_budget=20)
        defaults.update(kw)
        return RunConfig(**defaults)

    def test_single_worker_bit_determinism(self):
        def run(seed):
            rows = []
            store = train(self._config(seed=seed),
                          lambda wid: GridGoal(4, max_steps=20),
                          on_episode=lambda row: rows.append((row.episode, row.length, row.reward)))
            return store, rows

        s1, r1 = run(5)
        s2, r2 = run(5)
        assert s1.params.equal_bits(s2.params)
        assert r1 == r2
        s3, _ = run(6)
        assert not s1.params.equal_bits(s3.params)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_multi_worker_bit_determinism(self, tmp_path, workers):
        # Workers are booked in a fixed turn, so a run depends only on its
        # seed and worker count.
        first, second = train_twice(self._config(workers=workers, episode_budget=40,
                                                 checkpoint_cadence=10),
                                    lambda wid: GridGoal(4, max_steps=20), tmp_path)
        assert len(first[0]) == 40 and len(first[1]) == 5
        assert first == second

    def test_metrics_rows_cover_budget_once(self):
        episodes = []
        train(self._config(workers=4, episode_budget=30),
              lambda wid: GridGoal(4, max_steps=20),
              on_episode=lambda row: episodes.append(row.episode))
        assert sorted(episodes) == list(range(1, 31))

    def test_zero_budget_trains_nothing(self):
        rows = []
        store = train(self._config(episode_budget=0),
                      lambda wid: GridGoal(4, max_steps=20), on_episode=rows.append)
        assert store.version == 0 == store.optimizer.step
        assert rows == []

    def test_final_checkpoint_written(self, tmp_path):
        train(self._config(episode_budget=5),
              lambda wid: GridGoal(4, max_steps=20), checkpoint_dir=str(tmp_path))
        assert (tmp_path / "final.ckpt").exists()

    def test_periodic_checkpoints(self, tmp_path):
        train(self._config(episode_budget=10, checkpoint_cadence=5),
              lambda wid: GridGoal(4, max_steps=20), checkpoint_dir=str(tmp_path))
        assert (tmp_path / "ep00000005.ckpt").exists()
        assert (tmp_path / "ep00000010.ckpt").exists()

    def test_periodic_checkpoints_stay_within_budget(self, tmp_path):
        # Workers that finish an episode after the budget is reached book it,
        # but it gets neither a metrics row nor a checkpoint.
        train(self._config(workers=4, episode_budget=6, checkpoint_cadence=1),
              lambda wid: GridGoal(4, max_steps=20), checkpoint_dir=str(tmp_path))
        names = sorted(p.name for p in tmp_path.glob("ep*.ckpt"))
        assert names == [f"ep{i:08d}.ckpt" for i in range(1, 7)]
        versions = [ParamSet.load(tmp_path / name).version for name in names]
        assert versions == sorted(versions)

    def test_worker_errors_propagate(self):
        class Broken(GridGoal):
            def step(self, action, rng):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            train(self._config(episode_budget=5),
                  lambda wid: Broken(4, max_steps=20))

    def test_one_gradient_set_per_run(self, monkeypatch):
        # Adam's two moments and the worker's gradient set, however long
        # the run: no update allocates a set of its own.
        calls = []
        real = ParamSet.zeros_like

        def counting(params):
            calls.append(1)
            return real(params)

        monkeypatch.setattr(ParamSet, "zeros_like", counting)
        counts = []
        for budget in (5, 20):
            calls.clear()
            train(self._config(episode_budget=budget), lambda wid: GridGoal(4, max_steps=20))
            counts.append(len(calls))
        assert counts == [3, 3]

    def test_one_worker_copies_parameters_only_for_checkpoints(self, tmp_path, monkeypatch):
        # The worker learns on the store's own parameters, and final.ckpt is
        # written from them: only the periodic checkpoints copy them.
        calls = []
        real = ParamSet.copy

        def counting(params):
            calls.append(1)
            return real(params)

        monkeypatch.setattr(ParamSet, "copy", counting)
        train(self._config(episode_budget=10), lambda wid: GridGoal(4, max_steps=20))
        assert len(calls) == 0
        store = train(self._config(episode_budget=10, checkpoint_cadence=5),
                      lambda wid: GridGoal(4, max_steps=20), checkpoint_dir=str(tmp_path))
        assert len(calls) == 2
        final = ParamSet.load(tmp_path / "final.ckpt")
        assert final.equal_bits(store.params) and final.version == store.params.version

    def test_labeler_tracks_episode_lengths(self):
        lengths = []
        store = train(self._config(episode_budget=15),
                      lambda wid: GridGoal(4, max_steps=20),
                      on_episode=lambda row: lengths.append(row.length))
        assert store.labeler.horizon == pytest.approx(np.mean(lengths))


class TestLock:
    def test_norm_runs_once_per_update(self, monkeypatch):
        # The worker clips in compute_update and apply_and_sync never clips,
        # so the global norm must not be computed a second time under the lock.
        calls = []
        real = trainer.clip_global_norm

        def counting(grads, max_norm):
            calls.append(max_norm)
            return real(grads, max_norm)

        monkeypatch.setattr(trainer, "clip_global_norm", counting)
        store = train(RunConfig(hidden="8", workers=1, seed=3, episode_budget=10),
                      lambda wid: GridGoal(4, max_steps=20))
        assert store.version > 0
        assert len(calls) == store.version
        assert all(c == trainer.DEFAULT_CLIP_NORM for c in calls)

    def test_concurrent_updates_are_neither_lost_nor_torn(self):
        n_threads, k = 6, 40
        cfg, params = tiny_model(hidden=(32,))
        grads = params.zeros_like()
        grads.flat[:] = np.random.default_rng(9).normal(size=grads.flat.size)

        serial = GlobalStore(params.copy(), AdamState.for_params(params), RunConfig())
        local = serial.snapshot()
        for _ in range(n_threads * k):
            serial.apply_and_sync(grads.copy(), local=local)

        store = GlobalStore(params.copy(), AdamState.for_params(params), RunConfig())
        errors = []
        start = threading.Barrier(n_threads)

        def work():
            try:
                mine, g = store.snapshot(), grads.copy()
                start.wait(timeout=30)
                for _ in range(k):
                    store.apply_and_sync(g, local=mine)
                    assert mine.version <= store.version
            except BaseException as exc:
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, daemon=True) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert store.version == n_threads * k
        assert store.optimizer.step == n_threads * k
        assert store.params.equal_bits(serial.params)
        assert store.optimizer.m.equal_bits(serial.optimizer.m)
        assert store.optimizer.v.equal_bits(serial.optimizer.v)


class TestProcesses:
    """workers > 1: one forked process per worker, served by the caller."""

    def _config(self, **kw):
        defaults = dict(hidden="8", workers=2, seed=3, episode_budget=10**6)
        defaults.update(kw)
        return RunConfig(**defaults)

    def test_exactly_n_workers_start_and_none_outlives_train(self, monkeypatch):
        fork = multiprocessing.get_context("fork").Process
        starts = []
        real_start = fork.start

        def counting_start(proc):
            starts.append(proc)
            real_start(proc)

        monkeypatch.setattr(fork, "start", counting_start)
        rows = []
        with deadline(120):
            store = train(self._config(workers=4, episode_budget=30),
                          lambda wid: GridGoal(4, max_steps=20), on_episode=rows.append)
        assert len(starts) == 4 and multiprocessing.active_children() == []
        assert store.version >= 30 and store.episode_count >= 30
        assert [r.episode for r in rows] == list(range(1, 31))
        assert {r.worker_id for r in rows} <= {0, 1, 2, 3}

        with deadline(120), pytest.raises(RuntimeError, match="worker failed"):
            train(self._config(workers=4),
                  lambda wid: RaisingGrid(4, max_steps=20) if wid == 2 else GridGoal(4))
        assert len(starts) == 8 and multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2, 8])
    def test_minibomber_reruns_repeat_rows_and_checkpoints(self, tmp_path, workers):
        cfg = self._config(env="minibomber-static", env_size=5, env_max_steps=30,
                           workers=workers, episode_budget=16, checkpoint_cadence=4)
        with deadline(60):
            first, second = train_twice(cfg, lambda wid: make_env(cfg.env, **cfg.env_kwargs()),
                                        tmp_path)
        assert sorted(first[1]) == [f"ep{i:08d}.ckpt" for i in (4, 8, 12, 16)] + ["final.ckpt"]
        assert len(first[0]) == 16
        assert first == second

    def test_fewer_than_one_worker_rejected_before_any_start(self, monkeypatch):
        fork = multiprocessing.get_context("fork").Process
        monkeypatch.setattr(fork, "start", lambda proc: pytest.fail("a process started"))
        for n in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                train(self._config(workers=n), lambda wid: GridGoal(4))

    def test_worker_that_exits_is_named_with_its_exit_code(self):
        with deadline(60), pytest.raises(RuntimeError, match="worker failed") as info:
            train(self._config(),
                  lambda wid: ExitingGrid(4, max_steps=20) if wid == 1 else GridGoal(4))
        cause = info.value.__cause__
        assert isinstance(cause, ChildProcessError), cause
        assert "worker 1 " in str(cause) and "code 3 " in str(cause)
        assert multiprocessing.active_children() == []

    def test_exception_arrives_with_its_type_and_the_worker_traceback(self):
        with deadline(60), pytest.raises(RuntimeError, match="worker failed") as info:
            train(self._config(), lambda wid: RaisingGrid(4, max_steps=20))
        cause = info.value.__cause__
        assert isinstance(cause, StepError) and str(cause) == "kaboom"
        remote = cause.__cause__
        assert isinstance(remote, trainer.WorkerError) and remote.type_name == "StepError"
        assert "in step" in remote.traceback and "kaboom" in remote.traceback

    def test_unpicklable_exception_arrives_as_type_name_and_traceback(self):
        class LocalError(Exception):  # a class local to a function does not pickle
            pass

        class Raising(GridGoal):
            def step(self, action, rng):
                raise LocalError("no pickle")

        with deadline(60), pytest.raises(RuntimeError, match="worker failed") as info:
            train(self._config(), lambda wid: Raising(4, max_steps=20))
        cause = info.value.__cause__
        assert isinstance(cause, trainer.WorkerError) and cause.exc is None
        assert cause.type_name.endswith("<locals>.LocalError")
        assert "LocalError: no pickle" in cause.traceback and "in step" in cause.traceback
        assert "LocalError" in str(cause)
        assert multiprocessing.active_children() == []

    def test_error_in_the_parent_stops_every_worker(self):
        def failing_writer(row):
            if row.episode == 3:
                raise OSError("disk full")

        with deadline(60), pytest.raises(RuntimeError, match="worker failed") as info:
            train(self._config(), lambda wid: GridGoal(4, max_steps=20),
                  on_episode=failing_writer)
        assert isinstance(info.value.__cause__, OSError)
        assert multiprocessing.active_children() == []
