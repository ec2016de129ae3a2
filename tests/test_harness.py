"""Harness tests: run directories, metrics persistence, the moving-average
column, sweeps, summaries, checkpoint evaluation, and the command line front
end."""

import csv
import dataclasses
import os
import re
import string
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a3ctp import harness
from a3ctp.cli import main as cli_main
from a3ctp.envs import ENV_NAMES
from a3ctp.envs.gridgoal import GridGoal
from a3ctp.harness import (
    METRICS_COLUMNS, RunConfig, evaluate, read_metrics, run_experiment, summarize,
    summary_table, sweep_lambda_tp,
)
from a3ctp.model import ModelConfig, init_model
from a3ctp.nn import ParamSet


def trailing_means(series, window):
    """Per row i, the mean of the last min(window, i + 1) values."""
    series = np.asarray(series, dtype=np.float64)
    return [np.mean(series[max(0, i + 1 - window):i + 1]) for i in range(series.size)]


def small_config(tmp_path, **kw):
    defaults = dict(env="gridgoal", env_size=4, env_max_steps=20,
                    hidden="8", workers=2, episode_budget=12,
                    out_dir=str(tmp_path / "run"))
    defaults.update(kw)
    return RunConfig(**defaults)


# A failing environment for the worker-failure test. Both classes live at
# module level: a worker process's exception reaches the test only if it
# pickles, and a class defined inside a function does not.
class EnvError(Exception):
    pass


class Broken(GridGoal):
    def step(self, action, rng):
        raise EnvError("boom")


class TestRunConfig:
    def test_roundtrip_through_file(self, tmp_path):
        cfg = RunConfig(env="polebalance", lambda_tp=0.75, workers=3,
                        hidden="32,16", seed=9, early_stop_reward=150.0,
                        out_dir="x/y")
        path = tmp_path / "config.txt"
        cfg.save(path)
        assert RunConfig.load(path) == cfg

    def test_nan_early_stop_survives_roundtrip(self, tmp_path):
        cfg = RunConfig()
        path = tmp_path / "config.txt"
        cfg.save(path)
        loaded = RunConfig.load(path)
        assert np.isnan(loaded.early_stop_reward)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(algorithm="dqn")

    def test_hidden_sizes_parse(self):
        assert RunConfig(hidden="128,128").hidden_sizes() == (128, 128)
        assert RunConfig(hidden="64").hidden_sizes() == (64,)

    def test_fewer_than_one_worker_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            RunConfig(workers=0)
        with pytest.raises(ValueError, match="workers"):
            RunConfig(workers=-2)

    @pytest.mark.parametrize("text, problem", [
        ("workers=2\nworkerz=3\n", "line 2 .*unknown key 'workerz'"),
        ("workers=2\nseed=1\nworkers=5\n", "line 3 .*repeated key 'workers'"),
        ("# comment\n\nworkers 2\n", "line 3 .*not a key=value line"),
        ("workers=two\n", "line 1 .*invalid literal"),
    ], ids=["unknown-key", "repeated-key", "no-equals", "bad-int"])
    def test_load_rejects_with_the_line(self, tmp_path, text, problem):
        path = tmp_path / "config.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=problem):
            RunConfig.load(path)

    def test_load_keeps_defaults_and_skips_comments(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("# a run\n\nout_dir=a=b\nworkers=3\n")
        assert RunConfig.load(path) == RunConfig(workers=3, out_dir="a=b")

    @pytest.mark.parametrize("args, problem", [
        (["--moving-window", "0"], "moving_window"),
        (["--t-max", "0"], "t_max"),
        (["--gamma", "1.5"], "gamma"),
        (["--gamma", "-0.5"], "gamma"),
        (["--lambda-v", "-1"], "nonnegative"),
        (["--lambda-pi", "-1"], "nonnegative"),
        (["--lambda-h", "-0.01"], "nonnegative"),
        (["--lambda-tp", "-0.5"], "nonnegative"),
        (["--algorithm", "a3c", "--lambda-tp", "-0.5"], "nonnegative"),
        (["--lambda-v", "nan"], "nonnegative"),
        (["--lambda-tp", "nan"], "nonnegative"),
        (["--hidden", "8,x"], "hidden"),
        (["--hidden", "8,0"], "hidden"),
        (["--env", "nosuch"], "env must be one of"),
        (["--env-size", "0"], "env_size"),
        (["--env-size", "1"], "env_size must be at least 2"),
        (["--env-max-steps", "-1"], "env_max_steps"),
        (["--lr", "-1"], "lr must be nonnegative"),
        (["--lr", "nan"], "lr must be nonnegative"),
        (["--clip-norm", "-1"], "clip_norm"),
        (["--episode-budget", "-5"], "episode_budget"),
        (["--checkpoint-cadence", "-2"], "checkpoint_cadence"),
        (["--hidden", "128,,128"], "hidden"),
        (["--hidden", "128,"], "hidden"),
        (["--hidden", ","], "hidden"),
        (["--hidden", "8_0"], "hidden"),
        (["--hidden", " 8"], "hidden"),
        (["--hidden", "+8"], "hidden"),
    ], ids=["moving-window-0", "t-max-0", "gamma-above-1", "gamma-below-0", "lambda-v",
            "lambda-pi", "lambda-h", "lambda-tp", "lambda-tp-of-plain-a3c", "lambda-v-nan",
            "lambda-tp-nan", "hidden-not-a-number", "hidden-width-0", "env-unknown", "env-size-0",
            "env-size-1", "env-max-steps-negative",
            "lr-negative", "lr-nan", "clip-norm-negative", "episode-budget-negative",
            "checkpoint-cadence-negative", "hidden-empty-field", "hidden-trailing-comma",
            "hidden-only-a-comma", "hidden-underscore", "hidden-space", "hidden-plus-sign"])
    def test_rejected_value_writes_no_file(self, tmp_path, args, problem):
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=problem):
            cli_main(["train", "--env-size", "4", "--hidden", "8", "--workers", "1",
                      "--episode-budget", "3", "--out-dir", str(out), *args])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text, problem", [
        ("workers=2\nmoving_window=0\n", r"line 2 \('moving_window=0'\): moving_window"),
        ("# a run\n\ngamma=1.5\n", r"line 3 \('gamma=1.5'\): gamma"),
        ("env=nosuch\n", r"line 1 \('env=nosuch'\): env must be one of"),
        ("seed=3\nhidden=8,x\n", r"line 2 \('hidden=8,x'\): hidden"),
    ], ids=["moving-window-0", "gamma-above-1", "env-unknown", "hidden-not-a-number"])
    def test_load_rejects_what_runconfig_rejects(self, tmp_path, text, problem):
        path = tmp_path / "config.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=problem) as info:
            RunConfig.load(path)
        assert str(info.value).startswith(f"{path}, line ")

    def test_plain_a3c_has_zero_tp_weight(self):
        assert RunConfig(algorithm="a3c", lambda_tp=0.75).weights().lambda_tp == 0.0
        assert RunConfig(algorithm="a3c-tp", lambda_tp=0.75).weights().lambda_tp == 0.75

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_save_load_roundtrip_of_random_configs(self, tmp_path_factory, data):
        text = st.text(alphabet=string.ascii_letters + string.digits + " _-./,=#",
                       max_size=12).filter(lambda v: v == v.strip())
        kinds = {"int": st.integers(-10**12, 10**12),
                 "float": st.floats(allow_nan=False), "str": text}
        weight = st.floats(min_value=0.0, allow_nan=False)
        count = st.integers(0, 10**12)
        widths = st.lists(st.integers(1, 4096), max_size=4).map(lambda w: ",".join(map(str, w)))
        valid = {"env": st.sampled_from(ENV_NAMES), "env_size": st.integers(2, 10**12),
                 "env_max_steps": count, "hidden": widths, "episode_budget": count,
                 "checkpoint_cadence": count, "lr": weight, "clip_norm": weight,
                 "algorithm": st.sampled_from(harness.ALGORITHMS), "workers": st.integers(1, 64),
                 "moving_window": st.integers(1, 10**12), "t_max": st.integers(1, 10**12),
                 "gamma": st.floats(0.0, 1.0), "lambda_v": weight, "lambda_pi": weight,
                 "lambda_h": weight, "lambda_tp": weight}
        cfg = RunConfig(**{f.name: data.draw(valid.get(f.name, kinds[f.type]), label=f.name)
                           for f in dataclasses.fields(RunConfig)})
        path = tmp_path_factory.mktemp("cfg") / "config.txt"
        cfg.save(path)
        assert RunConfig.load(path) == cfg


class TestRunExperiment:
    def test_run_directory_contents(self, tmp_path):
        cfg = small_config(tmp_path)
        run_dir = run_experiment(cfg)
        assert os.path.isfile(os.path.join(run_dir, "config.txt"))
        assert os.path.isfile(os.path.join(run_dir, "metrics.csv"))
        assert os.path.isfile(os.path.join(run_dir, "timing.csv"))
        assert os.path.isfile(os.path.join(run_dir, "checkpoints", "final.ckpt"))

    def test_metrics_schema_and_episode_order(self, tmp_path):
        run_dir = run_experiment(small_config(tmp_path))
        with open(os.path.join(run_dir, "metrics.csv"), newline="") as f:
            rows = list(csv.reader(f))
        assert tuple(rows[0]) == METRICS_COLUMNS
        episodes = [int(r[1]) for r in rows[1:]]
        assert episodes == list(range(1, 13))

    def test_moving_average_column_is_trailing_window(self, tmp_path):
        run_dir = run_experiment(small_config(tmp_path, moving_window=5))
        m = read_metrics(run_dir)
        expect = trailing_means(m["reward"], 5)
        assert np.allclose(m["moving_avg_reward"], expect)

    def test_zero_budget_writes_header_only(self, tmp_path):
        run_dir = run_experiment(small_config(tmp_path, episode_budget=0))
        m = read_metrics(run_dir)
        assert m["episode"].size == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_metrics_csv_byte_identical_across_reruns(self, tmp_path, workers):
        # file order is booking order, which is fixed for any worker count
        d1 = run_experiment(small_config(tmp_path, workers=workers,
                                         out_dir=str(tmp_path / "a")))
        d2 = run_experiment(small_config(tmp_path, workers=workers,
                                         out_dir=str(tmp_path / "b")))
        with open(os.path.join(d1, "metrics.csv"), "rb") as f:
            b1 = f.read()
        with open(os.path.join(d2, "metrics.csv"), "rb") as f:
            b2 = f.read()
        assert b1 == b2

    def test_worker_failure_names_the_run_and_leaves_no_thread(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "make_env", lambda name, size, **kw: Broken(size, **kw))
        threads_before = threading.active_count()
        cfg = small_config(tmp_path)
        with pytest.raises(RuntimeError, match="training failed in " + re.escape(cfg.out_dir)) as info:
            run_experiment(cfg)
        causes = []
        exc = info.value
        while exc is not None:
            causes.append(exc)
            exc = exc.__cause__
        assert any(isinstance(e, EnvError) for e in causes)
        with open(os.path.join(cfg.out_dir, "metrics.csv"), newline="") as f:
            assert [tuple(r) for r in csv.reader(f)] == [METRICS_COLUMNS]
        assert threading.active_count() == threads_before

    def test_two_workers_write_each_episode_once(self, tmp_path):
        # The files' first lines are still in the parent's buffers when the
        # workers fork; a child that flushed them would duplicate them.
        run_dir = run_experiment(small_config(tmp_path, workers=2, episode_budget=30))
        for name, header in (("metrics.csv", ",".join(METRICS_COLUMNS)),
                             ("timing.csv", "episode,wall_time_s")):
            with open(os.path.join(run_dir, name)) as f:
                lines = f.read().splitlines()
            assert lines[0] == header
            column = 1 if name == "metrics.csv" else 0
            assert [int(line.split(",")[column]) for line in lines[1:]] == list(range(1, 31))

    def test_rerun_from_config_txt_is_bit_exact(self, tmp_path):
        first = run_experiment(small_config(tmp_path, workers=1, episode_budget=20,
                                            out_dir=str(tmp_path / "a")))
        cfg = RunConfig.load(os.path.join(first, "config.txt"))
        second = run_experiment(dataclasses.replace(cfg, out_dir=str(tmp_path / "b")))
        for name in ("metrics.csv", os.path.join("checkpoints", "final.ckpt")):
            with open(os.path.join(first, name), "rb") as f1, \
                    open(os.path.join(second, name), "rb") as f2:
                assert f1.read() == f2.read(), name

    def test_a3c_run_reports_zero_tp_loss(self, tmp_path):
        run_dir = run_experiment(small_config(tmp_path, algorithm="a3c"))
        m = read_metrics(run_dir)
        assert np.all(m["tp_loss"] == 0.0)


class TestSweep:
    def test_directory_layout(self, tmp_path):
        base = small_config(tmp_path, episode_budget=4, out_dir=str(tmp_path / "sw"))
        dirs = sweep_lambda_tp(base, [0.25, 0.5], [0, 1])
        names = sorted(os.path.basename(d) for d in dirs)
        assert names == ["tp0.25_seed0", "tp0.25_seed1",
                         "tp0.5_seed0", "tp0.5_seed1"]
        for d in dirs:
            assert os.path.isfile(os.path.join(d, "metrics.csv"))

    def test_rejects_empty_and_duplicate_values(self, tmp_path):
        base = small_config(tmp_path)
        with pytest.raises(ValueError):
            sweep_lambda_tp(base, [], [0])
        with pytest.raises(ValueError, match="one seed"):
            sweep_lambda_tp(base, [0.5], [])
        with pytest.raises(ValueError):
            sweep_lambda_tp(base, [0.5, 0.5], [0])
        with pytest.raises(ValueError, match="nonnegative"):  # before any run starts
            sweep_lambda_tp(base, [0.5, -1.0], [0])
        assert not os.path.exists(base.out_dir)

    def test_rejects_a_repeated_seed_before_any_run(self, tmp_path):
        base = small_config(tmp_path)
        with pytest.raises(ValueError, match="share the directory .*tp0.5_seed0"):
            sweep_lambda_tp(base, [0.5], [0, 0])
        assert not os.path.exists(base.out_dir)

    def test_rejects_values_equal_under_g_before_any_run(self, tmp_path):
        base = small_config(tmp_path)
        with pytest.raises(ValueError, match="share the directory .*tp0.1_seed0"):
            sweep_lambda_tp(base, [0.1, 0.1000001], [0])
        assert not os.path.exists(base.out_dir)


def _write_fake_run(root, name, rewards, window=3, budget=None, **cfg_kw):
    """Hand-built run directory with a known reward trajectory."""
    d = os.path.join(root, name)
    os.makedirs(d, exist_ok=True)
    cfg = RunConfig(episode_budget=budget if budget is not None else len(rewards),
                    moving_window=window, out_dir=d, **cfg_kw)
    cfg.save(os.path.join(d, "config.txt"))
    ma = trailing_means(rewards, window)
    with open(os.path.join(d, "metrics.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(METRICS_COLUMNS)
        for i, (r, m) in enumerate(zip(rewards, ma), start=1):
            w.writerow([0, i, 10, repr(float(r)), -1.0, 0.0, 0.0, 0.0, 0.0,
                        repr(float(m))])
    return d


class TestSummarize:
    def test_groups_and_statistics(self, tmp_path):
        root = str(tmp_path)
        d1 = _write_fake_run(root, "s0", [0, 0, 1, 1, 1, 1], seed=0)
        d2 = _write_fake_run(root, "s1", [0, 1, 0, 1, 1, 0], seed=1)
        d3 = _write_fake_run(root, "a3c", [0, 0, 0, 0, 0, 0], seed=0,
                             algorithm="a3c")
        out = summarize([d1, d2, d3], threshold=0.9)
        assert len(out) == 2
        a3c, tp = out  # sorted: a3c before a3c-tp
        assert a3c.algorithm == "a3c" and a3c.lambda_tp == 0.0
        assert tp.n_runs == 2
        # finals: d1 MA(3) of last three = 1.0, d2 = 2/3
        assert tp.final_ma_mean == pytest.approx((1.0 + 2 / 3) / 2)
        expect_std = np.sqrt(np.mean((np.array([1.0, 2 / 3]) - (1.0 + 2 / 3) / 2) ** 2))
        assert tp.final_ma_std == pytest.approx(expect_std)
        # d1 first crosses 0.9 at episode 5; d2 never does -> censored at budget
        assert tp.episodes_to_threshold == [5, 6]
        assert tp.censored == [False, True]
        assert a3c.censored == [True]

    def test_order_invariant(self, tmp_path):
        root = str(tmp_path)
        dirs = [_write_fake_run(root, f"s{i}", [float(i)] * 4, seed=i)
                for i in range(3)]
        a = summary_table(summarize(dirs, threshold=0.5))
        b = summary_table(summarize(list(reversed(dirs)), threshold=0.5))
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([], threshold=0.5)

    def test_rejects_a_directory_listed_twice(self, tmp_path):
        d = _write_fake_run(str(tmp_path), "s0", [1.0, 0.0], seed=0)
        other = _write_fake_run(str(tmp_path), "s1", [1.0, 0.0], seed=1)
        for dirs in ([d, d], [d, other, os.path.join(d, "")]):
            with pytest.raises(ValueError, match="listed twice"):
                summarize(dirs, threshold=0.5)

    def test_reads_each_config_once(self, tmp_path, monkeypatch):
        dirs = [_write_fake_run(str(tmp_path), f"s{i}", [1.0, 0.0], seed=i) for i in range(3)]
        loaded = []
        real = RunConfig.load.__func__
        monkeypatch.setattr(RunConfig, "load",
                            classmethod(lambda cls, path: loaded.append(path) or real(cls, path)))
        summarize(dirs, threshold=0.5)
        assert sorted(loaded) == sorted(os.path.join(d, "config.txt") for d in dirs)

    def test_table_layout(self, tmp_path):
        d = _write_fake_run(str(tmp_path), "s0", [1.0, 1.0], seed=0)
        table = summary_table(summarize([d], threshold=0.5))
        lines = table.strip().split("\n")
        assert lines[0].startswith("env,algorithm,lambda_tp")
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "gridgoal"


class TestEvaluate:
    def _checkpoint(self, tmp_path, obs_dim, n_actions, hidden=(8,)):
        params = init_model(ModelConfig(obs_dim, n_actions, hidden),
                            np.random.default_rng(0))
        path = str(tmp_path / "init.ckpt")
        params.save(path)
        return path

    def test_gridgoal_statistics(self, tmp_path):
        ckpt = self._checkpoint(tmp_path, 16, 4)
        report = evaluate(ckpt, "gridgoal", episodes=5, seed=0,
                          env_kwargs={"size": 4, "max_steps": 30})
        assert report.episodes == 5
        assert 0.0 <= report.mean_reward <= 1.0
        assert report.outcome_counts == {}

    @pytest.mark.parametrize("episodes", [0, -3])
    def test_rejects_episodes_below_one(self, tmp_path, episodes):
        # Raised before the checkpoint is read: this path does not exist.
        with pytest.raises(ValueError, match="episodes must be at least 1"):
            evaluate(str(tmp_path / "absent.ckpt"), "gridgoal", episodes=episodes, seed=0)

    def test_same_seed_same_report(self, tmp_path):
        ckpt = self._checkpoint(tmp_path, 16, 4)
        kw = dict(env_kwargs={"size": 4, "max_steps": 30})
        a = evaluate(ckpt, "gridgoal", episodes=5, seed=3, **kw)
        b = evaluate(ckpt, "gridgoal", episodes=5, seed=3, **kw)
        assert a == b

    def test_mismatched_environment_rejected(self, tmp_path):
        ckpt = self._checkpoint(tmp_path, 16, 4)
        with pytest.raises(ValueError):
            evaluate(ckpt, "gridgoal", episodes=1, seed=0,
                     env_kwargs={"size": 8})

    # The first two match the environment's observation width, so a check of
    # trunk0.W alone lets them through; the third has no trunk0 at all.
    @pytest.mark.parametrize("net,env,env_kwargs", [
        ((4, 2, (8,)), "gridgoal", {"size": 2}),       # 2 actions, env has 4
        ((4, 4, (8,)), "polebalance", {}),             # 4 actions, env has 2
        ((16, 4, ()), "gridgoal", {"size": 8}),        # no trunk, obs 16 vs 64
    ], ids=["polebalance-on-gridgoal", "gridgoal-on-polebalance", "no-trunk-wrong-obs"])
    def test_checkpoint_of_another_network_rejected(self, tmp_path, net, env, env_kwargs):
        ckpt = self._checkpoint(tmp_path, *net)
        with pytest.raises(ValueError):
            evaluate(ckpt, env, episodes=1, seed=0, env_kwargs=env_kwargs)

    @pytest.mark.parametrize("bad", [np.zeros(8), np.array(1.0)], ids=["1-d", "scalar"])
    def test_malformed_trunk_weight_rejected(self, tmp_path, bad):
        params = init_model(ModelConfig(4, 2, (8,)), np.random.default_rng(0))
        tensors = {k: params[k] for k in params}
        tensors["trunk0.W"] = bad
        path = str(tmp_path / "bad.ckpt")
        ParamSet(tensors).save(path)
        with pytest.raises(ValueError):
            evaluate(path, "polebalance", episodes=1, seed=0)

    def test_checkpoint_without_trunk_evaluates(self, tmp_path):
        ckpt = self._checkpoint(tmp_path, 4, 2, hidden=())
        report = evaluate(ckpt, "polebalance", episodes=2, seed=0)
        assert report.episodes == 2 and report.mean_length >= 1

    def test_bomberman_outcomes_and_replays(self, tmp_path):
        ckpt = self._checkpoint(tmp_path, 22 * 36, 6)
        rdir = str(tmp_path / "replays")
        report = evaluate(ckpt, "minibomber-static", episodes=3, seed=0,
                          env_kwargs={"size": 6}, replay_dir=rdir)
        results = sum(report.outcome_counts.get(k, 0)
                      for k in ("win", "loss", "tie"))
        assert results == 3
        assert len(os.listdir(rdir)) == 3
        # Writing replays reads the env's replay and leaves the episodes as they are.
        assert evaluate(ckpt, "minibomber-static", episodes=3, seed=0,
                        env_kwargs={"size": 6}) == report


class TestCli:
    def test_train_and_summarize(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        rc = cli_main(["train", "--env", "gridgoal", "--env-size", "4",
                       "--env-max-steps", "20", "--hidden", "8",
                       "--workers", "2", "--episode-budget", "6",
                       "--out-dir", out])
        assert rc == 0
        assert os.path.isfile(os.path.join(out, "metrics.csv"))
        table = str(tmp_path / "summary.csv")
        rc = cli_main(["summarize", out, "--threshold", "0.5", "--out", table])
        assert rc == 0
        assert open(table).read().startswith("env,algorithm")
        captured = capsys.readouterr()
        assert "run complete" in captured.out

    def test_sweep_prints_run_dirs(self, tmp_path, capsys):
        out = str(tmp_path / "sw")
        rc = cli_main(["sweep", "--env", "gridgoal", "--env-size", "4",
                       "--env-max-steps", "20", "--hidden", "8",
                       "--workers", "2", "--episode-budget", "3",
                       "--values", "0.25,0.5", "--seeds", "0",
                       "--out-dir", out])
        assert rc == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 2
        assert all(os.path.isfile(os.path.join(d, "config.txt"))
                   for d in printed)

    def test_evaluate_prints_report(self, tmp_path, capsys):
        params = init_model(ModelConfig(16, 4, (8,)), np.random.default_rng(0))
        ckpt = str(tmp_path / "m.ckpt")
        params.save(ckpt)
        rc = cli_main(["evaluate", ckpt, "--env", "gridgoal",
                       "--env-size", "4", "--episodes", "2"])
        assert rc == 0
        assert "mean_reward" in capsys.readouterr().out

    def test_evaluate_rejects_env_size_below_one(self, tmp_path):
        params = init_model(ModelConfig(64, 4, (8,)), np.random.default_rng(0))
        ckpt = str(tmp_path / "m.ckpt")
        params.save(ckpt)
        for size in ("0", "1"):
            with pytest.raises(ValueError, match="size must be at least 2"):
                cli_main(["evaluate", ckpt, "--env", "gridgoal", "--env-size", size])

    def test_evaluate_rejects_episodes_below_one(self, tmp_path, capsys):
        params = init_model(ModelConfig(64, 4, (8,)), np.random.default_rng(0))
        ckpt = str(tmp_path / "m.ckpt")
        params.save(ckpt)
        with pytest.raises(ValueError, match="episodes must be at least 1, not -3"):
            cli_main(["evaluate", ckpt, "--env", "gridgoal", "--episodes", "-3"])
        assert "mean_reward" not in capsys.readouterr().out
