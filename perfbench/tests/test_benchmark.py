"""Tests of the benchmark itself: every workload runs in quick mode with all
of its checks, and every check rejects a corrupted output.

    python3 -m pytest perfbench/tests -q      (from the root of a checkout)
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from a3ctp import ModelConfig, ParamSet, RunConfig, evaluate, init_model, run_experiment  # noqa: E402
from a3ctp.envs.minibomber.board import classify_outcome  # noqa: E402
from a3ctp.envs.minibomber.replay import load_replay, replay_board, save_replay  # noqa: E402

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import BomberTrain  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args):
    out = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_every_metric(workload, trace):
    result = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--quick")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.forward_checks"]["value"] > 0
        assert result["metrics"]["trace.adam_checks"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bomber-train-2w",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_reports_incorrect_when_every_round_fails_a_check(monkeypatch, capsys):
    import run
    import workloads

    def bad_round(self, index, tracer=None):
        raise CheckError("corrupted output")
    monkeypatch.setattr(workloads.GridgoalSolve, "round", bad_round)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "gridgoal-solve-1w", "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--quick"])
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 1 * workloads.GridgoalSolve(
        3, "unused", quick=True).ops_per_round, "failed": 0, "metrics": {}}


# -- gridgoal ----------------------------------------------------------------


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("grid") / "run")
    run_experiment(RunConfig(env="gridgoal", workers=1, seed=0, episode_budget=1000,
                             early_stop_reward=0.9, out_dir=out))
    return out


def rewrite_metrics(src, dst, edit):
    """Copy a run directory, passing metrics.csv rows through edit(rows)."""
    shutil.copytree(src, dst)
    path = os.path.join(dst, "metrics.csv")
    with open(path) as f:
        header, *rows = [line.split(",") for line in f.read().splitlines()]
    rows = edit(rows)
    with open(path, "w") as f:
        f.write("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    return dst


REWARD, LENGTH, LOSS = 3, 2, 5   # metrics.csv column positions


def test_gridgoal_check_accepts_real_run(grid_run):
    m = checks.check_gridgoal_solve(grid_run, 1000)
    assert len(m["episode"]) < 1000


def test_gridgoal_check_rejects_average_below_target(grid_run, tmp_path):
    def drop_last_success(rows):
        rows[-1][REWARD] = "0.0"
        rows[-1][LENGTH] = str(checks.GRID_MAX_STEPS)
        return rows
    bad = rewrite_metrics(grid_run, tmp_path / "bad", drop_last_success)
    with pytest.raises(CheckError, match="never reaches|first reaches"):
        checks.check_gridgoal_solve(str(bad), 1000)


def test_gridgoal_check_rejects_run_past_the_target(grid_run, tmp_path):
    bad = rewrite_metrics(grid_run, tmp_path / "bad", lambda rows: rows + [
        ["0", str(len(rows) + 1), "20", "1.0"] + rows[-1][4:]])
    with pytest.raises(CheckError, match="first reaches"):
        checks.check_gridgoal_solve(str(bad), 1000)


def test_gridgoal_check_rejects_impossible_lengths(grid_run, tmp_path):
    def short_success(rows):
        i = next(i for i, r in enumerate(rows) if r[REWARD] == "1.0")
        rows[i][LENGTH] = str(checks.GRID_MANHATTAN - 1)
        return rows
    with pytest.raises(CheckError, match="reached the goal in"):
        checks.check_gridgoal_solve(str(rewrite_metrics(grid_run, tmp_path / "a", short_success)), 1000)

    def short_failure(rows):
        i = next(i for i, r in enumerate(rows) if r[REWARD] == "0.0")
        rows[i][LENGTH] = str(checks.GRID_MAX_STEPS - 1)
        return rows
    with pytest.raises(CheckError, match="unrewarded"):
        checks.check_gridgoal_solve(str(rewrite_metrics(grid_run, tmp_path / "b", short_failure)), 1000)


def test_random_policy_check():
    rate = checks.random_policy_successes(200, 5) / 200
    assert 0.0 < rate < 1.0
    checks.check_beats_random(min(1.0, rate + 0.01), 200, 5)
    with pytest.raises(CheckError, match="does not beat"):
        checks.check_beats_random(rate, 200, 5)


# -- bomberman training ------------------------------------------------------

BUDGET, CADENCE = 10, 5


@pytest.fixture(scope="module")
def bomber(tmp_path_factory):
    base = tmp_path_factory.mktemp("bomber")
    wl = BomberTrain(7, str(base), quick=True)
    wl.setup()
    out = str(base / "run")
    run_experiment(RunConfig(env="minibomber-static", workers=2, seed=7,
                             episode_budget=BUDGET, checkpoint_cadence=CADENCE, out_dir=out))
    return wl, out


def check_bomber(wl, run_dir):
    return checks.check_bomber_train(str(run_dir), BUDGET, CADENCE, 20, 800, wl.initial_tensors(7))


def test_bomber_check_accepts_real_run(bomber):
    wl, out = bomber
    assert len(check_bomber(wl, out)["episode"]) == BUDGET


@pytest.mark.parametrize("edit, message", [
    (lambda rows: rows[:-1], "rows are not"),
    (lambda rows: [r[:REWARD] + ["0.0"] + r[REWARD + 1:] for r in rows], "is not \\+-1"),
    (lambda rows: [r[:LENGTH] + ["0"] + r[LENGTH + 1:] for r in rows], "outside"),
    (lambda rows: [r[:LOSS] + ["nan"] + r[LOSS + 1:] for r in rows], "not finite"),
])
def test_bomber_check_rejects_bad_metrics(bomber, tmp_path, edit, message):
    wl, out = bomber
    with pytest.raises(CheckError, match=message):
        check_bomber(wl, rewrite_metrics(out, tmp_path / "bad", edit))


def test_bomber_check_rejects_untrained_checkpoint(bomber, tmp_path):
    wl, out = bomber
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    final = ParamSet.load(bad / "checkpoints" / "final.ckpt")
    ParamSet(wl.initial_tensors(7), version=final.version).save(bad / "checkpoints" / "final.ckpt")
    with pytest.raises(CheckError, match="equals its seeded initial value"):
        check_bomber(wl, bad)


def test_bomber_check_rejects_too_few_updates(bomber, tmp_path):
    wl, out = bomber
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    # Every checkpoint gets the same low version, so the versions stay
    # monotone and only the count of updates is wrong.
    for path in (bad / "checkpoints").iterdir():
        ckpt = ParamSet.load(path)
        ckpt.version = 1
        ckpt.save(path)
    with pytest.raises(CheckError, match="updates the recorded lengths need"):
        check_bomber(wl, bad)


# -- evaluation ----------------------------------------------------------------

EPISODES = 6


@pytest.fixture(scope="module")
def evaluation(bomber):
    wl, out = bomber
    replay_dir = os.path.join(out, "eval-replays")
    report = evaluate(wl.eval_ckpt, "minibomber-rulebased", EPISODES, seed=3,
                      sample=True, replay_dir=replay_dir)
    return report, replay_dir


def test_eval_checks_accept_real_report(evaluation):
    report, replay_dir = evaluation
    checks.check_eval_report(report, EPISODES)
    assert checks.check_replays(replay_dir, report, EPISODES) == round(report.mean_length * EPISODES)


def test_eval_report_check_rejects_bad_tallies(evaluation):
    report, _ = evaluation
    bad = copy.deepcopy(report)
    bad.outcome_counts["loss"] = bad.outcome_counts.get("loss", 0) + 1
    with pytest.raises(CheckError, match="do not sum"):
        checks.check_eval_report(bad, EPISODES)
    bad = copy.deepcopy(report)
    bad.mean_reward += 1e-9
    with pytest.raises(CheckError, match="mean_reward"):
        checks.check_eval_report(bad, EPISODES)


def test_replay_check_rejects_one_changed_action(evaluation, tmp_path):
    report, replay_dir = evaluation
    bad_dir = tmp_path / "replays"
    shutil.copytree(replay_dir, bad_dir)
    # Find one single-action change that alters how some episode ends; the
    # check must notice it.
    for ep in range(EPISODES):
        path = os.path.join(bad_dir, f"ep{ep:05d}.replay")
        n, cap, seed, actions = load_replay(path)
        original = classify_outcome(replay_board(n, cap, seed, actions))
        for step in range(len(actions) - 1, -1, -1):
            for a in range(6):
                changed = list(actions)
                changed[step] = (a, actions[step][1])
                try:
                    board = replay_board(n, cap, seed, changed)
                except RuntimeError:
                    board = None
                if board is None or not board.done or classify_outcome(board) != original:
                    save_replay(path, n, cap, seed, changed)
                    with pytest.raises(CheckError):
                        checks.check_replays(str(bad_dir), report, EPISODES)
                    return
    pytest.fail("no single-action change altered an episode")


# -- oracles ---------------------------------------------------------------------


def test_forward_oracle_rejects_off_by_1e6():
    from a3ctp.model import forward_batch
    cfg = ModelConfig(64, 4, (128, 128))
    params = init_model(cfg, np.random.default_rng(0))
    obs = np.zeros((1, 64))
    obs[0, 9] = 1.0
    probs, value, tp, _ = forward_batch(params, cfg, obs)
    checks.check_forward(params.tensors, obs, probs, value, tp)
    with pytest.raises(CheckError, match="policy"):
        checks.check_forward(params.tensors, obs, probs + 1e-6, value, tp)
    with pytest.raises(CheckError, match="value"):
        checks.check_forward(params.tensors, obs, probs, value - 1e-6, tp)


def test_adam_oracle_rejects_a_perturbed_step():
    from a3ctp.nn import AdamState, adam_step
    rng = np.random.default_rng(1)
    params = ParamSet({"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)})
    state = AdamState.for_params(params)
    grads = ParamSet({"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)})
    adam_step(params, grads, state)   # a non-zero starting state
    before = {
        "params": {k: v.copy() for k, v in params.tensors.items()},
        "grads": {k: v.copy() for k, v in grads.tensors.items()},
        "m": {k: v.copy() for k, v in state.m.tensors.items()},
        "v": {k: v.copy() for k, v in state.v.tensors.items()},
        "step": state.step, "version": params.version, "lr": state.lr,
        "beta1": state.beta1, "beta2": state.beta2, "eps": state.eps,
    }
    adam_step(params, grads, state)
    after = {"params": params.tensors, "m": state.m.tensors, "v": state.v.tensors,
             "step": state.step, "version": params.version}
    checks.check_adam(before, after)
    after["params"] = {k: v * (1 + 1e-9) for k, v in params.tensors.items()}
    with pytest.raises(CheckError, match="param"):
        checks.check_adam(before, after)
