"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Run with -s to see the verdict lines as they complete. Criteria 7 and the
full-budget half of criterion 10 are long directional experiments and carry
the `extended` marker (deselected by default; run with `pytest -m extended`).
"""

import os

import numpy as np
import pytest

from a3ctp.envs.gridgoal import GridGoal
from a3ctp.envs.minibomber.board import (
    BOMB, BOMB_TIMER, DEFAULT_STEP_CAP, FLAME_LIFETIME, PASSAGE, STAY,
    AgentState, BomberBoard, generate_board,
)
from a3ctp.envs.minibomber.opponents import (
    _safe_neighbors, danger_map, rulebased_opponent,
)
from a3ctp.harness import (
    RunConfig, read_metrics, run_experiment, summarize, summary_table,
    sweep_lambda_tp,
)
from a3ctp.losses import EPISODE_LENGTH_WINDOW, LossWeights, TPLabeler, tp_loss, tp_targets
from a3ctp.model import ModelConfig, init_model, model_backward, rollout_loss
from a3ctp.nn import AdamState, gradient_check
from a3ctp.trainer import train

from minibomber_traces import TRACES


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_exact_constants():
    w = LossWeights()
    ok = (w.lambda_v, w.lambda_pi, w.lambda_h, w.lambda_tp) == (0.5, 1.0, 0.01, 0.5)
    ok = ok and RunConfig().lr == 1e-4
    params = init_model(ModelConfig(4, 2, (8,)), np.random.default_rng(0))
    ok = ok and AdamState.for_params(params).lr == 1e-4
    ok = ok and EPISODE_LENGTH_WINDOW == 100 and TPLabeler().window == 100
    ok = ok and BOMB_TIMER == 10 and FLAME_LIFETIME == 2 and DEFAULT_STEP_CAP == 800
    _verdict(1, "exact constants", ok)


def test_criterion_02_gradient_integrity():
    trunks = [(8,), (12,), (8, 6)]
    weights = LossWeights()
    worst = 0.0
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cfg = ModelConfig(10, 4, trunks[seed % 3])
        params = init_model(cfg, rng)
        T = 6
        obs = rng.normal(size=(T, 10))
        actions = rng.integers(0, 4, size=T)
        adv = rng.normal(size=T)
        ret = rng.normal(size=T)
        tgt = rng.random(T)

        def loss_fn(p):
            return rollout_loss(p, cfg, obs, actions, adv, ret, tgt, weights)

        def grad_fn(p):
            return model_backward(p, cfg, obs, actions, adv, ret, tgt, weights)[0]

        report = gradient_check(params, loss_fn, grad_fn, tolerance=1e-4)
        worst = max(worst, report.max_rel_error)
        ok = ok and report.passed

        def bad_grad_fn(p):
            g = grad_fn(p)
            g["policy.W"] = g["policy.W"] * 1.5
            return g

        ok = ok and not gradient_check(params, loss_fn, bad_grad_fn,
                                       tolerance=1e-4).passed
    _verdict(2, f"gradient integrity, max rel err {worst:.2e}", ok)


def test_criterion_03_tp_label_properties():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(1000):
        length = int(rng.integers(1, 500))
        horizon = int(rng.integers(1, 400))
        idx = np.arange(length + 1)
        y = tp_targets(idx, float(horizon))
        ok = ok and np.all(y >= 0.0) and np.all(y <= 1.0)
        ok = ok and np.all(np.diff(y) >= 0.0)
        ok = ok and y[0] == 0.0
        if length >= horizon:
            ok = ok and y[horizon] == 1.0
            ok = ok and np.all(y[horizon:] == 1.0)
        ok = ok and tp_loss(y, y) == 0.0
        if not ok:
            break
    _verdict(3, "terminal-prediction label properties", ok)


def _train_1000(algorithm: str, lambda_tp: float, ckpt_dir: str):
    # hidden 32 on GridGoal(8) is the network ModelConfig(64, 4, (32,))
    cfg = RunConfig(algorithm=algorithm, lambda_tp=lambda_tp, hidden="32",
                    workers=1, seed=11, episode_budget=1000, checkpoint_cadence=250)
    rows = []
    store = train(cfg, lambda wid: GridGoal(8), checkpoint_dir=ckpt_dir,
                  on_episode=lambda row: rows.append((row.episode, row.length, row.reward)))
    return store, rows


def test_criterion_04_a3c_recovery(tmp_path):
    s_tp, rows_tp = _train_1000("a3c-tp", 0.0, str(tmp_path / "tp0"))
    s_a3c, rows_a3c = _train_1000("a3c", 0.5, str(tmp_path / "a3c"))
    ok = rows_tp == rows_a3c
    ok = ok and s_tp.params.equal_bits(s_a3c.params)
    for name in sorted(os.listdir(tmp_path / "tp0")):
        with open(tmp_path / "tp0" / name, "rb") as f1, \
                open(tmp_path / "a3c" / name, "rb") as f2:
            ok = ok and f1.read() == f2.read()
    _verdict(4, "a3c recovered bit-identically at zero tp weight", ok)


def test_criterion_05_deterministic_metrics(tmp_path):
    def run(sub):
        cfg = RunConfig(env="gridgoal", env_size=8, workers=1, seed=7,
                        episode_budget=200, out_dir=str(tmp_path / sub))
        d = run_experiment(cfg)
        with open(os.path.join(d, "metrics.csv"), "rb") as f:
            return f.read()

    ok = run("a") == run("b")
    _verdict(5, "byte-identical single-worker metrics", ok)


def test_criterion_06_learning_sanity(tmp_path):
    ok = True
    details = []
    for seed in range(3):
        cfg = RunConfig(env="gridgoal", env_size=8, algorithm="a3c",
                        workers=8, seed=seed, episode_budget=50000,
                        early_stop_reward=0.9,
                        out_dir=str(tmp_path / f"g{seed}"))
        m = read_metrics(run_experiment(cfg))
        reached = bool(np.any(m["moving_avg_reward"] >= 0.9))
        ok = ok and reached and m["episode"].size <= 50000
        details.append(f"gridgoal seed {seed}: {m['episode'].size} eps")
    for seed in range(3):
        cfg = RunConfig(env="polebalance", algorithm="a3c", workers=8,
                        seed=seed, episode_budget=50000,
                        early_stop_reward=180.0,
                        out_dir=str(tmp_path / f"p{seed}"))
        m = read_metrics(run_experiment(cfg))
        reached = bool(np.any(m["moving_avg_reward"] >= 180.0))
        ok = ok and reached
        details.append(f"polebalance seed {seed}: {m['episode'].size} eps")
    _verdict(6, "learning sanity — " + "; ".join(details), ok)


def _directional_comparison(tmp_path, env, env_size, threshold, budget,
                            env_max_steps=0):
    dirs = []
    for algo, lam in (("a3c", 0.0), ("a3c-tp", 0.5)):
        for seed in range(3):
            cfg = RunConfig(env=env, env_size=env_size,
                            env_max_steps=env_max_steps, algorithm=algo,
                            lambda_tp=lam, workers=8, seed=seed,
                            episode_budget=budget,
                            early_stop_reward=threshold,
                            out_dir=str(tmp_path / f"{env}-{algo}-{seed}"))
            dirs.append(run_experiment(cfg))
    by_algo = {s.algorithm: s for s in summarize(dirs, threshold)}
    a3c, tp = by_algo["a3c"], by_algo["a3c-tp"]
    speed_ok = (tp.mean_episodes_to_threshold
                <= 1.2 * a3c.mean_episodes_to_threshold)
    reward_ok = tp.final_ma_mean >= a3c.final_ma_mean - 0.05
    detail = (f"{env}: tp {tp.mean_episodes_to_threshold:.0f} eps vs "
              f"a3c {a3c.mean_episodes_to_threshold:.0f}; final MA "
              f"{tp.final_ma_mean:.3f} vs {a3c.final_ma_mean:.3f}")
    return speed_ok and reward_ok, detail


@pytest.mark.extended
def test_criterion_07_directional_tp_claim(tmp_path):
    ok1, d1 = _directional_comparison(tmp_path, "gridgoal", 8,
                                      threshold=0.9, budget=50000)
    # 6x6 board with a 200-step cap: full 800-step timeout episodes make
    # desk-scale budgets unworkable once the policy learns to survive
    ok2, d2 = _directional_comparison(tmp_path, "minibomber-static", 6,
                                      threshold=-0.5, budget=4000,
                                      env_max_steps=200)
    _verdict(7, f"directional tp claim — {d1}; {d2}", ok1 and ok2)


def test_criterion_08_dynamics_traces():
    ok = len(TRACES) >= 10
    failed = []
    for trace in TRACES:
        try:
            trace()
        except AssertionError:
            failed.append(trace.__name__)
    ok = ok and not failed
    _verdict(8, f"{len(TRACES)} scripted dynamics traces, failures {failed}", ok)


def _bfs_distances(board: BomberBoard, start):
    """Independent unit-cost shortest paths over passage cells."""
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for (r, c) in frontier:
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                cell = (r + dr, c + dc)
                if (board.in_bounds(*cell) and board.grid[cell] == PASSAGE
                        and cell not in dist):
                    dist[cell] = dist[(r, c)] + 1
                    nxt.append(cell)
        frontier = nxt
    return dist


def test_criterion_09_rulebased_opponent():
    # pathing: on 50 seeded open boards with a single visible power-up and
    # no threats, the first move must lie on a shortest path to it
    moves = {1: (-1, 0), 2: (1, 0), 3: (0, -1), 4: (0, 1)}
    path_ok = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        b = BomberBoard(8)
        me = (int(rng.integers(3, 8)), int(rng.integers(3, 8)))
        b.agents = [AgentState(0, 0), AgentState(*me)]
        while True:
            goal = (int(rng.integers(0, 8)), int(rng.integers(0, 8)))
            if goal != me and goal != (0, 0):
                break
        b.visible_powerup[goal] = 1
        action = rulebased_opponent(b, 1, np.random.default_rng(seed))
        dist = _bfs_distances(b, me)
        dr, dc = moves.get(action, (0, 0))
        nxt = (me[0] + dr, me[1] + dc)
        path_ok = path_ok and action in moves
        path_ok = path_ok and dist.get(goal) is not None
        nxt_dist = _bfs_distances(b, nxt).get(goal, 10 ** 9)
        path_ok = path_ok and nxt_dist == dist[goal] - 1

    # safety: across 50 generated boards it never stays on a cell its own
    # blast map marks lethal next step while a safe neighbor exists
    safety_ok = True
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        b = generate_board(rng)
        for _ in range(40):
            if b.done:
                break
            action = rulebased_opponent(b, 1, rng)
            danger = danger_map(b)
            if (danger.get(b.agents[1].pos, 99) <= 1 and action in (STAY, BOMB)
                    and _safe_neighbors(b, 1, danger)):
                safety_ok = False
            b.step((STAY, action))
    _verdict(9, "rule-based opponent pathing and safety", path_ok and safety_ok)


def _sweep(tmp_path, budget, early_stop=float("nan")):
    base = RunConfig(env="gridgoal", env_size=8, workers=4,
                     episode_budget=budget, early_stop_reward=early_stop,
                     out_dir=str(tmp_path / "sweep"))
    dirs = sweep_lambda_tp(base, [0.25, 0.5, 0.75, 1.0], [0, 1, 2])
    complete = all(
        os.path.isfile(os.path.join(d, f))
        for d in dirs for f in ("config.txt", "metrics.csv",
                                os.path.join("checkpoints", "final.ckpt")))
    table = summary_table(summarize(dirs, threshold=0.9))
    return dirs, complete, table


def test_criterion_10_sweep_harness(tmp_path):
    # functional check of the sweep protocol at a reduced episode budget
    dirs, complete, table = _sweep(tmp_path, budget=30)
    ok = len(dirs) == 12 and complete and len(table.strip().split("\n")) == 5
    _verdict(10, "sweep harness (reduced budget)", ok)


@pytest.mark.extended
def test_criterion_10_sweep_harness_full(tmp_path):
    dirs, complete, table = _sweep(tmp_path, budget=50000, early_stop=0.9)
    ok = len(dirs) == 12 and complete
    print("lambda_tp sweep summary (observed, not asserted):")
    print(table)
    _verdict(10, "sweep harness (full budget)", ok)
