"""Output checks for the benchmark workloads.

Every check compares what the program wrote against a property of the
method or against a computation the benchmark makes itself; none compares
against a stored copy of earlier output. A failed check raises CheckError
with a message naming the file and the property.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

GRID_SIZE = 8
GRID_MAX_STEPS = 4 * GRID_SIZE * GRID_SIZE   # GridGoal's default step cap
GRID_MANHATTAN = 2 * (GRID_SIZE - 1)         # shortest start-to-goal path
MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))


class CheckError(AssertionError):
    """An output of the program violates a property the benchmark checks."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- run directories -------------------------------------------------------


def read_metrics_csv(run_dir: str) -> dict[str, list]:
    """Columns of metrics.csv, parsed by the benchmark itself."""
    path = os.path.join(run_dir, "metrics.csv")
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    ints = ("worker_id", "episode", "length")
    cols: dict[str, list] = {}
    for name in ("worker_id", "episode", "length", "reward", "running_n",
                 "policy_loss", "value_loss", "tp_loss", "entropy",
                 "moving_avg_reward"):
        cols[name] = [int(r[name]) if name in ints else float(r[name]) for r in rows]
    return cols


def read_tensors(path: str) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Parse a checkpoint with the benchmark's own reader of the documented
    format: an ASCII header, then little-endian float64 data in manifest
    order."""
    with open(path, "rb") as f:
        blob = f.read()
    end = blob.index(b"end-header\n") + len(b"end-header\n")
    lines = blob[:end].decode("ascii").splitlines()
    require(lines[0] == "A3CTP-TENSORS v1", f"{path}: bad header {lines[0]!r}")
    fields, manifest = {}, []
    for line in lines[1:-1]:
        parts = line.split()
        if parts[0] == "field":
            fields[parts[1]] = " ".join(parts[2:])
        elif parts[0] == "tensor":
            manifest.append((parts[1], tuple(int(d) for d in parts[2].split("x"))))
    tensors, offset = {}, end
    for name, dims in manifest:
        count = int(np.prod(dims))
        tensors[name] = np.frombuffer(blob, "<f8", count, offset).reshape(dims)
        offset += 8 * count
    require(offset == len(blob), f"{path}: {len(blob) - offset} bytes after the tensors")
    return tensors, fields


def trailing_means(rewards: list[float], window: int) -> list[float]:
    """Mean of each full trailing window, summed the way the trainer sums."""
    return [sum(rewards[i + 1 - window:i + 1]) / window
            for i in range(window - 1, len(rewards))]


def check_gridgoal_solve(run_dir: str, budget: int, target: float = 0.9,
                         window: int = 100) -> dict[str, list]:
    """A workers=1 gridgoal run that stopped early at its target."""
    m = read_metrics_csv(run_dir)
    n = len(m["episode"])
    require(0 < n < budget, f"{run_dir}: {n} episodes, target not reached within {budget}")
    require(m["episode"] == list(range(1, n + 1)), f"{run_dir}: episode column is not 1..{n}")
    means = trailing_means(m["reward"], window)
    first = next((i for i, v in enumerate(means) if v >= target), None)
    require(first is not None, f"{run_dir}: trailing {window}-episode mean never reaches {target}")
    require(first + window == n,
            f"{run_dir}: trailing mean first reaches {target} at row {first + window}, "
            f"but the run stopped at row {n}")
    for ep, length, reward in zip(m["episode"], m["length"], m["reward"]):
        require(reward in (0.0, 1.0), f"{run_dir}: episode {ep} reward {reward} is not 0 or 1")
        if reward == 1.0:
            require(length >= GRID_MANHATTAN,
                    f"{run_dir}: episode {ep} reached the goal in {length} < {GRID_MANHATTAN} steps")
        else:
            require(length == GRID_MAX_STEPS,
                    f"{run_dir}: unrewarded episode {ep} lasted {length}, not {GRID_MAX_STEPS}")
    return m


def random_policy_successes(episodes: int, seed: int) -> int:
    """Goal reaches of a uniform-random policy on the gridgoal grid,
    simulated by the benchmark: walls bounce, the episode ends at the goal
    or after GRID_MAX_STEPS moves."""
    rng = np.random.default_rng(seed)
    goal = (GRID_SIZE - 1, GRID_SIZE - 1)
    wins = 0
    for _ in range(episodes):
        r = c = 0
        for a in rng.integers(0, 4, size=GRID_MAX_STEPS):
            dr, dc = MOVES[a]
            if 0 <= r + dr < GRID_SIZE and 0 <= c + dc < GRID_SIZE:
                r, c = r + dr, c + dc
            if (r, c) == goal:
                wins += 1
                break
    return wins


def check_beats_random(success_rate: float, episodes: int, seed: int) -> float:
    """The trained policy succeeds more often than a uniform-random one."""
    baseline = random_policy_successes(episodes, seed) / episodes
    require(success_rate > baseline,
            f"trained success rate {success_rate:.3f} does not beat random {baseline:.3f}")
    return baseline


def check_bomber_train(run_dir: str, budget: int, cadence: int, t_max: int,
                       step_cap: int, initial: dict[str, np.ndarray]) -> dict[str, list]:
    """A fixed-budget minibomber run with periodic checkpoints."""
    m = read_metrics_csv(run_dir)
    require(m["episode"] == list(range(1, budget + 1)),
            f"{run_dir}: metrics.csv rows are not episodes 1..{budget}")
    for ep, length, reward in zip(m["episode"], m["length"], m["reward"]):
        require(reward in (1.0, -1.0), f"{run_dir}: episode {ep} reward {reward} is not +-1")
        require(1 <= length <= step_cap,
                f"{run_dir}: episode {ep} length {length} outside [1, {step_cap}]")
    for col in ("policy_loss", "value_loss", "tp_loss", "entropy"):
        bad = [ep for ep, v in zip(m["episode"], m[col]) if not math.isfinite(v)]
        require(not bad, f"{run_dir}: {col} is not finite at episodes {bad[:5]}")
    ckpt_dir = os.path.join(run_dir, "checkpoints")
    versions = []
    for ep in range(cadence, budget + 1, cadence):
        tensors, fields = read_tensors(os.path.join(ckpt_dir, f"ep{ep:08d}.ckpt"))
        versions.append(int(fields["version"]))
    final, fields = read_tensors(os.path.join(ckpt_dir, "final.ckpt"))
    version = int(fields["version"])
    require(versions == sorted(versions) and (not versions or versions[-1] <= version),
            f"{run_dir}: checkpoint versions {versions} then {version} are not monotone")
    require(sorted(final) == sorted(initial), f"{run_dir}: final checkpoint has other tensors")
    for name, t in final.items():
        require(np.all(np.isfinite(t)), f"{run_dir}: final {name} has non-finite values")
        require(not np.array_equal(t, initial[name]),
                f"{run_dir}: final {name} equals its seeded initial value")
    # Rollouts never cross an episode end, so an episode of length L took at
    # least ceil(L / t_max) updates.
    min_updates = sum(-(-length // t_max) for length in m["length"])
    require(version >= min_updates,
            f"{run_dir}: version {version} < {min_updates} updates the recorded lengths need")
    return m


# -- evaluation --------------------------------------------------------------


def check_eval_report(report, episodes: int) -> dict[str, int]:
    """Tallies sum to the episodes and the mean reward follows from them."""
    counts = report.outcome_counts
    wins, losses, ties = (counts.get(k, 0) for k in ("win", "loss", "tie"))
    require(report.episodes == episodes, f"report covers {report.episodes} of {episodes} episodes")
    require(wins + losses + ties == episodes,
            f"tallies {wins}+{losses}+{ties} do not sum to {episodes} episodes")
    expected = (wins - losses - ties) / episodes
    require(abs(report.mean_reward - expected) <= 1e-12,
            f"mean_reward {report.mean_reward!r} != (wins-losses-ties)/episodes = {expected!r}")
    return {"win": wins, "loss": losses, "tie": ties}


def check_replays(replay_dir: str, report, episodes: int) -> int:
    """Each replay re-simulates to a terminal board after exactly its
    recorded steps, and the re-simulated outcomes tally to the report.
    Returns the total number of recorded steps."""
    from a3ctp.envs.minibomber.board import classify_outcome
    from a3ctp.envs.minibomber.replay import load_replay, replay_board

    tally: dict[str, int] = {}
    total_steps = 0
    for ep in range(episodes):
        path = os.path.join(replay_dir, f"ep{ep:05d}.replay")
        n, cap, seed, actions = load_replay(path)
        try:
            board = replay_board(n, cap, seed, actions)
        except RuntimeError as exc:  # stepped past the end of the episode
            raise CheckError(f"{path}: {exc} before the last recorded action") from exc
        require(board.done, f"{path}: board is not terminal after {len(actions)} actions")
        require(board.step_count == len(actions),
                f"{path}: board ended at step {board.step_count}, recorded {len(actions)}")
        outcome = classify_outcome(board)
        for key in (outcome.result, outcome.cause):
            tally[key] = tally.get(key, 0) + 1
        total_steps += len(actions)
    require(tally == report.outcome_counts,
            f"{replay_dir}: re-simulated outcomes {tally} != reported {report.outcome_counts}")
    require(abs(report.mean_length - total_steps / episodes) <= 1e-9,
            f"{replay_dir}: mean length {report.mean_length} != replays' {total_steps / episodes}")
    return total_steps


# -- oracles for the traced run ---------------------------------------------


def reference_forward(tensors: dict[str, np.ndarray], obs: np.ndarray):
    """The three-headed network recomputed in plain numpy: tanh trunk,
    softmax policy, linear value, sigmoid terminal prediction."""
    h = np.atleast_2d(obs)
    i = 0
    while f"trunk{i}.W" in tensors:
        h = np.tanh(h @ tensors[f"trunk{i}.W"] + tensors[f"trunk{i}.b"])
        i += 1
    logits = h @ tensors["policy.W"] + tensors["policy.b"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    value = (h @ tensors["value.W"] + tensors["value.b"])[:, 0]
    tp = 1.0 / (1.0 + np.exp(-(h @ tensors["tp.W"] + tensors["tp.b"])[:, 0]))
    return probs, value, tp


def check_forward(tensors, obs, probs, value, tp, atol: float = 1e-12) -> None:
    ref = reference_forward(tensors, obs)
    for name, got, want in zip(("policy", "value", "tp"), (probs, value, tp), ref):
        err = float(np.max(np.abs(np.asarray(got) - want)))
        require(err <= atol, f"forward {name} differs from the numpy recomputation by {err:.3g}")


def reference_adam(p, g, m, v, step, lr, b1, b2, eps):
    """One bias-corrected Adam step on copies; returns (p, m, v)."""
    t = step + 1
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * (g * g)
    p = p - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
    return p, m, v


def check_adam(before: dict, after: dict, rtol: float = 1e-12) -> None:
    """before/after: {"params", "grads", "m", "v"} tensor dicts plus "step",
    "version" and the hyper-parameters, captured around one adam_step."""
    require(after["step"] == before["step"] + 1, "adam_step did not advance the step by 1")
    require(after["version"] == before["version"] + 1, "adam_step did not advance the version by 1")
    for k in before["params"]:
        want = reference_adam(before["params"][k], before["grads"][k], before["m"][k],
                              before["v"][k], before["step"], before["lr"],
                              before["beta1"], before["beta2"], before["eps"])
        for name, got, ref in zip(("param", "m", "v"),
                                  (after["params"][k], after["m"][k], after["v"][k]), want):
            require(np.allclose(got, ref, rtol=rtol, atol=1e-300),
                    f"adam_step {name} of {k} differs from the Adam formula")
