"""Asynchronous multi-worker training loop.

Each worker owns a private environment, a seeded rng, and a local copy of
the network parameters. It collects rollouts of up to t_max steps (never
crossing an episode boundary), computes and norm-clips gradients of the
combined loss locally, hands them to the one `GlobalStore`, which applies
them to the global network under a single writer lock, and reads the
updated global parameters back into its local copy.

Where workers run: with one worker, the worker loop runs in the calling
thread. With more, `train` forks exactly n_workers processes (this needs
the POSIX `fork` start method), and the calling process keeps the
`GlobalStore` and serves them: Adam, the lock, the episode ledger, the
metrics rows and every checkpoint stay in that one process. Each worker
runs `collect_rollout` and `compute_update`, with OpenBLAS pinned to one
thread, over two anonymous shared-memory buffers made before the fork: its
parameters and its gradients. Per update it copies its clipped gradients
into its buffer and sends one message, which carries the finished
episode's length, reward, mean losses and wall time when the update ended
one. The parent applies the update, which writes the new parameters into
the worker's buffer, books the episode, and replies with the horizon, the
version and whether to stop. Any failure, in a worker or in the parent,
terminates and joins every worker before `train` raises.

Only three things run under the lock: the Adam step over the flat
parameter buffer, the version bump, and an `np.copyto` of the new global
buffer into the worker's own local buffer. Clipping runs once per update,
in compute_update, before the lock is taken, and nothing is allocated
inside it.

A finished episode is booked once, by `GlobalStore.finish_episode`, under
the same lock: its length goes to the one TPLabeler (so terminal-prediction
targets are computable at rollout time, before an episode finishes), it
takes the next episode index, and its reward joins the one trailing window
that both the `moving_avg_reward` column and early stopping read. Within
the episode budget it also puts the episode's MetricsRow to the caller's
metrics queue, so rows arrive in index order, and copies the parameters
when a periodic checkpoint is due; the file is written after the lock is
released. The trainer computes the loss parts nowhere itself:
`losses.loss_parts` does, and it alone switches the terminal-prediction
term. A config that asks for plain A3C is turned into `lambda_tp = 0`
once, when `train` starts.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .envs.base import Environment
from .losses import LossParts, LossWeights, TPLabeler, advantages, n_step_returns, tp_targets
from .model import ModelConfig, backward_batch, forward_batch, init_model, sample_action
from .nn import AdamState, ParamSet, adam_step, clip_global_norm

DEFAULT_CLIP_NORM = 40.0
# OpenBLAS's thread-count setter, by the names it has in numpy 2 wheels,
# numpy 1 wheels and a system OpenBLAS.
_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads")


@dataclass
class Rollout:
    obs: np.ndarray           # (T, obs_dim)
    actions: np.ndarray       # (T,)
    rewards: np.ndarray       # (T,)
    values: np.ndarray        # (T,) critic estimates at collection time
    step_indices: np.ndarray  # (T,) absolute step index within the episode
    terminal: bool
    bootstrap_value: float    # 0 when terminal

    def __post_init__(self):
        if self.terminal and self.bootstrap_value != 0.0:
            raise ValueError("terminal rollouts must bootstrap from 0")
        if len(self.actions) < 1:
            raise ValueError("empty rollout")


@dataclass
class TrainConfig:
    model: ModelConfig
    weights: LossWeights = field(default_factory=LossWeights)
    n_workers: int = 8
    seed: int = 0
    episode_budget: int = 1000
    use_tp: bool = True
    clip_norm: float = DEFAULT_CLIP_NORM
    checkpoint_dir: str | None = None
    checkpoint_cadence: int = 0       # episodes between checkpoints; 0 = only final
    early_stop_reward: float | None = None  # stop once MA(window) reaches this
    early_stop_window: int = 100
    lr: float = 1e-4


@dataclass
class MetricsRow:
    """One completed episode, as streamed to the harness."""
    worker_id: int
    episode: int              # global completion index, 1-based
    length: int
    reward: float
    running_n: float          # TPLabeler horizon after recording this episode
    policy_loss: float
    value_loss: float
    tp_loss: float
    entropy: float
    moving_avg_reward: float  # mean reward of the trailing early-stop window
    wall_time: float          # seconds since run start (not deterministic)


# The metrics.csv columns: every MetricsRow field but the wall time, which
# is not reproducible and goes to its own sidecar.
METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRow) if f.name != "wall_time")


class GlobalStore:
    """Shared parameters, optimizer state, and the run's episode ledger.

    Snapshot reads copy under the lock; updates are serialized through
    apply_and_sync, and finished episodes through finish_episode.
    version increases by exactly one per applied update.
    """

    def __init__(self, params: ParamSet, optimizer: AdamState, window: int = 100):
        self.params = params
        self.optimizer = optimizer
        self.labeler = TPLabeler()
        self.episode_count = 0
        self.rewards: deque[float] = deque(maxlen=window)  # the trailing reward window
        self._lock = threading.Lock()

    @property
    def version(self) -> int:
        return self.params.version

    def snapshot(self) -> ParamSet:
        with self._lock:
            return self.params.copy()

    def apply_and_sync(self, grads: ParamSet, local: ParamSet) -> ParamSet:
        """One Adam step on the global params with grads as given (clipping
        belongs to compute_update). The new global params and version are
        copied into `local`, the worker's ParamSet of the same layout, which
        is returned."""
        with self._lock:
            adam_step(self.params, grads, self.optimizer)
            np.copyto(local.flat, self.params.flat)
            local.version = self.params.version
        return local

    def finish_episode(self, cfg: TrainConfig, metrics_queue, worker_id: int, length: int,
                       reward: float, losses: LossParts, wall_time: float):
        """Book one finished episode, all under the lock: record its length in
        the labeler, take the next index, and append its reward to the
        trailing window. Within the budget, put its MetricsRow to
        metrics_queue (when given) and copy the params when a checkpoint is
        due. Returns (index, params copy or None, whether to stop): stop once
        the budget is reached or a full window's mean reaches the target."""
        with self._lock:
            self.labeler.record_episode(length)
            self.episode_count += 1
            index = self.episode_count
            self.rewards.append(reward)
            mean = sum(self.rewards) / len(self.rewards)
            checkpoint = None
            if index <= cfg.episode_budget:
                if metrics_queue is not None:
                    metrics_queue.put(MetricsRow(
                        worker_id, index, length, reward, self.labeler.horizon,
                        losses.policy_loss, losses.value_loss, losses.tp_loss,
                        losses.entropy, mean, wall_time))
                if (cfg.checkpoint_dir is not None and cfg.checkpoint_cadence > 0
                        and index % cfg.checkpoint_cadence == 0):
                    checkpoint = self.params.copy()
            full = len(self.rewards) == self.rewards.maxlen
            stop = index >= cfg.episode_budget or (
                cfg.early_stop_reward is not None and full and mean >= cfg.early_stop_reward)
            return index, checkpoint, stop


def collect_rollout(params: ParamSet, cfg: ModelConfig, env: Environment,
                    obs: np.ndarray, episode_step: int,
                    rng: np.random.Generator, t_max: int):
    """Interact for up to t_max steps under the softmax policy.

    Stops early at episode end. Returns (rollout, next_obs, done); next_obs
    is the first observation of the next episode segment (or the terminal
    observation when done).
    """
    obs_list, actions, rewards, values, indices = [], [], [], [], []
    done = False
    for _ in range(t_max):
        probs, v, _, _ = forward_batch(params, cfg, obs[None, :])
        action = sample_action(probs[0], rng)
        next_obs, reward, done, _info = env.step(action, rng)
        obs_list.append(obs)
        actions.append(action)
        rewards.append(reward)
        values.append(float(v[0]))
        indices.append(episode_step)
        episode_step += 1
        obs = next_obs
        if done:
            break
    if done:
        bootstrap = 0.0
    else:
        _, v, _, _ = forward_batch(params, cfg, obs[None, :])
        bootstrap = float(v[0])
    rollout = Rollout(
        obs=np.array(obs_list), actions=np.array(actions),
        rewards=np.array(rewards), values=np.array(values),
        step_indices=np.array(indices),
        terminal=done, bootstrap_value=bootstrap,
    )
    return rollout, obs, done


def compute_update(rollout: Rollout, params: ParamSet, cfg: ModelConfig,
                   weights: LossWeights, horizon: float | None,
                   clip_norm: float = DEFAULT_CLIP_NORM):
    """Gradients of the combined loss over one rollout, norm-clipped.

    When no episode has completed yet (horizon is None) there are no
    terminal-prediction targets, so the term is off for this update, as it
    is whenever lambda_tp == 0. A non-finite loss part raises
    FloatingPointError. Returns (grads, LossParts).
    """
    ret = n_step_returns(rollout.rewards, rollout.bootstrap_value,
                         weights.gamma, rollout.terminal)
    adv = advantages(ret, rollout.values)
    targets = None if horizon is None else tp_targets(rollout.step_indices, horizon)
    _, _, _, cache = forward_batch(params, cfg, rollout.obs)
    grads, parts = backward_batch(params, cfg, cache, rollout.actions, adv,
                                  ret, targets, weights)
    clip_global_norm(grads, clip_norm)
    return grads, parts


def train(cfg: TrainConfig, env_factory, metrics_queue=None) -> GlobalStore:
    """Run n_workers asynchronous workers until the episode budget (or an
    early-stop threshold) is exhausted.

    env_factory(worker_id) -> Environment, one private instance per worker,
    made in the worker. metrics_queue is anything with a put(row) method,
    such as a queue.Queue: the MetricsRow of each episode within the budget
    is put to it in episode order, from the calling thread, under the
    store's lock; None is put once when training ends. With one worker the
    worker runs in the calling thread; with more, each runs in a forked
    process and the calling thread serves their updates. Any failure stops
    every worker and raises RuntimeError("worker failed") from its cause,
    after the final checkpoint is written. Returns the GlobalStore with
    final parameters.
    """
    if cfg.n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, not {cfg.n_workers}")
    if not cfg.use_tp:  # plain A3C is the objective with lambda_tp == 0
        cfg = replace(cfg, weights=replace(cfg.weights, lambda_tp=0.0))
    if cfg.checkpoint_dir is not None:
        os.makedirs(cfg.checkpoint_dir, exist_ok=True)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_workers + 1)
    params = init_model(cfg.model, np.random.default_rng(seeds[0]))
    store = GlobalStore(params, AdamState.for_params(params, lr=cfg.lr), cfg.early_stop_window)
    start_time = time.monotonic()
    error = None
    try:
        if cfg.episode_budget <= 0:
            pass  # nothing to train, so no worker starts
        elif cfg.n_workers == 1:
            local = store.snapshot()
            book = lambda grads, episode: _apply_and_book(
                store, cfg, metrics_queue, 0, grads, local, episode)
            _worker_loop(cfg, env_factory(0), np.random.default_rng(seeds[1]),
                         local, book, start_time)
        else:
            _serve_workers(cfg, env_factory, seeds[1:], store, metrics_queue, start_time)
    except BaseException as exc:  # propagate after flushing
        error = exc
    if cfg.checkpoint_dir is not None:
        store.snapshot().save(f"{cfg.checkpoint_dir}/final.ckpt")
    if metrics_queue is not None:
        metrics_queue.put(None)
    if error is not None:
        raise RuntimeError("worker failed") from error
    return store


def _apply_and_book(store: GlobalStore, cfg: TrainConfig, metrics_queue, wid: int,
                    grads: ParamSet, local: ParamSet, episode):
    """Apply one worker's update, syncing `local`; when the update ended an
    episode (episode = (length, reward, mean LossParts, wall time)), book it
    and write its checkpoint if one is due. Returns (horizon, stop)."""
    store.apply_and_sync(grads, local)
    stop = False
    if episode is not None:
        index, checkpoint, stop = store.finish_episode(cfg, metrics_queue, wid, *episode)
        if checkpoint is not None:
            checkpoint.save(f"{cfg.checkpoint_dir}/ep{index:08d}.ckpt")
    return store.labeler.horizon, stop


def _worker_loop(cfg: TrainConfig, env: Environment, rng: np.random.Generator,
                 local: ParamSet, book, start_time: float):
    """One worker: collect a rollout with `local`, compute its clipped
    gradients, and hand them to book(grads, episode), which applies them,
    leaves the new parameters in `local`, and returns the horizon for the
    next update and whether to stop. episode is None, or, when the rollout
    ended an episode, (length, reward, mean LossParts, wall time)."""
    horizon = None  # no episode has finished yet
    obs = env.reset(rng)
    episode_step = 0
    episode_reward = 0.0
    acc = LossParts()
    n_updates = 0
    while True:
        rollout, obs, done = collect_rollout(local, cfg.model, env, obs,
                                             episode_step, rng, cfg.weights.t_max)
        episode_step += len(rollout.actions)
        episode_reward += float(rollout.rewards.sum())
        grads, parts = compute_update(rollout, local, cfg.model, cfg.weights,
                                      horizon, clip_norm=cfg.clip_norm)
        acc.policy_loss += parts.policy_loss
        acc.value_loss += parts.value_loss
        acc.tp_loss += parts.tp_loss
        acc.entropy += parts.entropy
        n_updates += 1
        episode = None
        if done:
            losses = LossParts(policy_loss=acc.policy_loss / n_updates,
                               value_loss=acc.value_loss / n_updates,
                               entropy=acc.entropy / n_updates,
                               tp_loss=acc.tp_loss / n_updates)
            episode = (episode_step, episode_reward, losses, time.monotonic() - start_time)
        horizon, stop = book(grads, episode)
        if stop:
            return
        if done:
            obs = env.reset(rng)
            episode_step = 0
            episode_reward = 0.0
            acc = LossParts()
            n_updates = 0


class WorkerError(Exception):
    """A worker process's exception as the parent receives it: its type
    name, its formatted traceback, and the exception itself when it pickles
    (None otherwise)."""

    def __init__(self, type_name: str, traceback: str, exc: BaseException | None = None):
        super().__init__(type_name, traceback, exc)
        self.type_name, self.traceback, self.exc = type_name, traceback, exc

    def __str__(self) -> str:
        return f"{self.type_name} in a worker process:\n{self.traceback}"


def _serve_workers(cfg: TrainConfig, env_factory, seeds, store: GlobalStore,
                   metrics_queue, start_time: float) -> None:
    """Fork one process per worker and apply their updates until every
    worker has been told to stop. Each worker owns two anonymous shared
    buffers, its parameters and its gradients; per update it sends one
    message (the episode it ended, or None) and gets back (horizon,
    version, stop). On any failure every worker is terminated and joined
    before the error propagates."""
    import mmap
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    layout, nbytes = store.params.layout, store.params.flat.nbytes

    def shared(version: int) -> ParamSet:
        flat = np.frombuffer(mmap.mmap(-1, nbytes), dtype=np.float64)
        return ParamSet._over(flat, layout, version)

    workers = []  # (process, connection, local params, grads)
    try:
        for wid in range(cfg.n_workers):
            local, grads = shared(store.version), shared(0)
            np.copyto(local.flat, store.params.flat)
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker_process, daemon=True, args=(
                wid, cfg, env_factory, seeds[wid], local, grads, child_conn, start_time))
            proc.start()
            child_conn.close()  # the worker's exit then reads as EOF here
            workers.append((proc, conn, local, grads))
        live = {conn: wid for wid, (_, conn, _, _) in enumerate(workers)}
        stop = False
        while live:
            for conn in wait(list(live)):
                wid = live[conn]
                proc, _, local, grads = workers[wid]
                try:
                    msg = conn.recv()
                except EOFError:
                    proc.join()
                    raise ChildProcessError(f"worker {wid} exited with code {proc.exitcode} "
                                            "without a message") from None
                if isinstance(msg, WorkerError):
                    if msg.exc is None:
                        raise msg
                    raise msg.exc from msg
                horizon, stop_now = _apply_and_book(store, cfg, metrics_queue, wid,
                                                    grads, local, msg)
                stop = stop or stop_now
                conn.send((horizon, local.version, stop))
                if stop:
                    del live[conn]
        for proc, *_ in workers:  # let told workers exit before `finally` kills stragglers
            proc.join()
    finally:
        for proc, *_ in workers:
            if proc.is_alive():
                proc.terminate()
        for proc, conn, *_ in workers:
            proc.join()
            conn.close()


def _worker_process(wid: int, cfg: TrainConfig, env_factory, seed, local: ParamSet,
                    grads_out: ParamSet, conn, start_time: float) -> None:
    """Body of a forked worker: `local` and `grads_out` are its shared
    buffers, and conn its end of the pipe to the parent."""
    try:
        _pin_blas_to_one_thread()

        def book(grads, episode):
            np.copyto(grads_out.flat, grads.flat)
            conn.send(episode)
            horizon, local.version, stop = conn.recv()
            return horizon, stop

        _worker_loop(cfg, env_factory(wid), np.random.default_rng(seed), local, book, start_time)
    except BaseException as exc:
        import traceback
        try:
            pickle.loads(pickle.dumps(exc))
            sent = exc
        except Exception:
            sent = None
        conn.send(WorkerError(type(exc).__qualname__,
                              "".join(traceback.format_exception(exc)), sent))


def _pin_blas_to_one_thread() -> None:
    """Limit the OpenBLAS that numpy has loaded to one thread, through its
    set_num_threads symbol, so that workers do not oversubscribe the cores.
    The library is found in /proc/self/maps; without it, nothing happens."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            entries = [line.split(None, 5) for line in f]
    except OSError:
        return
    paths = {e[5].strip() for e in entries if len(e) == 6 and "openblas" in e[5]}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return
