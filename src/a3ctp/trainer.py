"""Asynchronous multi-worker training loop.

Each worker owns a private environment, a seeded rng, and a local copy of
the network parameters. It collects rollouts of up to t_max steps (never
crossing an episode boundary), computes and norm-clips gradients of the
combined loss locally, hands them to the one `GlobalStore`, which applies
them to the global network under a single writer lock, and reads the
updated global parameters back into its local copy.

The model has two forward entry points, and each has one place here.
`collect_rollout` acts through `model.act`, one observation at a time,
which computes only the policy row and the value. `compute_update` runs
`model.forward_batch` over the whole rollout for the backward pass. It does
not reuse the act steps' activations, because a 1-row product rounds
differently from the same row inside a batch, and every byte-identity
reference rests on the batched forward.

Where workers run: with one worker, the worker loop runs in the calling
thread. With more, `train` forks exactly `workers` processes (this needs
the POSIX `fork` start method), and the calling process keeps the
`GlobalStore` and serves them: Adam, the lock, the episode ledger, the
metrics rows and every checkpoint stay in that one process. Each worker
runs `collect_rollout` and `compute_update`, with OpenBLAS pinned to one
thread, over two anonymous shared-memory buffers made before the fork: its
parameters and its gradients. Per update it copies its clipped gradients
into its buffer and sends one message, which carries the finished
episode's length, reward and mean losses when the update ended one. The
parent books the update, which writes the new parameters into the
worker's buffer, and replies with the horizon, the version and whether to
stop. Any failure, in a worker or in the parent, terminates and joins
every worker before `train` raises.

An update holds the lock for only three things: the Adam step over the flat
parameter buffer, the version bump, and an `np.copyto` of the new global
buffer into the worker's own local buffer. Clipping runs once per update,
in compute_update, before the lock is taken, and nothing is allocated
inside it.

The store is built once per run, from the run's `RunConfig`, and
`GlobalStore.book` is the one call both worker paths make per update. It
applies the update, and when the update ended an episode it books the
episode under the same lock: its length goes to the one TPLabeler (so
terminal-prediction targets are computable at rollout time, before an
episode finishes), it takes the next episode index, and its reward joins
the one trailing window that both the `moving_avg_reward` column and early
stopping read. Within the episode budget it also hands the episode's
MetricsRow, with its wall time since the store was built, to `on_episode`,
so rows arrive in index order, and copies the parameters when a periodic
checkpoint is due; the file is written after the lock is released.

A run is described by one `RunConfig`, which `train` reads directly. The
trainer computes the loss nowhere itself: `losses.loss_parts` owns the
objective, its gradient at the three heads and the terminal-prediction
switch, and `model.backward_batch` applies only the chain rule through the
network. Plain A3C is decided once, by `RunConfig.weights`, which gives it
`lambda_tp = 0`; `train` builds those weights once and hands them to the
workers.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, fields, replace

import numpy as np

from .envs import ENV_NAMES
from .envs.base import Environment
from .losses import LossParts, LossWeights, TPLabeler, advantages, n_step_returns, tp_targets
from .model import ModelConfig, act, backward_batch, forward_batch, init_model, sample_action
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

ALGORITHMS = ("a3c", "a3c-tp")


@dataclass
class RunConfig:
    """Everything one training run is made of; `config.txt` holds one line
    per field. Rejects, with ValueError, an unknown env or algorithm, a
    board size below 2, a `hidden` that is not comma-separated widths of at
    least 1, fewer than one worker, a moving window shorter than one
    episode, a negative (or nan) value of a `_NONNEGATIVE` field, and any
    loss weight LossWeights rejects."""
    env: str = "gridgoal"
    env_size: int = 8
    env_max_steps: int = 0        # 0 = environment default
    algorithm: str = "a3c-tp"
    lambda_v: float = 0.5
    lambda_pi: float = 1.0
    lambda_h: float = 0.01
    lambda_tp: float = 0.5
    gamma: float = 0.99
    t_max: int = 20
    hidden: str = "128,128"
    workers: int = 8
    seed: int = 0
    episode_budget: int = 1000
    checkpoint_cadence: int = 0   # episodes between checkpoints; 0 = only final
    lr: float = 1e-4
    clip_norm: float = DEFAULT_CLIP_NORM
    moving_window: int = 100      # trailing episodes of moving_avg_reward and early stop
    early_stop_reward: float = float("nan")  # full-window mean that stops training; nan = never
    out_dir: str = "runs/run"

    _NONNEGATIVE = ("env_max_steps", "episode_budget", "checkpoint_cadence", "lr", "clip_norm")

    def __post_init__(self):
        if self.env not in ENV_NAMES:
            raise ValueError(f"env must be one of {ENV_NAMES}, not {self.env!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.env_size < 2:
            raise ValueError(f"env_size must be at least 2, not {self.env_size}")
        try:
            widths_ok = all(h >= 1 for h in self.hidden_sizes())
        except ValueError:
            widths_ok = False
        if not widths_ok:
            raise ValueError(f"hidden must be comma-separated widths of at least 1, "
                             f"not {self.hidden!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, not {self.workers}")
        if self.moving_window < 1:
            raise ValueError(f"moving_window must be at least 1, not {self.moving_window}")
        for name in self._NONNEGATIVE:
            if not getattr(self, name) >= 0:  # nan fails too
                raise ValueError(f"{name} must be nonnegative, not {getattr(self, name)}")
        self.weights()

    def weights(self) -> LossWeights:
        """The loss weights. Plain A3C is the objective with lambda_tp = 0;
        the configured lambda_tp is validated either way."""
        w = LossWeights(self.lambda_v, self.lambda_pi, self.lambda_h,
                        self.lambda_tp, self.gamma, self.t_max)
        return w if self.algorithm == "a3c-tp" else replace(w, lambda_tp=0.0)

    def hidden_sizes(self) -> tuple[int, ...]:
        """The hidden widths, none for an empty `hidden`. Raises ValueError
        unless every comma-separated field is decimal digits."""
        parts = self.hidden.split(",") if self.hidden else []
        if not all(p.isdigit() for p in parts):
            raise ValueError(f"malformed hidden {self.hidden!r}")
        return tuple(int(p) for p in parts)

    def env_kwargs(self) -> dict:
        return {"size": self.env_size, "max_steps": self.env_max_steps}

    @classmethod
    def parsers(cls) -> dict:
        """Field name -> the function that parses its value from text (int,
        float or str, by the field's annotation): for `load` and the CLI."""
        return {f.name: {"int": int, "float": float}.get(f.type, str) for f in fields(cls)}

    def save(self, path) -> None:
        with open(path, "w") as f:
            for fld in fields(self):
                f.write(f"{fld.name}={getattr(self, fld.name)}\n")

    @classmethod
    def load(cls, path) -> "RunConfig":
        """Read a file written by `save`: key=value lines, where blank lines
        and lines starting with '#' are skipped and a missing key keeps its
        default. Raises ValueError, naming the line, for a line without '=',
        an unknown key, a repeated key, a value of the wrong type or a value
        RunConfig rejects on its own; a rejection that no single line causes
        names the file."""
        kwargs, wheres = {}, {}
        parsers = cls.parsers()
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, value = line.partition("=")
                where = f"{path}, line {lineno} ({line!r})"
                if not eq:
                    raise ValueError(f"{where}: not a key=value line")
                if key not in parsers:
                    raise ValueError(f"{where}: unknown key {key!r}")
                if key in kwargs:
                    raise ValueError(f"{where}: repeated key {key!r}")
                try:
                    kwargs[key] = parsers[key](value)
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
                wheres[key] = where
        try:
            return cls(**kwargs)
        except ValueError as exc:
            for key, value in kwargs.items():
                try:
                    cls(**{key: value})
                except ValueError as own:
                    raise ValueError(f"{wheres[key]}: {own}") from None
            raise ValueError(f"{path}: {exc}") from None


class GlobalStore:
    """Shared parameters, optimizer state, and the episode ledger of the one
    run that `cfg` describes: its reward window, episode budget, early-stop
    target and checkpoint cadence all come from cfg.

    Snapshot reads copy under the lock; updates are serialized through
    apply_and_sync, which `book` calls for every update.
    version increases by exactly one per applied update.
    """

    def __init__(self, params: ParamSet, optimizer: AdamState, cfg: RunConfig,
                 on_episode=None, checkpoint_dir: str | None = None):
        self.params = params
        self.optimizer = optimizer
        self.cfg = cfg
        self.on_episode = on_episode
        self.checkpoint_dir = checkpoint_dir
        self.labeler = TPLabeler()
        self.episode_count = 0
        self.rewards: deque[float] = deque(maxlen=cfg.moving_window)  # the trailing reward window
        self.start_time = time.monotonic()
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

    def book(self, worker_id: int, grads: ParamSet, local: ParamSet, episode):
        """Book one update of worker `worker_id`: apply it through
        apply_and_sync, leaving the new parameters in `local`. When it ended
        an episode (episode = (length, reward, mean LossParts), else None),
        book that too, all under the lock: record its length in the labeler,
        take the next index, and append its reward to the trailing window.
        Within the budget, hand its MetricsRow to on_episode (when given)
        and, with a checkpoint_dir, copy the params when a checkpoint is
        due; the copy is written after the lock is released. Returns the
        horizon for the worker's next update and whether to stop: once the
        budget is reached or a full window's mean reaches
        cfg.early_stop_reward (never, when it is nan)."""
        self.apply_and_sync(grads, local)
        if episode is None:
            return self.labeler.horizon, False
        length, reward, losses = episode
        cfg, checkpoint = self.cfg, None
        with self._lock:
            self.labeler.record_episode(length)
            self.episode_count += 1
            index = self.episode_count
            self.rewards.append(reward)
            mean = sum(self.rewards) / len(self.rewards)
            if index <= cfg.episode_budget:
                if self.on_episode is not None:
                    self.on_episode(MetricsRow(
                        worker_id, index, length, reward, self.labeler.horizon,
                        losses.policy_loss, losses.value_loss, losses.tp_loss,
                        losses.entropy, mean, time.monotonic() - self.start_time))
                if (self.checkpoint_dir is not None and cfg.checkpoint_cadence > 0
                        and index % cfg.checkpoint_cadence == 0):
                    checkpoint = self.params.copy()
            full = len(self.rewards) == self.rewards.maxlen
            stop = index >= cfg.episode_budget or (full and mean >= cfg.early_stop_reward)
        if checkpoint is not None:
            checkpoint.save(f"{self.checkpoint_dir}/ep{index:08d}.ckpt")
        return self.labeler.horizon, stop


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
        probs, value = act(params, cfg, obs)
        action = sample_action(probs, rng)
        next_obs, reward, done, _info = env.step(action, rng)
        obs_list.append(obs)
        actions.append(action)
        rewards.append(reward)
        values.append(value)
        indices.append(episode_step)
        episode_step += 1
        obs = next_obs
        if done:
            break
    bootstrap = 0.0 if done else act(params, cfg, obs)[1]
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


def train(cfg: RunConfig, env_factory, on_episode=None,
          checkpoint_dir: str | None = None) -> GlobalStore:
    """Run cfg.workers asynchronous workers until the episode budget (or
    the early-stop target) is reached.

    env_factory(worker_id) -> Environment, one private instance per worker,
    made in the worker; the network's input and output sizes come from
    env_factory(0).spec(), its hidden widths from cfg.hidden. The cfg.env
    fields are not read here. The run's one GlobalStore is built from cfg,
    on_episode and checkpoint_dir, and books every update: on_episode(row),
    when given, is called with the MetricsRow of each episode within the
    budget, in episode order, from the calling thread, under the store's
    lock. With a checkpoint_dir, a checkpoint is written every
    cfg.checkpoint_cadence episodes and final.ckpt at the end. With one
    worker the worker runs in the calling thread; with more, each runs in a
    forked process and the calling thread serves their updates. Any failure
    stops every worker and raises RuntimeError("worker failed") from its
    cause, after the final checkpoint is written. Returns the GlobalStore
    with final parameters.
    """
    env0 = env_factory(0)
    spec = env0.spec()
    model = ModelConfig(spec.obs_dim, spec.n_actions, cfg.hidden_sizes())
    weights = cfg.weights()
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.workers + 1)
    params = init_model(model, np.random.default_rng(seeds[0]))
    store = GlobalStore(params, AdamState.for_params(params, lr=cfg.lr), cfg,
                        on_episode, checkpoint_dir)
    error = None
    try:
        if cfg.episode_budget <= 0:
            pass  # nothing to train, so no worker starts
        elif cfg.workers == 1:
            local = store.snapshot()
            _worker_loop(model, weights, cfg.clip_norm, env0, np.random.default_rng(seeds[1]),
                         local, lambda grads, episode: store.book(0, grads, local, episode))
        else:
            _serve_workers(store, model, weights, env_factory, seeds[1:])
    except BaseException as exc:  # propagate after flushing
        error = exc
    if checkpoint_dir is not None:
        store.snapshot().save(f"{checkpoint_dir}/final.ckpt")
    if error is not None:
        raise RuntimeError("worker failed") from error
    return store


def _worker_loop(model: ModelConfig, weights: LossWeights, clip_norm: float, env: Environment,
                 rng: np.random.Generator, local: ParamSet, book):
    """One worker, one outer iteration per episode: collect a rollout with
    `local`, compute its clipped gradients, and hand them to
    book(grads, episode), which applies them, leaves the new parameters in
    `local`, and returns the horizon for the next update and whether to
    stop. episode is None, or, when the rollout ended an episode, (length,
    reward, mean LossParts). Each loss part is summed with `+=` in update
    order, which rounds the same on every Python version, unlike `sum`."""
    horizon = None  # no episode has finished yet
    while True:
        obs, length, reward, done = env.reset(rng), 0, 0.0, False
        sums, n_updates = [0.0] * 4, 0  # policy, value, entropy, tp: LossParts order
        while not done:
            rollout, obs, done = collect_rollout(local, model, env, obs, length, rng,
                                                 weights.t_max)
            length += len(rollout.actions)
            reward += float(rollout.rewards.sum())
            grads, parts = compute_update(rollout, local, model, weights, horizon,
                                          clip_norm=clip_norm)
            for i, x in enumerate((parts.policy_loss, parts.value_loss, parts.entropy,
                                   parts.tp_loss)):
                sums[i] += x
            n_updates += 1
            episode = (length, reward, LossParts(*(x / n_updates for x in sums))) if done else None
            horizon, stop = book(grads, episode)
            if stop:
                return


class WorkerError(Exception):
    """A worker process's exception as the parent receives it: its type
    name, its formatted traceback, and the exception itself when it pickles
    (None otherwise)."""

    def __init__(self, type_name: str, traceback: str, exc: BaseException | None = None):
        super().__init__(type_name, traceback, exc)
        self.type_name, self.traceback, self.exc = type_name, traceback, exc

    def __str__(self) -> str:
        return f"{self.type_name} in a worker process:\n{self.traceback}"


def _serve_workers(store: GlobalStore, model: ModelConfig, weights: LossWeights, env_factory,
                   seeds) -> None:
    """Fork store.cfg.workers processes, one per worker, and book their
    updates through store.book(wid, grads, local, episode) until every
    worker has been told to stop. Each worker owns two anonymous shared
    buffers, its parameters and its gradients; per update it sends one
    message (the episode it ended, or None) and gets back (horizon,
    version, stop). On any failure every worker is terminated and joined
    before the error propagates."""
    import mmap
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    cfg, params = store.cfg, store.params
    layout, nbytes = params.layout, params.flat.nbytes

    def shared(version: int) -> ParamSet:
        flat = np.frombuffer(mmap.mmap(-1, nbytes), dtype=np.float64)
        return ParamSet._over(flat, layout, version)

    workers = []  # (process, connection, local params, grads)
    try:
        for wid in range(cfg.workers):
            local, grads = shared(params.version), shared(0)
            np.copyto(local.flat, params.flat)
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker_process, daemon=True, args=(
                wid, model, weights, cfg.clip_norm, env_factory, seeds[wid], local, grads,
                child_conn))
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
                horizon, stop_now = store.book(wid, grads, local, msg)
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


def _worker_process(wid: int, model: ModelConfig, weights: LossWeights, clip_norm: float,
                    env_factory, seed, local: ParamSet, grads_out: ParamSet, conn) -> None:
    """Body of a forked worker: `local` and `grads_out` are its shared
    buffers, and conn its end of the pipe to the parent."""
    try:
        _pin_blas_to_one_thread()

        def book(grads, episode):
            np.copyto(grads_out.flat, grads.flat)
            conn.send(episode)
            horizon, local.version, stop = conn.recv()
            return horizon, stop

        _worker_loop(model, weights, clip_norm, env_factory(wid), np.random.default_rng(seed),
                     local, book)
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
