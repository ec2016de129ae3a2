"""Per-layer tracing for the traced run.

The tracer wraps the package's public functions from outside: each wrapper
replaces a name where the package looks it up (a module attribute or a
class attribute) and is removed again by `uninstall`. Nothing under `src/`
changes. Every call records a span on a per-thread stack; a span's self
time is its duration minus the time of the spans it encloses.

While installed, the tracer also checks a sample of calls against the
benchmark's own arithmetic: 1-observation forwards are recomputed in plain
numpy and Adam steps are recomputed on copies. Time spent in those checks
is charged to no span.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

from checks import CheckError, check_adam, check_forward

ORACLE_EVERY = 64  # check the first call and then one in this many

# Per-layer metrics: name -> (span name, statistic). "us" is the median
# duration of one call, "self_us" the median self time; both in microseconds.
LAYER_METRICS = {
    "model.forward_act.us": ("model.forward_act", "us"),
    "model.forward_rollout.us": ("model.forward_rollout", "us"),
    "model.backward_batch.us": ("model.backward_batch", "us"),
    "losses.n_step_returns.us": ("losses.n_step_returns", "us"),
    "losses.tp_targets.us": ("losses.tp_targets", "us"),
    "trainer.compute_update.self_us": ("trainer.compute_update", "self_us"),
    "trainer.collect_rollout.self_us": ("trainer.collect_rollout", "self_us"),
    "trainer.apply_and_sync.self_us": ("trainer.apply_and_sync", "self_us"),
    "nn.adam_step.us": ("nn.adam_step", "us"),
    "nn.clip_global_norm.us": ("nn.clip_global_norm", "us"),
    "nn.paramset_copy.us": ("nn.paramset_copy", "us"),
    "nn.checkpoint_save.us": ("nn.checkpoint_save", "us"),
    "nn.checkpoint_load.us": ("nn.checkpoint_load", "us"),
    "envs.gridgoal.step.us": ("envs.gridgoal.step", "us"),
    "envs.minibomber.step.us": ("envs.minibomber.step", "us"),
    "envs.minibomber.board_step.us": ("envs.minibomber.board_step", "us"),
    "envs.minibomber.encode_observation.us": ("envs.minibomber.encode_observation", "us"),
    "envs.minibomber.reset.us": ("envs.minibomber.reset", "us"),
    "envs.minibomber.rulebased_opponent.us": ("envs.minibomber.rulebased_opponent", "us"),
    "harness.save_replay.us": ("harness.save_replay", "us"),
    "harness.evaluate.self_us": ("harness.evaluate", "self_us"),
}

# Spans on a training worker's blocking path; together with the worker
# count and the training wall time they give the trace's coverage.
BLOCKING_PATH = ("trainer.collect_rollout", "trainer.compute_update", "trainer.apply_and_sync")


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads: list[dict] = []
        self._registry_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._counts: dict[str, int] = {}
        self.reference_tensors: dict[str, np.ndarray] | None = None
        self.staleness: list[int] = []
        self.forward_checks = 0
        self.adam_checks = 0
        # Oracle failures are collected, not raised: raised inside a worker
        # thread, the trainer would report them as a worker fault.
        self.failures: list[str] = []

    # -- spans ---------------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = {"stack": [], "spans": {}}
            self._local.state = st
            with self._registry_lock:
                self._threads.append(st)
        return st

    def _sampled(self, kind: str) -> bool:
        n = self._counts[kind] = self._counts.get(kind, 0) + 1
        return n % ORACLE_EVERY == 1

    def _charge_outside(self, st, seconds: float) -> None:
        # Oracle work happens inside the caller's span; count it as an
        # anonymous child so it lands in no self time.
        if st["stack"]:
            st["stack"][-1][1] += seconds

    def span(self, fn, name, pick=None, before=None, after=None):
        """Wrap fn in a span. pick(stack, args) may rename the span;
        before(args) returns a capture handed to after(capture, args, result),
        both run outside the timed interval."""

        def wrapper(*args, **kwargs):
            st = self._state()
            stack = st["stack"]
            label = pick(stack, args) if pick else name
            capture = None
            if before is not None:
                t = time.perf_counter()
                capture = before(args)
                self._charge_outside(st, time.perf_counter() - t)
            frame = [label, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                st["spans"].setdefault(label, []).append((dt, dt - frame[1]))
            if after is not None:
                t = time.perf_counter()
                after(capture, args, result)
                self._charge_outside(st, time.perf_counter() - t)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        import a3ctp.harness as harness
        import a3ctp.nn as nn
        import a3ctp.trainer as trainer
        from a3ctp.envs.gridgoal import GridGoal
        from a3ctp.envs.minibomber import env as mb_env
        from a3ctp.envs.minibomber.board import BomberBoard

        def forward_kind(stack, args):
            inside_update = stack and stack[-1][0] == "trainer.compute_update"
            return "model.forward_rollout" if inside_update else "model.forward_act"

        def check_act_forward(reference):
            def after(_capture, args, result):
                params, _cfg, obs = args[:3]
                if np.asarray(obs).shape[0] != 1 or not self._sampled("forward"):
                    return
                tensors = reference() or params.tensors
                probs, value, tp, _cache = result
                self.forward_checks += 1
                try:
                    check_forward(tensors, np.asarray(obs, dtype=np.float64), probs, value, tp)
                except CheckError as exc:
                    self.failures.append(str(exc))
            return after

        def adam_before(args):
            params, grads, state = args
            stale = params.version - getattr(self._local, "local_version", params.version)
            self.staleness.append(stale)
            if not self._sampled("adam"):
                return None
            return {
                "params": {k: v.copy() for k, v in params.tensors.items()},
                "grads": {k: v.copy() for k, v in grads.tensors.items()},
                "m": {k: v.copy() for k, v in state.m.tensors.items()},
                "v": {k: v.copy() for k, v in state.v.tensors.items()},
                "step": state.step, "version": params.version, "lr": state.lr,
                "beta1": state.beta1, "beta2": state.beta2, "eps": state.eps,
            }

        def adam_after(before, args, _result):
            if before is None:
                return
            params, _grads, state = args
            self.adam_checks += 1
            try:
                check_adam(before, {"params": params.tensors, "m": state.m.tensors,
                                    "v": state.v.tensors, "step": state.step,
                                    "version": params.version})
            except CheckError as exc:
                self.failures.append(str(exc))

        def note_local_version(args):
            # collect_rollout(params, ...) acts with the worker's local copy,
            # whose version the next apply is measured against.
            self._local.local_version = args[0].version

        self._patch(trainer, "forward_batch", self.span(
            trainer.forward_batch, None, pick=forward_kind,
            after=check_act_forward(lambda: None)))
        self._patch(harness, "forward_batch", self.span(
            harness.forward_batch, "model.forward_act",
            after=check_act_forward(lambda: self.reference_tensors)))
        self._patch(trainer, "adam_step", self.span(
            trainer.adam_step, "nn.adam_step", before=adam_before, after=adam_after))
        self._patch(trainer, "collect_rollout", self.span(
            trainer.collect_rollout, "trainer.collect_rollout", before=note_local_version))
        simple = [
            (trainer, "backward_batch", "model.backward_batch"),
            (trainer, "clip_global_norm", "nn.clip_global_norm"),
            (trainer, "compute_update", "trainer.compute_update"),
            (trainer, "n_step_returns", "losses.n_step_returns"),
            (trainer, "tp_targets", "losses.tp_targets"),
            (trainer.GlobalStore, "apply_and_sync", "trainer.apply_and_sync"),
            (nn.ParamSet, "copy", "nn.paramset_copy"),
            (nn.ParamSet, "save", "nn.checkpoint_save"),
            (GridGoal, "step", "envs.gridgoal.step"),
            (mb_env.MiniBomber, "step", "envs.minibomber.step"),
            (mb_env.MiniBomber, "reset", "envs.minibomber.reset"),
            (BomberBoard, "step", "envs.minibomber.board_step"),
            (mb_env, "encode_observation", "envs.minibomber.encode_observation"),
            (mb_env, "rulebased_opponent", "envs.minibomber.rulebased_opponent"),
            (harness, "save_replay", "harness.save_replay"),
        ]
        for owner, attr, name in simple:
            self._patch(owner, attr, self.span(getattr(owner, attr), name))
        load = nn.ParamSet.__dict__["load"].__func__
        self._patch(nn.ParamSet, "load", classmethod(self.span(load, "nn.checkpoint_load")))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def spans(self) -> dict[str, list[tuple[float, float]]]:
        merged: dict[str, list[tuple[float, float]]] = {}
        for st in self._threads:
            for name, items in st["spans"].items():
                merged.setdefault(name, []).extend(items)
        return merged

    def layer_metrics(self, rounds: int) -> dict[str, dict]:
        """Median per-call times in microseconds, and calls per round."""
        spans = self.spans()
        out = {}
        for metric, (span, stat) in LAYER_METRICS.items():
            items = spans.get(span, [])
            column = 0 if stat == "us" else 1
            median = statistics.median(x[column] for x in items) * 1e6 if items else 0.0
            out[metric] = {"value": median, "unit": "us"}
            out[metric.rsplit(".", 1)[0] + ".calls"] = {
                "value": len(items) / rounds, "unit": "count"}
        out["trainer.staleness.mean"] = {
            "value": statistics.fmean(self.staleness) if self.staleness else 0.0,
            "unit": "updates"}
        return out

    def blocking_seconds(self) -> float:
        spans = self.spans()
        return sum(dt for name in BLOCKING_PATH for dt, _ in spans.get(name, []))
