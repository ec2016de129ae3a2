"""Three-headed actor-critic network: a shared tanh trunk feeding a softmax
policy head, a linear value head, and a sigmoid terminal-prediction head.

The network is defined here and nowhere else. `ModelConfig.layers` lists
every dense layer in checkpoint manifest order, and the trunk loop reads
it; `ModelConfig.manifest` names each layer's tensors with their shapes,
and `init_model` and `harness.evaluate`'s checkpoint check both read that.
Forward and backward passes are hand-written on top of the nn core. The
objective itself (policy gradient with a constant advantage, squared value
error, entropy bonus, terminal-prediction MSE), its gradient at the three
heads and the switch for its terminal-prediction term live in
`losses.loss_parts`; the backward pass takes the head gradients from there
and applies only the chain rule through the heads and the trunk, in one
sweep.

There are two forward entry points. `act` takes one observation and
returns only what acting needs, the policy row and the value: the
terminal-prediction head is trained from the rollout and never acted on.
`forward_batch` takes a rollout, runs all three heads and caches only the
arrays the backward pass needs: the trunk's outputs (tanh's derivative is
taken from them) and the head outputs. Both run the trunk through one
function, `_trunk`, which checks the input width and runs the layers that
`ModelConfig.trunk_keys` names, so `act` returns the bits of row 0 of a
1-row `forward_batch`. Training runs `forward_batch` over each rollout
rather than reusing the activations of its act steps: a 1-row product
rounds differently from the same row inside a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .losses import LossParts, LossWeights, loss_parts
from .nn import NonFiniteError, ParamSet, ShapeError, dense_backward


@dataclass(frozen=True)
class ModelConfig:
    obs_dim: int
    n_actions: int
    hidden: tuple[int, ...] = (128, 128)

    @cached_property
    def layers(self) -> tuple[tuple[str, int, int], ...]:
        """(name, fan_in, fan_out) of every dense layer in manifest order:
        trunk0..trunkN, then the policy, value and tp heads."""
        widths = (self.obs_dim, *self.hidden)
        trunk = tuple((f"trunk{i}", widths[i], widths[i + 1]) for i in range(len(self.hidden)))
        d = widths[-1]
        return trunk + (("policy", d, self.n_actions), ("value", d, 1), ("tp", d, 1))

    @cached_property
    def manifest(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """(name, shape) of every parameter tensor in manifest order: per
        layer, `<layer>.W` (fan_in, fan_out), then `<layer>.b` (fan_out,)."""
        return tuple((f"{name}.{k}", shape) for name, fan_in, fan_out in self.layers
                     for k, shape in (("W", (fan_in, fan_out)), ("b", (fan_out,))))

    @cached_property
    def trunk_keys(self) -> tuple[tuple[str, str], ...]:
        """(weight, bias) parameter names of the trunk layers, input first."""
        return tuple((f"{name}.W", f"{name}.b") for name, _, _ in self.layers[:len(self.hidden)])


def init_model(cfg: ModelConfig, rng: np.random.Generator) -> ParamSet:
    """Seeded init, tensor by tensor in `cfg.manifest` order: weights
    uniform in +-1/sqrt(fan_in), biases zero."""
    tensors = {}
    for name, shape in cfg.manifest:
        if name.endswith(".b"):
            tensors[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[0])  # a weight's shape is (fan_in, fan_out)
            tensors[name] = rng.uniform(-bound, bound, size=shape)
    return ParamSet(tensors)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _trunk(params: ParamSet, cfg: ModelConfig, obs2d: np.ndarray) -> list[np.ndarray]:
    """The trunk's layer outputs for a (T, obs_dim) batch, the input first.
    Raises ShapeError on a wrong observation width. Each layer adds its bias
    and takes tanh in place on the product it allocates."""
    if obs2d.shape[1] != cfg.obs_dim:
        raise ShapeError(f"input width {obs2d.shape[1]} does not match fan-in {cfg.obs_dim}")
    t = params.tensors
    post = [obs2d]
    for wkey, bkey in cfg.trunk_keys:
        z = post[-1] @ t[wkey]
        z += t[bkey]
        post.append(np.tanh(z, out=z))
    return post


def _head(h: np.ndarray, t, name: str) -> np.ndarray:
    """The pre-activation of head `name` on trunk output h."""
    z = h @ t[f"{name}.W"]
    z += t[f"{name}.b"]
    return z


def forward_batch(params: ParamSet, cfg: ModelConfig, obs: np.ndarray):
    """Batched forward through trunk and all heads.

    obs: (T, obs_dim). Returns (probs (T,A), values (T,), tp (T,), cache).
    Raises ShapeError on a wrong observation width and NonFiniteError when
    a head output is NaN or Inf; non-finite trunk activations reach every
    head, so they raise too.
    """
    post = _trunk(params, cfg, np.atleast_2d(np.asarray(obs, dtype=np.float64)))
    h, t = post[-1], params.tensors
    logits, v, u = (_head(h, t, name) for name in ("policy", "value", "tp"))
    if not (np.isfinite(logits).all() and np.isfinite(v).all() and np.isfinite(u).all()):
        raise NonFiniteError("non-finite activations in forward pass")
    probs = _softmax(logits)
    tp = 1.0 / (1.0 + np.exp(-u[:, 0]))
    cache = {"post": post, "probs": probs, "logits": logits,
             "values": v[:, 0], "tp_pred": tp}
    return probs, v[:, 0], tp, cache


def sample_action(probs_row: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an action index from one row of policy probabilities by inverse
    CDF with a single uniform draw; rounding that leaves the CDF below the
    draw falls on the last action."""
    u = rng.random()
    return min(int(probs_row.cumsum().searchsorted(u)), probs_row.shape[0] - 1)


def act(params: ParamSet, cfg: ModelConfig, obs: np.ndarray) -> tuple[np.ndarray, float]:
    """Single-observation forward through the trunk, the policy head and the
    value head only. Returns (probs (A,), value), the bits of row 0 of
    forward_batch(params, cfg, obs[None, :]): obs is kept a (1, obs_dim) row,
    so every product rounds as it does there.

    Raises ShapeError on a wrong observation width and NonFiniteError when
    the logits or the value are NaN or Inf. The terminal-prediction head is
    not computed, so a non-finite `tp.*` parameter does not raise here; the
    forward_batch of the next compute_update raises for it.
    """
    h = _trunk(params, cfg, np.asarray(obs, dtype=np.float64)[None, :])[-1]
    t = params.tensors
    logits = h @ t["policy.W"]
    logits += t["policy.b"]
    value = float((h @ t["value.W"])[0, 0] + t["value.b"][0])
    if not (np.isfinite(logits).all() and math.isfinite(value)):
        raise NonFiniteError("non-finite activations in act forward")
    return _softmax(logits)[0], value


def backward_batch(params: ParamSet, cfg: ModelConfig, cache, actions,
                   advantages, returns, tp_targets, weights: LossWeights,
                   grads: ParamSet) -> LossParts:
    """Gradients of the combined rollout loss w.r.t. every parameter,
    written into `grads`, a set in params' layout owned by the caller: it
    is zero-filled, then each gradient is accumulated with `+=`, so its
    bits do not depend on what the set held before.

    The loss parts and their gradients at the three heads come from
    `losses.loss_parts`, which alone switches the terminal-prediction term;
    this function applies only the chain rule. With the term off
    (tp_targets None or lambda_tp == 0) the terminal-prediction head
    contributes nothing (not even zero-valued arrays are added), so the
    result is bitwise identical to a plain actor-critic backward.
    Returns the LossParts.
    """
    parts, d_logits, d_v, d_u = loss_parts(
        cache["logits"], cache["probs"], cache["values"], cache["tp_pred"], actions,
        advantages, returns, tp_targets, weights)
    grads.flat.fill(0.0)
    g, t = grads.tensors, params.tensors
    post = cache["post"]
    h = post[-1]
    # The heads are linear, so their pre-activation gradient is the incoming one.
    d_h = (dense_backward(h, d_logits, t["policy.W"], g["policy.W"], g["policy.b"])
           + dense_backward(h, d_v[:, None], t["value.W"], g["value.W"], g["value.b"]))
    if d_u is not None:
        # Without the term the head's parameters keep their zero gradients.
        d_h = d_h + dense_backward(h, d_u[:, None], t["tp.W"], g["tp.W"], g["tp.b"])
    for i in range(len(cfg.trunk_keys) - 1, -1, -1):
        wkey, bkey = cfg.trunk_keys[i]
        a = post[i + 1]
        dz = d_h * (1.0 - a * a)  # tanh'(z) from the layer's output
        # The gradient w.r.t. the observations is never used, so the input
        # layer skips it.
        d_h = dense_backward(post[i], dz, t[wkey], g[wkey], g[bkey], need_input=i > 0)
    return parts


def model_backward(params: ParamSet, cfg: ModelConfig, obs, actions,
                   advantages, returns, tp_targets, weights: LossWeights):
    """Forward + backward over a batch of observations in one call, into a
    new gradient set. Returns (grads: ParamSet, parts: LossParts)."""
    _, _, _, cache = forward_batch(params, cfg, obs)
    grads = params.zeros_like()
    parts = backward_batch(params, cfg, cache, actions, advantages, returns,
                           tp_targets, weights, grads)
    return grads, parts


def rollout_loss(params: ParamSet, cfg: ModelConfig, obs, actions, advantages,
                 returns, tp_targets, weights: LossWeights) -> float:
    """Scalar combined loss from a forward pass alone, used by
    finite-difference gradient checks of `backward_batch`."""
    probs, v, tp, cache = forward_batch(params, cfg, obs)
    return loss_parts(cache["logits"], probs, v, tp, actions, advantages, returns,
                      tp_targets, weights)[0].total
