"""Three-headed actor-critic network: a shared feedforward trunk feeding a
softmax policy head, a linear value head, and a sigmoid terminal-prediction
head.

Forward and backward passes are hand-written on top of the nn core. The
objective itself (policy gradient with a constant advantage, squared value
error, entropy bonus, terminal-prediction MSE) and the switch for its
terminal-prediction term live in `losses.loss_parts`; the backward pass
takes the parts from there and adds only their gradients, in one sweep.

The forward pass reads the trunk's parameter names from its `ModelConfig`,
computed once per config, and keeps only the arrays the backward pass
needs: no per-layer records or per-head caches are built per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .losses import LossWeights, loss_parts
from .nn import (
    LayerDef, NonFiniteError, ParamSet, ShapeError, _activate, _activate_grad, dense_backward,
    init_layers,
)

@dataclass(frozen=True)
class ModelConfig:
    obs_dim: int
    n_actions: int
    hidden: tuple[int, ...] = (128, 128)
    activation: str = "tanh"

    def trunk_layers(self) -> list[LayerDef]:
        layers = []
        fan_in = self.obs_dim
        for i, width in enumerate(self.hidden):
            layers.append(LayerDef(f"trunk{i}", fan_in, width, self.activation))
            fan_in = width
        return layers

    @property
    def trunk_out(self) -> int:
        return self.hidden[-1] if self.hidden else self.obs_dim

    def head_layers(self) -> dict[str, LayerDef]:
        d = self.trunk_out
        return {
            "policy": LayerDef("policy", d, self.n_actions, "linear"),
            "value": LayerDef("value", d, 1, "linear"),
            "tp": LayerDef("tp", d, 1, "linear"),  # sigmoid applied in-head
        }

    @cached_property
    def trunk_keys(self) -> tuple[tuple[str, str], ...]:
        """(weight, bias) parameter names of the trunk layers, input first."""
        return tuple((f"trunk{i}.W", f"trunk{i}.b") for i in range(len(self.hidden)))


@dataclass
class ModelOutput:
    policy: np.ndarray       # probabilities over actions, sums to 1
    value: float             # critic estimate
    tp_prediction: float     # predicted closeness to terminal, in (0, 1)


def init_model(cfg: ModelConfig, rng: np.random.Generator) -> ParamSet:
    """Seeded init of trunk plus all three heads, in a fixed layer order."""
    layers = cfg.trunk_layers() + [cfg.head_layers()[k] for k in ("policy", "value", "tp")]
    return init_layers(layers, rng)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def forward_batch(params: ParamSet, cfg: ModelConfig, obs: np.ndarray):
    """Batched forward through trunk and all heads.

    obs: (T, obs_dim). Returns (probs (T,A), values (T,), tp (T,), cache).
    Raises ShapeError on a wrong observation width and NonFiniteError when
    a head output is NaN or Inf; non-finite trunk activations reach every
    head, so they raise too.
    """
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    if obs.shape[1] != cfg.obs_dim:
        raise ShapeError(f"input width {obs.shape[1]} does not match fan-in {cfg.obs_dim}")
    t = params.tensors
    h = obs
    pre, post = [], [obs]
    for wkey, bkey in cfg.trunk_keys:
        z = h @ t[wkey] + t[bkey]
        h = _activate(z, cfg.activation)
        pre.append(z)
        post.append(h)
    logits = h @ t["policy.W"] + t["policy.b"]
    v = h @ t["value.W"] + t["value.b"]
    u = h @ t["tp.W"] + t["tp.b"]
    if not (np.isfinite(logits).all() and np.isfinite(v).all() and np.isfinite(u).all()):
        raise NonFiniteError("non-finite activations in forward pass")
    probs = _softmax(logits)
    tp = 1.0 / (1.0 + np.exp(-u[:, 0]))
    cache = {"pre": pre, "post": post, "probs": probs, "logits": logits,
             "values": v[:, 0], "tp_pred": tp}
    return probs, v[:, 0], tp, cache


def sample_action(probs_row: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an action index from one row of policy probabilities by inverse
    CDF with a single uniform draw; rounding that leaves the CDF below the
    draw falls on the last action."""
    u = rng.random()
    return min(int(probs_row.cumsum().searchsorted(u)), probs_row.shape[0] - 1)


def model_forward(params: ParamSet, cfg: ModelConfig, obs: np.ndarray) -> ModelOutput:
    """Single-observation forward pass."""
    probs, v, tp, _ = forward_batch(params, cfg, np.asarray(obs, dtype=np.float64)[None, :])
    return ModelOutput(policy=probs[0], value=float(v[0]), tp_prediction=float(tp[0]))


def backward_batch(params: ParamSet, cfg: ModelConfig, cache, actions,
                   advantages, returns, tp_targets, weights: LossWeights):
    """Gradients of the combined rollout loss w.r.t. every parameter.

    The loss parts, and whether the terminal-prediction term is on, come
    from `losses.loss_parts`; this function only adds the gradient
    arithmetic. With the term off (tp_targets None or lambda_tp == 0) the
    terminal-prediction head contributes nothing (not even zero-valued
    arrays are added), so the result is bitwise identical to a plain
    actor-critic backward.
    Returns (grads: ParamSet, parts: LossParts).
    """
    probs, v = cache["probs"], cache["values"]
    T, A = probs.shape
    logp = _log_softmax(cache["logits"])
    parts = loss_parts(logp, probs, v, cache["tp_pred"], actions, advantages,
                       returns, tp_targets, weights)
    actions = np.asarray(actions, dtype=np.intp)
    adv = np.asarray(advantages, dtype=np.float64)
    ret = np.asarray(returns, dtype=np.float64)
    onehot = np.zeros((T, A))
    onehot[np.arange(T), actions] = 1.0
    ent = -np.sum(probs * logp, axis=1)

    # Policy-head logit gradient: policy term + entropy term.
    d_logits = weights.lambda_pi * adv[:, None] * (probs - onehot) / T
    d_logits += weights.lambda_h * probs * (logp + ent[:, None]) / T
    # Value-head gradient.
    d_v = weights.lambda_v * (-2.0 / T) * (ret - v)

    grads = params.zeros_like()
    g, t = grads.tensors, params.tensors
    h = cache["post"][-1]
    # The heads are linear, so their pre-activation gradient is the incoming one.
    d_h = (dense_backward(h, d_logits, t["policy.W"], g["policy.W"], g["policy.b"])
           + dense_backward(h, d_v[:, None], t["value.W"], g["value.W"], g["value.b"]))
    if parts.tp_on:
        # d/du of (y - sigmoid(u))^2, averaged over the rollout. Without the
        # term the head's parameters keep their zero gradients.
        y = np.asarray(tp_targets, dtype=np.float64)
        p = cache["tp_pred"]
        d_u = weights.lambda_tp * (-2.0 / T) * (y - p) * p * (1.0 - p)
        d_h = d_h + dense_backward(h, d_u[:, None], t["tp.W"], g["tp.W"], g["tp.b"])

    pre, post = cache["pre"], cache["post"]
    for i in range(len(pre) - 1, -1, -1):
        wkey, bkey = cfg.trunk_keys[i]
        dz = d_h * _activate_grad(post[i + 1], pre[i], cfg.activation)
        # The gradient w.r.t. the observations is never used, so the input
        # layer skips it.
        d_h = dense_backward(post[i], dz, t[wkey], g[wkey], g[bkey], need_input=i > 0)
    return grads, parts


def model_backward(params: ParamSet, cfg: ModelConfig, obs, actions,
                   advantages, returns, tp_targets, weights: LossWeights):
    """Forward + backward over a batch of observations in one call."""
    _, _, _, cache = forward_batch(params, cfg, obs)
    return backward_batch(params, cfg, cache, actions, advantages, returns,
                          tp_targets, weights)


def rollout_loss(params: ParamSet, cfg: ModelConfig, obs, actions, advantages,
                 returns, tp_targets, weights: LossWeights) -> float:
    """Scalar combined loss from a forward pass alone, used by
    finite-difference gradient checks of `backward_batch`."""
    probs, v, tp, cache = forward_batch(params, cfg, obs)
    return loss_parts(_log_softmax(cache["logits"]), probs, v, tp, actions,
                      advantages, returns, tp_targets, weights).total
