"""Three-headed actor-critic network: a shared tanh trunk feeding a softmax
policy head, a linear value head, and a sigmoid terminal-prediction head.

The network is defined here and nowhere else. `ModelConfig.layers` lists
every dense layer in checkpoint manifest order, and `init_model`, the trunk
loop and `harness.evaluate`'s checkpoint check all read it. Forward and
backward passes are hand-written on top of the nn core. The objective itself
(policy gradient with a constant advantage, squared value error, entropy
bonus, terminal-prediction MSE) and the switch for its terminal-prediction
term live in `losses.loss_parts`; the backward pass takes the parts from
there and adds only their gradients, in one sweep.

The forward pass reads the trunk's parameter names from its `ModelConfig`,
computed once per config, and caches only the arrays the backward pass
needs: the trunk's outputs (tanh's derivative is taken from them) and the
head outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .losses import LossWeights, loss_parts
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
    def trunk_keys(self) -> tuple[tuple[str, str], ...]:
        """(weight, bias) parameter names of the trunk layers, input first."""
        return tuple((f"{name}.W", f"{name}.b") for name, _, _ in self.layers[:len(self.hidden)])


@dataclass
class ModelOutput:
    policy: np.ndarray       # probabilities over actions, sums to 1
    value: float             # critic estimate
    tp_prediction: float     # predicted closeness to terminal, in (0, 1)


def init_model(cfg: ModelConfig, rng: np.random.Generator) -> ParamSet:
    """Seeded init, layer by layer in `cfg.layers` order: weights uniform in
    +-1/sqrt(fan_in), biases zero."""
    tensors = {}
    for name, fan_in, fan_out in cfg.layers:
        bound = 1.0 / np.sqrt(fan_in)
        tensors[f"{name}.W"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        tensors[f"{name}.b"] = np.zeros(fan_out)
    return ParamSet(tensors)


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
    post = [obs]
    for wkey, bkey in cfg.trunk_keys:
        post.append(np.tanh(post[-1] @ t[wkey] + t[bkey]))
    h = post[-1]
    logits = h @ t["policy.W"] + t["policy.b"]
    v = h @ t["value.W"] + t["value.b"]
    u = h @ t["tp.W"] + t["tp.b"]
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

    post = cache["post"]
    for i in range(len(cfg.trunk_keys) - 1, -1, -1):
        wkey, bkey = cfg.trunk_keys[i]
        a = post[i + 1]
        dz = d_h * (1.0 - a * a)  # tanh'(z) from the layer's output
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
