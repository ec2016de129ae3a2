"""Scalar learning targets and losses for actor-critic training with the
terminal-prediction auxiliary head.

Covers n-step returns, advantages, policy entropy, terminal-prediction
targets/loss, the combined weighted objective, and the running-average
episode-length tracker that supplies the horizon for terminal-prediction
labels.

This module is the one place where the A3C-TP objective is written down:
`loss_parts` turns the model's forward outputs over a rollout into
`LossParts` and the objective's gradient at the three heads, and it alone
decides whether the terminal-prediction term is on (targets given and
lambda_tp != 0). The model's backward pass takes those head gradients and
applies only the chain rule through the network; plain A3C is
lambda_tp == 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

EPISODE_LENGTH_WINDOW = 100  # most recent completed episodes averaged for N


@dataclass
class LossParts:
    policy_loss: float = 0.0
    value_loss: float = 0.0
    entropy: float = 0.0
    tp_loss: float = 0.0
    total: float = 0.0
    tp_on: bool = False  # whether the terminal-prediction term counts


@dataclass
class LossWeights:
    """Coefficients of the combined objective plus rollout hyperparameters.

    Defaults: value 0.5, policy 1.0, entropy 0.01, terminal-prediction 0.5,
    discount 0.99, rollout length 20.
    """

    lambda_v: float = 0.5
    lambda_pi: float = 1.0
    lambda_h: float = 0.01
    lambda_tp: float = 0.5
    gamma: float = 0.99
    t_max: int = 20

    def __post_init__(self):
        if not all(w >= 0 for w in (self.lambda_v, self.lambda_pi, self.lambda_h,
                                    self.lambda_tp)):  # nan fails too
            raise ValueError("loss weights must be nonnegative")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")


def n_step_returns(rewards, bootstrap_value: float, gamma: float,
                   terminal: bool) -> np.ndarray:
    """Discounted returns over a rollout, seeded from a bootstrap value.

    returns[k] = rewards[k] + gamma * returns[k+1], with returns beyond the
    rollout equal to the bootstrap. Terminal rollouts must bootstrap from 0
    (the value of a terminal state is zero).
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.size == 0:
        raise ValueError("rewards must be nonempty")
    if terminal and bootstrap_value != 0.0:
        raise ValueError("terminal rollouts bootstrap from 0")
    out = np.empty_like(rewards)
    acc = float(bootstrap_value)
    for k in range(rewards.size - 1, -1, -1):
        acc = rewards[k] + gamma * acc
        out[k] = acc
    return out


def advantages(returns, values) -> np.ndarray:
    """Elementwise returns minus critic estimates."""
    returns = np.asarray(returns, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if returns.shape != values.shape:
        raise ValueError("returns and values must have equal length")
    return returns - values


def entropy(policy) -> float:
    """Shannon entropy -sum(p ln p) of a probability vector, with
    0 ln 0 == 0."""
    p = np.asarray(policy, dtype=np.float64)
    if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-6:
        raise ValueError("policy is not a probability distribution")
    nz = p[p > 0.0]
    return 0.0 - float(np.sum(nz * np.log(nz)))  # +0.0, not -0.0, for a one-hot


def tp_targets(step_indices, horizon: float) -> np.ndarray:
    """Terminal-prediction targets y_i = i / N, clipped at 1.

    step_indices are absolute step counts within the episode (0 for the
    initial state); horizon N is the running-average episode length. Steps
    past the average map to 1.
    """
    if horizon is None or horizon <= 0:
        raise ValueError("horizon must be positive (no completed episodes yet?)")
    idx = np.asarray(step_indices, dtype=np.float64)
    return np.minimum(idx / float(horizon), 1.0)


def tp_loss(targets, predictions) -> float:
    """Mean squared error between targets and predicted terminal closeness."""
    t = np.asarray(targets, dtype=np.float64)
    p = np.asarray(predictions, dtype=np.float64)
    if t.shape != p.shape:
        raise ValueError("targets and predictions must have equal length")
    d = t - p
    return float(np.mean(d * d))


def loss_parts(logits, probs, values, tp_pred, actions, advantages, returns, tp_targets,
               weights: LossWeights) -> tuple[LossParts, np.ndarray, np.ndarray, np.ndarray | None]:
    """The combined objective over one rollout of length T and its gradient
    at the three heads, from batched forward outputs: policy logits and
    probs (T, A), values and terminal predictions (T,). Each term is a mean
    over the rollout:
      policy:  -log pi(a_t) * A_t   (advantage treated as a constant)
      value:   (R_t - V_t)^2
      entropy: H(pi_t), entering the total with a negative weight
      tp:      (y_t - y_t^p)^2, only when tp_targets is given and
               lambda_tp != 0 (recorded in `tp_on`; otherwise tp_loss is 0)
    total = lambda_v*value + lambda_pi*policy - lambda_h*entropy
            [+ lambda_tp*tp when tp_on]

    Returns (LossParts, d_logits (T, A), d_values (T,), d_u (T,) or None):
    the gradients of the total w.r.t. the logits, the values and the
    terminal-prediction head's pre-sigmoid output, d_u None when the term is
    off. Raises IndexError on an action outside [0, A) and
    FloatingPointError on a non-finite part.
    """
    T, A = probs.shape
    actions = np.asarray(actions, dtype=np.intp)
    if np.any(actions < 0) or np.any(actions >= A):
        raise IndexError("action index out of range")
    adv = np.asarray(advantages, dtype=np.float64)
    ret = np.asarray(returns, dtype=np.float64)
    rows = np.arange(T)
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    ent = -np.sum(probs * logp, axis=1)  # each row's entropy
    parts = LossParts(
        policy_loss=float(np.mean(-logp[rows, actions] * adv)),
        value_loss=float(np.mean((ret - values) ** 2)),
        entropy=float(np.mean(ent)),
        tp_on=tp_targets is not None and weights.lambda_tp != 0.0,
    )
    d_u = None
    if parts.tp_on:
        parts.tp_loss = tp_loss(tp_targets, tp_pred)
        # d/du of (y - sigmoid(u))^2, averaged over the rollout.
        y = np.asarray(tp_targets, dtype=np.float64)
        d_u = weights.lambda_tp * (-2.0 / T) * (y - tp_pred) * tp_pred * (1.0 - tp_pred)
    terms = (parts.policy_loss, parts.value_loss, parts.entropy, parts.tp_loss)
    if not all(np.isfinite(terms)):
        raise FloatingPointError(f"non-finite loss component: {terms}")
    parts.total = (weights.lambda_v * parts.value_loss
                   + weights.lambda_pi * parts.policy_loss
                   - weights.lambda_h * parts.entropy)
    if parts.tp_on:
        parts.total += weights.lambda_tp * parts.tp_loss

    # d(-log pi(a))/d logits is probs minus the taken action's indicator.
    d_pi = probs.copy()
    d_pi[rows, actions] -= 1.0
    d_logits = weights.lambda_pi * adv[:, None] * d_pi / T
    d_logits += weights.lambda_h * probs * (logp + ent[:, None]) / T
    d_values = weights.lambda_v * (-2.0 / T) * (ret - values)
    return parts, d_logits, d_values, d_u


class TPLabeler:
    """Running average of recent episode lengths, shared across workers.

    Keeps a ring buffer of up to the last `window` completed episode lengths;
    `horizon` is their arithmetic mean (None until the first episode
    completes). It takes no lock: the `GlobalStore` that owns it records
    and reads it only in the one thread that serves the store.
    """

    def __init__(self, window: int = EPISODE_LENGTH_WINDOW):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._lengths: deque[int] = deque(maxlen=window)

    def record_episode(self, length: int) -> None:
        if length < 1:
            raise ValueError("episode length must be >= 1")
        self._lengths.append(int(length))

    @property
    def horizon(self) -> float | None:
        if not self._lengths:
            return None
        return sum(self._lengths) / len(self._lengths)

    def __len__(self) -> int:
        return len(self._lengths)
