"""Walk through the learning targets: n-step returns, advantages, entropy,
the terminal-prediction labels derived from a running episode-length
average, and the combined loss of a 4-step rollout."""

import numpy as np

from a3ctp.losses import (
    LossWeights, TPLabeler, advantages, entropy, loss_parts,
    n_step_returns, tp_loss, tp_targets,
)

# a 4-step rollout that ends the episode (bootstrap value 0)
rewards = np.array([0.0, 0.0, 0.0, 1.0])
returns = n_step_returns(rewards, bootstrap_value=0.0, gamma=0.99, terminal=True)
print("discounted returns:", returns)

values = np.array([0.2, 0.3, 0.5, 0.8])
adv = advantages(returns, values)
print("advantages:", adv)

print("entropy of uniform over 4 actions:", entropy(np.full(4, 0.25)))
print("entropy of a deterministic policy:", entropy(np.array([1.0, 0, 0, 0])))

# terminal-prediction targets: fraction of the typical episode elapsed
labeler = TPLabeler()
print("horizon before any episode:", labeler.horizon)
for length in (90, 100, 110):
    labeler.record_episode(length)
print("running mean length N:", labeler.horizon)

steps = np.array([0, 25, 50, 75, 100, 125])
y = tp_targets(steps, labeler.horizon)
print("targets at steps", steps.tolist(), "->", np.round(y, 3).tolist())
print("tp loss of a flat 0.5 prediction:", tp_loss(y, np.full_like(y, 0.5)))

# the combined loss of the 4-step rollout: policy logits over 4 actions, the
# actions taken, and terminal predictions against targets for steps 0..3 of
# an episode expected to last 4 steps
logits = np.array([[0.5, 0.1, -0.2, 0.0],
                   [0.2, 0.4, 0.0, -0.1],
                   [0.0, 0.0, 0.9, 0.3],
                   [1.2, 0.1, 0.0, 0.2]])
probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
actions = np.array([0, 1, 2, 0])
tp_pred = np.array([0.1, 0.3, 0.6, 0.7])
w = LossWeights()  # value 0.5, policy 1.0, entropy 0.01, tp 0.5
parts, _, d_values, _ = loss_parts(logits, probs, values, tp_pred, actions, adv,
                                  returns, tp_targets(np.arange(4), 4.0), w)
print("loss parts:", parts)
print("gradient at the value head:", np.round(d_values, 4).tolist())
