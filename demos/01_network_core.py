"""Tour of the differentiable network core.

Builds a small three-headed model by hand, acts on one observation, reads
the terminal prediction from the batched forward pass, checks the analytic
gradients against finite differences, takes a few Adam steps, and
round-trips the parameters through the binary checkpoint format.
"""

import numpy as np

from a3ctp.model import ModelConfig, act, forward_batch, init_model, model_backward, rollout_loss
from a3ctp.losses import LossWeights
from a3ctp.nn import AdamState, ParamSet, adam_step, gradient_check

rng = np.random.default_rng(0)
cfg = ModelConfig(obs_dim=10, n_actions=4, hidden=(16, 8))
params = init_model(cfg, rng)
print("parameters:", ", ".join(params.names()))

# acting needs only the policy and the value; the terminal-prediction head
# is read from the batched forward pass that training runs over a rollout
x = rng.normal(size=10)
policy, value = act(params, cfg, x)
print("policy:", np.round(policy, 4), "sums to", policy.sum())
print("value estimate:", value)
_, _, tp, _ = forward_batch(params, cfg, x[None, :])
print("terminal prediction (sigmoid):", tp[0])

# gradient check over a fake rollout batch
weights = LossWeights()
obs = rng.normal(size=(5, 10))
actions = rng.integers(0, 4, size=5)
adv = rng.normal(size=5)
ret = rng.normal(size=5)
tp_y = rng.random(5)

report = gradient_check(
    params,
    lambda p: rollout_loss(p, cfg, obs, actions, adv, ret, tp_y, weights),
    lambda p: model_backward(p, cfg, obs, actions, adv, ret, tp_y, weights)[0],
)
print(f"gradient check: max rel error {report.max_rel_error:.2e} "
      f"({'pass' if report.passed else 'FAIL'}, worst {report.worst_param})")

# a few optimizer steps on the combined loss
opt = AdamState.for_params(params, lr=1e-2)
for step in range(5):
    grads, parts = model_backward(params, cfg, obs, actions, adv, ret, tp_y, weights)
    adam_step(params, grads, opt)
    print(f"step {step}: combined loss {parts.total:.4f}")

# bit-exact serialization
blob = params.to_bytes()
restored = ParamSet.from_bytes(blob)
print("checkpoint round-trip bit-exact:", restored.equal_bits(params))
