"""Actor-critic training with a terminal-prediction auxiliary head, built
from scratch on numpy: network core, losses, asynchronous trainer,
episodic simulators, and an experiment harness."""

from .losses import LossWeights, TPLabeler
from .model import ModelConfig, act, init_model
from .nn import AdamState, ParamSet, adam_step, gradient_check
from .trainer import GlobalStore, Rollout, train
from .harness import RunConfig, run_experiment, evaluate, summarize, sweep_lambda_tp

__all__ = [
    "LossWeights", "TPLabeler", "ModelConfig", "act", "init_model",
    "AdamState", "ParamSet", "adam_step", "gradient_check",
    "GlobalStore", "Rollout", "train", "RunConfig",
    "run_experiment", "evaluate", "summarize", "sweep_lambda_tp",
]
