"""Episodic simulators behind one uniform reset/step contract."""

from .base import Environment, EnvSpec
from .gridgoal import GridGoal
from .polebalance import PoleBalance
from .minibomber.env import MiniBomber


ENV_NAMES = ("gridgoal", "polebalance", "minibomber-static", "minibomber-rulebased")


def make_env(name: str, **kwargs) -> Environment:
    """Build an environment from its config name, one of ENV_NAMES.

    kwargs: size (grid/board side), step_cap / max_steps.
    """
    if name not in ENV_NAMES:
        raise ValueError(f"unknown environment {name!r}")
    size = kwargs.get("size")
    if name == "gridgoal":
        return GridGoal(n=size or 8, max_steps=kwargs.get("max_steps"))
    if name == "polebalance":
        return PoleBalance(max_steps=kwargs.get("max_steps") or 200)
    return MiniBomber(n=size or 8, opponent=name.split("-", 1)[1],
                      step_cap=kwargs.get("max_steps") or 800,
                      record_actions=kwargs.get("record_actions", False))

