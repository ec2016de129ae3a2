"""Episodic simulators behind one uniform reset/step contract."""

from .base import Environment, EnvSpec
from .gridgoal import GridGoal
from .polebalance import PoleBalance
from .minibomber.env import MiniBomber


ENV_NAMES = ("gridgoal", "polebalance", "minibomber-static", "minibomber-rulebased")


def make_env(name: str, size: int = 8, max_steps: int = 0) -> Environment:
    """Build an environment from its config name, one of ENV_NAMES, on a
    size-by-size grid or board (polebalance has none). A max_steps of 0
    means the environment's own step cap. Raises ValueError for an unknown
    name, a size below 2 or a negative max_steps."""
    if name not in ENV_NAMES:
        raise ValueError(f"unknown environment {name!r}")
    if size < 2:
        raise ValueError(f"size must be at least 2, not {size}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, not {max_steps}")
    cap = (max_steps,) if max_steps else ()  # the last positional parameter of each env
    if name == "gridgoal":
        return GridGoal(size, *cap)
    if name == "polebalance":
        return PoleBalance(*cap)
    return MiniBomber(size, name.split("-", 1)[1], *cap)
