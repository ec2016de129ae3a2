"""Two-agent bomberman board: grid, bombs, flames, power-ups, and the full
per-step resolution order.

Board layout and dynamics:
  - n-by-n grid of {passage, rigid, wood}; default 8x8.
  - Bombs explode 10 steps after placement; flames last 2 steps; flames
    destroy wood (revealing a passage or a power-up) and kill agents.
  - A bomb standing in a flame detonates the same step (chain reactions run
    to a fixpoint).
  - Episode ends when an agent dies or at the step cap (default 800).

Per-step phase order (normative for this implementation; trace tests assert
against it):
  1. tick: flame lifetimes and bomb timers decrement, expired flames vanish
  2. bomb placement for agents choosing the bomb action (timer 10)
  3. movement resolution, including bomb kicks (the bomb moves one cell);
     both agents are alive, and a shared target (a move onto a standing
     agent included) or a swap bounces both and cancels both kicks
  4. bombs kicked on earlier steps slide one cell until obstructed; this
     step's kicks take their direction after the slide, so they slide from
     the next step
  5. explosions: expired bombs and bombs standing in a flame seed one
     worklist, and each blast pushes the bombs on its cells; flames spawn
     (or refresh) with lifetime 2 and carry the owners of every blast that
     covered them; wood burns and reveals its hidden power-up if any
  6. deaths: agents standing in any flame die; each death records an
     owner of that flame, the agent itself if it is one
  7. power-up pickup
  8. step counter advances

So a bomb placed during step t detonates during step t+10; its flames are
visible after steps t+10 and t+11 and gone after step t+12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

PASSAGE, RIGID, WOOD = 0, 1, 2
CELL_CHARS = {PASSAGE: ".", RIGID: "#", WOOD: "+"}
CHAR_CELLS = {v: k for k, v in CELL_CHARS.items()}

NO_POWERUP, EXTRA_BOMB, BLAST_RADIUS, KICK = 0, 1, 2, 3
POWERUP_NAMES = {EXTRA_BOMB: "extra-bomb", BLAST_RADIUS: "blast-radius", KICK: "kick"}

STAY, UP, DOWN, LEFT, RIGHT, BOMB = 0, 1, 2, 3, 4, 5
N_ACTIONS = 6
MOVE_DELTAS = {UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1)}

BOMB_TIMER = 10
FLAME_LIFETIME = 2
DEFAULT_STEP_CAP = 800
DEFAULT_AMMO = 1
DEFAULT_BLAST_RADIUS = 2

RESULT_WIN, RESULT_LOSS, RESULT_TIE = "win", "loss", "tie"
CAUSE_ENEMY_KILLED, CAUSE_OUR_SUICIDE = "enemy-killed-by-our-bomb", "our-suicide"
CAUSE_OPPONENT_SUICIDE, CAUSE_TIMEOUT = "opponent-suicide", "timeout"
CAUSE_KILLED_BY_ENEMY = "killed-by-enemy"


@dataclass
class Bomb:
    row: int
    col: int
    owner: int
    timer: int
    radius: int
    direction: tuple[int, int] | None = None  # set while sliding from a kick


@dataclass
class Flame:
    row: int
    col: int
    life: int
    owners: set[int] = field(default_factory=set)


@dataclass
class AgentState:
    row: int
    col: int
    alive: bool = True
    ammo: int = DEFAULT_AMMO
    blast_radius: int = DEFAULT_BLAST_RADIUS
    can_kick: bool = False

    @property
    def pos(self) -> tuple[int, int]:
        return (self.row, self.col)


@dataclass
class EpisodeOutcome:
    result: str  # win / loss / tie, from the learner's (agent 0) view
    cause: str


Neighbors = tuple[tuple[int, tuple[int, int]], ...]  # (action, (row, col)) pairs


@cache
def _neighbor_table(n: int) -> tuple[tuple[Neighbors, ...], ...]:
    """table[r][c] is BomberBoard.neighbors(r, c) on an n-by-n board, made
    once per size: the opponent's searches read it for every cell they
    visit."""
    return tuple(tuple(tuple((action, (r + dr, c + dc)) for action, (dr, dc) in MOVE_DELTAS.items()
                             if 0 <= r + dr < n and 0 <= c + dc < n)
                       for c in range(n))
                 for r in range(n))


def _check_side(n: int) -> None:
    """Raise ValueError for a board side below 2, on which both agents would
    start on one cell."""
    if n < 2:
        raise ValueError(f"board side must be at least 2, not {n}")


class BomberBoard:
    """Full mutable board state for one episode: exactly what board_to_text
    writes, with `done` derived from it. Raises ValueError for a side n
    below 2, on which both agents would start on one cell."""

    def __init__(self, n: int = 8, step_cap: int = DEFAULT_STEP_CAP):
        _check_side(n)
        self.n = n
        self.step_cap = step_cap
        self.grid = np.zeros((n, n), dtype=np.int8)
        self.hidden_powerup = np.zeros((n, n), dtype=np.int8)  # under wood
        self.visible_powerup = np.zeros((n, n), dtype=np.int8)
        self.bombs: list[Bomb] = []
        self.flames: list[Flame] = []
        self.agents = [AgentState(0, 0), AgentState(n - 1, n - 1)]
        self.step_count = 0
        self.killers: list[int | None] = [None, None]  # bomb owner per death

    @property
    def done(self) -> bool:
        """At the step cap, or an agent is dead."""
        return self.step_count >= self.step_cap or not all(a.alive for a in self.agents)

    # -- helpers ----------------------------------------------------------

    def in_bounds(self, r: int, c: int) -> bool:
        return 0 <= r < self.n and 0 <= c < self.n

    def bomb_at(self, r: int, c: int) -> Bomb | None:
        for b in self.bombs:
            if b.row == r and b.col == c:
                return b
        return None

    def flame_at(self, r: int, c: int) -> Flame | None:
        for f in self.flames:
            if f.row == r and f.col == c:
                return f
        return None

    def agent_at(self, r: int, c: int, exclude: int | None = None) -> int | None:
        for i, a in enumerate(self.agents):
            if i != exclude and a.alive and a.row == r and a.col == c:
                return i
        return None

    def open_cell(self, r: int, c: int) -> bool:
        """In bounds, a passage, and no bomb on it. An agent may walk, and
        a kicked bomb may slide, onto an open cell no agent stands on."""
        return self.in_bounds(r, c) and self.grid[r, c] == PASSAGE and self.bomb_at(r, c) is None

    def neighbors(self, r: int, c: int) -> Neighbors:
        """(action, (row, col)) for each in-bounds orthogonal neighbour of
        the cell, in MOVE_DELTAS order: up, down, left, right."""
        return _neighbor_table(self.n)[r][c]

    def blast_cells(self, row: int, col: int, radius: int) -> list[tuple[int, int]]:
        """Cross of cells a bomb at (row, col) covers: rays stop before
        rigid walls and stop on (and include) the first wood cell."""
        cells = [(row, col)]
        for dr, dc in MOVE_DELTAS.values():
            for k in range(1, radius + 1):
                r, c = row + dr * k, col + dc * k
                if not self.in_bounds(r, c) or self.grid[r, c] == RIGID:
                    break
                cells.append((r, c))
                if self.grid[r, c] == WOOD:
                    break
        return cells

    # -- one simulation step ----------------------------------------------

    def step(self, actions: tuple[int, int]) -> None:
        """Advance the board one step given both agents' actions
        (index 0 is the learner)."""
        if self.done:
            raise RuntimeError("step on terminated episode")
        for a in actions:
            if not 0 <= a < N_ACTIONS:
                raise IndexError(f"invalid action {a}")

        # 1. tick
        for f in self.flames:
            f.life -= 1
        self.flames = [f for f in self.flames if f.life > 0]
        for b in self.bombs:
            b.timer -= 1

        # 2. bomb placement
        for i, action in enumerate(actions):
            agent = self.agents[i]
            if action == BOMB and agent.ammo > 0 and self.bomb_at(agent.row, agent.col) is None:
                self.bombs.append(Bomb(agent.row, agent.col, i, BOMB_TIMER, agent.blast_radius))
                agent.ammo -= 1

        # 3. movement
        kicks = self._resolve_movement(actions)

        # 4. bombs kicked earlier keep sliding; this step's kicks slide next step
        self._slide_bombs()
        for bomb, direction in kicks:
            bomb.direction = direction

        # 5. explosions
        self._explode()

        # 6. deaths: the flame holds every owner whose blast covered its
        # cell; the agent's own bomb wins the attribution (suicide first).
        for i, agent in enumerate(self.agents):
            flame = self.flame_at(agent.row, agent.col)
            if flame is not None:
                agent.alive = False
                self.killers[i] = i if i in flame.owners else min(flame.owners, default=1 - i)

        # 7. power-up pickup
        for agent in self.agents:
            if agent.alive and self.visible_powerup[agent.row, agent.col]:
                kind = self.visible_powerup[agent.row, agent.col]
                if kind == EXTRA_BOMB:
                    agent.ammo += 1
                elif kind == BLAST_RADIUS:
                    agent.blast_radius += 1
                elif kind == KICK:
                    agent.can_kick = True
                self.visible_powerup[agent.row, agent.col] = NO_POWERUP

        # 8. bookkeeping
        self.step_count += 1

    def _resolve_movement(self, actions: tuple[int, int]) -> list[tuple[Bomb, tuple[int, int]]]:
        """Move both agents, and each bomb they kick one cell with its
        direction cleared; return the kicks as (bomb, direction) pairs."""
        origins = [a.pos for a in self.agents]
        targets = list(origins)
        kicks: list[tuple[Bomb, tuple[int, int]]] = []
        for i, action in enumerate(actions):
            agent = self.agents[i]
            if action not in MOVE_DELTAS:
                continue
            dr, dc = MOVE_DELTAS[action]
            r, c = agent.row + dr, agent.col + dc
            if not self.in_bounds(r, c) or self.grid[r, c] != PASSAGE:
                continue
            bomb = self.bomb_at(r, c)
            if bomb is not None:
                # Kick: push the bomb one cell ahead if that cell is free.
                br, bc = r + dr, c + dc
                if (agent.can_kick and self.open_cell(br, bc)
                        and self.agent_at(br, bc) is None):
                    kicks.append((bomb, (dr, dc)))
                    targets[i] = (r, c)
                continue
            targets[i] = (r, c)
        # Conflicts between the two agents: a shared target, or a swap.
        if targets[0] == targets[1] or (targets[0] == origins[1] and targets[1] == origins[0]):
            return []
        for i in (0, 1):
            self.agents[i].row, self.agents[i].col = targets[i]
        for bomb, (dr, dc) in kicks:
            bomb.row += dr
            bomb.col += dc
            bomb.direction = None
        return kicks

    def _slide_bombs(self) -> None:
        for b in self.bombs:
            if b.direction is None:
                continue
            dr, dc = b.direction
            r, c = b.row + dr, b.col + dc
            if self.open_cell(r, c) and self.agent_at(r, c) is None:
                b.row, b.col = r, c
            else:
                b.direction = None

    def _explode(self) -> None:
        """Detonate every expired bomb and every bomb standing in a flame,
        old or new, through one chain-reaction worklist. Each blast cell's
        flame gains the bomb's owner."""
        flame_cells = {(f.row, f.col) for f in self.flames}
        queue = [b for b in self.bombs if b.timer <= 0 or (b.row, b.col) in flame_cells]
        detonated: set[int] = {id(b) for b in queue}
        new_flame_cells: dict[tuple[int, int], set[int]] = {}
        while queue:
            b = queue.pop()
            for cell in self.blast_cells(b.row, b.col, b.radius):
                new_flame_cells.setdefault(cell, set()).add(b.owner)
            for other in self.bombs:
                if id(other) not in detonated and (other.row, other.col) in new_flame_cells:
                    detonated.add(id(other))
                    queue.append(other)
        if detonated:
            # ammo returns to the owner when a bomb goes off
            for b in self.bombs:
                if id(b) in detonated:
                    self.agents[b.owner].ammo += 1
            self.bombs = [b for b in self.bombs if id(b) not in detonated]
        for (r, c), owners in new_flame_cells.items():
            # Flames wipe power-ups that were already visible, then burn wood
            # and reveal whatever was hidden under it.
            if self.grid[r, c] == WOOD:
                self.grid[r, c] = PASSAGE
                if self.hidden_powerup[r, c]:
                    self.visible_powerup[r, c] = self.hidden_powerup[r, c]
                    self.hidden_powerup[r, c] = NO_POWERUP
            elif self.visible_powerup[r, c]:
                self.visible_powerup[r, c] = NO_POWERUP
            existing = self.flame_at(r, c)
            if existing is not None:
                existing.life = FLAME_LIFETIME
                existing.owners |= owners
            else:
                self.flames.append(Flame(r, c, FLAME_LIFETIME, set(owners)))

    # -- terminal bookkeeping ---------------------------------------------

    def terminal_reward(self) -> float:
        """Learner's terminal reward: +1 for a win, -1 for loss and tie."""
        outcome = classify_outcome(self)
        return 1.0 if outcome.result == RESULT_WIN else -1.0


def classify_outcome(board: BomberBoard) -> EpisodeOutcome:
    """Attribute the episode outcome from the learner's perspective using
    bomb ownership of each death."""
    if not board.done:
        raise RuntimeError("outcome of a non-terminal episode")
    us, them = board.agents
    if us.alive and them.alive:
        return EpisodeOutcome(RESULT_TIE, CAUSE_TIMEOUT)
    if not us.alive:
        # Simultaneous deaths resolve as a loss; our own bomb killing us is
        # a suicide regardless of what happened to the opponent.
        if board.killers[0] == 0:
            return EpisodeOutcome(RESULT_LOSS, CAUSE_OUR_SUICIDE)
        return EpisodeOutcome(RESULT_LOSS, CAUSE_KILLED_BY_ENEMY)
    if board.killers[1] == 1:
        return EpisodeOutcome(RESULT_WIN, CAUSE_OPPONENT_SUICIDE)
    return EpisodeOutcome(RESULT_WIN, CAUSE_ENEMY_KILLED)


# -- board generation -----------------------------------------------------

CORNERS = lambda n: [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)]
RIGID_DENSITY = 0.15  # chance that a generated cell is rigid
WOOD_DENSITY = 0.25   # chance that a generated cell is wood
POWERUP_PROB = 0.5    # chance that a wood cell hides a power-up
MAX_RETRIES = 50      # disconnected boards drawn before a corridor is carved


def generate_board(rng: np.random.Generator, n: int = 8,
                   step_cap: int = DEFAULT_STEP_CAP) -> BomberBoard:
    """Random board with agents on two random distinct corners and a
    guaranteed non-rigid path between them.

    All four corners and their orthogonal neighbors stay clear so either
    corner pair is playable. If random generation fails connectivity
    MAX_RETRIES times, an L-shaped corridor is carved between the agents.
    Raises ValueError for a side n below 2, before drawing from rng.
    """
    _check_side(n)
    corners = CORNERS(n)
    idx = rng.choice(4, size=2, replace=False)
    spawn = [corners[idx[0]], corners[idx[1]]]
    clear: set[tuple[int, int]] = set(corners)
    for cr, cc in corners:
        clear.update(cell for _, cell in _neighbor_table(n)[cr][cc])

    for _ in range(MAX_RETRIES + 1):
        board = BomberBoard(n, step_cap=step_cap)
        for r in range(n):
            for c in range(n):
                if (r, c) in clear:
                    continue
                u = rng.random()
                if u < RIGID_DENSITY:
                    board.grid[r, c] = RIGID
                elif u < RIGID_DENSITY + WOOD_DENSITY:
                    board.grid[r, c] = WOOD
        if _connected(board.grid, spawn[0], spawn[1]):
            break
    else:
        _carve_corridor(board.grid, spawn[0], spawn[1])
    for r in range(n):
        for c in range(n):
            if board.grid[r, c] == WOOD and rng.random() < POWERUP_PROB:
                board.hidden_powerup[r, c] = rng.integers(EXTRA_BOMB, KICK + 1)
    board.agents = [AgentState(*spawn[0]), AgentState(*spawn[1])]
    return board


def _connected(grid: np.ndarray, a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Depth-first search over non-rigid cells."""
    table = _neighbor_table(grid.shape[0])
    seen = {a}
    stack = [a]
    while stack:
        r, c = stack.pop()
        if (r, c) == b:
            return True
        for _, cell in table[r][c]:
            if cell not in seen and grid[cell] != RIGID:
                seen.add(cell)
                stack.append(cell)
    return False


def _carve_corridor(grid: np.ndarray, a: tuple[int, int], b: tuple[int, int]) -> None:
    r, c = a
    while c != b[1]:
        c += 1 if b[1] > c else -1
        grid[r, c] = PASSAGE
    while r != b[0]:
        r += 1 if b[0] > r else -1
        grid[r, c] = PASSAGE


# -- text serialization ---------------------------------------------------


def board_to_text(board: BomberBoard) -> str:
    """Human-readable full state (format v2): one char per cell plus an
    entity list; the header carries the bomb owner behind each death."""
    killers = ",".join("-" if k is None else str(k) for k in board.killers)
    lines = [f"minibomber v2 n={board.n} step={board.step_count} cap={board.step_cap} "
             f"killers={killers}"]
    for r in range(board.n):
        lines.append("".join(CELL_CHARS[int(board.grid[r, c])] for c in range(board.n)))
    for i, a in enumerate(board.agents):
        lines.append(f"agent {i} {a.row} {a.col} alive={int(a.alive)} "
                     f"ammo={a.ammo} radius={a.blast_radius} kick={int(a.can_kick)}")
    for b in sorted(board.bombs, key=lambda b: (b.row, b.col)):
        d = f"{b.direction[0]},{b.direction[1]}" if b.direction else "-"
        lines.append(f"bomb {b.row} {b.col} owner={b.owner} timer={b.timer} "
                     f"radius={b.radius} dir={d}")
    for f in sorted(board.flames, key=lambda f: (f.row, f.col)):
        owners = ",".join(str(o) for o in sorted(f.owners))
        lines.append(f"flame {f.row} {f.col} life={f.life} owners={owners}")
    for tag, powerups in (("powerup", board.visible_powerup), ("hidden", board.hidden_powerup)):
        for r in range(board.n):
            for c in range(board.n):
                if powerups[r, c]:
                    lines.append(f"{tag} {r} {c} kind={int(powerups[r, c])}")
    lines.append("end")
    return "\n".join(lines) + "\n"


# The key=value fields of each entity line, in the order board_to_text writes them.
ENTITY_FIELDS = {"agent": ("alive", "ammo", "radius", "kick"),
                 "bomb": ("owner", "timer", "radius", "dir"),
                 "flame": ("life", "owners"),
                 "powerup": ("kind",),
                 "hidden": ("kind",)}

# A bomb's dir field: - when it rests, else the unit step it slides by.
BOMB_DIRS = {"-": None, **{f"{dr},{dc}": (dr, dc) for dr, dc in MOVE_DELTAS.values()}}


def _key_values(line: str, tokens: list[str], keys: tuple[str, ...]) -> dict[str, str]:
    """The line's key=value tokens, which must name exactly `keys`, in order."""
    pairs = [t.split("=", 1) for t in tokens]
    if [p[0] for p in pairs] != list(keys) or any(len(p) != 2 for p in pairs):
        raise ValueError(f"board text line {line!r}: fields must be {'=, '.join(keys)}=")
    return dict(pairs)


def _bounded(line: str, kv: dict[str, str], key: str, low: int, high: int | None = None) -> int:
    """kv[key] as an int, which must be at least low and, given high, at most high."""
    value = int(kv[key])
    if value < low or (high is not None and value > high):
        bounds = f"at least {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"board text line {line!r}: {key} must be {bounds}, not {value}")
    return value


def _agents(line: str, text: str, allowed=("0", "1")) -> list[int | None]:
    """A comma-separated list of agent indices; "-" reads as None where allowed."""
    ids = text.split(",") if text else []
    if not all(x in allowed for x in ids):
        raise ValueError(f"board text line {line!r}: {text!r} is not a list of agents 0 and 1")
    return [None if x == "-" else int(x) for x in ids]


def board_from_text(text: str) -> BomberBoard:
    """Read board text v2, or v1 (no killers: both read back as None).
    Raises ValueError for any other text; docs/formats.md lists each
    rejection."""
    lines = text.strip().splitlines()
    head = lines[0].split() if lines else []
    if head[:2] not in (["minibomber", "v1"], ["minibomber", "v2"]):
        raise ValueError(f"not minibomber board text v1 or v2: {text[:40]!r}")
    v2 = head[1] == "v2"
    kv = _key_values(lines[0], head[2:], ("n", "step", "cap") + (("killers",) if v2 else ()))
    n = int(kv["n"])
    if n < 2 or lines[-1] != "end" or len(lines) < n + 2:
        raise ValueError(f"board text needs n >= 2, {n} rows and one last end line")
    board = BomberBoard(n, step_cap=int(kv["cap"]))
    board.step_count = int(kv["step"])
    if board.step_count > board.step_cap:
        raise ValueError(f"board text header {lines[0]!r}: step is above the cap")
    if v2:
        board.killers = _agents(lines[0], kv["killers"], ("-", "0", "1"))
        if len(board.killers) != 2:
            raise ValueError(f"board text header {lines[0]!r}: want killers of two agents")
    for r, row in enumerate(lines[1:1 + n]):
        if len(row) != n or not all(ch in CHAR_CELLS for ch in row):
            raise ValueError(f"board text row {r} {row!r} is not {n} cells of {''.join(CHAR_CELLS)}")
        board.grid[r] = [CHAR_CELLS[ch] for ch in row]
    board.agents = []
    for line in lines[1 + n:-1]:
        tag, *parts = line.split() or [""]
        if tag not in ENTITY_FIELDS:
            raise ValueError(f"board text line {line!r}: unknown tag {tag!r}")
        if tag == "agent":
            if parts[:1] != [str(len(board.agents))]:
                raise ValueError(f"board text line {line!r}: agents must be numbered 0, 1 in order")
            parts = parts[1:]
        kv = _key_values(line, parts[2:], ENTITY_FIELDS[tag])
        r, c = int(parts[0]), int(parts[1])
        if not board.in_bounds(r, c):
            raise ValueError(f"board text line {line!r}: cell ({r}, {c}) is off the {n}x{n} board")
        if tag == "agent":
            if not {kv["alive"], kv["kick"]} <= {"0", "1"}:
                raise ValueError(f"board text line {line!r}: alive and kick must be 0 or 1")
            board.agents.append(AgentState(r, c, alive=kv["alive"] == "1",
                                            ammo=_bounded(line, kv, "ammo", 0),
                                            blast_radius=_bounded(line, kv, "radius", 1),
                                            can_kick=kv["kick"] == "1"))
        elif tag == "bomb":
            owner, = _agents(line, kv["owner"])
            if kv["dir"] not in BOMB_DIRS:
                raise ValueError(f"board text line {line!r}: dir must be - or a unit step")
            board.bombs.append(Bomb(r, c, owner, _bounded(line, kv, "timer", 1, BOMB_TIMER),
                                    _bounded(line, kv, "radius", 1), BOMB_DIRS[kv["dir"]]))
        elif tag == "flame":
            board.flames.append(Flame(r, c, _bounded(line, kv, "life", 1, FLAME_LIFETIME),
                                      set(_agents(line, kv["owners"]))))
        elif int(kv["kind"]) not in POWERUP_NAMES:
            raise ValueError(f"board text line {line!r}: power-up kinds are 1, 2 and 3")
        else:
            powerups = board.visible_powerup if tag == "powerup" else board.hidden_powerup
            powerups[r, c] = int(kv["kind"])
    if len(board.agents) != 2:
        raise ValueError(f"board text has {len(board.agents)} agents, not 2")
    for kind, things in (("agents", board.agents), ("bombs", board.bombs), ("flames", board.flames)):
        cells = [(x.row, x.col) for x in things]
        if len(set(cells)) != len(cells):
            raise ValueError(f"board text has two {kind} on one cell")
    return board
