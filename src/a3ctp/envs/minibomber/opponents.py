"""Scripted opponents for the bomberman board.

static_opponent always stays put. rulebased_opponent runs a fixed priority
list each step:
  1. on a cell a live bomb's blast (or a lingering flame) will cover,
     take the first step of a shortest path to the nearest danger-free
     cell, a path whose cells the flames do not reach first; with no such
     path, step onto the neighbour that burns latest
  2. place a bomb when an enemy or wood sits inside the current blast
     radius and a safe retreat cell exists; the blast is built once, and
     the retreat is searched on the danger map plus that blast at
     BOMB_TIMER
  3. walk a shortest path to the nearest visible power-up, else toward the
     nearest reachable wood or the enemy; one breadth-first search over
     danger-free open cells finds the target and the first moves of its
     shortest paths
  4. stay put
Candidate moves come in the board's neighbour order (up, down, left,
right), and the caller's rng picks among equally good moves; it is
required, since one fixed seed per call would break every tie alike.

Every cell rule is the board's: `BomberBoard.open_cell` says whether a
cell can be entered and `BomberBoard.neighbors` lists a cell's neighbours.
The opponent walks only onto `_walkable` cells: open, with no other agent
and no flame on them.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .board import BOMB, BOMB_TIMER, STAY, WOOD, BomberBoard

# Steps until flames reach a cell no live bomb or flame covers.
NEVER = 10 ** 9


def static_opponent(board: BomberBoard, agent_id: int = 1) -> int:
    return STAY


def danger_map(board: BomberBoard) -> dict[tuple[int, int], int]:
    """Cell -> steps until that cell is covered by flames.

    0 means flames will be (or stay) on the cell next step. Chain
    detonations are not anticipated; each bomb is assessed at its own
    timer. Deliberately conservative: every cell inside any live bomb's
    blast cross counts as dangerous.
    """
    danger: dict[tuple[int, int], int] = {}
    for b in board.bombs:
        for cell in board.blast_cells(b.row, b.col, b.radius):
            danger[cell] = min(danger.get(cell, NEVER), b.timer)
    for f in board.flames:
        if f.life >= 2:  # still burning after the next flame tick
            danger[(f.row, f.col)] = 0
    return danger


def _walkable(board: BomberBoard, agent_id: int, r: int, c: int) -> bool:
    """An open cell with no other agent and no flame on it."""
    return (board.open_cell(r, c) and board.agent_at(r, c, exclude=agent_id) is None
            and board.flame_at(r, c) is None)


def _escape_route(board: BomberBoard, agent_id: int,
                  danger: dict[tuple[int, int], int]) -> list[int]:
    """First moves of shortest paths to the nearest danger-free cell.

    A breadth-first search, one level at a time. Level d + 1 holds the
    walkable cells no earlier level reached whose flames do not arrive
    within d + 1 steps; each maps to the distinct first moves that reach
    it, in discovery order, where a predecessor passes on only its first
    listed one. The search stops at the first level holding a cell absent
    from `danger` and returns those cells' first moves, deduplicated, in
    discovery order. Empty when no danger-free cell is reachable.
    """
    start = board.agents[agent_id].pos
    seen = {start}
    level: dict[tuple[int, int], list[int]] = {start: []}
    d = 0
    while level:
        d += 1
        nxt: dict[tuple[int, int], list[int]] = {}
        for pos, firsts in level.items():
            for action, cell in board.neighbors(*pos):
                if (cell in seen or danger.get(cell, NEVER) <= d  # flames beat us there
                        or not _walkable(board, agent_id, *cell)):
                    continue
                first = firsts[0] if firsts else action  # the start has no first move
                moves = nxt.setdefault(cell, [])
                if first not in moves:
                    moves.append(first)
        safe = [m for cell, moves in nxt.items() if cell not in danger for m in moves]
        if safe:
            return list(dict.fromkeys(safe))
        seen.update(nxt)
        level = nxt
    return []


def _bomb_pays(board: BomberBoard, agent_id: int,
               danger: dict[tuple[int, int], int]) -> bool:
    """Rule (2): the opponent has ammo, no bomb lies under it, wood or
    another agent sits inside its blast, and an escape route remains on
    the danger map plus that blast at BOMB_TIMER."""
    me = board.agents[agent_id]
    if me.ammo <= 0 or board.bomb_at(me.row, me.col) is not None:
        return False
    blast = board.blast_cells(me.row, me.col, me.blast_radius)
    if not any(board.grid[cell] == WOOD or board.agent_at(*cell, exclude=agent_id) is not None
               for cell in blast):
        return False
    with_mine = dict(danger)
    for cell in blast:
        with_mine[cell] = min(with_mine.get(cell, NEVER), BOMB_TIMER)
    return bool(_escape_route(board, agent_id, with_mine))


def _approach(board: BomberBoard, agent_id: int,
              danger: dict[tuple[int, int], int]) -> list[int]:
    """Rule (3): first moves of shortest paths to the nearest target.

    One breadth-first search from the opponent over open cells outside
    `danger` records each reached cell's distance and the set of first
    moves of its shortest paths, and collects the reached cells that hold
    a visible power-up or lie next to wood or the live enemy. The target
    is the smallest (distance, cell) power-up, else approach cell; its
    first moves come sorted, which is neighbour order. Empty when no
    target is reached.
    """
    start = board.agents[agent_id].pos
    foe = board.agents[1 - agent_id]
    foe_pos = foe.pos if foe.alive else None
    dist = {start: 0}
    firsts: dict[tuple[int, int], set[int]] = {start: set()}
    powerups, approach = [], []  # (distance, cell) of each target kind
    frontier = deque([start])
    while frontier:
        pos = frontier.popleft()
        d = dist[pos] + 1
        for action, cell in board.neighbors(*pos):
            if cell not in dist:
                if cell in danger or not board.open_cell(*cell):
                    continue
                dist[cell] = d
                firsts[cell] = set()
                frontier.append(cell)
                if board.visible_powerup[cell]:
                    powerups.append((d, cell))
                elif any(board.grid[near] == WOOD or near == foe_pos
                         for _, near in board.neighbors(*cell)):
                    approach.append((d, cell))
            if dist[cell] == d:
                firsts[cell] |= firsts[pos] or {action}  # the start has no first move
    targets = powerups or approach
    return sorted(firsts[min(targets)[1]]) if targets else []


def rulebased_opponent(board: BomberBoard, agent_id: int, rng: np.random.Generator) -> int:
    me = board.agents[agent_id]
    if not me.alive:
        return STAY
    danger = danger_map(board)

    # (1) escape danger
    if me.pos in danger:
        route = _escape_route(board, agent_id, danger)
        if route:
            return int(rng.choice(route))
        # No path to safety: step toward the latest-detonating neighbor.
        best, best_t = STAY, danger[me.pos]
        for action, cell in board.neighbors(*me.pos):
            t = danger.get(cell, NEVER)
            if t > best_t and _walkable(board, agent_id, *cell):
                best, best_t = action, t
        return best

    # (2) drop a bomb when something is in range and a retreat exists
    if _bomb_pays(board, agent_id, danger):
        return BOMB

    # (3) walk toward the nearest power-up, else wood/enemy
    moves = _approach(board, agent_id, danger)
    if moves:
        return int(rng.choice(moves))

    # (4) nothing to do
    return STAY
