"""Scripted opponents for the bomberman board.

static_opponent always stays put. rulebased_opponent runs a fixed priority
list each step:
  1. on a cell a live bomb's blast (or a lingering flame) will cover,
     take the first step of a shortest path to the nearest danger-free
     cell, a path whose cells the flames do not reach first; with no such
     path, step onto the neighbour that burns latest
  2. place a bomb when an enemy or wood sits inside the current blast
     radius and a safe retreat cell exists
  3. walk a shortest path to the nearest visible power-up, else toward the
     nearest reachable wood or the enemy
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

from .board import BOMB, STAY, WOOD, BomberBoard


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
            danger[cell] = min(danger.get(cell, 10 ** 9), b.timer)
    for f in board.flames:
        if f.life >= 2:  # still burning after the next flame tick
            danger[(f.row, f.col)] = 0
    return danger


def _walkable(board: BomberBoard, agent_id: int, r: int, c: int) -> bool:
    """An open cell with no other agent and no flame on it."""
    return (board.open_cell(r, c) and board.agent_at(r, c, exclude=agent_id) is None
            and board.flame_at(r, c) is None)


def dijkstra(board: BomberBoard, start: tuple[int, int],
             blocked: set[tuple[int, int]] | None = None) -> dict[tuple[int, int], int]:
    """Shortest path lengths from start over open cells. Every edge costs
    1, so this is a breadth-first search. `blocked` cells are not entered."""
    blocked = blocked or set()
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        r, c = frontier.popleft()
        d = dist[(r, c)] + 1
        for _, cell in board.neighbors(r, c):
            if cell not in dist and cell not in blocked and board.open_cell(*cell):
                dist[cell] = d
                frontier.append(cell)
    return dist


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
                if (cell in seen or danger.get(cell, 10 ** 9) <= d  # flames beat us there
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


def _has_retreat_after_bombing(board: BomberBoard, agent_id: int,
                               danger: dict[tuple[int, int], int]) -> bool:
    """Would a bomb dropped here still leave a reachable safe cell?"""
    me = board.agents[agent_id]
    with_mine = dict(danger)
    for cell in board.blast_cells(me.row, me.col, me.blast_radius):
        with_mine[cell] = min(with_mine.get(cell, 10 ** 9), 10)
    return bool(_escape_route(board, agent_id, with_mine))


def _bomb_worth_placing(board: BomberBoard, agent_id: int) -> bool:
    me = board.agents[agent_id]
    if me.ammo <= 0 or board.bomb_at(me.row, me.col) is not None:
        return False
    for (r, c) in board.blast_cells(me.row, me.col, me.blast_radius):
        if board.grid[r, c] == WOOD:
            return True
        other = board.agent_at(r, c, exclude=agent_id)
        if other is not None:
            return True
    return False


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
            t = danger.get(cell, 10 ** 9)
            if t > best_t and _walkable(board, agent_id, *cell):
                best, best_t = action, t
        return best

    # (2) drop a bomb when something is in range and a retreat exists
    if _bomb_worth_placing(board, agent_id):
        if _has_retreat_after_bombing(board, agent_id, danger):
            return BOMB

    # (3) walk toward the nearest power-up, else wood/enemy. The graph of
    # open, unblocked cells is undirected, so one search from the target
    # gives every neighbour's distance back to it.
    blocked = set(danger)
    dist = dijkstra(board, me.pos, blocked=blocked)
    target = _nearest_target(board, agent_id, dist)
    if target is not None:
        goal_d = dist[target]
        back = dijkstra(board, target, blocked=blocked)
        candidates = [action for action, cell in board.neighbors(*me.pos)
                      if dist.get(cell) == 1 and back.get(cell) == goal_d - 1]
        if candidates:
            return int(rng.choice(candidates))

    # (4) nothing to do
    return STAY


def _nearest_target(board: BomberBoard, agent_id: int,
                    dist: dict[tuple[int, int], int]) -> tuple[int, int] | None:
    """Nearest reachable visible power-up; failing that, nearest cell
    adjacent to wood or to the enemy."""
    powerups = [(d, cell) for cell, d in dist.items()
                if d > 0 and board.visible_powerup[cell]]
    if powerups:
        return min(powerups)[1]
    approach = []
    foe = board.agents[1 - agent_id]
    foe_pos = foe.pos if foe.alive else None
    for cell, d in dist.items():
        if d == 0:
            continue
        for _, near in board.neighbors(*cell):
            if board.grid[near] == WOOD or near == foe_pos:
                approach.append((d, cell))
                break
    if approach:
        return min(approach)[1]
    return None
