"""Hand-traced bomberman dynamics scripts.

Each trace builds a board in a known state, applies a scripted action
sequence, and asserts the resulting state (for the core traces, by exact
comparison of the text serialization against an independently constructed
expected board). Shared between the unit suite and the acceptance gate.
"""

import numpy as np

from a3ctp.envs.minibomber.board import (
    BOMB, DOWN, LEFT, PASSAGE, RIGHT, RIGID, STAY, UP, WOOD,
    AgentState, Bomb, BomberBoard, Flame,
    BLAST_RADIUS, EXTRA_BOMB, KICK,
    CAUSE_ENEMY_KILLED, CAUSE_KILLED_BY_ENEMY, CAUSE_OPPONENT_SUICIDE,
    CAUSE_OUR_SUICIDE, CAUSE_TIMEOUT,
    RESULT_LOSS, RESULT_TIE, RESULT_WIN,
    board_to_text, classify_outcome,
)


def empty_board(n=8, a0=(0, 0), a1=(7, 7), cap=800):
    b = BomberBoard(n, step_cap=cap)
    b.agents = [AgentState(*a0), AgentState(*a1)]
    return b


def _safe_neighbors(board, agent_id, danger):
    """Oracle for the rule-based opponent's safety: the moves, in the order
    up, down, left, right, from agent_id's cell onto a cell that is in
    bounds, a passage, free of bombs, other live agents and flames, and
    absent from the danger map. Each check is written out here, so the
    oracle shares no code with the opponent it checks."""
    me = board.agents[agent_id]
    out = []
    for action, (dr, dc) in ((UP, (-1, 0)), (DOWN, (1, 0)), (LEFT, (0, -1)), (RIGHT, (0, 1))):
        r, c = me.row + dr, me.col + dc
        if not (0 <= r < board.n and 0 <= c < board.n) or board.grid[r, c] != PASSAGE:
            continue
        if any(b.row == r and b.col == c for b in board.bombs):
            continue
        if any(i != agent_id and a.alive and (a.row, a.col) == (r, c)
               for i, a in enumerate(board.agents)):
            continue
        if any(f.row == r and f.col == c for f in board.flames) or (r, c) in danger:
            continue
        out.append(action)
    return out


def trace_bomb_timing_and_flame_expiry():
    """Bomb placed at step 0 explodes during step 10; flames persist through
    step 11 and are gone after step 12."""
    b = empty_board()
    script = [BOMB, DOWN, DOWN, DOWN] + [STAY] * 6  # steps 0..9
    for a in script:
        b.step((a, STAY))
        assert not b.flames
    assert len(b.bombs) == 1 and b.bombs[0].timer == 1
    b.step((STAY, STAY))  # step 10: detonation
    assert not b.bombs
    flame_cells = {(f.row, f.col) for f in b.flames}
    assert flame_cells == {(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)}
    assert all(f.life == 2 for f in b.flames)
    # full-state comparison against a hand-constructed expected board
    expected = empty_board(a0=(3, 0))
    expected.step_count = 11
    expected.agents[0].ammo = 1  # returned on detonation
    for cell in sorted(flame_cells):
        expected.flames.append(Flame(cell[0], cell[1], 2, {0}))
    assert board_to_text(b) == board_to_text(expected)
    b.step((STAY, STAY))  # step 11: flames decay to life 1
    assert {(f.row, f.col) for f in b.flames} == flame_cells
    assert all(f.life == 1 for f in b.flames)
    b.step((STAY, STAY))  # step 12: flames gone
    assert not b.flames
    assert not b.done


def trace_blast_stops_at_rigid():
    b = empty_board(a0=(4, 0), a1=(7, 7))
    b.grid[0, 2] = RIGID
    b.bombs.append(Bomb(0, 0, 0, 1, 2))
    b.step((STAY, STAY))
    cells = {(f.row, f.col) for f in b.flames}
    # right ray stops before the rigid wall at (0,2)
    assert cells == {(0, 0), (0, 1), (1, 0), (2, 0)}
    assert b.grid[0, 2] == RIGID  # rigid is indestructible


def trace_wood_burns_and_reveals_powerup():
    b = empty_board(a0=(4, 0), a1=(7, 7))
    b.grid[0, 1] = WOOD
    b.hidden_powerup[0, 1] = KICK
    b.bombs.append(Bomb(0, 0, 0, 1, 2))
    b.step((STAY, STAY))
    cells = {(f.row, f.col) for f in b.flames}
    # wood cell is included in the blast but stops the ray at (0,1)
    assert cells == {(0, 0), (0, 1), (1, 0), (2, 0)}
    assert b.grid[0, 1] == PASSAGE
    assert b.visible_powerup[0, 1] == KICK
    assert b.hidden_powerup[0, 1] == 0
    # the revealed power-up survives the revealing flame and is collectable
    b.step((STAY, STAY))
    b.step((STAY, STAY))  # flames expire during this step
    assert not b.flames and b.visible_powerup[0, 1] == KICK


def trace_chain_detonation_same_step():
    b = empty_board(a0=(7, 0), a1=(7, 7))
    b.bombs.append(Bomb(0, 0, 0, 1, 2))
    b.bombs.append(Bomb(0, 2, 0, 9, 2))  # inside the first blast
    b.step((STAY, STAY))
    assert not b.bombs  # both detonated in the same step
    cells = {(f.row, f.col) for f in b.flames}
    assert cells == {(0, 0), (0, 1), (0, 2), (1, 0), (2, 0),
                     (0, 3), (0, 4), (1, 2), (2, 2)}


def trace_bomb_on_lingering_flame_explodes():
    b = empty_board(a0=(7, 0), a1=(7, 7))
    b.flames.append(Flame(3, 3, 2, {1}))
    b.bombs.append(Bomb(3, 3, 0, 9, 1))
    b.step((STAY, STAY))
    assert not b.bombs
    assert {(f.row, f.col) for f in b.flames} == {(3, 3), (2, 3), (4, 3), (3, 2), (3, 4)}


def trace_same_target_conflict_bounces_both():
    b = empty_board(a0=(0, 0), a1=(0, 2))
    b.step((RIGHT, LEFT))
    assert b.agents[0].pos == (0, 0)
    assert b.agents[1].pos == (0, 2)
    expected = empty_board(a0=(0, 0), a1=(0, 2))
    expected.step_count = 1
    assert board_to_text(b) == board_to_text(expected)


def trace_swap_conflict_bounces_both():
    b = empty_board(a0=(0, 0), a1=(0, 1))
    b.step((RIGHT, LEFT))
    assert b.agents[0].pos == (0, 0)
    assert b.agents[1].pos == (0, 1)


def trace_move_into_stationary_agent_bounces():
    b = empty_board(a0=(0, 0), a1=(0, 1))
    b.step((RIGHT, STAY))
    assert b.agents[0].pos == (0, 0)


def trace_move_onto_standing_agent_0_bounces():
    b = empty_board(a0=(0, 0), a1=(0, 1))
    b.step((STAY, LEFT))
    expected = empty_board(a0=(0, 0), a1=(0, 1))
    expected.step_count = 1
    assert board_to_text(b) == board_to_text(expected)


def trace_agents_follow_into_vacated_cells():
    # Agent 1 steps into the cell agent 0 leaves, then agent 0 into agent 1's.
    b = empty_board(a0=(0, 0), a1=(0, 1))
    b.step((DOWN, LEFT))
    assert (b.agents[0].pos, b.agents[1].pos) == ((1, 0), (0, 0))
    b.step((UP, RIGHT))
    assert (b.agents[0].pos, b.agents[1].pos) == ((0, 0), (0, 1))


def trace_bounced_kicker_leaves_bomb_unkicked():
    # Both agents kick one bomb: a shared target, so both bounce.
    b = empty_board(a0=(1, 0), a1=(0, 1))
    for agent in b.agents:
        agent.can_kick = True
    b.bombs.append(Bomb(1, 1, 0, 30, 2))
    b.step((RIGHT, DOWN))
    expected = empty_board(a0=(1, 0), a1=(0, 1))
    for agent in expected.agents:
        agent.can_kick = True
    expected.bombs.append(Bomb(1, 1, 0, 29, 2))
    expected.step_count = 1
    assert board_to_text(b) == board_to_text(expected)
    # Agent 0 kicks the bomb agent 1 stands on: a move onto a standing agent.
    b = empty_board(a0=(0, 0), a1=(0, 1))
    b.agents[0].can_kick = True
    b.bombs.append(Bomb(0, 1, 1, 30, 2))
    b.step((RIGHT, STAY))
    assert b.agents[0].pos == (0, 0)
    assert (b.bombs[0].row, b.bombs[0].col, b.bombs[0].direction) == (0, 1, None)


def trace_kicked_sliding_bomb_turns_from_next_step():
    # A bomb sliding right is kicked down: it moves one cell with the kick
    # and starts its downward slide on the next step, not this one.
    b = empty_board(a0=(1, 2), a1=(7, 7))
    b.agents[0].can_kick = True
    b.bombs.append(Bomb(2, 2, 1, 30, 2, direction=(0, 1)))
    b.step((DOWN, STAY))
    assert b.agents[0].pos == (2, 2)
    assert (b.bombs[0].row, b.bombs[0].col, b.bombs[0].direction) == (3, 2, (1, 0))
    b.step((STAY, STAY))
    assert (b.bombs[0].row, b.bombs[0].col, b.bombs[0].direction) == (4, 2, (1, 0))


def trace_kick_slides_bomb_until_wall():
    b = empty_board(a0=(0, 0), a1=(7, 7))
    b.agents[0].can_kick = True
    b.bombs.append(Bomb(0, 1, 1, 30, 2))
    b.bombs[0].timer = 30  # long fuse so the slide is observable
    b.step((RIGHT, STAY))
    assert b.agents[0].pos == (0, 1)
    assert (b.bombs[0].row, b.bombs[0].col) == (0, 2)
    assert b.bombs[0].direction == (0, 1)
    for _ in range(4):
        b.step((STAY, STAY))
    assert (b.bombs[0].row, b.bombs[0].col) == (0, 6)
    b.step((STAY, STAY))
    assert (b.bombs[0].row, b.bombs[0].col) == (0, 7)
    b.step((STAY, STAY))  # wall: slide stops
    assert (b.bombs[0].row, b.bombs[0].col) == (0, 7)
    assert b.bombs[0].direction is None


def trace_kick_without_ability_blocks():
    b = empty_board(a0=(0, 0), a1=(7, 7))
    b.bombs.append(Bomb(0, 1, 1, 30, 2))
    b.step((RIGHT, STAY))
    assert b.agents[0].pos == (0, 0)
    assert (b.bombs[0].row, b.bombs[0].col) == (0, 1)


def trace_timeout_is_tie_with_minus_one():
    b = empty_board(cap=800)
    for _ in range(800):
        b.step((STAY, STAY))
    assert b.done and b.step_count == 800
    outcome = classify_outcome(b)
    assert outcome.result == RESULT_TIE and outcome.cause == CAUSE_TIMEOUT
    assert b.terminal_reward() == -1.0


def trace_our_suicide():
    b = empty_board()
    b.step((BOMB, STAY))
    for _ in range(10):
        b.step((STAY, STAY))
    assert b.done and not b.agents[0].alive
    outcome = classify_outcome(b)
    assert outcome.result == RESULT_LOSS and outcome.cause == CAUSE_OUR_SUICIDE
    assert b.terminal_reward() == -1.0


def trace_opponent_suicide_false_positive():
    b = empty_board()
    b.bombs.append(Bomb(7, 7, 1, 1, 2))
    b.step((STAY, STAY))
    assert b.done and not b.agents[1].alive and b.agents[0].alive
    outcome = classify_outcome(b)
    assert outcome.result == RESULT_WIN and outcome.cause == CAUSE_OPPONENT_SUICIDE
    assert b.terminal_reward() == 1.0


def trace_enemy_killed_by_our_bomb():
    b = empty_board(a0=(0, 0), a1=(7, 7))
    b.bombs.append(Bomb(7, 6, 0, 1, 2))
    b.step((STAY, STAY))
    assert b.done and not b.agents[1].alive
    outcome = classify_outcome(b)
    assert outcome.result == RESULT_WIN and outcome.cause == CAUSE_ENEMY_KILLED
    assert b.terminal_reward() == 1.0


def trace_killed_by_enemy_bomb():
    b = empty_board(a0=(0, 0), a1=(7, 7))
    b.bombs.append(Bomb(0, 1, 1, 1, 2))
    b.step((STAY, STAY))
    assert b.done and not b.agents[0].alive
    outcome = classify_outcome(b)
    assert outcome.result == RESULT_LOSS and outcome.cause == CAUSE_KILLED_BY_ENEMY


def trace_simultaneous_death_is_our_suicide_when_our_bomb():
    b = empty_board(a0=(0, 0), a1=(0, 3))
    b.bombs.append(Bomb(0, 1, 0, 1, 2))  # our bomb covers both agents
    b.step((STAY, STAY))
    assert b.done and not b.agents[0].alive and not b.agents[1].alive
    outcome = classify_outcome(b)
    assert outcome.result == RESULT_LOSS and outcome.cause == CAUSE_OUR_SUICIDE


def trace_walking_into_flame_kills():
    b = empty_board(a0=(0, 0), a1=(7, 7))
    b.flames.append(Flame(0, 1, 2, {1}))
    b.step((RIGHT, STAY))
    assert b.done and not b.agents[0].alive
    assert classify_outcome(b).cause == CAUSE_KILLED_BY_ENEMY


def trace_ammo_spent_and_returned():
    b = empty_board()
    assert b.agents[0].ammo == 1
    b.step((BOMB, STAY))
    assert b.agents[0].ammo == 0
    b.step((DOWN, STAY))
    b.step((BOMB, STAY))  # no ammo: nothing placed
    assert len(b.bombs) == 1
    b.step((DOWN, STAY))
    b.step((DOWN, STAY))
    for _ in range(6):
        b.step((STAY, STAY))
    assert not b.bombs
    assert b.agents[0].ammo == 1  # returned on detonation


def trace_powerup_pickup_applies_ability():
    b = empty_board(a0=(0, 0), a1=(7, 7))
    b.visible_powerup[0, 1] = BLAST_RADIUS
    b.step((RIGHT, STAY))
    assert b.agents[0].blast_radius == 3
    assert b.visible_powerup[0, 1] == 0
    b.visible_powerup[0, 2] = EXTRA_BOMB
    b.step((RIGHT, STAY))
    assert b.agents[0].ammo == 2


def trace_flame_destroys_exposed_powerup():
    b = empty_board(a0=(7, 0), a1=(7, 7))
    b.visible_powerup[0, 1] = KICK
    b.bombs.append(Bomb(0, 0, 0, 1, 2))
    b.step((STAY, STAY))
    assert b.visible_powerup[0, 1] == 0


TRACES = [
    trace_bomb_timing_and_flame_expiry,
    trace_blast_stops_at_rigid,
    trace_wood_burns_and_reveals_powerup,
    trace_chain_detonation_same_step,
    trace_bomb_on_lingering_flame_explodes,
    trace_same_target_conflict_bounces_both,
    trace_swap_conflict_bounces_both,
    trace_move_into_stationary_agent_bounces,
    trace_move_onto_standing_agent_0_bounces,
    trace_agents_follow_into_vacated_cells,
    trace_bounced_kicker_leaves_bomb_unkicked,
    trace_kicked_sliding_bomb_turns_from_next_step,
    trace_kick_slides_bomb_until_wall,
    trace_kick_without_ability_blocks,
    trace_timeout_is_tie_with_minus_one,
    trace_our_suicide,
    trace_opponent_suicide_false_positive,
    trace_enemy_killed_by_our_bomb,
    trace_killed_by_enemy_bomb,
    trace_simultaneous_death_is_our_suicide_when_our_bomb,
    trace_walking_into_flame_kills,
    trace_ammo_spent_and_returned,
    trace_powerup_pickup_applies_ability,
    trace_flame_destroys_exposed_powerup,
]
