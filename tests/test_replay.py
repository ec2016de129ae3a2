"""Replay files: a save/load round trip, and the strict reader's rejection
of every malformed file it used to accept."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a3ctp.envs.minibomber.replay import load_replay, save_replay

GOOD = ["minibomber-replay v1", "n 8", "cap 800", "seed 42", "0 5", "4 1", "end"]


def write(tmp_path, lines, name="ep.replay"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def test_reads_a_well_formed_file(tmp_path):
    assert load_replay(write(tmp_path, GOOD)) == (8, 800, 42, [(0, 5), (4, 1)])


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 20), cap=st.integers(0, 5000), seed=st.integers(0, 2**63 - 2),
       actions=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=40))
def test_save_load_round_trip(tmp_path_factory, n, cap, seed, actions):
    path = tmp_path_factory.mktemp("replay") / "ep.replay"
    save_replay(path, n, cap, seed, actions)
    assert load_replay(path) == (n, cap, seed, actions)


def test_rejects_wrong_magic(tmp_path):
    with pytest.raises(ValueError, match="not a replay file"):
        load_replay(write(tmp_path, ["minibomber-replay v2"] + GOOD[1:]))


def test_rejects_missing_end_line(tmp_path):
    with pytest.raises(ValueError, match="no end line"):
        load_replay(write(tmp_path, GOOD[:-1]))


def test_rejects_lines_after_end(tmp_path):
    with pytest.raises(ValueError, match="after end"):
        load_replay(write(tmp_path, GOOD + ["2 2"]))


@pytest.mark.parametrize("index, line", [(1, "size 8"), (2, "seed 800"), (3, "cap 42"),
                                         (3, "seed"), (3, "seed -1"), (1, "n 8 8")])
def test_rejects_header_with_wrong_key_or_value(tmp_path, index, line):
    lines = list(GOOD)
    lines[index] = line
    with pytest.raises(ValueError, match="header"):
        load_replay(write(tmp_path, lines))


@pytest.mark.parametrize("line", ["0 6", "6 0", "-1 0", "0", "0 1 2", "a b"])
def test_rejects_action_outside_range_or_malformed(tmp_path, line):
    lines = list(GOOD)
    lines[4] = line
    with pytest.raises(ValueError, match="bad action line"):
        load_replay(write(tmp_path, lines))
