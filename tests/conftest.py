"""Suite-wide guards."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a live child process, such as a training
    worker that `train` did not join; the leftover is stopped first."""
    yield
    leftover = multiprocessing.active_children()
    for proc in leftover:
        proc.terminate()
    for proc in leftover:
        proc.join()
    if leftover:
        pytest.fail(f"child processes left running: {leftover}")
