"""``multipar.pool``: contiguous slices over forked workers, whose results
concatenate to the serial map and whose faults are the serial map's, drawn
from a queue so a slow worker holds none back, and the ways a worker can
fail."""

import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from multipar import pool

SRC = Path(pool.__file__).resolve().parents[1]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 40), workers=st.integers(1, 6), min_per_worker=st.integers(1, 12))
def test_concatenated_slices_equal_the_serial_map(n, workers, min_per_worker):
    def squares(start, stop):
        return [i * i for i in range(start, stop)]

    with mock.patch.object(pool, "available_cpus", lambda: 4):
        slices = pool.map_slices(squares, n, workers, min_per_worker, RuntimeError("died"))
        used = pool.worker_count(workers, n, min_per_worker)
    assert [x for part in slices for x in part] == squares(0, n)
    # in-process one slice; forked SLICES_PER_WORKER per process, none empty
    assert len(slices) == (1 if used == 1 else min(n, used * pool.SLICES_PER_WORKER))
    assert all(slices) or n == 0


def test_a_slow_worker_leaves_its_share_to_the_others():
    parent = os.getpid()

    def pids(start, stop):
        if start and os.getpid() != parent:
            time.sleep(1)  # the forked worker stalls on its first slice
        return [os.getpid()] * (stop - start)

    with mock.patch.object(pool, "available_cpus", lambda: 2):
        slices = pool.map_slices(pids, 2 * pool.SLICES_PER_WORKER, 2, 1, RuntimeError("died"))
    owners = [part[0] for part in slices]
    # slice 1 was the worker's; the parent drew every slice from the queue
    assert owners[1] != parent
    assert owners[:1] + owners[2:] == [parent] * (2 * pool.SLICES_PER_WORKER - 1)


def test_a_slice_that_raises_in_a_worker_raises_its_own_exception(capfd):
    parent = os.getpid()

    def worker_fails(start, stop):
        if os.getpid() != parent:
            raise KeyError("boom")
        return [start, stop]

    with mock.patch.object(pool, "available_cpus", lambda: 2):
        with pytest.raises(KeyError) as raised:
            pool.map_slices(worker_fails, 4, 2, 1, RuntimeError("died"))
    assert raised.value.args == ("boom",)
    assert capfd.readouterr().err == ""


def outcome(run):
    """What ``run()`` returns, or the type and args of what it raises."""
    try:
        return "returned", run()
    except Exception as exc:
        return "raised", type(exc), exc.args


@st.composite
def items_and_faults(draw):
    """``n``, and the exception type to raise at each of some items below it."""
    n = draw(st.integers(0, 40))
    kinds = st.sampled_from([KeyError, ValueError, ZeroDivisionError])
    return n, draw(st.dictionaries(st.integers(0, max(n - 1, 0)), kinds, max_size=n))


@settings(max_examples=60, deadline=None)
@given(case=items_and_faults(), workers=st.integers(1, 6))
def test_the_slices_return_or_raise_what_the_serial_map_does(case, workers):
    n, faults = case

    def squares(start, stop):
        out = []
        for i in range(start, stop):
            if i in faults:
                raise faults[i](i)
            out.append(i * i)
        return out

    def pooled():
        slices = pool.map_slices(squares, n, workers, 1, RuntimeError("died"))
        return [x for part in slices for x in part]

    with mock.patch.object(pool, "available_cpus", lambda: 4):
        assert outcome(pooled) == outcome(lambda: squares(0, n))


class Unloadable(Exception):
    def __init__(self, message, detail):  # unpickling calls Unloadable(message)
        super().__init__(message)


@pytest.mark.parametrize("fault", [
    lambda: KeyError(lambda: 0),  # a lambda does not pickle
    lambda: Unloadable("boom", 0),
], ids=["unpicklable", "unloadable"])
def test_a_fault_that_does_not_survive_pickling_is_the_given_error(capfd, fault):
    parent = os.getpid()

    def worker_fails(start, stop):
        if os.getpid() != parent:
            raise fault()
        return [start, stop]

    with mock.patch.object(pool, "available_cpus", lambda: 2):
        with pytest.raises(RuntimeError, match="died"):
            pool.map_slices(worker_fails, 4, 2, 1, RuntimeError("died"))
    assert capfd.readouterr().err == ""


FORK_FAILS = """
import os
from multipar import pool

real_fork, forks = os.fork, []

def fork():
    forks.append(os.getpid())
    if len(forks) > 1:
        raise OSError(11, "fork failed")
    return real_fork()

os.fork = fork
pool.available_cpus = lambda: 3
try:
    # the first worker blocks writing 1 MB into a pipe nobody will read
    pool.map_slices(lambda start, stop: bytes(1 << 20), 3, 3, 1, RuntimeError("died"))
except OSError as exc:
    print("raised", exc.errno)
"""


def test_a_failed_fork_reaps_the_workers_already_started():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", FORK_FAILS], capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised 11\n"
