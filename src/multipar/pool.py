"""One job cut into contiguous slices, mapped over forked worker processes.

``map_slices(fn, n, workers, min_per_worker, error)`` cuts ``range(n)`` into
contiguous slices and returns ``[fn(start, stop), ...]`` in slice order.  A
caller whose slice results concatenate or add up therefore gets what
``fn(0, n)`` gives, whatever the worker count, and, if ``fn`` maps item by
item, what it raises: the exception of the lowest slice that faulted.

With more than one worker, the calling process works too, next to
``workers - 1`` processes forked with ``os.fork``, so ``fn`` and everything it
reads are inherited as they are.  There are ``SLICES_PER_WORKER`` slices per
process.  Process ``p`` maps slice ``p`` first, then draws the slices left
from a queue until it is empty: a process that the machine runs slower, or
whose slices cost more, maps fewer of them, instead of holding up the rest.
A process in which ``fn`` raises empties the queue, so no slice is drawn
after the fault, and every slice below it was drawn before; each forked
worker pickles its results, or its fault, into a pipe.  ``error`` is raised
only for a worker that exits without reporting: with a status but 0,
killed, or with a fault that does not survive pickling.

No thread is started, and neither ``multiprocessing`` nor
``concurrent.futures`` is imported: a ``ProcessPoolExecutor`` cost the parent
2-4 MB of peak RSS in ``lid-train``.  Where fork is unavailable, or unsafe
because other threads run (a lock one of them holds would stay held in the
workers), ``fn(0, n)`` runs in-process.  This is the only module that starts
processes.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, TypeVar

T = TypeVar("T")

# slices per process, timed over the lid bench's three stages on 2 cores, 30
# passes alternating between pools: 8 took a median 2.14 s a pass, with an
# interquartile range of 12% of it; 4 took 2.20 s and 20%, 16 took 2.15 s and
# 14%, and one slice per forked worker, with the parent waiting, 2.39 s and 20%
SLICES_PER_WORKER = 8
# the queue is a pipe holding a 4-byte slice index per queued slice, written
# whole before the first fork; 1024 of them fill 4 KiB, which any pipe holds
MAX_QUEUED = 1024
_INDEX_BYTES = 4


def available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def worker_count(workers: int | None, n: int, min_per_worker: int) -> int:
    """Processes used for ``n`` items with at most ``workers``, or every CPU
    if None, where each must get ``min_per_worker`` items to pay for itself."""
    cpus = available_cpus()
    return max(1, min(cpus if workers is None else workers, cpus, n // min_per_worker))


def map_slices(
    fn: Callable[[int, int], T], n: int, workers: int | None, min_per_worker: int,
    error: Exception,
) -> list[T]:
    """``fn(start, stop)`` for each contiguous slice of ``range(n)``, in order,
    mapped by up to ``workers`` processes; raises what ``fn(0, n)`` raises,
    or ``error`` if a worker exits without reporting."""
    workers = worker_count(workers, n, min_per_worker)
    if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        slices = min(n, workers * SLICES_PER_WORKER, workers + MAX_QUEUED)
        return _forked_map(fn, [n * i // slices for i in range(slices + 1)], workers, error)
    return [fn(0, n)]


def _forked_map(fn, bounds, workers, error):
    """``fn`` over the slices between consecutive ``bounds``, in this process
    and ``workers - 1`` forked ones."""
    import pickle

    queue, queue_end = os.pipe()
    with open(queue_end, "wb") as pending:  # closed before the first fork
        pending.write(b"".join(
            i.to_bytes(_INDEX_BYTES, "little") for i in range(workers, len(bounds) - 1)
        ))
    pipes, pids = [], []  # the read end of each worker's pipe, and its pid
    try:
        for first in range(1, workers):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            with open(write_end, "wb") as pipe:  # closed in the parent once forked
                pid = os.fork()
                if pid == 0:  # a worker: it exits 0 once its report is written, else 1
                    try:
                        for read in pipes:  # the parent's alone, so its close breaks the pipe
                            read.close()
                        report = _drain(fn, bounds, first, queue)
                        pickle.dump(report, pipe, pickle.HIGHEST_PROTOCOL)
                        pipe.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
            pids.append(pid)
        reports = [_drain(fn, bounds, 0, queue)]
        payloads = [read.read() for read in pipes]
    finally:
        # the queue is emptied and every read end closed before the first
        # wait, so a worker draws no further slice, and one still writing
        # gets a broken pipe; either way it exits
        while os.read(queue, MAX_QUEUED * _INDEX_BYTES):
            pass
        os.close(queue)
        for read in pipes:
            read.close()
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(statuses):
        raise error
    try:
        reports += map(pickle.loads, payloads)
    except Exception:  # a fault whose exception does not unpickle
        raise error from None
    fault = min((fault for _, fault in reports if fault), default=None)
    if fault:
        raise fault[1]
    results = {i: result for done, _ in reports for i, result in done}
    return [results[i] for i in range(len(bounds) - 1)]


def _drain(fn, bounds, first: int, queue: int):
    """``([(i, fn(bounds[i], bounds[i + 1])), ...], fault)`` for slice ``first``,
    then each slice index read from ``queue`` until it is empty or ``fn``
    raises; ``fault`` is None, or ``(i, the exception)``."""
    done, i = [], first
    while True:
        try:
            done.append((i, fn(bounds[i], bounds[i + 1])))
        except Exception as exc:  # no process draws another slice
            while os.read(queue, MAX_QUEUED * _INDEX_BYTES):
                pass
            return done, (i, exc)
        # all of the queue was written before any read, in whole indices, and
        # a read of a pipe is atomic, so each index goes to one process
        index = os.read(queue, _INDEX_BYTES)
        if not index:
            return done, None
        i = int.from_bytes(index, "little")
