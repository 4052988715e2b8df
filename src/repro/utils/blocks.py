"""Blocked array passes, run on the cores the process may use.

A pass over a large population splits into blocks that each write
their own disjoint slices of arrays the pass allocated up front;
every reduction across blocks (a median, a mean, a sort) stays one
call over the full array once the blocks are done, so no value depends
on the blocking or on which thread ran which block.  The Monte Carlo
writes and reads and the error population's cell build of
:mod:`repro.vaet` work this way.

:func:`map_blocks` runs a pass's blocks on the calling thread and on
one helper thread per further CPU the process may use; each takes the
next block until none is left.  numpy releases the GIL inside its
array loops, so a serial evaluator's blocks fill the cores a single
evaluation would leave idle.  A pass of one block runs inline.  The
helpers are started for the pass and joined before it returns, so no
thread outlives a pass: a later fork (a deadline's evaluation child, a
fork-started process pool) comes from a single-threaded process.
"""

import os
import threading
from typing import Callable, Sequence

#: The end of a pass's blocks.
_DONE = object()


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_blocks(task: Callable[[object], None], blocks: Sequence) -> None:
    """Run ``task(block)`` for every block; return when all are done.

    With more than one block and more than one usable CPU, the calling
    thread and up to one helper thread per further CPU take the blocks
    in turn; else they run inline in order.  A task's exception is
    raised once every block has finished and every helper has exited.
    """
    helpers = min(usable_cpus(), len(blocks)) - 1
    if helpers < 1:
        for block in blocks:
            task(block)
        return
    pending = iter(blocks)
    lock = threading.Lock()
    errors = []

    def drain():
        while True:
            with lock:
                block = next(pending, _DONE)
            if block is _DONE:
                return
            try:
                task(block)
            except BaseException as exc:
                errors.append(exc)

    threads = [
        threading.Thread(target=drain, name="repro-blocks")
        for _ in range(helpers)
    ]
    for thread in threads:
        thread.start()
    try:
        drain()
    finally:
        # Joined even when the caller is interrupted mid-pass.
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
