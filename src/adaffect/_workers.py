"""Worker processes for independent fits, and the BLAS thread setting they
share with the command-line entry point.

Loading this module imports neither numpy nor the process-pool machinery:
a spawned worker runs `one_blas_thread` from here before it imports numpy,
and `run` imports the pool machinery when its first iterator starts.
"""

from __future__ import annotations

import atexit
import os
import sys

#: Thread counts of the BLAS and OpenMP runtimes numpy may load; each is read
#: once, when numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_pool = None  # (executor, worker count) of this process, from the first `run` on


def one_blas_thread(override: bool = False) -> None:
    """Ask the BLAS runtime that numpy loads next for one thread. Without
    `override`, a value already in the environment stays."""
    for var in BLAS_THREAD_VARS:
        if override:
            os.environ[var] = "1"
        else:
            os.environ.setdefault(var, "1")


def run(fn, calls, workers: int):
    """Iterate over `fn(*args)` for each args tuple in `calls`, in `calls`
    order, run by this process's `workers` spawned worker processes, each on
    one BLAS thread.

    Every call is submitted on the first `next`; each goes to whichever
    worker is free next, and workers start as calls need them, so the
    caller can work on one result while workers run later calls. A call
    that raises, raises here, when its result is due, with its type and
    message. Closing the iterator cancels the calls no worker has started.
    A worker that dies raises BrokenProcessPool, and the next `run` starts
    new workers.
    """
    global _pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if _pool is not None and _pool[1] != workers:
        shutdown()
    if _pool is None:
        atexit.unregister(_stop_at_exit)  # one registration, however many pools this process starts
        atexit.register(_stop_at_exit)
        _pool = (ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn"),
                                     initializer=one_blas_thread, initargs=(True,)), workers)
    futures = []
    try:
        for args in calls:
            futures.append(_pool[0].submit(fn, *args))
        for future in futures:
            yield future.result()
    except BrokenProcessPool:
        shutdown()
        raise
    finally:
        for future in futures:
            future.cancel()


def shutdown() -> None:
    """Stop this process's workers, if it has any, and wait for them to exit."""
    global _pool
    if _pool is not None:
        executor, _ = _pool
        _pool = None
        executor.shutdown(wait=True, cancel_futures=True)


def _stop_at_exit() -> None:
    """Stop the workers, then the resource tracker process that a spawn
    context starts, so that no process started here outlives this one."""
    shutdown()  # runs the pool's semaphore finalizers, the tracker's last work
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
