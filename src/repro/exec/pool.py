"""Deterministic fan-out of independent jobs over worker processes.

The engine's one contract: **results stream back in submission order**,
regardless of completion order, so a parallel sweep is bit-identical to
the serial one (same rows, same order, same JSON).  ``-j 1`` never
touches ``multiprocessing`` at all — it is the plain in-process loop,
and the reference the equivalence tests compare against.

Job functions cross a process boundary, so they must be picklable:
module-level functions (or ``functools.partial`` over one) taking
picklable arguments and returning picklable results.  Jobs here return
plain result dataclasses (outcomes + statistics), never live
``Program`` objects.

Teardown is bounded everywhere: :meth:`JobPool.close` cancels pending
work, gives running jobs a drain window, then terminates stragglers —
a Ctrl-C'd or SIGTERM'd sweep never orphans worker processes.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

__all__ = ["JobPool", "default_jobs", "run_jobs"]

#: default drain window for :meth:`JobPool.close`: long enough for any
#: sane job to finish its current item, short enough that Ctrl-C feels
#: like Ctrl-C
DRAIN_TIMEOUT_S = 5.0


def default_jobs() -> int:
    """Default worker count for ``--jobs``: every core the host has."""
    return os.cpu_count() or 1


def run_jobs(fn: Callable, items: Iterable, jobs: int = 1,
             stop_when: Optional[Callable[[], bool]] = None
             ) -> Iterator[Tuple[object, object]]:
    """Apply ``fn`` to each item, yielding ``(item, result)`` in order.

    ``jobs <= 1`` runs serially in-process.  ``stop_when`` is polled
    before each yielded result; once true, remaining work is abandoned
    (pending futures are cancelled) — this is how wall-clock budgets
    stop a sweep early without tearing down mid-job.

    A job that raises propagates its exception at the point the item
    would have been yielded, in both modes.  Teardown — normal exit,
    early stop, or an exception in the consumer (Ctrl-C included) —
    goes through :meth:`JobPool.close`, so abandoned workers are
    drained within a bounded window, never orphaned.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        for item in items:
            if stop_when is not None and stop_when():
                return
            yield item, fn(item)
        return

    pool = JobPool(jobs=min(jobs, len(items)))
    if pool.serial:
        # hosts without working multiprocessing (restricted /dev/shm,
        # missing semaphores) degrade to the serial path
        yield from run_jobs(fn, items, jobs=1, stop_when=stop_when)
        return

    try:
        futures = [pool.submit(fn, item) for item in items]
        for item, future in zip(items, futures):
            if stop_when is not None and stop_when():
                return
            yield item, future.result()
    finally:
        pool.close()


class _DoneFuture:
    """Serial-mode stand-in for ``concurrent.futures.Future``: the job
    already ran inline at submit time."""

    __slots__ = ("_value", "_error")

    def __init__(self, value=None, error: Optional[BaseException] = None):
        self._value = value
        self._error = error

    def result(self, timeout=None):
        if self._error is not None:
            raise self._error
        return self._value

    def done(self) -> bool:
        return True


class JobPool:
    """A persistent worker pool for dependency-driven job graphs.

    :func:`run_jobs` is the right engine for one flat batch; a scheduler
    that releases work incrementally — the SCC-wave whole-program
    driver, where a caller's job cannot be built until its callees'
    high-water marks exist — needs to keep one pool alive across many
    small submit rounds instead of paying executor start-up per round.

    ``jobs <= 1`` (or a host without working multiprocessing) runs every
    job inline at :meth:`submit` and returns an already-completed
    future, so the scheduling loop above is identical in both modes and
    the serial path stays the deterministic reference.
    """

    def __init__(self, jobs: int = 1):
        self.jobs = max(jobs, 1)
        self._pool = None
        if self.jobs > 1:
            try:
                from concurrent.futures import ProcessPoolExecutor
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            except (ImportError, OSError, ValueError):
                self._pool = None  # degrade to the serial path

    @property
    def serial(self) -> bool:
        return self._pool is None

    def submit(self, fn: Callable, *args):
        if self._pool is None:
            try:
                return _DoneFuture(fn(*args))
            except BaseException as exc:  # noqa: BLE001 - mirrors Future
                return _DoneFuture(error=exc)
        return self._pool.submit(fn, *args)

    def wait_any(self, futures: Iterable) -> List:
        """Block until at least one future completes; returns the done
        set as a list.  Serial-mode futures are always done."""
        futures = list(futures)
        done = [f for f in futures if f.done()]
        if done or not futures:
            return done
        from concurrent.futures import FIRST_COMPLETED, wait
        result = wait(futures, return_when=FIRST_COMPLETED)
        return list(result.done)

    def close(self, timeout: Optional[float] = DRAIN_TIMEOUT_S) -> bool:
        """Graceful bounded shutdown: cancel pending work, give running
        jobs ``timeout`` seconds to drain, terminate whatever remains.

        Returns True for a clean drain, False when stragglers had to be
        terminated.  Idempotent; after close the pool degrades to the
        serial inline path (a late :meth:`submit` still works, it just
        runs in-process).  This is the SIGTERM/Ctrl-C path: the worker
        processes are *always* reaped, never orphaned.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return True
        from multiprocessing.connection import wait as wait_for_exit
        # snapshot the worker processes BEFORE shutdown: the executor
        # drops its _processes reference during shutdown(wait=False)
        procs = getattr(pool, "_processes", None)
        processes = list(procs.values()) if procs else []
        pool.shutdown(wait=False, cancel_futures=True)
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        clean = True
        for proc in processes:
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            # wait on the exit sentinel, not join(): the executor's
            # manager thread reaps these same children concurrently, and
            # a join that loses that race reports an exited worker as
            # still alive
            if not wait_for_exit([proc.sentinel], remaining):
                clean = False
                proc.terminate()
        for proc in processes:
            if not proc.is_alive():
                continue
            proc.join(1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)
        return clean

    def __enter__(self) -> "JobPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
