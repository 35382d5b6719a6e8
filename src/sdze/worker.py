"""The process's one worker thread, and when a call may hand it work.

Two callers hand it work while they run their own share beside it: an
estimate its +eps pass (:func:`sdze.optimizer.directional_delta`) and the
evaluation its row blocks (:func:`sdze.spatial.relative_l2`, through
:func:`share`).  Both run the same arithmetic on either thread, every BLAS
call on one thread, so the bits do not change.  The worker starts at the
first such call and runs one task at a time, in a copy of the caller's
context, so numpy's errstate reaches it; it keeps no finished task.

A call may hand it work when :func:`may_share` holds: (a) the environment
gives the BLAS one thread, as OpenBLAS reads it (unpinned, OpenBLAS already
spreads each GEMM over both cores), (b) the process's affinity holds at
least 2 CPUs, and (c) the caller is not the worker, which would wait for a
task that only it can run.
"""

from __future__ import annotations

import contextvars
import os
import re
import threading
from collections import deque


def _blas_threads(environ) -> int:
    """The BLAS thread count ``environ`` asks for, as OpenBLAS reads it; 0 if none.

    The first of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and
    ``OMP_NUM_THREADS`` whose leading integer (C ``atoi``) is positive.
    """
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        lead = re.match(r"\s*[+-]?\d+", environ.get(name, ""))
        if lead and int(lead.group()) > 0:
            return int(lead.group())
    return 0


# OpenBLAS reads the environment once, when numpy loads it; so does this module
_BLAS_ONE_THREAD = _blas_threads(os.environ) == 1


def _cpu_count() -> int:
    """CPUs in this process's affinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _SignWorker:
    """A daemon thread that runs the tasks handed to it, one at a time."""

    def __init__(self):
        import queue  # here, so the serial path imports nothing new

        self._tasks = queue.SimpleQueue()
        self._reply = queue.SimpleQueue  # one per task
        self.thread = threading.Thread(target=self._serve, name="sdze-sign", daemon=True)
        self.thread.start()

    def submit(self, fn, *args):
        """Queue ``fn(*args)`` in a copy of this context; ``get()`` on the reply
        waits for its (result, None) or (None, exception)."""
        reply = self._reply()
        self._tasks.put((contextvars.copy_context(), fn, args, reply))
        return reply

    def _serve(self):
        while True:
            _run(*self._tasks.get())


def _run(ctx, fn, args, reply) -> None:
    # a frame per task: nothing of a finished task outlives it
    try:
        reply.put((ctx.run(fn, *args), None))
    except BaseException as err:  # raised again by the caller
        reply.put((None, err))


_WORKER: _SignWorker | None = None
_WORKER_START = threading.Lock()


def _sign_worker() -> _SignWorker:
    """The worker, started at the first call that hands it work."""
    global _WORKER
    with _WORKER_START:
        if _WORKER is None:
            _WORKER = _SignWorker()
        return _WORKER


def _forget_worker() -> None:
    global _WORKER
    _WORKER = None


if hasattr(os, "register_at_fork"):  # a forked child has no worker thread
    os.register_at_fork(after_in_child=_forget_worker)


def submit(fn, *args):
    """Queue ``fn(*args)`` on the worker (:meth:`_SignWorker.submit`)."""
    return _sign_worker().submit(fn, *args)


def may_share() -> bool:
    """Whether this thread may hand work to the worker (module docstring)."""
    if not _BLAS_ONE_THREAD or _cpu_count() < 2:
        return False
    worker = _WORKER
    return worker is None or threading.current_thread() is not worker.thread


def share(fn, items) -> None:
    """``fn(item)`` for each of ``items``, on this thread and the worker at once.

    Both threads take the items from one queue in the order given, so a
    caller that gives the longest first has both end together.  Once a call
    raises, neither thread takes another item.  This returns or raises only
    after both threads have stopped, raising this thread's error if it has
    one, else the worker's.
    """
    todo = deque(items)

    def drain():
        while True:
            try:
                item = todo.popleft()
            except IndexError:  # no item left
                return
            try:
                fn(item)
            except BaseException:
                todo.clear()
                raise

    reply = submit(drain)
    try:
        drain()
    finally:
        err = reply.get()[1]  # the worker has stopped
    if err is not None:
        raise err
