"""Deterministic fan-out over a work queue.

Tasks carry their own seeds, so results are independent of scheduling;
returning them in task order makes parallel and serial runs byte-identical.

What every task shares (for Monte Carlo, the instance, the clique catalog
and the solver engine) travels as one ``context`` object, handed to each
worker once by the pool initializer. On Linux the pool uses the ``fork``
start method whatever the default (``forkserver`` from Python 3.14), so
workers inherit the context and it is never pickled. Each task then carries
only its own small part, such as a trial index, a seed and an estimate's
settings.

The pool outlives the call. While the function, the worker count and each
member of the context (compared by identity) stay the same, later calls run
in the same worker processes, which keep what they built for earlier tasks:
the encoder's base for the instance, the formula of its unconstrained
problem, held as its implication table. A call with anything else shuts the
pool down first; :func:`shutdown` ends it on request, and it is shut down at
the latest when the interpreter exits.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, TypeVar

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

T = TypeVar("T")
R = TypeVar("R")

# Set in each worker process by _init_worker; never set in the parent.
_worker_fn: Callable[[Any, Any], Any] | None = None
_worker_context: Any = None

# The kept pool, its size, and the (fn, workers, context members) it serves.
_pool: Optional[ProcessPoolExecutor] = None
_pool_size = 0
_pool_key: tuple = ()
_pool_lock = threading.Lock()


def _init_worker(fn: Callable[[Any, T], R], context: Any) -> None:
    global _worker_fn, _worker_context
    _worker_fn, _worker_context = fn, context


def _call_in_worker(task: T) -> R:
    return _worker_fn(_worker_context, task)


def _serves(fn: Callable, workers: int, members: tuple, size: int) -> bool:
    if _pool is None or _pool_size < size:
        return False
    kept_fn, kept_workers, kept_members = _pool_key
    return (
        kept_fn is fn and kept_workers == workers and len(kept_members) == len(members)
        and all(a is b for a, b in zip(kept_members, members))
    )


def _shutdown_pool() -> None:
    """Shut the kept pool down, if any, waiting for its workers to exit."""
    global _pool, _pool_key
    pool, _pool, _pool_key = _pool, None, ()
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


def shutdown() -> None:
    """Shut down the pool that :func:`run_tasks` keeps, if any, and wait for
    its workers to exit.

    Idle workers keep what they built for earlier tasks (~60 MB each on an
    FCC-sized instance); the next call with more than one worker starts a
    new pool.
    """
    with _pool_lock:
        _shutdown_pool()


def _forget_pool_in_child() -> None:
    """A forked process owns no pool: the parent's workers are not its own."""
    global _pool, _pool_key, _pool_lock
    _pool, _pool_key, _pool_lock = None, (), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_in_child)

# concurrent.futures is imported when the first pool starts, after this
# module, so interpreter teardown clears it first; a pool still kept then
# fails in its executor's finalizer. Shut it down before teardown.
atexit.register(shutdown)


def check_workers(workers: int) -> None:
    """Raise ``ValueError`` when ``workers`` is below 1; callers check it before any work."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def run_tasks(
    fn: Callable[[Any, T], R], tasks: Sequence[T], workers: int = 1, context: Any = None
) -> list[R]:
    """Return ``[fn(context, t) for t in tasks]``, computed by up to ``workers`` processes.

    A new pool never starts more processes than there are tasks. The kept
    pool serves each later call with the same ``fn``, ``workers`` and
    context, unless that call could use more processes than it has. A pool whose
    worker dies (``BrokenProcessPool``) or whose call is interrupted is
    discarded. Raises ``ValueError`` when ``workers`` is below 1.
    """
    global _pool, _pool_size, _pool_key
    check_workers(workers)
    tasks = list(tasks)
    size = min(workers, len(tasks))
    members = context if type(context) is tuple else (context,)
    with _pool_lock:
        if not _serves(fn, workers, members, size):
            _shutdown_pool()
            if size > 1:
                # Imported here: they load multiprocessing, which a serial run never needs.
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                # Linux forks even where forkserver is the default (Python 3.14+),
                # so that workers inherit the context instead of unpickling it.
                start = multiprocessing.get_context("fork") if sys.platform == "linux" else None
                _pool = ProcessPoolExecutor(
                    max_workers=size, mp_context=start, initializer=_init_worker,
                    initargs=(fn, context),
                )
                _pool_size, _pool_key = size, (fn, workers, members)
        if _pool is not None:
            try:
                return list(_pool.map(_call_in_worker, tasks))
            except BaseException as exc:
                from concurrent.futures.process import BrokenProcessPool

                # An exception fn raised leaves the pool intact.
                if isinstance(exc, BrokenProcessPool) or not isinstance(exc, Exception):
                    _shutdown_pool()
                raise
    return [fn(context, t) for t in tasks]
