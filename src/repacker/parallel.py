"""Deterministic fan-out over a work queue.

Tasks carry their own seeds, so results are independent of scheduling;
returning them in task order makes parallel and serial runs byte-identical.

What every task shares (for Monte Carlo, the instance and the clique
catalog) travels as one ``context`` object, handed to each worker once by the
pool initializer; under the default ``fork`` start method workers inherit it
and it is never pickled. Each task then carries only its own small part, such
as a trial index and seed.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# Set in each worker process by _init_worker; never set in the parent.
_worker_fn: Callable[[Any, Any], Any] | None = None
_worker_context: Any = None


def _init_worker(fn: Callable[[Any, T], R], context: Any) -> None:
    global _worker_fn, _worker_context
    _worker_fn, _worker_context = fn, context


def _call_in_worker(task: T) -> R:
    return _worker_fn(_worker_context, task)


def run_tasks(
    fn: Callable[[Any, T], R], tasks: Sequence[T], workers: int = 1, context: Any = None
) -> list[R]:
    """Return ``[fn(context, t) for t in tasks]``, computed by up to ``workers`` processes.

    The pool never starts more processes than there are tasks.
    """
    tasks = list(tasks)
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(context, t) for t in tasks]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(fn, context)
    ) as pool:
        return list(pool.map(_call_in_worker, tasks))
