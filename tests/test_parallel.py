"""Fan-out with a shared context: order, serial equality, shipping cost."""

from __future__ import annotations

import threading

import pytest

from repacker import parallel

WAIT_S = 120.0


class CountingContext:
    """A shared context that counts how often it is pickled in this process."""

    def __init__(self, offset: int) -> None:
        self.offset = offset
        self.pickles = 0

    def __reduce__(self):
        self.pickles += 1
        return (CountingContext, (self.offset,))


def offset_square(context: CountingContext, task: int) -> tuple[int, int]:
    return task, context.offset + task * task


def bounded(call):
    """Run ``call()`` in a thread, failing the test if it outlasts ``WAIT_S``."""
    out = []
    thread = threading.Thread(target=lambda: out.append(call()), daemon=True)
    thread.start()
    thread.join(WAIT_S)
    assert not thread.is_alive(), f"run_tasks still running after {WAIT_S} s"
    assert out, "run_tasks raised; see the thread exception above"
    return out[0]


def test_context_reaches_workers_once():
    # More workers than the two cores a small host has, and more tasks than workers.
    context = CountingContext(1000)
    tasks = list(range(16))
    workers = 4
    expected = [offset_square(context, t) for t in tasks]
    result = bounded(lambda: parallel.run_tasks(offset_square, tasks, workers, context=context))
    assert result == expected
    assert context.pickles <= workers


def test_serial_path_calls_fn_with_context():
    context = CountingContext(7)
    assert parallel.run_tasks(offset_square, [3, 1, 2], workers=1, context=context) == [
        (3, 16), (1, 8), (2, 11)
    ]
    assert context.pickles == 0


def test_pool_never_outnumbers_tasks(monkeypatch):
    sizes = []
    real_pool = parallel.ProcessPoolExecutor

    def recording_pool(max_workers, **kwargs):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", recording_pool)
    context = CountingContext(0)
    assert bounded(lambda: parallel.run_tasks(offset_square, [5, 6], 8, context=context)) == [
        (5, 25), (6, 36)
    ]
    assert parallel.run_tasks(offset_square, [4], 8, context=context) == [(4, 16)]
    assert sizes == [2]


@pytest.mark.parametrize("workers", [0, -4])
@pytest.mark.parametrize("tasks", [[], [1, 2]])
def test_rejects_fewer_than_one_worker(workers, tasks):
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        parallel.run_tasks(offset_square, tasks, workers, context=CountingContext(0))
