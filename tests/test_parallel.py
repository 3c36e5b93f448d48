"""Fan-out with a shared context: order, serial equality, shipping cost."""

from __future__ import annotations

import concurrent.futures
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repacker import driver, montecarlo, parallel
from repacker.participation import ModelSpec
from repacker.synthetic import generate_synthetic

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
    real_pool = concurrent.futures.ProcessPoolExecutor

    def recording_pool(max_workers, **kwargs):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    context = CountingContext(0)
    assert bounded(lambda: parallel.run_tasks(offset_square, [5, 6], 8, context=context)) == [
        (5, 25), (6, 36)
    ]
    assert parallel.run_tasks(offset_square, [4], 8, context=context) == [(4, 16)]
    assert sizes == [2]


def test_interpreter_with_a_kept_pool_exits_cleanly():
    # concurrent.futures is imported only when the pool starts, so a pool
    # left to interpreter teardown would outlive that module.
    code = (
        "from repacker import ModelSpec, estimate_success, generate_synthetic\n"
        "inst = generate_synthetic(12, channel_count=5, co_density=0.08, seed=17)\n"
        "est = estimate_success(ModelSpec.random_broadcasters(0.5), inst, 12, trials=4,"
        " seed=1, workers=2)\n"
        "print(len(est.trials))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=WAIT_S
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "4\n", "")


@pytest.mark.parametrize("workers", [0, -4])
@pytest.mark.parametrize("tasks", [[], [1, 2]])
def test_rejects_fewer_than_one_worker(workers, tasks):
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        parallel.run_tasks(offset_square, tasks, workers, context=CountingContext(0))


@pytest.mark.parametrize("caller", ["sample_solutions", "estimate_success",
                                    "shared_randomness_sweep"])
def test_callers_refuse_fewer_than_one_worker_before_any_work(caller, monkeypatch):
    # Neither a minimum probe nor a clique catalog build runs before the refusal.
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(driver, "check_feasibility", no_work)
    monkeypatch.setattr(montecarlo, "default_catalog", no_work)
    inst = generate_synthetic(8, channel_count=5, co_density=0.35, seed=31)
    model = ModelSpec.random_broadcasters(0.5)
    calls = {
        "sample_solutions": lambda: driver.sample_solutions(inst, 12, count=2, workers=0),
        "estimate_success": lambda: montecarlo.estimate_success(model, inst, 12, workers=0),
        "shared_randomness_sweep": lambda: montecarlo.shared_randomness_sweep(
            model, [0.2, 0.4], inst, 12, workers=0),
    }
    with pytest.raises(ValueError, match="^workers must be at least 1, got 0$"):
        calls[caller]()


def worker_pid(context, task: int) -> int:
    if task < 0:
        os.kill(os.getpid(), signal.SIGKILL)
    if task == 1000:
        raise KeyError(task)
    return os.getpid()


def other_worker_pid(context, task: int) -> int:
    return os.getpid()


def serial_inside(context, task: int) -> list:
    return parallel.run_tasks(offset_square, [task, task + 1], 1, context=CountingContext(task))


def pool_pids() -> set[int]:
    """The processes of the pool ``run_tasks`` keeps."""
    return set(parallel._pool._processes)


def gone(pids, seconds: float = 10.0) -> bool:
    limit = time.monotonic() + seconds
    while time.monotonic() < limit:
        alive = []
        for pid in pids:
            try:
                os.kill(pid, 0)
                alive.append(pid)
            except ProcessLookupError:
                pass
        if not alive:
            return True
        time.sleep(0.05)
    return False


class TestKeptPool:
    """One pool serves every call with the same fn, worker count and context
    members; anything else, or a dead worker, retires it."""

    def test_same_fn_workers_and_members_reuse_the_workers(self):
        shared = CountingContext(0)
        first = bounded(lambda: parallel.run_tasks(worker_pid, range(6), 2, context=("a", shared)))
        pids = pool_pids()
        assert len(pids) == 2 and set(first) <= pids
        # A new tuple of the same members, fewer tasks than workers, no tasks.
        again = bounded(lambda: parallel.run_tasks(worker_pid, range(6), 2, context=("a", shared)))
        one = parallel.run_tasks(worker_pid, [7], 2, context=("a", shared))
        assert parallel.run_tasks(worker_pid, [], 2, context=("a", shared)) == []
        assert set(again) | set(one) <= pids == pool_pids()
        assert os.getpid() not in set(one)

    @pytest.mark.parametrize("change", ["member", "workers", "fn"])
    def test_anything_else_replaces_the_pool(self, change):
        shared = CountingContext(0)
        bounded(lambda: parallel.run_tasks(worker_pid, range(4), 2, context=("a", shared)))
        old = pool_pids()
        fn, workers, context = worker_pid, 2, ("a", shared)
        if change == "member":
            context = ("a", CountingContext(0))
        elif change == "workers":
            workers = 3
        else:
            fn = other_worker_pid
        bounded(lambda: parallel.run_tasks(fn, range(4), workers, context=context))
        assert pool_pids().isdisjoint(old)
        assert gone(old)

    def test_serial_call_retires_the_pool(self):
        bounded(lambda: parallel.run_tasks(worker_pid, range(4), 2, context=None))
        old = pool_pids()
        assert parallel.run_tasks(worker_pid, [1], 1, context=None) == [os.getpid()]
        assert parallel._pool is None
        assert gone(old)

    def test_a_killed_worker_discards_the_pool(self):
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            bounded_raise(lambda: parallel.run_tasks(worker_pid, [0, -1, 2, 3], 2, context=None))
        assert parallel._pool is None
        pids = bounded(lambda: parallel.run_tasks(worker_pid, range(4), 2, context=None))
        assert set(pids) <= pool_pids()

    def test_an_exception_from_fn_keeps_the_pool(self):
        bounded(lambda: parallel.run_tasks(worker_pid, range(4), 2, context=None))
        pids = pool_pids()
        with pytest.raises(KeyError):
            bounded_raise(lambda: parallel.run_tasks(worker_pid, [0, 1000, 2], 2, context=None))
        assert set(bounded(lambda: parallel.run_tasks(worker_pid, range(4), 2))) <= pids
        assert pool_pids() == pids

    def test_shutdown_ends_the_workers(self):
        bounded(lambda: parallel.run_tasks(worker_pid, range(4), 2, context=None))
        old = pool_pids()
        parallel.shutdown()
        assert parallel._pool is None and gone(old)
        parallel.shutdown()  # with no pool kept, nothing to do

    def test_a_task_may_run_tasks_serially_in_its_worker(self):
        # The worker is forked while this process holds the pool's lock.
        result = bounded(lambda: parallel.run_tasks(serial_inside, [1, 5], 2, context=None))
        assert result == [[(1, 2), (2, 5)], [(5, 30), (6, 41)]]


def bounded_raise(call):
    """Run ``call()`` in a thread within ``WAIT_S`` and re-raise what it raised."""
    errors = []

    def target():
        try:
            call()
        except BaseException as exc:  # handed to the test thread below
            errors.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(WAIT_S)
    assert not thread.is_alive(), f"run_tasks still running after {WAIT_S} s"
    assert errors, "run_tasks returned instead of raising"
    raise errors[0]
