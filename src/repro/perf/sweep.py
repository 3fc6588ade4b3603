"""Shared sweep executor for multi-point experiments.

Every experiment in this repo that walks a parameter grid — the
rate/burst/drop/jitter scenario sweeps of
:mod:`repro.workloads.scenarios`, the benchmark grids under
``benchmarks/`` — used to hand-roll the same loop.  :func:`sweep` is
that loop, once: it runs one function over a list of points, optionally
across a process pool, and returns per-point values, wall times and
perf-counter deltas in **submission order** regardless of completion
order or worker count.  A deterministic task function therefore yields
byte-identical results at any ``workers`` setting (benchmarked by A8).

Counter aggregation: each task runs in a :data:`repro.perf.PERF` scope of
its own (:func:`run_task`), whose counters are attached to its
:class:`TaskResult`.  In-process the scope folds them into the caller's
tables; pool results are folded into the coordinator's, so ``PERF``
reads the same whether a sweep ran on one core or sixteen.  The service
scheduler runs its jobs through the same :func:`run_task`,
:func:`worker_pool` and :func:`submit_task`.

A task that needs context (a program, a config) takes it bound in:
``sweep(functools.partial(task, context), items)``.  Each point is
submitted as ``run_task(fn, index, item)``, so ``fn`` and its bound
context are pickled with every point.  Requirements for
``workers > 1``: ``fn`` must be a module-level function (or a
``partial`` of one) and it, its bound context and ``items`` must
pickle.  Lambdas and closures still work sequentially.

A process keeps one sweep pool.  The first call with ``workers=N``,
``N > 1``, starts ``N`` workers (:func:`worker_pool`), and every later
pooled call reuses them; a call that asks for another ``N`` replaces
the pool, and so does the next call after a worker died (the call in
flight failed with ``BrokenProcessPool``).  A worker therefore keeps
what it built across calls: its process-wide plan cache and its table
of compiled step shapes.  A specialized plan pickles as its component
and loads through the loading process's plan cache
(:func:`repro.sim.plan.shared_plan`), so a worker builds each plan at
most once in its lifetime and answers every later point from its
cache.  Lifecycle: a forked child forgets its parent's pool
(``os.register_at_fork``) and starts its own;
:func:`repro.sim.plan.clear_plan_cache` shuts the pool down through
:func:`shutdown_pool`, so a cold build is cold in the workers too; the
executor's exit hook ends the workers when the interpreter exits, and
a ``multiprocessing`` child ends them in its exit finalizers, before
it joins its children.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from multiprocessing import util as mp_util
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.perf import PERF


class TaskResult(NamedTuple):
    """One point: its position, return value, wall time, the
    perf-counter delta its execution produced, and — when it ran with
    ``capture_errors`` — the error that ended it (``None`` for a
    successful task; a captured task's ``value`` is ``None``)."""

    index: int
    value: Any
    seconds: float
    counters: Dict[str, Any]
    error: Optional[str] = None


class SweepReport(NamedTuple):
    """Everything a sweep run produced, in submission order."""

    results: Tuple[TaskResult, ...]
    seconds: float
    workers: int

    def values(self) -> List[Any]:
        """Task return values, in submission order."""
        return [r.value for r in self.results]

    def totals(self) -> Dict[str, Any]:
        """Per-task counters summed across the sweep.

        Accumulation is exact; float totals are rounded once at the end
        (rounding on every addition used to compound error across large
        sweeps)."""
        out: Dict[str, Any] = {}
        for r in self.results:
            for key, val in r.counters.items():
                out[key] = out.get(key, 0) + val
        return {
            key: round(val, 6) if isinstance(val, float) else val
            for key, val in out.items()
        }


def format_error(exc: BaseException) -> str:
    """How a captured task error reads in :attr:`TaskResult.error`."""
    return "{}: {}".format(type(exc).__name__, exc)


def run_task(
    fn: Callable, index: int, item: Any, capture_errors: bool = False
) -> TaskResult:
    """Run one point, ``fn(item)``, in a counter scope of its own
    (:meth:`repro.perf.PerfCounters.scope`), in this process or a
    :func:`worker_pool` worker.  ``capture_errors`` records an exception
    in :attr:`TaskResult.error` instead of raising (the service scheduler
    does, so a failed job is a result).  The counters are the scope's
    own, unrounded, so a pooled sweep folds the same sums into the
    coordinator as an in-process one."""
    with PERF.scope() as tables:
        t0 = time.perf_counter()
        value = None
        error = None
        try:
            value = fn(item)
        except Exception as exc:
            if not capture_errors:
                raise
            error = format_error(exc)
        seconds = time.perf_counter() - t0
    return TaskResult(index, value, seconds, tables.state(), error)


def worker_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool of ``workers`` workers, every one of them started
    before it returns.  The executor forks lazily, on its first task;
    doing that here, before a caller's other threads run (the service's
    dispatcher and socket handlers), keeps a child from inheriting an
    import lock another thread holds.  Submit points with
    :func:`submit_task` and fold each result's counters into the
    coordinator with :meth:`repro.perf.PerfCounters.merge`."""
    pool = ProcessPoolExecutor(max_workers=workers)
    for f in [pool.submit(os.getpid) for _ in range(workers)]:
        f.result()
    return pool


def submit_task(
    pool: ProcessPoolExecutor,
    fn: Callable,
    index: int,
    item: Any,
    capture_errors: bool = False,
) -> "Future[TaskResult]":
    """Run one point, ``fn(item)``, on a :func:`worker_pool`: ``fn`` is
    pickled with the point (a module-level function pickles as its
    name)."""
    return pool.submit(run_task, fn, index, item, capture_errors)


# this process's sweep pool, its worker count, and whether this process
# registered the exit finalizer that ends it; _pool_lock guards all three
_pool_lock = threading.Lock()
_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
_exit_hooked = False


def _forget_pool() -> None:
    """In a forked child: the parent's pool and its workers are not this
    process's, and the fork may have copied the lock held."""
    global _pool_lock, _pool, _pool_workers, _exit_hooked
    _pool_lock = threading.Lock()
    _pool = None
    _pool_workers = 0
    _exit_hooked = False


os.register_at_fork(after_in_child=_forget_pool)


def _sweep_pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of ``workers`` workers: the one kept from an
    earlier call, or a new one when there is none, it has another size,
    or a worker died (the executor marks itself broken)."""
    global _pool, _pool_workers, _exit_hooked
    with _pool_lock:
        if _pool is not None and (_pool_workers != workers or _pool._broken):
            _pool.shutdown()
            _pool = None
        if _pool is None:
            _pool = worker_pool(workers)
            _pool_workers = workers
        if not _exit_hooked:
            # a multiprocessing child joins its children before the
            # executor's exit hook would end them: end them first, while
            # the queues still run (their own finalizers have priority 10)
            mp_util.Finalize(None, shutdown_pool, exitpriority=100)
            _exit_hooked = True
        return _pool


def shutdown_pool() -> None:
    """End this process's sweep pool and its workers, if it has one; the
    next pooled sweep starts new workers, with empty caches."""
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown()
            _pool = None
            _pool_workers = 0


def sweep(
    fn: Callable, items: Iterable[Any], workers: Optional[int] = None
) -> SweepReport:
    """Run ``fn`` over every item; return a :class:`SweepReport`.

    ``fn(item)`` is called once per point; a task that needs context
    takes it bound in, as ``functools.partial(task, context)``.
    ``workers=None`` (or ``<= 1``), or a single point, runs sequentially
    in-process; ``workers=N`` fans the points out over this process's
    sweep pool of ``N`` workers, kept from call to call (see the module
    docstring), with ``fn`` pickled alongside each point.  Results
    always come back in submission order, each worker's perf-counter
    deltas are merged into the coordinating process's
    :data:`repro.perf.PERF`, and the first task exception in submission
    order propagates; a pooled sweep then cancels its points still
    queued instead of running them, and keeps the pool.
    """
    points = list(items)
    n_workers = 1 if workers is None else max(1, min(workers, len(points) or 1))
    t0 = time.perf_counter()
    if n_workers <= 1:
        results = [run_task(fn, index, item) for index, item in enumerate(points)]
    else:
        pool = _sweep_pool(workers)
        futures: List["Future[TaskResult]"] = []
        try:
            for index, item in enumerate(points):
                futures.append(submit_task(pool, fn, index, item))
            # collecting in submission order makes the report (and any
            # fold over it) independent of completion order
            results = [f.result() for f in futures]
        except BaseException:
            # the error propagates without running the queued points
            for f in futures:
                f.cancel()
            raise
        for r in results:
            PERF.merge(r.counters)
    total = time.perf_counter() - t0
    PERF.incr("sweep.runs")
    PERF.incr("sweep.tasks", len(results))
    PERF.add_time("sweep.run", total)
    return SweepReport(tuple(results), total, n_workers)
