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
``sweep(functools.partial(task, context), items)``.  The pool
initializer ships ``fn`` once per worker, so the context crosses the
process boundary once per worker, not once per point.  Requirements for
``workers > 1``: ``fn`` must be a module-level function (or a
``partial`` of one) and it, its bound context and ``items`` must
pickle.  Lambdas and closures still work sequentially.

The pool is created per call and shut down before the call returns,
so a worker's plans and its other state go with it.  A task whose
context is costly to build takes it built: the estimator builds each
round's specialized plan in the coordinator, where the process-wide
plan cache keeps it for the next call, and binds it into ``fn``, so
forked workers only simulate (a spawn or forkserver worker unpickles
the plan, which builds it again).
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor
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


# worker-process state, installed by the pool initializer
_worker_fn: Optional[Callable] = None


def _init_worker(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


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


def _run_in_worker(index: int, item: Any, capture_errors: bool) -> TaskResult:
    return run_task(_worker_fn, index, item, capture_errors)


def worker_pool(fn: Callable, workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers run ``fn`` through :func:`run_task`.
    ``fn`` is shipped once per worker by the pool initializer, so a
    ``functools.partial`` carries its context there once, not once per
    point.  Submit points with :func:`submit_task` and fold each
    result's counters into the coordinator with
    :meth:`repro.perf.PerfCounters.merge`."""
    return ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(fn,)
    )


def submit_task(
    pool: ProcessPoolExecutor, index: int, item: Any, capture_errors: bool = False
) -> "Future[TaskResult]":
    """Run one point on a :func:`worker_pool`."""
    return pool.submit(_run_in_worker, index, item, capture_errors)


def sweep(
    fn: Callable, items: Iterable[Any], workers: Optional[int] = None
) -> SweepReport:
    """Run ``fn`` over every item; return a :class:`SweepReport`.

    ``fn(item)`` is called once per point; a task that needs context
    takes it bound in, as ``functools.partial(task, context)``.
    ``workers=None`` (or ``<= 1``) runs sequentially in-process; larger
    values fan out over a ``ProcessPoolExecutor`` that ships ``fn`` once
    per worker.  Results always come back in submission order, each
    worker's perf-counter deltas are merged into the coordinating
    process's :data:`repro.perf.PERF`, and the first task exception in
    submission order propagates; a pool then cancels the points still
    queued instead of running them.
    """
    points = list(items)
    n_workers = 1 if workers is None else max(1, min(workers, len(points) or 1))
    t0 = time.perf_counter()
    if n_workers <= 1:
        results = [run_task(fn, index, item) for index, item in enumerate(points)]
    else:
        pool = worker_pool(fn, n_workers)
        try:
            futures = [
                submit_task(pool, index, item)
                for index, item in enumerate(points)
            ]
            # collecting in submission order makes the report (and any
            # fold over it) independent of completion order
            results = [f.result() for f in futures]
        except BaseException:
            # the error propagates without running the queued points
            pool.shutdown(cancel_futures=True)
            raise
        pool.shutdown()
        for r in results:
            PERF.merge(r.counters)
    total = time.perf_counter() - t0
    PERF.incr("sweep.runs")
    PERF.incr("sweep.tasks", len(results))
    PERF.add_time("sweep.run", total)
    return SweepReport(tuple(results), total, n_workers)
