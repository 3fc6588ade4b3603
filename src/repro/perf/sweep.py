"""Shared sweep executor for multi-point experiments.

Every experiment in this repo that walks a parameter grid — capacity
sweeps in :func:`repro.desync.verification.verified_buffer_sizes`, the
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

Requirements for ``workers > 1``: ``fn`` must be a module-level function
and ``items`` (plus the optional ``shared`` context, sent once per
worker) must pickle.  Lambdas and closures still work sequentially.
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
    """One sweep point: its position, return value, wall time, the
    perf-counter delta its execution produced, and — when the sweep ran
    with ``on_error="capture"`` — the error that ended it (``None`` for a
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

    def errors(self) -> List[Tuple[int, str]]:
        """Captured per-task errors, in submission order."""
        return [(r.index, r.error) for r in self.results if r.error]

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


class _NoShared:
    def __repr__(self) -> str:  # pragma: no cover
        return "<no shared context>"


_NO_SHARED = _NoShared()

# worker-process state, installed by the pool initializer
_worker_fn: Optional[Callable] = None
_worker_shared: Any = _NO_SHARED


def _init_worker(fn: Callable, shared: Any, has_shared: bool) -> None:
    global _worker_fn, _worker_shared
    _worker_fn = fn
    _worker_shared = shared if has_shared else _NO_SHARED


def format_error(exc: BaseException) -> str:
    """How a captured task error reads in :attr:`TaskResult.error`."""
    return "{}: {}".format(type(exc).__name__, exc)


def run_task(
    fn: Callable,
    index: int,
    item: Any,
    shared: Any = _NO_SHARED,
    capture_errors: bool = False,
) -> TaskResult:
    """Run one point — ``fn(item)``, or ``fn(shared, item)`` — in a
    counter scope of its own (:meth:`repro.perf.PerfCounters.scope`), in
    this process or a :func:`worker_pool` worker.  ``capture_errors``
    records an exception in :attr:`TaskResult.error` instead of raising.
    The counters are the scope's own, unrounded, so a pooled sweep folds
    the same sums into the coordinator as an in-process one."""
    with PERF.scope() as tables:
        t0 = time.perf_counter()
        value = None
        error = None
        try:
            if shared is _NO_SHARED:
                value = fn(item)
            else:
                value = fn(shared, item)
        except Exception as exc:
            if not capture_errors:
                raise
            error = format_error(exc)
        seconds = time.perf_counter() - t0
    return TaskResult(index, value, seconds, tables.state(), error)


def _run_in_worker(index: int, item: Any, capture_errors: bool) -> TaskResult:
    return run_task(_worker_fn, index, item, _worker_shared, capture_errors)


def worker_pool(
    fn: Callable, workers: int, shared: Any = _NO_SHARED
) -> ProcessPoolExecutor:
    """A process pool whose workers run ``fn`` through :func:`run_task`;
    ``shared`` is shipped once per worker.  Submit points with
    :func:`submit_task` and fold each result's counters into the
    coordinator with :meth:`repro.perf.PerfCounters.merge`."""
    has_shared = shared is not _NO_SHARED
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(fn, shared if has_shared else None, has_shared),
    )


def submit_task(
    pool: ProcessPoolExecutor, index: int, item: Any, capture_errors: bool = False
) -> "Future[TaskResult]":
    """Run one point on a :func:`worker_pool`."""
    return pool.submit(_run_in_worker, index, item, capture_errors)


def sweep(
    fn: Callable,
    items: Iterable[Any],
    workers: Optional[int] = None,
    shared: Any = _NO_SHARED,
    on_error: str = "raise",
) -> SweepReport:
    """Run ``fn`` over every item; return a :class:`SweepReport`.

    ``fn(item)`` — or ``fn(shared, item)`` when a ``shared`` context is
    given — is called once per point.  ``workers=None`` (or ``<= 1``)
    runs sequentially in-process; larger values fan out over a
    ``ProcessPoolExecutor`` with ``shared`` shipped once per worker via
    the pool initializer.  Results always come back in submission
    order, and each worker's perf-counter deltas are merged into the
    coordinating process's :data:`repro.perf.PERF`.

    ``on_error="raise"`` (the default) propagates the first task
    exception in submission order; ``on_error="capture"`` records it in
    the task's :attr:`TaskResult.error` slot instead and keeps the
    sweep — and the pool — alive for the remaining points.
    """
    if on_error not in ("raise", "capture"):
        raise ValueError("on_error must be 'raise' or 'capture', not {!r}"
                         .format(on_error))
    capture = on_error == "capture"
    points = list(items)
    n_workers = 1 if workers is None else max(1, min(workers, len(points) or 1))
    t0 = time.perf_counter()
    if n_workers <= 1:
        results = [
            run_task(fn, index, item, shared, capture)
            for index, item in enumerate(points)
        ]
    else:
        with worker_pool(fn, n_workers, shared) as pool:
            futures = [
                submit_task(pool, index, item, capture)
                for index, item in enumerate(points)
            ]
            # collecting in submission order makes the report (and any
            # fold over it) independent of completion order
            results = [f.result() for f in futures]
        for r in results:
            PERF.merge(r.counters)
    total = time.perf_counter() - t0
    PERF.incr("sweep.runs")
    PERF.incr("sweep.tasks", len(results))
    PERF.add_time("sweep.run", total)
    return SweepReport(tuple(results), total, n_workers)
