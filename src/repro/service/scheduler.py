"""Priority scheduler and persistent worker pool for verification jobs.

This generalizes :mod:`repro.perf.sweep` — one grid, one ephemeral pool,
results gathered at the end — into a long-lived service:

- **submission** is open-ended and thread-safe; jobs land in a priority
  heap (higher ``priority`` first, FIFO within a band) and get a stable
  ``J...`` id;
- **states** move ``pending → running → done/failed``, with
  ``cancelled`` reachable from ``pending``; terminal records keep the
  result envelope, the error string, wall time and the perf-counter
  delta the job produced;
- **the pool is persistent**: worker processes are initialized once with
  :func:`repro.service.runner.execute` through the sweep executor's
  public task runner (:func:`~repro.perf.sweep.run_task`, which also
  runs ``workers=1`` jobs on the dispatcher thread), so per-job counter
  scopes and error capture are shared code, and a dispatcher thread
  backfills a free slot with the highest-priority pending job the
  moment one opens — no barriers between batches;
- **results are content-addressed**: the job table keeps the envelope
  of every key that finished ``done``, and a resubmitted key is served
  from it instantly (``cache_hit=True``).  A key already pending or
  running is *coalesced* instead — it waits on the in-flight twin
  rather than recomputing — and counted under
  ``service.jobs_coalesced``.  One critical section decides between
  serving, coalescing and queueing, so a resubmission racing its twin's
  completion never runs the job twice.  The table has no bound: every
  record keeps its envelope for the ``result`` op anyway;
- **events**: every state change is broadcast to subscriber queues,
  which is what the socket server's ``watch`` op streams.

Worker-count invariance: job execution is deterministic and per-job
isolated, so the only thing ``workers`` changes is wall time.  The A12
bench pushes the same 10k-job batch through 1/2/4 workers and asserts
digest equality against in-process sequential execution.
"""

from __future__ import annotations

import heapq
import itertools
import os
import queue
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.perf import PERF
from repro.perf.sweep import (
    TaskResult,
    format_error,
    run_task,
    submit_task,
    worker_pool,
)
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    TERMINAL_STATES,
    JobSpec,
    job_key,
    spec_from_dict,
)
from repro.service import runner

#: how many times in a row the dispatcher replaces a pool whose worker
#: died before it fails jobs with the pool error instead (the count
#: restarts whenever the pool returns a job's result)
POOL_RESTARTS = 3


class JobRecord:
    """Mutable per-job state owned by the scheduler (snapshot with
    :meth:`summary`; the scheduler's lock guards mutation)."""

    __slots__ = (
        "job_id", "spec", "key", "state", "envelope", "error",
        "seconds", "counters", "cache_hit", "coalesced", "submitted_seq",
    )

    def __init__(self, job_id: str, spec: JobSpec, key: str, seq: int) -> None:
        self.job_id = job_id
        self.spec = spec
        self.key = key
        self.state = PENDING
        self.envelope: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.seconds: Optional[float] = None
        self.counters: Dict[str, Any] = {}
        self.cache_hit = False
        self.coalesced = False
        self.submitted_seq = seq

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    def summary(self) -> Dict[str, Any]:
        out = {
            "id": self.job_id,
            "kind": self.spec.kind,
            "key": self.key,
            "state": self.state,
            "priority": self.spec.priority,
            "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
        }
        if self.seconds is not None:
            out["seconds"] = round(self.seconds, 6)
        if self.error is not None:
            out["error"] = self.error
        if self.envelope is not None:
            out["digest"] = self.envelope["digest"]
        return out


class Scheduler:
    """The verification-job platform: priority queue, persistent pool,
    served results, progress events."""

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))
        self._lock = threading.RLock()
        self._shutdown_lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._heap: List[Any] = []  # (-priority, seq, job_id)
        self._jobs: Dict[str, JobRecord] = {}
        self._order: List[str] = []
        self._inflight_by_key: Dict[str, List[str]] = {}
        # key -> envelope of the job of that key that finished done
        self._done_by_key: Dict[str, Dict[str, Any]] = {}
        self._subscribers: List["queue.Queue"] = []
        self._seq = itertools.count()
        self._inflight = 0
        self._stop = False
        self._started = False
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_restarts = 0
        self._dispatcher: Optional[threading.Thread] = None
        self._executed = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Scheduler":
        """Bring up the pool and the dispatcher; idempotent."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._stop = False
        if self.workers > 1:
            self._pool = self._new_pool()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch", daemon=True
        )
        self._dispatcher.start()
        return self

    def _new_pool(self) -> ProcessPoolExecutor:
        """A pool whose workers are already forked.  The executor forks
        lazily, on its first task; doing that here, before the dispatcher
        and any socket handler thread run, keeps a child from inheriting
        an import lock another thread holds.  Job keys are store keys, so
        this process imports the store anyway: importing it before the
        fork lets the workers inherit it instead of each importing it
        for its first job."""
        import repro.mc.store  # noqa: F401

        pool = worker_pool(runner.execute, self.workers)
        for f in [pool.submit(os.getpid) for _ in range(self.workers)]:
            f.result()
        return pool

    def __enter__(self) -> "Scheduler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self, drain: bool = False) -> None:
        """Stop the service.  ``drain=True`` finishes the queue first;
        otherwise still-pending jobs are marked cancelled.  A second call,
        concurrent or later, waits for the first and returns."""
        with self._shutdown_lock:
            if drain:
                self.wait()
            with self._cv:
                self._stop = True
                if not drain:
                    for job_id in self._order:
                        record = self._jobs[job_id]
                        if record.state == PENDING:
                            self._finish_locked(record, CANCELLED)
                self._cv.notify_all()
            if self._dispatcher is not None:
                self._dispatcher.join(timeout=30)
                self._dispatcher = None
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            with self._lock:
                self._started = False

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        spec: Union[JobSpec, Dict[str, Any]],
        priority: Optional[int] = None,
    ) -> str:
        """Queue one job; returns its id immediately.

        A key that already finished ``done`` is served synchronously; a
        job whose key is pending or running coalesces onto the in-flight
        twin.  Either way counts one ``service.cache_hits`` or one
        ``service.cache_misses``.
        """
        if isinstance(spec, dict):
            spec = spec_from_dict(spec)
        if priority is not None:
            spec = spec._replace(priority=int(priority))
        key = job_key(spec)
        with self._cv:
            seq = next(self._seq)
            job_id = "J{:06d}".format(seq)
            record = JobRecord(job_id, spec, key, seq)
            self._jobs[job_id] = record
            self._order.append(job_id)
            PERF.incr("service.jobs_submitted")
            envelope = self._done_by_key.get(key)
            if envelope is not None:
                PERF.incr("service.cache_hits")
                record.cache_hit = True
                record.seconds = 0.0
                record.envelope = envelope
                self._finish_locked(record, DONE)
                return job_id
            PERF.incr("service.cache_misses")
            twins = self._inflight_by_key.get(key)
            if twins is not None:
                record.coalesced = True
                twins.append(job_id)
                PERF.incr("service.jobs_coalesced")
                self._emit(record)
                return job_id
            self._inflight_by_key[key] = [job_id]
            heapq.heappush(self._heap, (-spec.priority, seq, job_id))
            self._emit(record)
            self._cv.notify_all()
            return job_id

    def submit_many(
        self, specs: Iterable[Union[JobSpec, Dict[str, Any]]]
    ) -> List[str]:
        return [self.submit(spec) for spec in specs]

    def cancel(self, job_id: str) -> bool:
        """Cancel a pending job (running jobs finish; terminal jobs are
        left alone).  Returns whether the state changed."""
        with self._cv:
            record = self._jobs.get(job_id)
            if record is None or record.state != PENDING:
                return False
            followers = self._inflight_by_key.get(record.key)
            if followers and job_id in followers:
                was_leader = followers[0] == job_id
                followers.remove(job_id)
                if not followers:
                    # nobody is waiting on this key anymore; the heap
                    # entry (if any) is skipped lazily by the dispatcher
                    del self._inflight_by_key[record.key]
                elif was_leader:
                    # the queued heap entry pointed at the cancelled
                    # leader; promote the next coalesced twin so the key
                    # still gets computed
                    heir = self._jobs[followers[0]]
                    heapq.heappush(
                        self._heap,
                        (-heir.spec.priority, heir.submitted_seq, heir.job_id),
                    )
                    self._cv.notify_all()
            self._finish_locked(record, CANCELLED)
            return True

    # -- inspection ---------------------------------------------------------

    def job(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, state: Optional[str] = None) -> List[JobRecord]:
        with self._lock:
            records = [self._jobs[j] for j in self._order]
        if state is not None:
            records = [r for r in records if r.state == state]
        return records

    def result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The result envelope of a finished job (``None`` until done)."""
        record = self.job(job_id)
        return None if record is None else record.envelope

    def stats(self) -> Dict[str, Any]:
        from repro.sim.plan import plan_cache_stats

        with self._lock:
            by_state: Dict[str, int] = {}
            for record in self._jobs.values():
                by_state[record.state] = by_state.get(record.state, 0) + 1
            out = {
                "workers": self.workers,
                "processes": self.workers > 1,
                "submitted": len(self._jobs),
                "executed": self._executed,
                "inflight": self._inflight,
                "queued": sum(1 for r in self._jobs.values() if r.state == PENDING),
                "states": dict(sorted(by_state.items())),
            }
            served = len(self._done_by_key)
        hits = PERF.get("service.cache_hits")
        misses = PERF.get("service.cache_misses")
        out["result_cache"] = {
            "size": served,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }
        out["plan_cache"] = plan_cache_stats()
        from repro.mc.store import global_stats

        out["mc_store"] = global_stats()
        return out

    # -- waiting and events -------------------------------------------------

    def wait(
        self,
        job_ids: Optional[Sequence[str]] = None,
        timeout: Optional[float] = None,
    ) -> bool:
        """Block until the given jobs (default: all submitted so far) are
        terminal; returns ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            ids = list(job_ids) if job_ids is not None else list(self._order)
            while True:
                if all(
                    self._jobs[j].done for j in ids if j in self._jobs
                ):
                    return True
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cv.wait(remaining if remaining is not None else 1.0)

    def subscribe(self) -> "queue.Queue":
        """A queue receiving one event dict per job state change."""
        q: "queue.Queue" = queue.Queue()
        with self._lock:
            self._subscribers.append(q)
        return q

    def unsubscribe(self, q: "queue.Queue") -> None:
        with self._lock:
            if q in self._subscribers:
                self._subscribers.remove(q)

    def _emit(self, record: JobRecord) -> None:
        event = {"event": "job"}
        event.update(record.summary())
        for q in list(self._subscribers):
            q.put(event)

    # -- dispatch -----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cv:
                while not self._stop and not (
                    self._heap and self._inflight < self.workers
                ):
                    self._cv.wait(0.5)
                if self._stop:
                    return
                _, seq, job_id = heapq.heappop(self._heap)
                record = self._jobs[job_id]
                if record.state != PENDING:
                    continue  # cancelled while queued
                record.state = RUNNING
                self._inflight += 1
                self._emit(record)
            spec_dict = record.spec.to_dict()
            if self._pool is not None:
                try:
                    future = submit_task(self._pool, seq, spec_dict, True)
                except BrokenProcessPool as exc:
                    self._on_broken_pool(record, seq, exc)
                    continue
                except RuntimeError:
                    # pool torn down under us (shutdown race): requeue
                    with self._cv:
                        record.state = PENDING
                        self._inflight -= 1
                        heapq.heappush(
                            self._heap, (-record.spec.priority, seq, job_id)
                        )
                    continue
                future.add_done_callback(
                    lambda f, job_id=job_id: self._on_future(job_id, f)
                )
            else:
                task = run_task(
                    runner.execute, seq, spec_dict, capture_errors=True
                )
                self._complete(job_id, task)

    def _on_broken_pool(
        self, record: JobRecord, seq: int, exc: BrokenProcessPool
    ) -> None:
        """A worker died, so the pool refuses new work.  Requeue the job
        on a fresh pool while the restart budget lasts; past it, or when
        stopping, fail the job with the pool error.  Jobs that were in
        flight in the dead pool fail through :meth:`_on_future`."""
        with self._cv:
            restart = not self._stop and self._pool_restarts < POOL_RESTARTS
            if restart:
                self._pool_restarts += 1
                record.state = PENDING
                self._inflight -= 1
                heapq.heappush(
                    self._heap, (-record.spec.priority, seq, record.job_id)
                )
        if not restart:
            task = TaskResult(-1, None, 0.0, {}, format_error(exc))
            self._complete(record.job_id, task)
            return
        self._pool.shutdown(wait=True)
        self._pool = self._new_pool()

    def _on_future(self, job_id: str, future: "Future") -> None:
        try:
            task = future.result()
        except Exception as exc:  # pool/pickling failure, not job failure
            task = TaskResult(-1, None, 0.0, {}, format_error(exc))
        else:
            with self._lock:
                self._pool_restarts = 0
            # an inline job's scope folded its counters already
            PERF.merge(task.counters)
        self._complete(job_id, task)

    def _complete(self, job_id: str, task: TaskResult) -> None:
        with self._cv:
            record = self._jobs[job_id]
            record.seconds = task.seconds
            record.counters = task.counters
            self._inflight -= 1
            self._executed += 1
            followers = self._inflight_by_key.pop(record.key, [])
            if task.error is not None:
                record.error = task.error
                self._finish_locked(record, FAILED)
            else:
                record.envelope = task.value
                self._done_by_key[record.key] = task.value
                self._finish_locked(record, DONE)
            for follower_id in followers:
                if follower_id == job_id:
                    continue
                follower = self._jobs[follower_id]
                if follower.state != PENDING:
                    continue
                follower.seconds = 0.0
                if task.error is not None:
                    follower.error = task.error
                    self._finish_locked(follower, FAILED)
                else:
                    follower.cache_hit = True
                    follower.envelope = task.value
                    self._finish_locked(follower, DONE)
            self._cv.notify_all()

    def _finish_locked(self, record: JobRecord, state: str) -> None:
        record.state = state
        PERF.incr("service.jobs_{}".format(state))
        self._emit(record)
        self._cv.notify_all()
