"""Lightweight performance counters shared by the simulator, the model
checker and the BDD backend.

One registry (:data:`PERF`) accumulates named counters and wall-time
phases so benchmark deltas are attributable:

- ``sim.<kind>.reactions`` — how many reactions
  :func:`repro.sim.runner.simulate` ran; ``<kind>`` attributes the work
  to the specialized generated code (``plan.spec``) or the interpreter
  (``interp``);
- ``plan.cache_hits`` / ``plan.cache_misses`` /
  ``plan.cache_evictions`` — the process-wide compiled-plan cache
  (:func:`repro.sim.plan.shared_plan`);
- ``plan.shape_hits`` / ``plan.shape_misses`` /
  ``plan.shape_evictions`` — the process-wide table of compiled step
  shapes that specialized plan builds bind their functions from
  (:mod:`repro.sim.specialize`); a miss is one ``compile()``;
- ``batch.<kind>.reactions`` — the reactions run through
  :func:`repro.sim.batch.simulate_batch`, plus ``batch.runs`` /
  ``batch.lanes`` / ``batch.instants`` (campaign volume) and
  ``batch.memo_hits`` (reactions shared across lanes by the run-wide
  ``(state, inputs)`` memo);
- ``mc.reactions`` — explicit model-checker work (reactions attempted by
  :func:`repro.mc.compile.compile_lts`);
- ``bdd.apply_hits`` / ``bdd.apply_misses`` / ``bdd.cache_clears`` /
  ``bdd.gc_collections`` / ``bdd.gc_reclaimed`` — cache and
  garbage-collection behaviour of the symbolic backend, folded in by
  :meth:`repro.mc.bdd.BDD.cache_stats` once per symbolic verdict
  (:func:`repro.mc.harness.never_present_verdicts`);
- ``sweep.runs`` / ``sweep.tasks`` — work dispatched through the shared
  sweep executor (:mod:`repro.perf.sweep`);
- ``faults.injected`` / ``faults.drops`` / ``faults.duplicates`` /
  ``faults.reorders`` / ``faults.corrupts`` / ``faults.stalls`` /
  ``faults.soaks`` / ``faults.divergent_signals`` — fault-injection
  volume and divergence yield of the soak harness
  (:mod:`repro.faults.soak`);
- ``resilience.retransmits`` / ``resilience.abandoned`` /
  ``resilience.checkpoints`` / ``resilience.restarts`` /
  ``resilience.replayed`` — repair and supervision work of the
  recovery layer, merged per hardened soak
  (:func:`repro.faults.soak.soak_batch` with ``recovery``);
- ``time.<phase>`` — seconds spent in labeled phases.

Hot loops keep their own local integers and merge once per call
(:meth:`PerfCounters.merge`), so instrumentation stays off the per-node
fast paths.  Shared objects (a cached plan, an LTS, a trace) hold no
counts, and a caller reads the counts of one call from a
:meth:`PerfCounters.scope` around it.

``PERF`` reads and writes the tables of the current :mod:`contextvars`
context: the process-wide root, or the innermost
:meth:`PerfCounters.scope`, which folds its tables into the enclosing
ones on exit.  A new thread starts at the root, so a scope is invisible
to other threads; every table update is atomic.  Scopes replace
swapping the one global registry out and back in around a task
(``dump``/``restore``): each sweep task and service job runs in a scope
of its own (:func:`repro.perf.sweep.run_task`), so its counters hold
exactly what that task recorded, in this process or a pool worker, and
nothing another thread did meanwhile.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, Mapping, Optional


class _Tables:
    """One counter table and one phase table, guarded by one lock."""

    __slots__ = ("counts", "times", "lock")

    def __init__(self) -> None:
        self.counts: Dict[str, float] = {}
        self.times: Dict[str, float] = {}
        self.lock = threading.Lock()

    def fold(self, counters: Mapping[str, object], prefix: str = "") -> None:
        """Add every numeric value of ``counters``: ``time.*`` floats to
        the phase table, other nonzero numbers to the counter table."""
        with self.lock:
            for name, val in counters.items():
                if isinstance(val, bool) or not isinstance(val, (int, float)):
                    continue
                key = prefix + name
                if isinstance(val, float) and key.startswith("time."):
                    self.times[key] = self.times.get(key, 0.0) + val
                elif val:
                    self.counts[key] = self.counts.get(key, 0) + val

    def state(self) -> Dict[str, float]:
        """Every counter and phase time, unrounded."""
        with self.lock:
            out = dict(self.counts)
            out.update(self.times)
        return out


class PerfCounters:
    """A named-counter registry with wall-time phases and scopes."""

    def __init__(self) -> None:
        self._root = _Tables()
        self._current: ContextVar[_Tables] = ContextVar(
            "repro.perf.tables", default=self._root
        )
        # a fork copies the root lock even while another thread holds it
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._new_root_lock)

    def _new_root_lock(self) -> None:
        self._root.lock = threading.Lock()

    # -- counters -----------------------------------------------------------

    def incr(self, name: str, n: int = 1) -> None:
        tables = self._current.get()
        with tables.lock:
            tables.counts[name] = tables.counts.get(name, 0) + n

    def merge(self, counters: Mapping[str, object], prefix: str = "") -> None:
        """Fold a dict of counters into the current tables, atomically.

        A ``prefix`` names the subsystem; the joining dot is implied
        (``merge(c, "sim")`` yields ``sim.reactions`` etc.).  Ints and
        floats are added as counters, ``time.*`` floats as phases; zeros,
        booleans and non-numbers are skipped.
        """
        if prefix and not prefix.endswith("."):
            prefix += "."
        self._current.get().fold(counters, prefix)

    def get(self, name: str) -> int:
        return self._current.get().counts.get(name, 0)

    # -- phases -------------------------------------------------------------

    def add_time(self, phase: str, seconds: float) -> None:
        key = "time." + phase
        tables = self._current.get()
        with tables.lock:
            tables.times[key] = tables.times.get(key, 0.0) + seconds

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - t0)

    def get_time(self, phase: str) -> float:
        return self._current.get().times.get("time." + phase, 0.0)

    # -- scopes -------------------------------------------------------------

    @contextmanager
    def scope(self) -> Iterator[_Tables]:
        """Run the block with fresh tables (bound by ``as``); fold them
        into the enclosing tables on exit, also when the block raises."""
        outer = self._current.get()
        inner = _Tables()
        token = self._current.set(inner)
        try:
            yield inner
        finally:
            self._current.reset(token)
            outer.fold(inner.state())

    # -- inspection ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A copy of every counter and phase time (JSON-serializable)."""
        tables = self._current.get()
        with tables.lock:
            out: Dict[str, object] = dict(tables.counts)
            out.update({k: round(v, 6) for k, v in tables.times.items()})
        return out

    def reset(self, prefix: Optional[str] = None) -> None:
        """Zero all counters, or only those under ``prefix``."""
        tables = self._current.get()
        with tables.lock:
            for d in (tables.counts, tables.times):
                for key in [k for k in d if prefix is None or k.startswith(prefix)]:
                    del d[key]

    def render(self) -> str:
        lines = []
        for key in sorted(self.snapshot()):
            lines.append("{} = {}".format(key, self.snapshot()[key]))
        return "\n".join(lines)

    def __repr__(self) -> str:
        tables = self._current.get()
        return "PerfCounters({} counters, {} phases)".format(
            len(tables.counts), len(tables.times)
        )


#: The process-global registry.
PERF = PerfCounters()
