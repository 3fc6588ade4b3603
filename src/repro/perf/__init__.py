"""Lightweight performance counters shared by the simulator, the model
checker and the BDD backend.

A single process-global registry (:data:`PERF`) accumulates named integer
counters and wall-time phases so benchmark deltas are attributable:

- ``sim.<kind>.reactions`` / ``sim.<kind>.sweeps`` /
  ``sim.<kind>.residual_passes`` — how many reactions the plan executor
  ran and how many fixpoint passes each one needed (first pass per
  propagation is a *sweep*, re-passes triggered by the residual worklist
  are ``residual_passes``); ``<kind>`` attributes the work to the
  closure plan (``plan``) or the specialized generated code
  (``plan.spec``);
- ``plan.cache_hits`` / ``plan.cache_misses`` — the process-wide
  compiled-plan cache (:func:`repro.sim.plan.shared_plan`);
- ``batch.<kind>.*`` — the same executor counters for reactions run
  through :func:`repro.sim.batch.simulate_batch`, plus ``batch.runs`` /
  ``batch.lanes`` / ``batch.instants`` (campaign volume) and
  ``batch.memo_hits`` (reactions shared across lanes by the run-wide
  ``(state, inputs)`` memo);
- ``mc.reactions`` — explicit model-checker work;
- ``bdd.apply_hits`` / ``bdd.apply_misses`` / ``bdd.cache_clears`` /
  ``bdd.gc_collections`` / ``bdd.gc_reclaimed`` / ``bdd.sift_passes`` /
  ``bdd.sift_swaps`` — cache, garbage-collection and dynamic-reordering
  behaviour of the symbolic backend (folded in by
  :meth:`repro.mc.bdd.BDD.cache_stats`);
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
  recovery layer, merged per recovery soak
  (:func:`repro.faults.soak.recovery_soak`);
- ``time.<phase>`` — seconds spent in labeled phases.

Hot loops keep their own local integers and merge once per call
(:meth:`PerfCounters.merge`), so instrumentation stays off the per-node
fast paths.  Sweeps routed through :func:`repro.perf.sweep.sweep` merge
their workers' per-task deltas back into the coordinator.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional, Tuple


class PerfCounters:
    """A named-counter registry with wall-time phases."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._times: Dict[str, float] = {}

    # -- counters -----------------------------------------------------------

    def incr(self, name: str, n: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + n

    def merge(self, counters: Mapping[str, int], prefix: str = "") -> None:
        """Fold a dict of locally-accumulated counters into the registry.

        A ``prefix`` names the subsystem; the joining dot is implied
        (``merge(c, "sim")`` yields ``sim.reactions`` etc.).
        """
        if prefix and not prefix.endswith("."):
            prefix += "."
        for name, n in counters.items():
            if n:
                self.incr(prefix + name, n)

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    # -- phases -------------------------------------------------------------

    def add_time(self, phase: str, seconds: float) -> None:
        key = "time." + phase
        self._times[key] = self._times.get(key, 0.0) + seconds

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - t0)

    def get_time(self, phase: str) -> float:
        return self._times.get("time." + phase, 0.0)

    # -- inspection ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A copy of every counter and phase time (JSON-serializable)."""
        out: Dict[str, object] = dict(self._counts)
        out.update({k: round(v, 6) for k, v in self._times.items()})
        return out

    def dump(self) -> "Tuple[Dict[str, float], Dict[str, float]]":
        """Exact internal state, for :meth:`restore` — unlike
        :meth:`snapshot` nothing is rounded or flattened."""
        return (dict(self._counts), dict(self._times))

    def restore(self, state: "Tuple[Dict[str, float], Dict[str, float]]") -> None:
        """Reinstate a state captured by :meth:`dump` (the sweep executor
        uses the pair to isolate each sequential task's counters)."""
        counts, times = state
        self._counts = dict(counts)
        self._times = dict(times)

    def reset(self, prefix: Optional[str] = None) -> None:
        """Zero all counters, or only those under ``prefix``."""
        if prefix is None:
            self._counts.clear()
            self._times.clear()
            return
        for d in (self._counts, self._times):
            for key in [k for k in d if k.startswith(prefix)]:
                del d[key]

    def render(self) -> str:
        lines = []
        for key in sorted(self.snapshot()):
            lines.append("{} = {}".format(key, self.snapshot()[key]))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "PerfCounters({} counters, {} phases)".format(
            len(self._counts), len(self._times)
        )


#: The process-global registry.
PERF = PerfCounters()
