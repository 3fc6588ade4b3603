"""Batched lane execution: N independent runs through one compiled plan.

The expensive part of a simulation campaign — the buffer estimator's
iteration loop, fault soaks, property sweeps — is rarely *one* long run;
it is many short, independent runs of the *same* design under different
stimuli or seeds ("validate many flows, not one").  This module amortizes
everything that is per-design across those runs:

- the plan (and its specialized generated code) is compiled **once** and
  shared by every lane via :func:`repro.sim.plan.shared_plan`;
- reactions go through the executor's ``react_slots``, skipping the
  per-instant output-dict build of :meth:`Reactor.react`;
- a reaction is a pure function of ``(state, inputs)``, and soak lanes
  are near-copies of one another, so the lane loop memoizes reactions
  run-wide: every lane that reaches a pair some lane already solved
  reuses the result, its recorded row included, instead of re-running
  the plan.

Lanes are recorded as lists of present-value row dicts — exactly the
rows :func:`repro.sim.runner.simulate` records — in pure Python: any
Signal value records as itself, and the batch path imports nothing
beyond the standard library.

The oracle guarantee is unchanged: every lane produces exactly the trace
:func:`repro.sim.runner.simulate` would — same rows, same values, same
exceptions — because lanes execute the same plan sequentially with their
own state and instant index.  The win is amortization, not reordering.

Each call folds its counts into :data:`repro.perf.PERF` once:
``batch.<plan-kind>.reactions`` (``batch.plan.spec.*`` or
``batch.interp.*``: the reactions the lanes ran, memo hits excluded)
plus ``batch.runs`` / ``batch.lanes`` / ``batch.instants`` /
``batch.memo_hits``.  The lane loop counts in local integers, so the
counts of a call are its own even while other threads run the same
cached plan; read them from a :meth:`repro.perf.PerfCounters.scope`
around the call.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.lang.analysis import flatten_program
from repro.lang.ast import Component, Program
from repro.perf import PERF
from repro.sim.engine import Oracle
from repro.sim.plan import shared_plan
from repro.sim.trace import SimTrace

#: cap on distinct ``(state, inputs)`` reaction results the lane memo
#: retains per batch; past it new pairs still compute (and hit the
#: existing entries) but are not stored, bounding memory on batches whose
#: lanes never converge
MEMO_CAP = 1 << 16

Row = Dict[str, object]


class BatchReport:
    """The result of :func:`simulate_batch`.

    ``traces`` materializes one :class:`~repro.sim.trace.SimTrace` per
    lane, row-identical to what :func:`repro.sim.runner.simulate` would
    have produced for that lane alone.  The aggregation helpers
    (:meth:`max_values`, :meth:`presence_counts`) read the recorded rows
    directly.
    """

    def __init__(self, lanes, errors, elapsed):
        self._lanes: List[List[Row]] = lanes
        self.errors: Tuple[Optional[Tuple[str, str]], ...] = tuple(errors)
        self.elapsed = elapsed
        self._traces: Optional[Tuple[SimTrace, ...]] = None

    @property
    def lanes(self) -> int:
        return len(self._lanes)

    def instants(self, lane: int) -> int:
        return len(self._lanes[lane])

    @property
    def traces(self) -> Tuple[SimTrace, ...]:
        if self._traces is None:
            out = []
            for rows in self._lanes:
                trace = SimTrace()
                trace.instants.extend(rows)
                out.append(trace)
            self._traces = tuple(out)
        return self._traces

    def max_values(self, name: str, default=0) -> List[object]:
        """Per lane, the maximum present value of ``name`` (``default``
        when the signal never occurs in that lane)."""
        return [
            max((row[name] for row in rows if name in row), default=default)
            for rows in self._lanes
        ]

    def presence_counts(self, name: str) -> List[int]:
        """Per lane, how many instants ``name`` is present."""
        return [sum(1 for row in rows if name in row) for rows in self._lanes]

    def __repr__(self) -> str:
        return "BatchReport({} lanes, {:.3f}s)".format(self.lanes, self.elapsed)


def simulate_batch(
    design: Union[Component, Program],
    stimuli: Iterable[Iterable[Mapping[str, object]]],
    n: Optional[int] = None,
    oracle: Optional[Oracle] = None,
    plan=None,
    capture_errors: bool = False,
) -> BatchReport:
    """Run every stimulus in ``stimuli`` as an independent *lane* of one
    shared compiled plan.

    Each lane starts from the initial state and keeps its own instant
    index, so its trace is identical to a standalone
    :func:`~repro.sim.runner.simulate` run.  ``oracle`` is one callable
    shared by all lanes (invoked with each lane's own instant index).
    ``plan`` is the executor, by default the process-wide
    :func:`~repro.sim.plan.shared_plan`; any executor works, e.g.
    ``Interpreter(comp)`` (:class:`~repro.sim.engine.Interpreter`).

    With ``capture_errors`` a lane that raises
    :class:`~repro.errors.SimulationError` records ``(type name,
    message)`` in ``report.errors`` and stops, leaving the other lanes to
    finish; by default the error propagates exactly as ``simulate``'s
    would.
    """
    if plan is None:
        plan = shared_plan(flatten_program(design))
    lane_stimuli = list(stimuli)

    start = time.perf_counter()
    lanes, errors, reactions, memo_hits = _run_lanes(
        plan, lane_stimuli, oracle, n, capture_errors
    )
    elapsed = time.perf_counter() - start

    PERF.merge({"reactions": reactions}, prefix="batch." + plan.kind)
    PERF.incr("batch.runs")
    PERF.incr("batch.lanes", len(lanes))
    PERF.incr("batch.instants", sum(len(rows) for rows in lanes))
    if memo_hits:
        PERF.incr("batch.memo_hits", memo_hits)
    PERF.add_time("sim.batch", elapsed)
    return BatchReport(lanes, errors, elapsed)


def _run_lanes(plan, lane_stimuli, oracle, n, capture_errors):
    """The lane-major loop with the run-wide reaction memo.

    Lanes in a soak campaign are near-copies of each other — the same
    base schedule with per-lane jitter — so at any instant only a handful
    of distinct ``(state, inputs)`` pairs exist across the whole batch.
    A reaction is a pure function of that pair (:meth:`react_slots`
    builds fresh status/value/state lists and reads the instant index
    only through the oracle), so a run-wide memo shares one reaction
    across every lane that reaches the same pair.  It keeps the next
    state beside the row the reaction recorded, and a hit records a copy
    of that row (lanes never share a row object).  Oracle-driven lanes
    and unhashable values fall through to a plain reaction.

    Returns ``(lanes, errors, reactions, memo_hits)``: the recorded rows
    and captured error of each lane, how many reactions the plan ran
    (calls that raised are not counted) and how many the memo served.
    """
    names = plan.names
    slots = range(len(names))
    lanes: List[List[Row]] = []
    errors: List[Optional[Tuple[str, str]]] = []
    react_slots = plan.react_slots
    init_state = list(plan.init_state)
    memo: Dict[object, tuple] = {}
    reactions = memo_hits = 0
    for stimulus in lane_stimuli:
        recorded: List[Row] = []
        state = init_state[:]
        index = 0
        error = None
        rows = stimulus if n is None else itertools.islice(stimulus, n)
        for inputs in rows:
            try:
                hit = key = None
                if oracle is None:
                    try:
                        items = sorted(inputs.items())
                        # classes are part of the key: ``1 == True`` but
                        # the two record differently, and recorded rows
                        # must stay byte-identical per lane
                        key = (
                            tuple(state),
                            tuple(v.__class__ for v in state),
                            tuple(items),
                            tuple(v.__class__ for _, v in items),
                        )
                        hit = memo.get(key)
                    except TypeError:  # unhashable state or input value
                        key = None
                if hit is not None:
                    state, row = hit
                    row = row.copy()
                    memo_hits += 1
                else:
                    statuses, values, state = react_slots(
                        inputs, state, oracle, index
                    )
                    reactions += 1
                    row = {names[i]: values[i] for i in slots if statuses[i] == 1}
                    if key is not None and len(memo) < MEMO_CAP:
                        memo[key] = (state, row)
            except SimulationError as exc:
                if not capture_errors:
                    raise
                error = (type(exc).__name__, str(exc))
                break
            index += 1
            recorded.append(row)
        lanes.append(recorded)
        errors.append(error)
    return lanes, errors, reactions, memo_hits


__all__ = [
    "BatchReport",
    "simulate_batch",
]
