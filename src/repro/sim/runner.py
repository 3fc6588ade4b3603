"""Convenience drivers around :class:`~repro.sim.engine.Reactor`."""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterable, Optional, Union

from repro.lang.analysis import flatten_program
from repro.lang.ast import Component, Program
from repro.perf import PERF
from repro.sim.engine import Oracle, Reactor
from repro.sim.trace import SimTrace


def simulate(
    design: Union[Component, Program],
    stimulus: Iterable[Dict[str, object]],
    n: Optional[int] = None,
    oracle: Optional[Oracle] = None,
    reactor: Optional[Reactor] = None,
) -> SimTrace:
    """Run ``design`` against ``stimulus`` for ``n`` instants.

    Programs are flattened (synchronous composition) first.  ``n`` defaults
    to the stimulus length; infinite stimuli require an explicit ``n``.
    A pre-built ``reactor`` can be supplied to continue a run; without
    one, the run is on a new :class:`~repro.sim.engine.Reactor` and so on
    the design's cached plan (:func:`repro.sim.plan.shared_plan`).

    The reactions are counted in :data:`repro.perf.PERF` under the
    reactor's executor as ``sim.<kind>.reactions`` (``sim.plan.spec.*``
    for specialized plans, ``sim.interp.*`` for the interpreter), and the
    wall time as ``time.sim.simulate``; read one call's counts from a
    :meth:`repro.perf.PerfCounters.scope` around it.
    """
    if reactor is None:
        reactor = Reactor(flatten_program(design), oracle=oracle)
    trace = SimTrace()
    rows = stimulus if n is None else itertools.islice(stimulus, n)
    start = time.perf_counter()
    for inputs in rows:
        trace.append(reactor.react(inputs))
    elapsed = time.perf_counter() - start
    PERF.merge({"reactions": len(trace)}, prefix="sim." + reactor.plan.kind)
    PERF.add_time("sim.simulate", elapsed)
    return trace
