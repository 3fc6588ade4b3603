"""Operational (reaction-based) simulator for Signal components.

The engine executes one *reaction* (synchronous instant) at a time: given
the presence/values of inputs, it solves the equations by monotone
constraint propagation over a four-valued presence domain (unknown,
present, absent, constant), mirroring how the Polychrony compiler's clock
calculus resolves instants.  See :mod:`repro.sim.engine`.

- :class:`~repro.sim.engine.Reactor` — runs one component a reaction at
  a time on an executor (by default the cached one of
  :func:`~repro.sim.plan.shared_plan`), keeping its state
- the two executors, one contract (``react_slots``), picked by passing
  one as ``plan=`` (see docs/performance.md):
  :class:`~repro.sim.engine.Interpreter` (the reference oracle) and
  :class:`~repro.sim.specialize.SpecializedPlan` (generated code, what
  :func:`~repro.sim.plan.shared_plan` caches; the interpreter stands in
  for a component over the generator's budget)
- :func:`~repro.sim.batch.simulate_batch` — many lanes of one executor
- :class:`~repro.sim.trace.SimTrace` — recorded run, convertible to a
  tagged :class:`~repro.tags.behavior.Behavior`
- :mod:`repro.sim.stimuli` — stimulus constructors (periodic, bursty, ...)
- :func:`~repro.sim.runner.simulate` — convenience driver
"""

from repro.sim.engine import ABSENT, Interpreter, Reactor
from repro.sim.plan import shared_plan
from repro.sim.specialize import SpecializedPlan
from repro.sim.batch import BatchReport, simulate_batch
from repro.sim.trace import SimTrace
from repro.sim.runner import simulate
from repro.sim import stimuli

__all__ = [
    "ABSENT",
    "BatchReport",
    "Interpreter",
    "Reactor",
    "SimTrace",
    "SpecializedPlan",
    "shared_plan",
    "simulate",
    "simulate_batch",
    "stimuli",
]
