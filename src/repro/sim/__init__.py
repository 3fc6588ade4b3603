"""Operational (reaction-based) simulator for Signal components.

The engine executes one *reaction* (synchronous instant) at a time: given
the presence/values of inputs, it solves the equations by monotone
constraint propagation over a four-valued presence domain (unknown,
present, absent, constant), mirroring how the Polychrony compiler's clock
calculus resolves instants.  See :mod:`repro.sim.engine`.

- :class:`~repro.sim.engine.Reactor` — compiled component + reaction solver
- :class:`~repro.sim.plan.ReactionPlan` — the pre-compiled evaluation
  schedule behind the reactor's fast path (see docs/performance.md)
- :class:`~repro.sim.trace.SimTrace` — recorded run, convertible to a
  tagged :class:`~repro.tags.behavior.Behavior`
- :mod:`repro.sim.stimuli` — stimulus constructors (periodic, bursty, ...)
- :func:`~repro.sim.runner.simulate` — convenience driver
"""

from repro.sim.engine import ABSENT, Reactor
from repro.sim.plan import ReactionPlan, shared_plan
from repro.sim.specialize import SpecializedPlan
from repro.sim.batch import BatchReport, simulate_batch
from repro.sim.trace import SimTrace
from repro.sim.runner import simulate
from repro.sim import stimuli

__all__ = [
    "ABSENT",
    "BatchReport",
    "ReactionPlan",
    "Reactor",
    "SimTrace",
    "SpecializedPlan",
    "shared_plan",
    "simulate",
    "simulate_batch",
    "stimuli",
]
