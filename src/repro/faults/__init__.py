"""Seeded, deterministic fault injection for GALS networks.

The paper validates desynchronized designs over *ideal* FIFO channels;
real clock-domain crossings lose, duplicate, reorder, delay and corrupt
items (the dynamic-CDC metastability models stress exactly this).  This
package makes those faults first-class and reproducible:

- :mod:`repro.faults.spec` — :class:`FaultPlan`: declarative per-channel
  and per-node fault rates (drop, duplicate, reorder, latency jitter,
  metastability flip, stall windows);
- :mod:`repro.faults.schedule` — compiling a plan + seed into an
  *explicit* :class:`FaultSchedule` of per-push decisions, independent of
  cross-channel interleaving;
- :mod:`repro.faults.inject` — :func:`weave_faults`: attaching the
  schedule to a live :class:`~repro.gals.network.AsyncNetwork` through
  the channel/run injection hooks;
- :mod:`repro.faults.soak` — :func:`soak`: faulted-vs-reference
  co-simulation, per-signal divergence classification (flow-equivalent /
  lost / duplicated / order-divergent / value-divergent), capacity
  inflation under read jitter, and ``faults.*`` perf counters; with
  ``recovery=``, the faulted deployment is hardened by
  :func:`repro.resilience.harden` first (a recovery soak).
"""

from repro.faults.spec import (
    ANY,
    ChannelFaults,
    FaultPlan,
    NodeFaults,
    uniform_plan,
)
from repro.faults.schedule import ChannelSchedule, FaultDecision, FaultSchedule
from repro.faults.inject import (
    ChannelInjector,
    corrupt_value,
    unweave_faults,
    weave_faults,
)
from repro.faults.soak import (
    CapacityInflation,
    EstimateConfig,
    SoakReport,
    capacity_inflation,
    jittered_stimulus,
    soak,
)

__all__ = [
    "ANY",
    "ChannelFaults",
    "NodeFaults",
    "FaultPlan",
    "uniform_plan",
    "FaultDecision",
    "ChannelSchedule",
    "FaultSchedule",
    "ChannelInjector",
    "corrupt_value",
    "weave_faults",
    "unweave_faults",
    "EstimateConfig",
    "CapacityInflation",
    "SoakReport",
    "soak",
    "capacity_inflation",
    "jittered_stimulus",
]
