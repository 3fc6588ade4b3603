"""Recovery and supervision for GALS deployments.

PR 2 made faults first-class (:mod:`repro.faults`); this package makes
deployments *survive* them, and closes the loop with verification:

- :mod:`repro.resilience.channel` — :class:`ReliableChannel`:
  sequence-numbered frames, receiver-side dedup/reorder windows,
  ack/retransmit with timeout + exponential backoff + retry budget;
  exactly-once delivery over a lossy/duplicating/reordering wire,
  degrading to counted loss when the budget runs out;
- :mod:`repro.resilience.supervisor` — periodic
  :class:`~repro.sim.engine.Reactor` checkpoints, per-node watchdogs and
  a bounded-restart :class:`Supervisor` replaying logged inputs to
  reconstruct pre-crash state;
- :mod:`repro.resilience.degrade` — :class:`PressureMonitor`: sustained
  overflow/retransmit pressure escalated into
  :class:`~repro.gals.service.RateController` level switches with
  structured alarms;
- :mod:`repro.resilience.protocol` — the ack protocol as a Signal
  process, model-checked for "no alarm ever raised" on both the
  explicit and the symbolic backend;
- :mod:`repro.resilience.weave` — :func:`harden`: one-call installation
  of the whole stack on a built network.

The closing claim, exercised by :func:`repro.faults.soak.soak` with
``recovery=RecoveryConfig()``: under drops, duplicates, reordering *and*
node crashes, the hardened run is flow-equivalent to the zero-fault
reference.
"""

from repro.resilience.channel import (
    Frame,
    ReliableChannel,
    ReliableConfig,
    make_reliable,
)
from repro.resilience.supervisor import (
    AlarmEvent,
    RestartPolicy,
    Supervisor,
    supervise,
)
from repro.resilience.degrade import PressureMonitor
from repro.resilience.protocol import (
    ack_alphabet,
    ack_protocol,
    verify_ack_protocol,
)
from repro.resilience.weave import Hardened, RecoveryConfig, harden

__all__ = [
    "Frame",
    "ReliableChannel",
    "ReliableConfig",
    "make_reliable",
    "AlarmEvent",
    "RestartPolicy",
    "Supervisor",
    "supervise",
    "PressureMonitor",
    "ack_alphabet",
    "ack_protocol",
    "verify_ack_protocol",
    "Hardened",
    "RecoveryConfig",
    "harden",
]
