"""Desynchronization: the paper's core contribution (Sections 4 and 5).

- :mod:`repro.desync.fifo` — implementable FIFO channels as Signal
  components: the 1-place buffer of Example 1, the chained ``nFifo`` of
  Section 5.1, and a direct (circular-buffer) ``nFifo`` realizing
  Definition 9 exactly;
- :mod:`repro.desync.instrument` — the alarm/ok/counter/register circuitry
  of Figure 4;
- :mod:`repro.desync.transform` — the desynchronizing rewriting: replace
  each oriented data dependency ``P ->x Q`` by a FIFO channel
  (Theorems 1 and 2);
- :mod:`repro.desync.estimator` — the iterative buffer-size estimation
  methodology of Section 5.2;
- :mod:`repro.desync.conditions` — trace-level checkers for the bounded-
  FIFO conditions of Lemma 2 / Theorem 2.
"""

from repro.desync.fifo import (
    one_place_fifo,
    simultaneous_one_place_fifo,
    n_fifo_chain,
    n_fifo_direct,
    FifoPorts,
)
from repro.desync.instrument import instrument_channel, instrumented_fifo
from repro.desync.backpressure import GatePorts, clock_gate
from repro.desync.transform import Channel, DesyncResult, desynchronize
from repro.desync.estimator import EstimationReport, estimate_buffer_sizes
from repro.desync.theorems import (
    Theorem1Report,
    Theorem2Report,
    validate_theorem1,
    validate_theorem2,
)
from repro.desync.stats import ChannelStats, channel_stats, network_stats
from repro.desync.verification import (
    VerificationRound,
    VerifiedSizes,
    verified_buffer_sizes,
)
from repro.desync.conditions import (
    channel_behavior,
    check_lemma2,
    check_theorem2,
    minimal_bound,
)

__all__ = [
    "one_place_fifo",
    "simultaneous_one_place_fifo",
    "n_fifo_chain",
    "n_fifo_direct",
    "FifoPorts",
    "instrument_channel",
    "instrumented_fifo",
    "GatePorts",
    "clock_gate",
    "Channel",
    "DesyncResult",
    "desynchronize",
    "EstimationReport",
    "estimate_buffer_sizes",
    "VerificationRound",
    "VerifiedSizes",
    "verified_buffer_sizes",
    "Theorem1Report",
    "Theorem2Report",
    "validate_theorem1",
    "validate_theorem2",
    "ChannelStats",
    "channel_stats",
    "network_stats",
    "channel_behavior",
    "check_lemma2",
    "check_theorem2",
    "minimal_bound",
]
