"""One-call hardening of a built GALS network.

:func:`harden` applies the whole resilience stack —
:class:`~repro.resilience.channel.ReliableChannel` wrappers on the
channels, a :class:`~repro.resilience.supervisor.Supervisor` on the nodes
— according to a single picklable :class:`RecoveryConfig`, so soak
harnesses and sweep workers can ship the configuration across process
boundaries.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.resilience.channel import ReliableChannel, ReliableConfig, make_reliable
from repro.resilience.supervisor import RestartPolicy, Supervisor, supervise


class RecoveryConfig(NamedTuple):
    """Everything :func:`harden` needs; a pure value, pickles cleanly."""

    channel: ReliableConfig = ReliableConfig()
    watchdog: float = 2.5
    checkpoint_interval: float = 3.0
    policy: RestartPolicy = RestartPolicy()
    signals: Optional[Tuple[str, ...]] = None  # None = every channel
    nodes: Optional[Tuple[str, ...]] = None    # None = every node

    def validate(self) -> "RecoveryConfig":
        self.channel.validate()
        self.policy.validate()
        if self.watchdog <= 0:
            raise ValueError("watchdog timeout must be positive")
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        return self


class Hardened(NamedTuple):
    """What :func:`harden` installed."""

    channels: Tuple[ReliableChannel, ...]
    supervisor: Supervisor


def harden(network, config: RecoveryConfig = RecoveryConfig()) -> Hardened:
    """Install reliable channels and a supervisor per ``config``."""
    config.validate()
    channels = tuple(
        make_reliable(network, config.channel, signals=config.signals)
    )
    sup = supervise(
        network,
        watchdog=config.watchdog,
        checkpoint_interval=config.checkpoint_interval,
        policy=config.policy,
        nodes=config.nodes,
    )
    return Hardened(channels, sup)
