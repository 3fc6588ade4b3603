"""Channel statistics from observed runs.

Quantitative companions to the boolean checkers of
:mod:`repro.desync.conditions`: per-item latency, occupancy timeline,
throughput and loss accounting for one desynchronized channel, computed
from a simulation trace or tagged behavior.  The A5 bench uses these to
chart the latency/backlog trade against FIFO depth.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.desync.conditions import TraceLike, _trace_of
from repro.sim.trace import SimTrace


class ChannelStats(NamedTuple):
    writes: int
    reads: int
    pending: int                       # still buffered at the end
    lost: int                          # rejected writes (alarm count)
    span: float                        # observation window (tag units)
    throughput: float                  # delivered items per tag unit
    latencies: Tuple[float, ...]       # write->read delay per delivered item
    occupancy: Tuple[Tuple[float, int], ...]  # (tag, items buffered) steps
    peak_occupancy: int

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    @property
    def max_latency(self) -> float:
        return max(self.latencies) if self.latencies else 0.0

    def render(self) -> str:
        return (
            "writes={} reads={} pending={} lost={} "
            "throughput={:.3f}/instant latency(mean/max)={:.2f}/{:.2f} "
            "peak occupancy={}".format(
                self.writes,
                self.reads,
                self.pending,
                self.lost,
                self.throughput,
                self.mean_latency,
                self.max_latency,
                self.peak_occupancy,
            )
        )


def channel_stats(
    source: TraceLike,
    write: str,
    read: str,
    alarm: Optional[str] = None,
) -> ChannelStats:
    """Measure one channel from an observed run.

    ``write``/``read`` name the channel ports (e.g. ``x__w``/``x__r``);
    ``alarm`` (when given) counts rejected writes.  Item latencies match
    the k-th *accepted* write with the k-th read; on lossy runs rejected
    writes are excluded via the alarm signal's instants (SimTrace sources
    only — for plain behaviors pass alarm-free runs).
    """
    writes_tr = _trace_of(source, write)
    reads_tr = _trace_of(source, read)
    lost = 0
    accepted = [(e.tag, e.value) for e in writes_tr]
    if alarm is not None:
        alarm_tr = _trace_of(source, alarm)
        alarm_tags = set(alarm_tr.tags())
        lost = len(alarm_tags)
        accepted = [(t, v) for t, v in accepted if t not in alarm_tags]

    latencies: List[float] = []
    for (wt, _), ev in zip(accepted, reads_tr):
        latencies.append(ev.tag - wt)

    tags = sorted(
        {t for t, _ in accepted} | set(reads_tr.tags())
    )
    occupancy: List[Tuple[float, int]] = []
    peak = 0
    w_i = r_i = 0
    accepted_tags = [t for t, _ in accepted]
    read_tags = list(reads_tr.tags())
    for t in tags:
        while w_i < len(accepted_tags) and accepted_tags[w_i] <= t:
            w_i += 1
        while r_i < len(read_tags) and read_tags[r_i] <= t:
            r_i += 1
        occ = w_i - r_i
        occupancy.append((t, occ))
        peak = max(peak, occ)

    if isinstance(source, SimTrace):
        span = float(len(source))
    else:
        span = float(tags[-1] - tags[0] + 1) if tags else 0.0
    reads = len(reads_tr)
    return ChannelStats(
        writes=len(writes_tr),
        reads=reads,
        pending=len(accepted) - reads,
        lost=lost,
        span=span,
        throughput=reads / span if span else 0.0,
        latencies=tuple(latencies),
        occupancy=tuple(occupancy),
        peak_occupancy=peak,
    )


def network_stats(
    source: TraceLike, channels, alarms: bool = True
) -> Dict[str, ChannelStats]:
    """Stats for every channel of a :class:`~repro.desync.DesyncResult`.

    ``channels`` is an iterable of :class:`~repro.desync.Channel`.
    """
    out = {}
    for ch in channels:
        out[ch.signal + ("" if ch.consumer is None else ":" + ch.consumer)] = (
            channel_stats(
                source,
                ch.write_port,
                ch.read_port,
                alarm=ch.alarm if alarms else None,
            )
        )
    return out
