"""Event-driven GALS network simulation.

Each node wraps one synchronous component in its own
:class:`~repro.sim.engine.Reactor` and fires on a private activation
schedule.  Shared signals of the source program become asynchronous FIFO
channels; at each firing a node pops at most one pending item per input
channel (those inputs are *present* for that reaction) and pushes every
produced output.

Channel policies:

- ``"unbounded"`` — the ideal ``AFifo`` of Definition 8 (reference model);
- ``"lossy"`` — bounded; a push onto a full channel is dropped and counted
  (the ``alarm`` of Section 5.1);
- ``"block"`` — bounded; a node does not fire while any of its outgoing
  channels is full (the paper's "masking the clock of the producer").

The recorded :class:`NetworkTrace` tags every event with the real
activation time, so write events of ``x`` appear as ``x__w`` and read
events as ``x__r`` — directly comparable (via
:mod:`repro.tags.equivalence`) with the synchronous reference and with the
desynchronized multi-clock program.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import SimulationError
from repro.lang.analysis import shared_signals
from repro.lang.ast import Component, Program
from repro.sim.engine import Reactor
from repro.sim.plan import shared_plan
from repro.tags.behavior import Behavior
from repro.tags.trace import SignalTrace


class AsyncChannel:
    """A FIFO link between two nodes.

    ``latency`` models transport delay: an item pushed at time ``t``
    becomes visible to the consumer at ``t + latency`` (it counts against
    the capacity while in flight).

    An optional ``injector`` (see :mod:`repro.faults.inject`) takes over
    :meth:`push` to weave deterministic faults — drops, duplicates,
    reordering, per-item latency jitter, value corruption — into the
    queue; the plain path is untouched when no injector is attached.
    """

    #: Retained loss-timestamp samples per channel.  The *count* of losses
    #: is always exact; only the sample of timestamps is bounded so that
    #: long lossy soaks keep O(1) state per channel.
    LOSS_SAMPLES = 64

    def __init__(
        self,
        name: str,
        capacity: Optional[int] = None,
        policy: str = "unbounded",
        latency: float = 0.0,
    ):
        if policy not in ("unbounded", "lossy", "block"):
            raise ValueError("unknown channel policy {!r}".format(policy))
        if policy != "unbounded" and (capacity is None or capacity < 1):
            raise ValueError("bounded channel needs capacity >= 1")
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.name = name
        self.capacity = capacity if policy != "unbounded" else None
        self.policy = policy
        self.latency = latency
        self.items: deque = deque()  # (visible_at, value, pushed_at, skippable)
        self.losses = 0
        self.loss_times: List[float] = []
        self._loss_rng = None  # lazily seeded reservoir sampler
        self.peak = 0
        self.total_wait = 0.0
        self.delivered = 0
        self.injector = None  # repro.faults.inject.ChannelInjector, if woven

    def full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def record_loss(self, time: float) -> None:
        """Count a dropped item, keeping a bounded reservoir of timestamps."""
        self.losses += 1
        if len(self.loss_times) < self.LOSS_SAMPLES:
            self.loss_times.append(time)
            return
        # Algorithm R, deterministically seeded per channel so traces stay
        # byte-identical run to run.
        if self._loss_rng is None:
            import random
            import zlib

            self._loss_rng = random.Random(zlib.crc32(self.name.encode()))
        slot = self._loss_rng.randrange(self.losses)
        if slot < self.LOSS_SAMPLES:
            self.loss_times[slot] = time

    def enqueue(
        self,
        value,
        time: float,
        latency: Optional[float] = None,
        position: Optional[int] = None,
        soft: bool = False,
    ) -> bool:
        """Place one item, honouring capacity/policy.

        ``latency`` overrides the channel latency (fault jitter);
        ``position`` inserts that many places before the tail (fault
        reordering); ``soft`` turns the blocking-policy overflow into a
        counted drop (a fault-injected extra item must not crash a
        masked producer).
        """
        if self.full():
            if self.policy == "lossy" or soft:
                self.record_loss(time)
                return False
            raise SimulationError(
                "push on full blocking channel {!r} (the scheduler must "
                "mask the producer)".format(self.name)
            )
        visible = time + (self.latency if latency is None else latency)
        if position:
            # A reorder-injected entry is "skippable": while still in
            # flight it must not hide items that already arrived behind it
            # (they were pushed earlier and overtaken, not delayed).
            self.items.insert(
                max(0, len(self.items) - position), (visible, value, time, True)
            )
        else:
            self.items.append((visible, value, time, False))
        self.peak = max(self.peak, len(self.items))
        return True

    def push(self, value, time: float) -> bool:
        """Returns False when the item was dropped (lossy overflow)."""
        if self.injector is not None:
            return self.injector.push(self, value, time)
        return self.enqueue(value, time)

    def available(self, time: float) -> bool:
        """Has any deliverable item arrived by ``time``?

        FIFO order is preserved: an item that has not arrived blocks
        everything behind it — *except* reorder-injected entries, which
        jumped the queue and may be skipped over while still in flight
        (otherwise an in-flight overtaker would hide an item that
        already arrived).
        """
        for visible_at, _, _, skippable in self.items:
            if visible_at <= time:
                return True
            if not skippable:
                return False
        return False

    def pop(self, time: Optional[float] = None):
        if time is None:
            entry = self.items.popleft()
        else:
            entry = None
            for i, cand in enumerate(self.items):
                if cand[0] <= time:
                    entry = cand
                    del self.items[i]
                    break
                if not cand[3]:
                    break
            if entry is None:
                entry = self.items.popleft()
        visible_at, value, pushed_at = entry[0], entry[1], entry[2]
        delivered_at = visible_at if time is None else max(time, visible_at)
        self.total_wait += max(0.0, delivered_at - pushed_at)
        self.delivered += 1
        return value

    def protocol_stats(self) -> Dict[str, int]:
        """Extra per-channel counters (protocol wrappers override)."""
        return {}

    def mean_latency(self) -> float:
        """Average push-to-pop delay of delivered items."""
        return self.total_wait / self.delivered if self.delivered else 0.0

    def __len__(self) -> int:
        return len(self.items)


class Node(NamedTuple):
    """One locally synchronous island."""

    name: str
    component: Component
    schedule: Iterator[float]
    activation: str = ""  # event input ticked at every firing, if any


class _Recorder:
    """Event recorder with ``(time, seq)`` tie-breaking.

    Many events can share one activation timestamp (bursts of data-driven
    firings); traces need strictly increasing tags.  Each event therefore
    carries its global sequence rank *within its raw timestamp*, and
    :meth:`behavior` spreads rank ``k`` at raw time ``t`` to
    ``t + k * eps(t)`` with ``eps(t)`` bounded by the gap to the next
    distinct recorded timestamp (and by 1e-9) — so no burst, however
    long, can accumulate nudges past the next real event, and causal
    record order at one instant is preserved across signals.
    """

    def __init__(self):
        self.events: Dict[str, List[Tuple[float, int, object]]] = {}
        self._at: Dict[float, int] = {}  # raw time -> events recorded at it

    def record(self, signal: str, time: float, value) -> None:
        rank = self._at.get(time, 0)
        self._at[time] = rank + 1
        self.events.setdefault(signal, []).append((time, rank, value))

    def behavior(self, names: Optional[Iterable[str]] = None) -> Behavior:
        names = list(names) if names is not None else sorted(self.events)
        times = sorted(self._at)
        eps: Dict[float, float] = {}
        for i, t in enumerate(times):
            if self._at[t] <= 1:
                eps[t] = 0.0
                continue
            gap = times[i + 1] - t if i + 1 < len(times) else float("inf")
            eps[t] = min(1e-9, gap / (self._at[t] + 1))
        out = {}
        for name in names:
            evs = self.events.get(name, [])
            out[name] = SignalTrace([(t + k * eps[t], v) for t, k, v in evs])
        return Behavior(out)


class NetworkTrace(NamedTuple):
    """Result of an asynchronous run."""

    behavior: Behavior                    # all recorded signals, real tags
    firings: Dict[str, int]               # reactions per node
    skipped: Dict[str, int]               # firings masked by backpressure
    channels: Dict[str, Dict[str, object]]  # per-channel stats
    stalled: Dict[str, int] = {}          # firings suppressed by fault stalls
    crashes: Dict[str, int] = {}          # state-losing crashes per node
    alarms: Tuple = ()                    # supervisor AlarmEvents, in order

    def values(self, signal: str) -> Tuple:
        return self.behavior[signal].values() if signal in self.behavior else ()

    def fault_counts(self) -> Dict[str, int]:
        """Injected-fault totals summed over every channel."""
        totals: Dict[str, int] = {}
        for stats in self.channels.values():
            for key, n in (stats.get("faults") or {}).items():
                totals[key] = totals.get(key, 0) + n
        for n in self.stalled.values():
            totals["stalls"] = totals.get("stalls", 0) + n
        for n in self.crashes.values():
            totals["crashes"] = totals.get("crashes", 0) + n
        return totals


class AsyncNetwork:
    """A set of nodes plus channels derived from their shared signals."""

    def __init__(
        self,
        nodes: List[Node],
        capacities: Optional[Mapping[str, int]] = None,
        policy: str = "unbounded",
        default_capacity: int = 1,
        latencies: Optional[Mapping[str, float]] = None,
    ):
        self.nodes = list(nodes)
        self._reactors: Dict[str, Reactor] = {}
        self._schedules: Dict[str, Iterator[float]] = {}
        producers: Dict[str, str] = {}
        consumers: Dict[str, List[str]] = {}
        for node in self.nodes:
            # soaks build one fresh network per scenario from the *same*
            # node components; the shared plan cache (keyed by component
            # content) makes the per-network reactor builds near-free and
            # picks the specialized fast path
            self._reactors[node.name] = Reactor(
                node.component, plan=shared_plan(node.component)
            )
            self._schedules[node.name] = node.schedule
            iface = set(node.component.inputs) | set(node.component.outputs)
            defined = node.component.defined_names()
            for sig in iface:
                if sig in defined:
                    producers[sig] = node.name
                elif sig in node.component.inputs and sig != node.activation:
                    consumers.setdefault(sig, []).append(node.name)
        # channels: producer -> each consumer
        self.channels: Dict[Tuple[str, str], AsyncChannel] = {}
        self._out_links: Dict[str, List[Tuple[str, AsyncChannel]]] = {
            n.name: [] for n in self.nodes
        }
        self._in_links: Dict[str, List[Tuple[str, AsyncChannel]]] = {
            n.name: [] for n in self.nodes
        }
        capacities = dict(capacities or {})
        latencies = dict(latencies or {})
        for sig, cons in sorted(consumers.items()):
            prod = producers.get(sig)
            if prod is None:
                continue  # environment-driven input: not supported yet
            for consumer in cons:
                cap = capacities.get(sig, default_capacity)
                ch = AsyncChannel(
                    "{}->{}:{}".format(prod, consumer, sig),
                    capacity=cap,
                    policy=policy,
                    latency=latencies.get(sig, 0.0),
                )
                self.channels[(sig, consumer)] = ch
                self._out_links[prod].append((sig, ch))
                self._in_links[consumer].append((sig, ch))

    @classmethod
    def from_program(
        cls,
        program: Program,
        schedules: Mapping[str, Iterator[float]],
        activations: Optional[Mapping[str, str]] = None,
        **kwargs,
    ) -> "AsyncNetwork":
        """Deploy each component of ``program`` as one node.

        ``schedules`` maps component names to activation schedules;
        components without a schedule are *data-driven*: they fire whenever
        any of their input channels holds data (polled at every event
        time).  ``activations`` names each node's activation event input
        (defaults: an input named like the schedule's conventional
        ``<name>_act``, or the unique event input if there is exactly one).
        """
        activations = dict(activations or {})
        nodes = []
        for comp in program.components:
            act = activations.get(comp.name, "")
            if not act:
                from repro.lang.types import EVENT

                events = [n for n, ty in comp.inputs.items() if ty is EVENT]
                if len(events) == 1:
                    act = events[0]
            sched = schedules.get(comp.name)
            nodes.append(
                Node(
                    comp.name,
                    comp,
                    iter(sched) if sched is not None else iter(()),
                    activation=act,
                )
            )
        net = cls(nodes, **kwargs)
        net._data_driven = {
            comp.name for comp in program.components if comp.name not in schedules
        }
        return net

    _data_driven: frozenset = frozenset()
    _fault_schedule = None  # repro.faults.schedule.FaultSchedule, if woven
    _supervisor = None  # repro.resilience.supervisor.Supervisor, if woven

    # -- execution --------------------------------------------------------------

    def run(self, horizon: float, max_events: int = 100000) -> NetworkTrace:
        """Simulate until ``horizon`` (exclusive)."""
        recorder = _Recorder()
        firings = {n.name: 0 for n in self.nodes}
        skipped = {n.name: 0 for n in self.nodes}
        stalled = {n.name: 0 for n in self.nodes}
        self._crashes = {n.name: 0 for n in self.nodes}
        self._last_fired = {}
        faults = self._fault_schedule
        counter = itertools.count()
        heap: List[Tuple[float, int, str]] = []

        def push_next(name: str) -> None:
            try:
                t = next(self._schedules[name])
            except StopIteration:
                return
            if t < horizon:
                heapq.heappush(heap, (t, next(counter), name))

        for node in self.nodes:
            push_next(node.name)

        data_driven = getattr(self, "_data_driven", frozenset())
        events = 0
        while heap:
            events += 1
            if events > max_events:
                raise SimulationError("async run exceeded max_events")
            time, _, name = heapq.heappop(heap)
            push_next(name)
            node = next(n for n in self.nodes if n.name == name)
            # fault injection: a stalled node misses this activation
            if faults is not None and faults.stalled(name, time):
                stalled[name] += 1
                self._fire_data_driven(
                    data_driven, time, recorder, firings, faults, stalled
                )
                continue
            # backpressure: masked while an outgoing channel is full
            if any(ch.full() and ch.policy == "block" for _, ch in self._out_links[name]):
                skipped[name] += 1
                self._fire_data_driven(
                    data_driven, time, recorder, firings, faults, stalled
                )
                continue
            inputs: Dict[str, object] = {}
            if node.activation:
                inputs[node.activation] = True
            for sig, ch in self._in_links[name]:
                if ch.available(time):
                    value = ch.pop(time)
                    inputs[sig] = value
                    recorder.record(sig + "__r", time, value)
            outputs = self._react(name, inputs, time)
            firings[name] += 1
            self._dispatch(name, outputs, time, recorder)
            # data-driven nodes drain channels right after each event
            self._fire_data_driven(
                data_driven, time, recorder, firings, faults, stalled
            )

        stats = {}
        for ch in self.channels.values():
            entry = {
                "capacity": ch.capacity,
                "peak": ch.peak,
                "losses": ch.losses,
                "pending": len(ch),
                "loss_times": tuple(ch.loss_times),
                "latency": ch.latency,
                "mean_wait": ch.mean_latency(),
            }
            if ch.injector is not None:
                entry["faults"] = ch.injector.counts()
            protocol = ch.protocol_stats()
            if protocol:
                entry["protocol"] = protocol
            stats[ch.name] = entry
        alarms = (
            tuple(self._supervisor.alarms) if self._supervisor is not None else ()
        )
        return NetworkTrace(
            recorder.behavior(), firings, skipped, stats, stalled,
            dict(self._crashes), alarms,
        )

    def _react(self, name: str, inputs: Dict[str, object], time: float):
        """One supervised reaction: crash wipes, watchdog recovery, logging.

        A crash window that ended since the node's last firing destroys
        its volatile state (the fault); the supervisor — if one is woven —
        detects the silence via its watchdog and restores the last
        checkpoint, replaying the logged inputs (the recovery).
        """
        reactor = self._reactors[name]
        faults = self._fault_schedule
        if faults is not None and faults.crash_ended(
            name, self._last_fired.get(name), time
        ):
            reactor.reset()
            self._crashes[name] += 1
        sup = self._supervisor
        if sup is not None:
            sup.before_fire(name, reactor, time)
        outputs = reactor.react(inputs)
        if sup is not None:
            sup.after_fire(name, reactor, time, inputs)
        self._last_fired[name] = time
        return outputs

    def _dispatch(self, name: str, outputs: Dict[str, object], time: float,
                  recorder: _Recorder) -> None:
        links = dict_groupby(self._out_links[name])
        for sig, value in outputs.items():
            if sig in links:
                recorder.record(sig + "__w", time, value)
                for ch in links[sig]:
                    ch.push(value, time)
            else:
                recorder.record(sig, time, value)

    def _fire_data_driven(
        self, data_driven, time, recorder, firings, faults=None, stalled=None
    ) -> None:
        """Fire data-driven nodes (no schedule) while they have input."""
        progress = True
        guard = 0
        while progress:
            progress = False
            guard += 1
            if guard > 10000:
                raise SimulationError("data-driven firing did not quiesce")
            for node in self.nodes:
                if node.name not in data_driven:
                    continue
                if faults is not None and faults.stalled(node.name, time):
                    if stalled is not None and guard == 1 and any(
                        ch.available(time) for _, ch in self._in_links[node.name]
                    ):
                        stalled[node.name] += 1
                    continue
                pending = [
                    (sig, ch)
                    for sig, ch in self._in_links[node.name]
                    if ch.available(time)
                ]
                if not pending:
                    continue
                inputs: Dict[str, object] = {}
                if node.activation:
                    inputs[node.activation] = True
                for sig, ch in pending:
                    value = ch.pop(time)
                    inputs[sig] = value
                    recorder.record(sig + "__r", time, value)
                outputs = self._react(node.name, inputs, time)
                firings[node.name] += 1
                self._dispatch(node.name, outputs, time, recorder)
                progress = True


def dict_groupby(pairs: Iterable[Tuple[str, AsyncChannel]]) -> Dict[str, List[AsyncChannel]]:
    out: Dict[str, List[AsyncChannel]] = {}
    for sig, ch in pairs:
        out.setdefault(sig, []).append(ch)
    return out
