"""Fault-injection soak harness.

Co-simulates a faulted GALS network against the zero-fault reference
deployment of the same program under the same workload, classifies every
signal's divergence (via the flow machinery of :mod:`repro.tags.equivalence`
and :func:`repro.sim.cosim.compare_flows`), optionally hardens the faulted
deployment with the :mod:`repro.resilience` stack first (a recovery
soak), optionally re-runs the Section 5.2 buffer-size estimation under
read jitter to report capacity inflation, and exports fault, divergence
and recovery counters through :data:`repro.perf.PERF`.

The whole pipeline is deterministic: the fault plan compiles from its
seed into an explicit schedule, so two soaks with the same arguments
produce byte-identical :class:`~repro.gals.network.NetworkTrace`\\ s.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.gals.network import AsyncNetwork, NetworkTrace
from repro.lang.ast import Program
from repro.perf import PERF
from repro.sim.cosim import FLOW_EQUIVALENT, compare_flows
from repro.tags import equivalence
from repro.faults.inject import weave_faults
from repro.faults.spec import FaultPlan


class EstimateConfig(NamedTuple):
    """How to re-run :func:`repro.desync.estimator.estimate_buffer_sizes`
    under jitter for the capacity-inflation report."""

    horizon: int = 100
    hold: float = 0.25          # P(a read request is deferred one instant)
    initial: int = 1
    kind: str = "direct"
    max_iterations: int = 16


class CapacityInflation(NamedTuple):
    """Buffer sizes without and with read jitter."""

    base: Dict[str, int]
    jittered: Dict[str, int]
    base_converged: bool
    jittered_converged: bool

    def ratio(self, signal: str) -> float:
        base = self.base.get(signal, 1) or 1
        return self.jittered.get(signal, base) / base

    def render(self) -> str:
        lines = ["capacity inflation under read jitter:"]
        for signal in sorted(set(self.base) | set(self.jittered)):
            lines.append(
                "  {}: {} -> {} ({:.2f}x){}".format(
                    signal,
                    self.base.get(signal, "?"),
                    self.jittered.get(signal, "?"),
                    self.ratio(signal),
                    "" if self.jittered_converged else "  [NOT converged]",
                )
            )
        return "\n".join(lines)


class SoakReport(NamedTuple):
    """Everything one soak run learned.

    A hardened soak (``recovery`` given to :func:`soak_batch`) also
    carries the reliable channels' protocol totals and the supervisor's
    metrics in ``recovery``, and the supervisor's alarms in ``alarms``;
    an unhardened soak has neither.
    """

    plan: FaultPlan
    horizon: float
    reference: NetworkTrace
    faulted: NetworkTrace
    classification: Dict[str, str]   # per recorded signal
    flow_equivalent: bool            # Definition 4, over the shared domain
    fault_counts: Dict[str, int]
    inflation: Optional[CapacityInflation]
    recovery: Dict[str, object]      # protocol + supervisor metrics
    alarms: Tuple                    # supervisor AlarmEvents, in order

    @property
    def divergent(self) -> Dict[str, str]:
        return {
            s: c for s, c in self.classification.items()
            if c != FLOW_EQUIVALENT
        }

    @property
    def healthy(self) -> bool:
        """The CI gate: flow equivalence, no abandoned frames, no denied
        restarts.  Watchdog and restart alarms during a *successful*
        recovery are expected operation, not failures."""
        return (
            self.flow_equivalent
            and not self.recovery.get("abandoned")
            and not self.recovery.get("restart_denied")
        )

    def summary(self) -> Dict[str, object]:
        """A flat, JSON-ready digest (used by the CLI and the A9 bench);
        a soak that estimated the capacity inflation also carries it."""
        alarm_kinds: Dict[str, int] = {}
        for ev in self.alarms:
            alarm_kinds[ev.kind] = alarm_kinds.get(ev.kind, 0) + 1
        out: Dict[str, object] = {
            "flow_equivalent": self.flow_equivalent,
            "healthy": self.healthy,
            "classification": dict(sorted(self.classification.items())),
            "fault_counts": dict(sorted(self.fault_counts.items())),
            "alarms": alarm_kinds,
        }
        if self.inflation is not None:
            out["inflation"] = {
                "base": dict(sorted(self.inflation.base.items())),
                "jittered": dict(sorted(self.inflation.jittered.items())),
                "base_converged": self.inflation.base_converged,
                "jittered_converged": self.inflation.jittered_converged,
            }
        out.update(sorted(self.recovery.items()))
        return out

    def render(self) -> str:
        if self.recovery:
            title, pad = "recovery soak", "  "
            verdict = (
                "HEALTHY" if self.healthy
                else ("FLOW EQUIVALENT, degraded" if self.flow_equivalent
                      else "DIVERGENT")
            )
        else:
            title, pad = "fault soak", " "
            verdict = "FLOW EQUIVALENT" if self.flow_equivalent else "DIVERGENT"
        lines = [
            "{} (seed {}, horizon {}): {}".format(
                title, self.plan.seed, self.horizon, verdict
            ),
            "  injected:" + pad + (
                ", ".join(
                    "{}={}".format(k, v)
                    for k, v in sorted(self.fault_counts.items()) if v
                ) or "nothing"
            ),
        ]
        if self.recovery:
            lines.append("  recovery:  " + ", ".join(
                "{}={}".format(k, v)
                for k, v in sorted(self.recovery.items()) if v
            ))
        for signal in sorted(self.classification):
            lines.append(
                "  {:<12} {}".format(signal, self.classification[signal])
            )
        for ev in self.alarms:
            lines.append(
                "  alarm t={:<8g} {:<15} {} {}".format(
                    ev.time, ev.kind, ev.subject, ev.detail
                )
            )
        if self.inflation is not None:
            lines.append(self.inflation.render())
        return "\n".join(lines)


def _net_from(program, workload, net_kwargs) -> AsyncNetwork:
    return AsyncNetwork.from_program(
        program, workload.gals_schedules(), **net_kwargs
    )


def _classify(
    reference: NetworkTrace,
    subject: NetworkTrace,
    signals: Optional[Iterable[str]],
) -> Tuple[Dict[str, str], bool]:
    """Per-signal divergence classes plus the Definition 4 verdict over
    the shared projection."""
    names = (
        sorted(set(reference.behavior.vars()) | set(subject.behavior.vars()))
        if signals is None else list(signals)
    )
    classification = compare_flows(reference.behavior, subject.behavior, names)
    shared = [
        n for n in names
        if n in reference.behavior and n in subject.behavior
    ]
    flow_ok = all(
        c == FLOW_EQUIVALENT for c in classification.values()
    ) and equivalence.flow_equivalent(
        reference.behavior.project(shared), subject.behavior.project(shared)
    )
    return classification, flow_ok


def _recovery_metrics(hardened) -> Dict[str, object]:
    """The reliable channels' protocol totals and the supervisor's
    metrics, after the hardened run."""
    recovery: Dict[str, object] = {
        "frames": 0, "retransmits": 0, "acks": 0, "dup_frames": 0,
        "corrupt_frames": 0, "abandoned": 0, "skipped_gaps": 0,
    }
    for ch in hardened.channels:
        for key, n in ch.protocol_stats().items():
            if key in recovery:
                recovery[key] += n
    recovery.update(hardened.supervisor.metrics())
    return recovery


def soak(
    program: Program,
    workload,
    plan: FaultPlan,
    horizon: float = 50.0,
    signals: Optional[Iterable[str]] = None,
    estimate: Optional[EstimateConfig] = None,
    max_events: int = 100000,
    recovery=None,
    **net_kwargs,
) -> SoakReport:
    """Run the faulted network against the zero-fault reference.

    ``workload`` is a :class:`repro.workloads.scenarios.Workload` (or any
    object with ``gals_schedules()`` and ``stimulus_factory``); fresh
    schedules are drawn for each of the two deployments so both see the
    same activations.  ``signals`` restricts the classification (default:
    every signal recorded by the reference run).  ``recovery`` (a
    :class:`repro.resilience.RecoveryConfig`) hardens the faulted
    deployment first.  One soak is a batch of one plan:
    :func:`soak_batch`.
    """
    return soak_batch(
        program, workload, [plan], horizon=horizon, signals=signals,
        estimate=estimate, max_events=max_events, recovery=recovery,
        **net_kwargs,
    )[0]


def soak_batch(
    program: Program,
    workload,
    plans: Iterable[FaultPlan],
    horizon: float = 50.0,
    signals: Optional[Iterable[str]] = None,
    estimate: Optional[EstimateConfig] = None,
    max_events: int = 100000,
    recovery=None,
    **net_kwargs,
) -> List[SoakReport]:
    """Soak many fault plans against **one** shared reference run.

    Network runs are deterministic in the workload, so the zero-fault
    reference is identical for every plan; running it once instead of
    once per plan halves the event-simulation work of a scenario sweep.

    With ``recovery`` (a :class:`repro.resilience.RecoveryConfig`), each
    faulted network gets the :mod:`repro.resilience` stack (reliable
    channels and a supervisor) through
    :func:`repro.resilience.harden` before it runs.  The claim under
    test: with recovery in place, drops, duplicates, reordering and even
    node crashes leave the run flow-equivalent to the zero-fault
    reference.  Without it, a plan that injects nothing (``plan.active``
    false) leaves the woven network unchanged, so its faulted run is the
    reference run; hardening changes the network, so a hardened soak
    runs every plan.

    With ``estimate``, every plan runs :func:`capacity_inflation` at its
    own seed, and a sizes vector that another plan's estimate already
    simulated is a hit in the process-wide plan cache.  Each plan's
    report equals the :func:`soak` of that plan alone.  The plans run in
    order in this thread; counters go to the caller's
    :data:`repro.perf.PERF` tables, so to count one plan, soak it alone
    in a :meth:`repro.perf.PerfCounters.scope`.
    """
    if recovery is not None:
        from repro.resilience import harden
    if signals is not None:
        signals = list(signals)   # an iterator must serve every plan
    reference = _net_from(program, workload, net_kwargs).run(
        horizon, max_events=max_events
    )
    reports = []
    for plan in plans:
        hardened = None
        if plan.active or recovery is not None:
            faulted_net = _net_from(program, workload, net_kwargs)
            weave_faults(faulted_net, plan)
            if recovery is not None:
                hardened = harden(faulted_net, recovery)
            faulted = faulted_net.run(horizon, max_events=max_events)
        else:
            # weaving an inactive plan attaches nothing: its run is the
            # reference run
            plan.validate()
            faulted = reference

        classification, flow_ok = _classify(reference, faulted, signals)

        counts = faulted.fault_counts()
        PERF.merge(
            {k: v for k, v in counts.items() if isinstance(v, int)}, "faults"
        )
        PERF.incr("faults.soaks")
        divergent = sum(
            1 for c in classification.values() if c != FLOW_EQUIVALENT
        )
        PERF.incr("faults.divergent_signals", divergent)

        metrics: Dict[str, object] = {}
        if hardened is not None:
            metrics = _recovery_metrics(hardened)
            PERF.merge(
                {
                    k: metrics[k] for k in (
                        "retransmits", "abandoned", "checkpoints",
                        "restarts", "replayed",
                    )
                },
                "resilience",
            )

        inflation = None
        if estimate is not None:
            inflation = capacity_inflation(
                program, workload, estimate, seed=plan.seed
            )
        reports.append(
            SoakReport(
                plan=plan,
                horizon=horizon,
                reference=reference,
                faulted=faulted,
                classification=classification,
                flow_equivalent=flow_ok,
                fault_counts=counts,
                inflation=inflation,
                recovery=metrics,
                alarms=faulted.alarms,
            )
        )
    return reports


# -- capacity inflation under jitter -----------------------------------------


def jittered_stimulus(
    stimulus: Iterable[Dict[str, object]],
    hold: float,
    seed: int,
    suffix: str = "_rreq",
) -> Iterator[Dict[str, object]]:
    """Defer read requests at random, modeling consumer-side jitter.

    Each instant, every present input named ``*_rreq`` (the channel read
    requests of the desynchronized program) is independently deferred to
    the next instant with probability ``hold`` — the synchronous-program
    image of latency jitter at the crossing.  Deterministic in ``seed``.
    """
    rng = random.Random(seed ^ zlib.crc32(b"read-jitter"))
    held: Dict[str, object] = {}
    for row in stimulus:
        out = dict(row)
        for name, value in held.items():
            out.setdefault(name, value)
        held = {}
        for name in [n for n in out if n.endswith(suffix)]:
            if rng.random() < hold:
                held[name] = out.pop(name)
        yield out


def capacity_inflation(
    program: Program,
    workload,
    config: EstimateConfig = EstimateConfig(),
    seed: int = 0,
) -> CapacityInflation:
    """Section 5.2 buffer estimation, with and without read jitter.

    Both estimates take each instrumented network's plan from the
    process-wide plan cache (:func:`repro.sim.plan.shared_plan`), so a
    sizes vector that one of them, or an earlier call, already simulated
    compiles nothing."""
    from repro.desync.estimator import estimate_buffer_sizes

    base = estimate_buffer_sizes(
        program,
        workload.stimulus_factory,
        horizon=config.horizon,
        initial=config.initial,
        kind=config.kind,
        max_iterations=config.max_iterations,
    )
    jittered = estimate_buffer_sizes(
        program,
        lambda: jittered_stimulus(
            workload.stimulus_factory(), config.hold, seed
        ),
        horizon=config.horizon,
        initial=config.initial,
        kind=config.kind,
        max_iterations=config.max_iterations,
    )
    return CapacityInflation(
        base=dict(base.sizes),
        jittered=dict(jittered.sizes),
        base_converged=base.converged,
        jittered_converged=jittered.converged,
    )
