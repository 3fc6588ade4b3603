"""Concrete workload scenarios for the producer/consumer designs.

Workloads carry generator-producing closures, which do not pickle; the
*spec* layer at the bottom of this module (``{"kind": ..., **params}``
dicts, :func:`workload_from_spec`, :class:`FaultScenarioSpec`,
:func:`fault_kind_specs`, :func:`batched_soak_sweep`) is the picklable
description of the same scenarios, so sweeps can fan out across
processes via :func:`repro.perf.sweep.sweep` and rebuild each workload
inside the worker."""

from __future__ import annotations

from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
)

from repro.gals import schedules
from repro.perf.sweep import sweep
from repro.sim import stimuli
from repro.sim.plan import shared_plan


class Workload(NamedTuple):
    """One environment, usable with every execution backend.

    ``stimulus_factory()`` yields per-instant input maps for the
    synchronous simulator (driving ``producer_act`` and ``reader_req``
    signal names); ``schedule_factory()`` returns GALS activation
    schedules keyed by node name.
    """

    name: str
    stimulus_factory: Callable[[], Iterator[Dict[str, object]]]
    schedule_factory: Callable[[], Dict[str, Iterator[float]]]
    params: Dict[str, object]

    def stimulus(self):
        return self.stimulus_factory()

    def gals_schedules(self):
        return self.schedule_factory()


def steady(
    producer_period: int = 1,
    reader_period: int = 1,
    producer_act: str = "p_act",
    reader_req: str = "x_rreq",
    producer_node: str = "P",
    consumer_node: str = "Q",
    reader_phase: int = 0,
) -> Workload:
    """Periodic producer and reader."""

    def stim():
        return stimuli.merge(
            stimuli.periodic(producer_act, producer_period),
            stimuli.periodic(reader_req, reader_period, phase=reader_phase),
        )

    def scheds():
        return {
            producer_node: schedules.periodic(float(producer_period)),
            consumer_node: schedules.periodic(
                float(reader_period), phase=reader_phase + 0.5
            ),
        }

    return Workload(
        "steady(p={}, r={})".format(producer_period, reader_period),
        stim,
        scheds,
        {"producer_period": producer_period, "reader_period": reader_period},
    )


def bursty_producer(
    burst: int = 3,
    gap: int = 3,
    reader_period: int = 2,
    producer_act: str = "p_act",
    reader_req: str = "x_rreq",
    producer_node: str = "P",
    consumer_node: str = "Q",
) -> Workload:
    """Bursts of writes with a matched-average reader.

    Average producer rate is ``burst / (burst + gap)``; pick
    ``reader_period <= (burst + gap) / burst`` to keep the backlog bounded
    and the buffer estimable.
    """

    def stim():
        return stimuli.merge(
            stimuli.bursty(producer_act, burst=burst, gap=gap),
            stimuli.periodic(reader_req, reader_period),
        )

    def scheds():
        return {
            producer_node: schedules.bursty(
                burst=burst, intra=1.0, gap=float(gap)
            ),
            consumer_node: schedules.periodic(float(reader_period), phase=0.5),
        }

    return Workload(
        "bursty(b={}, g={}, r={})".format(burst, gap, reader_period),
        stim,
        scheds,
        {"burst": burst, "gap": gap, "reader_period": reader_period},
    )


def adversarial(
    p_write: float = 0.7,
    p_read: float = 0.5,
    seed: int = 0,
    producer_act: str = "p_act",
    reader_req: str = "x_rreq",
    producer_node: str = "P",
    consumer_node: str = "Q",
) -> Workload:
    """Independent random arrivals (Bernoulli per instant / Poisson in time)."""

    def stim():
        return stimuli.merge(
            stimuli.bernoulli(producer_act, p_write, seed=seed),
            stimuli.bernoulli(reader_req, p_read, seed=seed + 1),
        )

    def scheds():
        return {
            producer_node: schedules.poisson(p_write, seed=seed),
            consumer_node: schedules.poisson(p_read, seed=seed + 1),
        }

    return Workload(
        "adversarial(pw={}, pr={}, seed={})".format(p_write, p_read, seed),
        stim,
        scheds,
        {"p_write": p_write, "p_read": p_read, "seed": seed},
    )


def single_burst(
    burst: int = 10,
    intra: float = 0.1,
    gap: float = 1000.0,
    drain_period: float = 1.0,
    producer_node: str = "P",
    consumer_node: str = "Q",
) -> Workload:
    """One backlog-building burst with full drain slack.

    Duplication and reordering need queued items to act on, and every
    item must still land inside the horizon — this is the canonical
    environment for classifying those fault kinds (experiment A7)."""

    def scheds():
        return {
            producer_node: schedules.bursty(burst=burst, intra=intra, gap=gap),
            consumer_node: schedules.periodic(drain_period, phase=0.5),
        }

    return Workload(
        "single_burst(b={}, drain={:g})".format(burst, drain_period),
        lambda: iter(()),
        scheds,
        {"burst": burst, "intra": intra, "gap": gap,
         "drain_period": drain_period},
    )


def rate_mismatch_sweep(
    reader_periods: Iterable[int] = (1, 2, 3, 4),
    producer_period: int = 1,
    **kwargs,
) -> List[Workload]:
    """Steady workloads with increasing reader sluggishness (experiment F3)."""
    return [
        steady(producer_period=producer_period, reader_period=rp, **kwargs)
        for rp in reader_periods
    ]


def burst_sweep(
    bursts: Iterable[int] = (1, 2, 3, 5, 8),
    slack: int = 1,
    **kwargs,
) -> List[Workload]:
    """Bursty workloads with growing burst length and matched average rate.

    ``gap`` grows with the burst so the reader (period ``1 + slack``) keeps
    up on average while peak backlog grows linearly — the regime where the
    estimated buffer size should track the burst length (experiment F4).
    """
    out = []
    for b in bursts:
        gap = b * slack + b  # reader at period (1+slack) drains b in b*(1+slack)
        out.append(bursty_producer(burst=b, gap=gap, reader_period=1 + slack, **kwargs))
    return out


# -- picklable specs + the batched soak sweep (experiments A7 and A9) --------


#: workload spec ``kind`` -> factory; a spec is the factory's kwargs plus
#: the ``kind`` key, and rebuilds the workload on the far side of a pickle
WORKLOAD_KINDS: Dict[str, Callable[..., Workload]] = {
    "steady": steady,
    "bursty": bursty_producer,
    "adversarial": adversarial,
    "single_burst": single_burst,
}


def workload_from_spec(spec: Dict[str, Any]) -> Workload:
    """Rebuild a workload from its ``{"kind": ..., **params}`` spec."""
    params = dict(spec)
    kind = params.pop("kind")
    return WORKLOAD_KINDS[kind](**params)


class FaultScenarioSpec(NamedTuple):
    """One workload deployed under one fault plan, in transportable form:
    the workload as a spec dict, the plan as-is (fault plans pickle), an
    optional per-scenario horizon override for :func:`batched_soak_sweep`,
    and the :class:`~repro.resilience.weave.RecoveryConfig` that hardens
    the deployment (``None``: unhardened; a NamedTuple of NamedTuples, it
    pickles)."""

    name: str
    workload: Dict[str, Any]
    plan: "FaultPlan"
    horizon: Optional[float] = None
    recovery: Any = None


def fault_kind_specs(
    seed: int = 7,
    rate: float = 0.2,
    workload: Optional[Dict[str, Any]] = None,
) -> List[FaultScenarioSpec]:
    """One scenario per fault kind, each at ``rate`` on every channel.

    The canonical soak matrix: a clean baseline plus drop, duplicate,
    reorder, latency jitter, metastability corruption and producer stall,
    all on the same workload so divergence classes are attributable to a
    single fault dimension.
    """
    from repro.faults.spec import uniform_plan

    wl = workload or {"kind": "steady"}
    kinds = [
        ("clean", uniform_plan(seed=seed)),
        ("drop", uniform_plan(seed=seed, drop=rate)),
        ("duplicate", uniform_plan(seed=seed, duplicate=rate)),
        ("reorder", uniform_plan(seed=seed, reorder=rate, window=3)),
        ("jitter", uniform_plan(seed=seed, jitter=3.0)),
        ("corrupt", uniform_plan(seed=seed, corrupt=rate)),
        ("stall", uniform_plan(seed=seed, stall=rate, stall_period=2.0)),
    ]
    return [FaultScenarioSpec(name, dict(wl), plan) for name, plan in kinds]


def drop_sweep_specs(
    rates: Iterable[float] = (0.0, 0.05, 0.1, 0.2, 0.4),
    seed: int = 7,
    workload: Optional[Dict[str, Any]] = None,
) -> List[FaultScenarioSpec]:
    """Increasing channel loss on one workload (fault dose-response)."""
    from repro.faults.spec import uniform_plan

    wl = workload or {"kind": "steady"}
    return [
        FaultScenarioSpec(
            "drop={:g}".format(rate), dict(wl), uniform_plan(seed=seed, drop=rate)
        )
        for rate in rates
    ]


def _soak_summary(name: str, report) -> Dict[str, Any]:
    """One soak's picklable summary: scenario name, flow-equivalence
    verdict, worst divergence class in signal order, divergent-signal
    count and fault counts."""
    from repro.sim.cosim import FLOW_EQUIVALENT

    worst = None
    for signal in sorted(report.classification):
        verdict = report.classification[signal]
        if verdict != FLOW_EQUIVALENT:
            worst = verdict
            break
    return {
        "scenario": name,
        "flow_equivalent": report.flow_equivalent,
        "class": worst,
        "divergent_signals": len(report.divergent),
        "faults": dict(report.fault_counts),
    }


def _batched_soak_task(
    program, net_kwargs: Dict[str, Any], group
) -> List[Dict[str, Any]]:
    """One lane batch: every plan of one workload, recovery config and
    horizon against a single shared reference run (runs inside sweep
    workers).  An unhardened row is :func:`_soak_summary`; a hardened one
    is the report's :meth:`~repro.faults.soak.SoakReport.summary` plus
    the scenario name."""
    from repro.faults.soak import soak_batch

    workload_spec, recovery, horizon, named_plans = group
    reports = soak_batch(
        program,
        workload_from_spec(dict(workload_spec)),
        [plan for _, plan in named_plans],
        horizon=horizon,
        recovery=recovery,
        **net_kwargs,
    )
    return [
        _soak_summary(name, report) if recovery is None
        else dict(report.summary(), scenario=name)
        for (name, _), report in zip(named_plans, reports)
    ]


def batched_soak_sweep(
    program,
    specs: Iterable[FaultScenarioSpec],
    horizon: float = 50.0,
    workers: Optional[int] = None,
    **net_kwargs,
) -> List[Dict[str, Any]]:
    """Soak every scenario spec through :func:`repro.perf.sweep.sweep`.

    Specs sharing a workload, recovery config and horizon become ONE
    sweep task whose zero-fault reference runs once for all of its fault
    plans (:func:`repro.faults.soak.soak_batch`).  Returns one summary
    per spec, in spec order (see :func:`_batched_soak_task`); soaks being
    deterministic in their seeds, the summaries are identical at any
    ``workers`` count.

    A pooled sweep first builds the plan of each node of ``program`` in
    this process, so forked workers inherit them from the process-wide
    plan cache instead of each building them again.
    """
    specs = list(specs)
    if workers is not None and workers > 1:
        for comp in program.components:
            shared_plan(comp)
    groups: Dict[tuple, List[int]] = {}
    for i, spec in enumerate(specs):
        key = (
            tuple(sorted(spec.workload.items())),
            spec.recovery,
            spec.horizon if spec.horizon is not None else horizon,
        )
        groups.setdefault(key, []).append(i)
    tasks = [
        key + ([(specs[i].name, specs[i].plan) for i in indices],)
        for key, indices in groups.items()
    ]
    report = sweep(
        partial(_batched_soak_task, program, net_kwargs), tasks,
        workers=workers,
    )
    out = [None] * len(specs)
    for indices, summaries in zip(groups.values(), report.values()):
        for i, summary in zip(indices, summaries):
            out[i] = summary
    return out


def recovery_rate_specs(
    rates: Iterable[float] = (0.05, 0.15, 0.3),
    seed: int = 11,
    crash: Optional[tuple] = ((8.0, 12.0),),
    crash_node: str = "Q",
    workload: Optional[Dict[str, Any]] = None,
    recovery=None,
) -> List[FaultScenarioSpec]:
    """One hardened spec per composite fault rate, each with the same
    crash window (experiment A9).

    Rate ``r`` means drop at ``r`` with duplication and reordering at
    ``r/2`` on every channel — a dose-response axis for the recovery
    layer's retransmit/checkpoint cost.  Every spec is hardened with
    ``recovery`` (default: :class:`~repro.resilience.weave.RecoveryConfig`
    with its defaults)."""
    from repro.faults.spec import ANY, ChannelFaults, FaultPlan, NodeFaults

    if recovery is None:
        from repro.resilience import RecoveryConfig

        recovery = RecoveryConfig()
    wl = workload or {"kind": "single_burst"}
    nodes = (
        {crash_node: NodeFaults(crash=tuple(crash))} if crash else {}
    )
    out = []
    for rate in rates:
        plan = FaultPlan(
            seed=seed,
            channels={
                ANY: ChannelFaults(
                    drop=rate, duplicate=rate / 2, reorder=rate / 2, window=3
                )
            },
            nodes=dict(nodes),
        ).validate()
        out.append(FaultScenarioSpec(
            "rate={:g}".format(rate), dict(wl), plan, recovery=recovery
        ))
    return out
