"""Iterative buffer-size estimation (Section 5.2 of the paper).

    "Designers can start with a set of behaviors and a rough guess of the
     needed buffer size and use the instrumented FIFO network to find the
     right estimation: simulate, observe the counters, increment the
     buffer size by these values, and iterate till no alarm is raised."

:func:`estimate_buffer_sizes` is exactly that loop.  It returns an
:class:`EstimationReport` carrying the full trajectory so the benches can
print the convergence series of experiment F4.
"""

from __future__ import annotations

from functools import partial
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Union,
)

from repro.lang.analysis import flatten_program
from repro.lang.ast import Program
from repro.perf.sweep import sweep
from repro.sim.batch import simulate_batch
from repro.sim.plan import shared_plan
from repro.desync.transform import DesyncResult, desynchronize


class EstimationStep(NamedTuple):
    iteration: int
    sizes: Dict[str, int]       # capacities tried this round
    misses: Dict[str, int]      # max consecutive missed writes observed
    alarms: Dict[str, int]      # total alarm count per channel


class EstimationReport(NamedTuple):
    converged: bool
    iterations: int
    sizes: Dict[str, int]       # final (quiescent) capacities
    history: List[EstimationStep]

    def render(self) -> str:
        lines = ["buffer-size estimation ({})".format(
            "converged" if self.converged else "NOT converged")]
        for step in self.history:
            lines.append(
                "  iter {}: sizes={} misses={} alarms={}".format(
                    step.iteration,
                    _fmt(step.sizes),
                    _fmt(step.misses),
                    _fmt(step.alarms),
                )
            )
        lines.append("  final sizes: {}".format(_fmt(self.sizes)))
        return "\n".join(lines)


def _fmt(d: Dict[str, int]) -> str:
    return "{" + ", ".join("{}={}".format(k, v) for k, v in sorted(d.items())) + "}"


StimulusFactory = Callable[[], Iterable[Dict[str, object]]]


def _chunked(items: list, width: int) -> List[list]:
    return [items[i : i + width] for i in range(0, len(items), width)]


def _fold_lane_counts(result: DesyncResult, report) -> tuple:
    """Per-channel worst miss (max over lanes) and alarm total (sum)."""
    misses: Dict[str, int] = {}
    alarms: Dict[str, int] = {}
    for ch in result.channels:
        worst = max(report.max_values(ch.reg, 0))
        misses[ch.signal] = max(misses.get(ch.signal, 0), worst)
        alarms[ch.signal] = alarms.get(ch.signal, 0) + sum(
            report.presence_counts(ch.alarm)
        )
    return misses, alarms


def _round(context: tuple, factories: Sequence[StimulusFactory]) -> tuple:
    """One round of the loop: simulate the instrumented network at the
    round's sizes with one lane per factory, and fold its counters.

    ``context`` is ``(program, sizes, kind, horizon)``.  The estimator
    calls it in-process on every lane, or through a sweep pool once per
    lane chunk; either way the network's plan comes from the process-wide
    plan cache."""
    program, sizes, kind, horizon = context
    result = desynchronize(
        program, capacities=dict(sizes), kind=kind, instrument=True
    )
    comp = flatten_program(result.program)
    report = simulate_batch(
        comp,
        [factory() for factory in factories],
        n=horizon,
        plan=shared_plan(comp),
    )
    return _fold_lane_counts(result, report)


def estimate_buffer_sizes(
    program: Program,
    stimulus_factory: Union[StimulusFactory, Sequence[StimulusFactory]],
    horizon: int,
    initial: Union[int, Dict[str, int]] = 1,
    max_iterations: int = 16,
    kind: str = "direct",
    max_capacity: Optional[int] = None,
    workers: Optional[int] = None,
) -> EstimationReport:
    """Run the Section 5.2 estimation loop.

    ``stimulus_factory`` must return a *fresh* stimulus each call (the
    "given environment"): it has to drive the program's inputs plus each
    channel's read request ``<x>_rreq``.  ``horizon`` is the simulated
    length per iteration.

    A *sequence* of factories estimates against several environments at
    once: each iteration runs every factory as an independent lane of one
    compiled plan (:func:`repro.sim.batch.simulate_batch`); the observed
    miss counters are the worst (max) over lanes and alarms are summed,
    so the grown sizes cover every simulated environment.  One factory
    is a batch of one lane.  ``workers > 1`` with two or more lanes
    splits the lanes of each iteration into that many chunks across a
    :func:`repro.perf.sweep.sweep` process pool (the program and the
    factories must then pickle).  An empty sequence, a ``horizon``
    below 1 and an ``initial`` map naming something that is not a
    channel raise :class:`ValueError` before any round runs.

    Every round desynchronizes the program at its sizes and takes the
    network's compiled plan from the process-wide plan cache
    (:func:`repro.sim.plan.shared_plan`), so revisiting a sizes vector —
    in this call or a later one — costs one ``desynchronize`` and a cache
    hit.

    Convergence means the last simulation raised no alarm; the final
    ``sizes`` then satisfy the Lemma 2 condition *for the simulated
    behaviors* — the verification phase (model checking, experiment V1)
    extends the claim to all behaviors.

    ``max_capacity`` clamps per-signal growth; a cap below a channel's
    initial size raises :class:`ValueError`.  Growth can stall before
    the alarms clear — with ``kind="chain"`` the ripple conservatism may
    keep raising alarms no matter the depth, and the clamp bounds the
    otherwise-divergent growth.  Either way, once the sizes vector stops
    changing while alarms remain, every further iteration would re-simulate
    the *identical* network and observe the identical counters; the loop
    detects that fixed point and returns ``converged=False`` immediately
    instead of burning the remaining ``max_iterations``.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if callable(stimulus_factory):
        factories = [stimulus_factory]
    else:
        factories = list(stimulus_factory)
        if not factories:
            raise ValueError("no stimulus factory: nothing to simulate")
    # initial sizes need the channel list; build once to discover channels
    probe: DesyncResult = desynchronize(
        program, capacities=1 if isinstance(initial, dict) else initial,
        kind=kind, instrument=True,
    )
    channels = [ch.signal for ch in probe.channels]
    if isinstance(initial, dict):
        unknown = sorted(set(initial) - set(channels))
        if unknown:
            raise ValueError(
                "initial names no channel: {} (channels: {})".format(
                    ", ".join(map(repr, unknown)), ", ".join(channels)
                )
            )
        sizes = {signal: int(initial.get(signal, 1)) for signal in channels}
    else:
        sizes = {signal: int(initial) for signal in channels}
    if max_capacity is not None:
        for signal, size in sorted(sizes.items()):
            if size > max_capacity:
                raise ValueError(
                    "max_capacity {} is below the initial size {} of "
                    "channel {!r}".format(max_capacity, size, signal)
                )

    pooled = workers is not None and workers > 1 and len(factories) > 1
    history: List[EstimationStep] = []
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        context = (program, dict(sizes), kind, horizon)
        if pooled:
            # each worker runs one chunk of environments
            width = -(-len(factories) // workers)
            chunks = sweep(
                partial(_round, context),
                _chunked(factories, width),
                workers=workers,
            ).values()
        else:
            chunks = [_round(context, factories)]
        misses: Dict[str, int] = {}
        alarms: Dict[str, int] = {}
        for chunk_misses, chunk_alarms in chunks:
            for signal, worst in chunk_misses.items():
                misses[signal] = max(misses.get(signal, 0), worst)
            for signal, n in chunk_alarms.items():
                alarms[signal] = alarms.get(signal, 0) + n
        history.append(EstimationStep(iteration, dict(sizes), misses, alarms))
        if all(v == 0 for v in misses.values()):
            converged = True
            break
        grew = False
        for signal, miss in misses.items():
            if miss <= 0:
                continue
            bumped = sizes[signal] + miss
            if max_capacity is not None:
                bumped = min(bumped, max_capacity)
            if bumped != sizes[signal]:
                sizes[signal] = bumped
                grew = True
        if not grew:
            # sizes fixed point with alarms still raised: the next
            # simulation would replay the identical network and yield
            # the identical misses — the loop cannot converge.
            break
    return EstimationReport(converged, iteration, dict(sizes), history)
