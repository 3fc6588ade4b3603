"""The rule implementations behind ``repro lint``.

Every rule is a function from a :class:`_Context` to a list of
:class:`~repro.lint.diagnostics.Diagnostic`.  Rules reuse the existing
analyses — clock calculus, dependency graphs, shared-signal orientation,
the desynchronization worklist — rather than re-simulating anything, so a
full lint of a design takes milliseconds.

Rule catalogue (see ``docs/static-analysis.md`` for examples):

========  ========  ====================================================
code      severity  meaning
========  ========  ====================================================
SIG001    warning   clocks not determined by inputs (endochrony proxy)
SIG002    error     signal written by more than one equation
SIG003    error     instantaneous dependency cycle within a component
SIG004    error     uninitialized ``pre`` (fixable)
SIG005    warning   local defined but never read
SIG006    warning   input never read (fixable)
SIG007    error     non-input signal with no defining equation
SIG008    warning   provably empty clock (signal never present)
GALS001   error     inter-node instantaneous cycle through FIFO-free edges
GALS002   error     write-write race across GALS domain boundaries
GALS003   info      static FIFO capacity bound (affine clocks)
GALS004   warning   declared capacity below the static bound
GALS005   warning   channel unbounded under the assumed rates
GALS006   info      flow equivalence PROVEN (occupancy induction)
GALS007   error     flow equivalence REFUTED (overflow witness)
========  ========  ====================================================
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import ReproError
from repro.clocks.hierarchy import analyze_clocks
from repro.lang.analysis import (
    classify_signals,
    dependency_cycles,
    dependency_graph,
    flatten_program,
    instantaneous_cycles,
    shared_signals,
)
from repro.lang.ast import Component, Equation, Pre, Program, Span
from repro.lint.bounds import (
    PeriodicWord,
    channel_bound,
    delivered_reads,
    infer_clock_words,
)
from repro.lint.diagnostics import Diagnostic, make


class _Context:
    """Everything the rules need about one program under analysis."""

    def __init__(
        self,
        program: Program,
        file: str = "",
        rates: Optional[Mapping[str, PeriodicWord]] = None,
        capacities: Optional[Mapping[str, int]] = None,
        cut_channels: bool = True,
    ):
        self.program = program
        self.file = file
        self.rates: Dict[str, PeriodicWord] = dict(rates or {})
        self.capacities: Dict[str, int] = dict(capacities or {})
        #: True when shared-signal edges are deployed as FIFO channels
        #: (the GALS reading); False lints the fully synchronous program.
        self.cut_channels = cut_channels
        self.shared = shared_signals(program)

    def statement_span(self, comp: Component, target: str) -> Optional[Span]:
        for eq in comp.equations():
            if eq.target == target:
                return eq.span
        return None


# ---------------------------------------------------------------------------
# SIG rules: per-component, synchronous
# ---------------------------------------------------------------------------


def rule_endochrony(ctx: _Context) -> List[Diagnostic]:
    """SIG001 + SIG008: free clocks (oracle needed) and dead clocks."""
    out: List[Diagnostic] = []
    for comp in ctx.program.components:
        try:
            analysis = analyze_clocks(comp)
        except ReproError:
            continue  # unparseable clocks are reported by other rules
        if analysis.free:
            interesting = sorted(
                n
                for rep in analysis.free
                for n in analysis.classes.get(rep, {rep})
                if n in comp.signals()
            )
            if interesting:
                out.append(
                    make(
                        "SIG001",
                        "clocks of {} are not determined by the inputs; "
                        "simulation needs an oracle".format(
                            ", ".join(interesting)
                        ),
                        component=comp.name,
                        signal=interesting[0],
                        span=ctx.statement_span(comp, interesting[0]),
                        file=ctx.file,
                    )
                )
        for rep in sorted(analysis.dead):
            members = sorted(
                n for n in analysis.classes.get(rep, {rep})
                if n in comp.signals()
            )
            if members:
                out.append(
                    make(
                        "SIG008",
                        "clock of {} is provably empty: the signal is "
                        "never present".format(", ".join(members)),
                        component=comp.name,
                        signal=members[0],
                        span=ctx.statement_span(comp, members[0]),
                        file=ctx.file,
                    )
                )
    return out


def rule_races(ctx: _Context) -> List[Diagnostic]:
    """SIG002 (within a component) and GALS002 (across components)."""
    out: List[Diagnostic] = []
    for comp in ctx.program.components:
        seen: Dict[str, Equation] = {}
        for eq in comp.equations():
            if eq.target in seen:
                out.append(
                    make(
                        "SIG002",
                        "signal {} is written by more than one equation "
                        "in {}".format(eq.target, comp.name),
                        component=comp.name,
                        signal=eq.target,
                        span=eq.span or seen[eq.target].span,
                        file=ctx.file,
                    )
                )
            else:
                seen[eq.target] = eq
    for s in ctx.shared:
        if len(s.producers) > 1:
            writers = ", ".join(s.producers)
            if ctx.cut_channels:
                out.append(
                    make(
                        "GALS002",
                        "signal {} is driven by {} — desynchronizing "
                        "would multiplex {} unsynchronized writers into "
                        "one channel".format(
                            s.name, writers, len(s.producers)
                        ),
                        component=s.producers[0],
                        signal=s.name,
                        span=ctx.statement_span(
                            ctx.program.component(s.producers[1]), s.name
                        ),
                        file=ctx.file,
                    )
                )
            else:
                out.append(
                    make(
                        "SIG002",
                        "shared signal {} is written by several "
                        "components: {}".format(s.name, writers),
                        component=s.producers[0],
                        signal=s.name,
                        span=ctx.statement_span(
                            ctx.program.component(s.producers[1]), s.name
                        ),
                        file=ctx.file,
                    )
                )
    return out


def rule_causality(ctx: _Context) -> List[Diagnostic]:
    """SIG003: instantaneous cycles inside each component."""
    out: List[Diagnostic] = []
    for comp in ctx.program.components:
        for cycle in instantaneous_cycles(comp):
            out.append(
                make(
                    "SIG003",
                    "instantaneous dependency cycle: {}".format(
                        " -> ".join(cycle + [cycle[0]])
                    ),
                    component=comp.name,
                    signal=cycle[0],
                    span=ctx.statement_span(comp, cycle[0]),
                    file=ctx.file,
                )
            )
    return out


def rule_uninitialized_pre(ctx: _Context) -> List[Diagnostic]:
    """SIG004: ``pre`` without an initial value (mechanically fixable)."""
    out: List[Diagnostic] = []
    for comp in ctx.program.components:
        for eq in comp.equations():
            for node in eq.expr.walk():
                if isinstance(node, Pre) and node.init is None:
                    out.append(
                        make(
                            "SIG004",
                            "uninitialized pre in the definition of {}: "
                            "its first value is undefined".format(eq.target),
                            component=comp.name,
                            signal=eq.target,
                            span=eq.span,
                            file=ctx.file,
                        )
                    )
    return out


def rule_hygiene(ctx: _Context) -> List[Diagnostic]:
    """SIG005 (dead locals), SIG006 (unused inputs), SIG007 (undefined)."""
    out: List[Diagnostic] = []
    shared_names = {s.name for s in ctx.shared}
    for comp in ctx.program.components:
        classes = classify_signals(comp)
        read: Set[str] = set()
        for st in comp.statements:
            read |= set(st.free_vars())
        for name in sorted(classes.locals):
            if name in classes.defined and name not in read:
                out.append(
                    make(
                        "SIG005",
                        "local {} is defined but never read".format(name),
                        component=comp.name,
                        signal=name,
                        span=ctx.statement_span(comp, name),
                        file=ctx.file,
                    )
                )
        for name in sorted(classes.inputs):
            if name not in read:
                out.append(
                    make(
                        "SIG006",
                        "input {} is never read".format(name),
                        component=comp.name,
                        signal=name,
                        file=ctx.file,
                    )
                )
        for name in sorted(classes.undefined):
            # a shared signal defined by a sibling component is fine
            if name in shared_names:
                continue
            out.append(
                make(
                    "SIG007",
                    "{} {} has no defining equation".format(
                        "output" if name in classes.outputs else "local",
                        name,
                    ),
                    component=comp.name,
                    signal=name,
                    file=ctx.file,
                )
            )
    return out


# ---------------------------------------------------------------------------
# GALS rules: the network reading of the program
# ---------------------------------------------------------------------------


def _inter_node_cycles(
    program: Program, buffered: Set[Tuple[str, str]]
) -> List[List[str]]:
    """Instantaneous cycles of the *inter-node* dependency graph.

    Nodes are components; an edge ``P -> Q`` exists when ``Q``'s current
    reaction instantaneously depends (input to output, through ``Q``'s own
    equations) on a shared signal produced by ``P`` — unless the
    ``(signal, consumer)`` edge is in ``buffered`` (a FIFO channel cuts
    the instantaneous path, exactly as ``pre`` does within a component).
    """
    produced_by: Dict[str, str] = {}
    for s in shared_signals(program):
        for p in s.producers:
            produced_by.setdefault(s.name, p)

    # per-component: which outputs instantaneously depend on which inputs
    reaches: Dict[str, Dict[str, Set[str]]] = {}
    for comp in program.components:
        graph = dependency_graph(comp, instantaneous=True)
        closure: Dict[str, Set[str]] = {}

        def inputs_reached(sig: str, stack: Set[str]) -> Set[str]:
            if sig in closure:
                return closure[sig]
            if sig in stack:
                return set()
            stack.add(sig)
            deps = set()
            for d in graph.get(sig, ()):  # defined: follow; else a source
                if d in graph:
                    deps |= inputs_reached(d, stack)
                elif d in comp.inputs:
                    deps.add(d)
            stack.discard(sig)
            closure[sig] = deps
            return deps

        reaches[comp.name] = {
            out: inputs_reached(out, set()) for out in comp.outputs
        }

    edges: Dict[str, Set[str]] = {c.name: set() for c in program.components}
    for comp in program.components:
        for out, ins in reaches[comp.name].items():
            for inp in ins:
                producer = produced_by.get(inp)
                if producer is None or producer == comp.name:
                    continue
                if (inp, comp.name) in buffered:
                    continue  # the FIFO cuts the instantaneous path
                edges[comp.name].add(producer)

    return dependency_cycles(edges)


def rule_network_causality(
    ctx: _Context, buffered: Optional[Set[Tuple[str, str]]] = None
) -> List[Diagnostic]:
    """GALS001: instantaneous cycles threaded through FIFO-free edges.

    ``buffered`` is the set of ``(signal, consumer)`` channel edges that
    carry a FIFO (cut).  By default every shared edge of a GALS deployment
    is buffered — the rule then fires only for cycles that remain, i.e.
    cycles through edges left FIFO-free.
    """
    if buffered is None:
        buffered = (
            {(s.name, c) for s in ctx.shared for c in s.consumers}
            if ctx.cut_channels
            else set()
        )
    out: List[Diagnostic] = []
    for cycle in _inter_node_cycles(ctx.program, buffered):
        first = cycle[0]
        out.append(
            make(
                "GALS001",
                "instantaneous cycle across nodes {}: no node can fire "
                "first; insert a FIFO or a pre on one edge".format(
                    " -> ".join(cycle + [first])
                ),
                component=first,
                span=next(
                    (
                        eq.span
                        for eq in ctx.program.component(first).equations()
                        if eq.span is not None
                    ),
                    None,
                ),
                file=ctx.file,
            )
        )
    return out


def rule_buffer_bounds(ctx: _Context) -> List[Diagnostic]:
    """GALS003/GALS004/GALS005: static capacity bounds per channel edge.

    Needs rate assumptions (``--rate``) for the activation inputs and for
    the read-request words of the channels (``<signal>_rreq`` by default,
    or the consumer's own delivery when it is data-driven).  Channels
    whose clocks are not derivable from the assumptions are skipped.

    The per-edge words and bounds come from
    :func:`repro.prove.affine.channel_edge_words` — the same
    producer-to-consumer delivered sweep the flow-equivalence prover
    runs, so lint's bound and the prover's induction can never disagree.
    """
    if not ctx.rates or not ctx.cut_channels:
        return []
    from repro.prove.affine import BOUNDED, UNBOUNDED, channel_edge_words

    out: List[Diagnostic] = []
    for e in channel_edge_words(ctx.program, ctx.rates):
        edge = "{} -> {} : {}".format(e.producer, e.consumer, e.signal)
        if e.status == UNBOUNDED:
            out.append(
                make(
                    "GALS005",
                    "channel {} is unbounded under the assumed rates "
                    "(write rate {} > read rate {})".format(
                        edge, e.write.rate(), e.read.rate()
                    ),
                    component=e.producer,
                    signal=e.signal,
                    file=ctx.file,
                )
            )
        elif e.status == BOUNDED:
            out.append(
                make(
                    "GALS003",
                    "channel {} needs capacity {} (static bound from "
                    "write word {!r}, read word {!r})".format(
                        edge, e.bound, e.write.normalized(),
                        e.read.normalized()
                    ),
                    component=e.producer,
                    signal=e.signal,
                    file=ctx.file,
                )
            )
            declared = ctx.capacities.get(e.signal)
            if declared is not None and declared < e.bound:
                out.append(
                    make(
                        "GALS004",
                        "channel {} declared with capacity {} but the "
                        "static bound is {}".format(edge, declared, e.bound),
                        component=e.producer,
                        signal=e.signal,
                        file=ctx.file,
                    )
                )
    return sorted(out, key=lambda d: (d.signal, d.code, d.message))


def rule_flow_equivalence(ctx: _Context) -> List[Diagnostic]:
    """GALS006/GALS007: escalate the GALS003 bound to a proof verdict.

    When the design is endochronous under the assumed rates and every
    channel's clock words are derivable, the occupancy induction of
    :mod:`repro.prove.affine` turns each bound into a theorem: GALS006
    (info) records that the channel's deployment is flow-equivalent to
    the synchronous source for every input stream at these rates;
    GALS007 (error) records a refutation with the exact first overflow
    instant — replay the witness with ``repro prove --replay``.  The
    rule stays silent when the inductive argument does not apply (the
    model-checking path of ``repro prove`` takes over there).
    """
    if not ctx.rates or not ctx.cut_channels:
        return []
    from repro.prove.affine import (
        BOUNDED,
        UNBOUNDED,
        affine_flow_analysis,
        overflow_instant,
    )

    analysis = affine_flow_analysis(ctx.program, ctx.rates)
    if not (analysis.endochronous and analysis.complete and analysis.edges):
        return []
    out: List[Diagnostic] = []
    for e in analysis.edges:
        edge = "{} -> {} : {}".format(e.producer, e.consumer, e.signal)
        declared = ctx.capacities.get(e.signal)
        if e.status == UNBOUNDED:
            cap = declared if declared is not None else 1
            instant = overflow_instant(e.write, e.read, cap)
            out.append(
                make(
                    "GALS007",
                    "flow equivalence REFUTED for channel {}: no finite "
                    "capacity suffices under the assumed rates; with "
                    "capacity {} the first rejected write is at instant "
                    "{}".format(edge, cap, instant),
                    component=e.producer,
                    signal=e.signal,
                    file=ctx.file,
                )
            )
        elif e.status == BOUNDED and declared is not None and declared < e.bound:
            instant = overflow_instant(e.write, e.read, declared)
            out.append(
                make(
                    "GALS007",
                    "flow equivalence REFUTED for channel {}: deployed "
                    "capacity {} is below the inductive bound {}; the "
                    "first rejected write is at instant {}".format(
                        edge, declared, e.bound, instant
                    ),
                    component=e.producer,
                    signal=e.signal,
                    file=ctx.file,
                )
            )
        elif e.status == BOUNDED:
            where = (
                "capacity {}".format(declared)
                if declared is not None
                else "any capacity >= {}".format(e.bound)
            )
            out.append(
                make(
                    "GALS006",
                    "flow equivalence PROVEN for channel {} at {}: "
                    "inductive occupancy bound {} (write word {!r}, read "
                    "word {!r}); the deployed FIFO never rejects a write "
                    "under the assumed rates".format(
                        edge, where, e.bound, e.write.normalized(),
                        e.read.normalized()
                    ),
                    component=e.producer,
                    signal=e.signal,
                    file=ctx.file,
                )
            )
    return sorted(out, key=lambda d: (d.signal, d.code, d.message))


ALL_RULES = (
    rule_endochrony,
    rule_races,
    rule_causality,
    rule_uninitialized_pre,
    rule_hygiene,
    rule_network_causality,
    rule_buffer_bounds,
    rule_flow_equivalence,
)
