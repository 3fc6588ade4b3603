"""Lockstep co-simulation of two designs.

Runs two components/programs against the *same* stimulus, reaction by
reaction, comparing their (projected) outputs at every instant.  This is
the simulation-level counterpart of
:func:`repro.mc.equiv.trace_equivalent`: no state-space bound, any data
domain, but only the behaviors the stimulus exercises.

Typical uses: validating an optimization pass
(``optimize_component``) or a hand refactoring against the original, and
regression-pinning a transformed design on recorded workloads.
"""

from __future__ import annotations

import itertools
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Union,
)

from repro.errors import SimulationError
from repro.lang.analysis import flatten_program
from repro.lang.ast import Component, Program
from repro.sim.engine import Reactor
from repro.sim.trace import SimTrace

if TYPE_CHECKING:
    from repro.tags.behavior import Behavior

View = Callable[[Dict[str, object]], Dict[str, object]]


class Mismatch(NamedTuple):
    instant: int
    inputs: Dict[str, object]
    left: Optional[Dict[str, object]]    # None: reaction rejected
    right: Optional[Dict[str, object]]

    def render(self) -> str:
        return (
            "instant {}: inputs={}\n  left : {}\n  right: {}".format(
                self.instant, self.inputs,
                self.left if self.left is not None else "<rejected>",
                self.right if self.right is not None else "<rejected>",
            )
        )


class CosimReport(NamedTuple):
    instants: int
    mismatches: List[Mismatch]
    left_trace: SimTrace
    right_trace: SimTrace

    @property
    def equivalent(self) -> bool:
        return not self.mismatches


def _shared_outputs_view(left: Component, right: Component) -> View:
    shared = frozenset(left.outputs) & frozenset(right.outputs)

    def view(out: Dict[str, object]) -> Dict[str, object]:
        return {k: v for k, v in out.items() if k in shared}

    return view


class Cosim:
    """Two reactors advanced in lockstep.

    ``view`` projects each reaction's outputs before comparison; by
    default the outputs declared by *both* designs are compared (extra
    signals on either side are ignored).
    """

    def __init__(
        self,
        left: Union[Component, Program],
        right: Union[Component, Program],
        view: Optional[View] = None,
        oracle=None,
    ):
        lc, rc = flatten_program(left), flatten_program(right)
        missing = set(lc.inputs) ^ set(rc.inputs)
        if missing:
            raise ValueError(
                "designs disagree on inputs: {}".format(sorted(missing))
            )
        self.left = Reactor(lc, oracle=oracle)
        self.right = Reactor(rc, oracle=oracle)
        self.view = view or _shared_outputs_view(lc, rc)
        self.instant = 0

    def step(self, inputs: Dict[str, object]):
        """One lockstep reaction; returns ``(left, right, mismatch|None)``.

        A design rejecting the reaction (clock violation) counts as a
        mismatch unless both reject.
        """
        try:
            lo = self.left.react(inputs)
        except SimulationError:
            lo = None
        try:
            ro = self.right.react(inputs)
        except SimulationError:
            ro = None
        mismatch = None
        lv = self.view(lo) if lo is not None else None
        rv = self.view(ro) if ro is not None else None
        if lv != rv:
            mismatch = Mismatch(self.instant, dict(inputs), lv, rv)
        self.instant += 1
        return lo, ro, mismatch

    def run(
        self,
        stimulus: Iterable[Dict[str, object]],
        n: Optional[int] = None,
        stop_at_first: bool = False,
    ) -> CosimReport:
        rows = stimulus if n is None else itertools.islice(stimulus, n)
        lt, rt = SimTrace(), SimTrace()
        mismatches: List[Mismatch] = []
        count = 0
        for row in rows:
            lo, ro, mismatch = self.step(row)
            lt.append(lo or {})
            rt.append(ro or {})
            count += 1
            if mismatch is not None:
                mismatches.append(mismatch)
                if stop_at_first:
                    break
        return CosimReport(count, mismatches, lt, rt)


def cosimulate(
    left: Union[Component, Program],
    right: Union[Component, Program],
    stimulus: Iterable[Dict[str, object]],
    n: Optional[int] = None,
    view: Optional[View] = None,
) -> CosimReport:
    """One-shot co-simulation; see :class:`Cosim`."""
    return Cosim(left, right, view=view).run(stimulus, n=n)


# -- flow-level divergence classification ------------------------------------
#
# Lockstep cosim compares instant by instant; runs of the *asynchronous*
# network have no common instants, so the fault-soak harness compares the
# per-signal flows (value sequences, timing erased — Definition 4) of a
# reference run and a faulted run and names the kind of divergence.

#: Possible per-signal verdicts of :func:`classify_flow_divergence`.
FLOW_EQUIVALENT = "flow-equivalent"
LOST = "lost"                      # subject flow is a proper subsequence
DUPLICATED = "duplicated"          # reference flow is a proper subsequence
ORDER_DIVERGENT = "order-divergent"  # same multiset, different order
VALUE_DIVERGENT = "value-divergent"  # different values altogether


def _is_subsequence(short: Sequence, long: Sequence) -> bool:
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


def classify_flow_divergence(reference: Sequence, subject: Sequence) -> str:
    """Name how ``subject``'s flow diverges from ``reference``'s.

    Flows are per-signal value sequences (timing erased).  Identical
    flows are :data:`FLOW_EQUIVALENT` — by Definition 4 the two behaviors
    restricted to this signal admit a common relaxation.
    """
    reference, subject = list(reference), list(subject)
    if reference == subject:
        return FLOW_EQUIVALENT
    if len(subject) < len(reference) and _is_subsequence(subject, reference):
        return LOST
    if len(subject) > len(reference) and _is_subsequence(reference, subject):
        return DUPLICATED
    if sorted(map(repr, reference)) == sorted(map(repr, subject)):
        return ORDER_DIVERGENT
    return VALUE_DIVERGENT


def compare_flows(
    reference: "Behavior",
    subject: "Behavior",
    signals: Optional[Iterable[str]] = None,
) -> Dict[str, str]:
    """Per-signal divergence classes between two behaviors.

    ``signals`` defaults to the union of both domains; a signal missing
    on one side compares against the empty flow.
    """
    if signals is None:
        names = sorted(set(reference.vars()) | set(subject.vars()))
    else:
        names = list(signals)
    out: Dict[str, str] = {}
    for name in names:
        ref = reference[name].values() if name in reference else ()
        sub = subject[name].values() if name in subject else ()
        out[name] = classify_flow_divergence(ref, sub)
    return out
