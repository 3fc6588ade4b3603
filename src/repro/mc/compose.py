"""Assume-guarantee verification along GALS/FIFO boundaries.

The monolithic backends explore the product state space of a whole
desynchronized design, which grows exponentially with the number of GALS
nodes.  But the designs this repo studies are *networks*: components
coupled only through shared boundary signals (the FIFO ports a
:func:`repro.desync.transform.desynchronize` cut introduces, or any
``P ->x Q`` dependency of Definition 7).  This module verifies a
``never <signal>`` obligation *compositionally*:

1. **Cut** the program at its shared signals (:func:`repro.lang.analysis.
   shared_signals`), orienting each as producer ``->`` consumers.
2. **Contract** each cut signal: :class:`FreeContract` (any value at any
   instant — always sound, assumes nothing) or
   :class:`AlternatingBitContract` (values strictly alternate, first
   ``True`` — the alternating-bit discipline of the A9 ack protocol,
   which is exactly what a toggle producer pushed through lossless FIFO
   stages emits).
3. **Local obligation check**: the component owning the obligation
   signal is verified against the contract *assumptions* of its cut
   inputs (a most-general assumption process replaces each abstracted
   producer) instead of against the real upstream components.
4. **Guarantee checks**: every non-free contract used as an assumption
   is discharged at its producer — the producer plus an *observer*
   component flagging ``<x>__viol`` on the first contract violation is
   verified under the producer's own input contracts (recursively; the
   non-free contract dependency graph must be acyclic — circular
   assume-guarantee is unsound for plain safety).
5. **Compatibility**: every local check's LTS must be deadlock-free —
   a state rejecting *every* environment letter means the contract
   assumption and the component's clock constraints are incompatible,
   and the local verdict would be vacuous.

When every local check passes, :class:`ComposeCertificate` certifies the
global obligation with ``method="compositional"``; the largest explored
state space is the largest *local* one, which is what makes designs far
beyond the monolithic envelope tractable (experiment A13).  Any
inconclusive outcome — refuted local check (the abstraction may be too
coarse), contract cycle, deadlock, unknown owner — falls back to the
monolithic explicit backend, so the certified verdict (and any
counterexample) is byte-identical to what the monolithic path returns.
Soundness of a compositional "proven" is the standard AG argument: the
free/observer-discharged assumptions over-approximate every projection
of the real composition, so the local reachable sets over-approximate
the projected global ones.  Agreement with the monolithic backends is
asserted corpus-wide by ``tests/test_mc_compose.py`` through
:func:`repro.mc.harness.cross_check_never_present`.

All sub-checks run through :func:`repro.mc.compile.compile_lts` and
therefore persist in the :mod:`repro.mc.store` when one is given —
re-verifying after editing one component only re-explores the local
checks whose content key changed.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import VerificationError
from repro.lang.analysis import flatten_program, shared_signals
from repro.lang.ast import Component, Const, Program, pre
from repro.lang.builder import ComponentBuilder
from repro.lang.types import BOOL, EVENT


# -- contracts ----------------------------------------------------------------

class ChannelContract:
    """What a consumer may assume about one cut signal, and what the
    producer must therefore guarantee.

    ``assumption`` returns a most-general environment component *producing*
    the signal under the contract (``None`` = leave the signal a free
    input); ``observer`` returns a monitor component flagging
    ``<signal>__viol`` on the first violation (``None`` = nothing to
    discharge at the producer).
    """

    name = "contract"

    def assumption(self, signal: str, ty) -> Optional[Component]:
        raise NotImplementedError

    def observer(self, signal: str, ty) -> Optional[Component]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return "{}()".format(type(self).__name__)


class FreeContract(ChannelContract):
    """No assumption at all: the cut signal may carry any value at any
    instant.  Always sound, never needs a guarantee check — the default
    for every cut signal."""

    name = "free"

    def assumption(self, signal: str, ty) -> Optional[Component]:
        return None

    def observer(self, signal: str, ty) -> Optional[Component]:
        return None


class AlternatingBitContract(ChannelContract):
    """Values strictly alternate ``True, False, True, ...`` (timing
    free) — the alternating-bit discipline of the A9 ack protocol.

    The assumption process is a toggle register clocked by a fresh free
    event ``<x>__assume_tick``; the observer reuses the ``seen``/``last``
    receiver-dedup registers of :func:`repro.resilience.protocol.
    ack_protocol`: a violation is a first value of ``False`` or any
    repetition of the previous value.  Assumption and observer describe
    the *same* trace set — first value ``True``, then strict alternation
    — which is what makes discharging the observer at the producer
    sufficient to justify the assumption at the consumer.
    """

    name = "alternating"

    def assumption(self, signal: str, ty) -> Optional[Component]:
        if ty is not BOOL:
            raise VerificationError(
                "alternating-bit contract needs a boolean signal; "
                "{!r} has type {}".format(signal, ty)
            )
        b = ComponentBuilder("assume_" + signal)
        tick = b.input(signal + "__assume_tick", EVENT)
        out = b.output(signal, BOOL)
        b.define(out, ~pre(False, out))
        b.sync(out, tick)
        return b.build()

    def observer(self, signal: str, ty) -> Optional[Component]:
        if ty is not BOOL:
            raise VerificationError(
                "alternating-bit contract needs a boolean signal; "
                "{!r} has type {}".format(signal, ty)
            )
        b = ComponentBuilder("observe_" + signal)
        x = b.input(signal, BOOL)
        viol = b.output(signal + "__viol", BOOL)
        seen = b.local("seen", BOOL)
        seenp = b.let("seenp", BOOL, pre(False, seen))
        lastp = b.let("lastp", BOOL, pre(False, x))
        b.define(seen, x | ~x)  # true at every occurrence of x
        bad = b.let("bad", BOOL, (~seenp & ~x) | (seenp & ~(x ^ lastp)))
        b.define(viol, Const(True).when(bad))
        b.sync(x, seen)
        return b.build()


#: registry for string-valued contract specs (service params, CLI)
CONTRACTS = {
    FreeContract.name: FreeContract,
    AlternatingBitContract.name: AlternatingBitContract,
}


def resolve_contract(spec) -> ChannelContract:
    if isinstance(spec, ChannelContract):
        return spec
    if isinstance(spec, str):
        try:
            return CONTRACTS[spec]()
        except KeyError:
            raise ValueError(
                "unknown contract {!r} (known: {})".format(
                    spec, sorted(CONTRACTS)
                )
            )
    raise TypeError("cannot resolve contract from {!r}".format(spec))


# -- certificates -------------------------------------------------------------

class LocalCheck(NamedTuple):
    """One discharged sub-obligation of a compositional proof."""

    kind: str            # "obligation" | "guarantee" | "monolithic"
    component: str       # component under check ("*" for monolithic)
    obligation: str      # the never-signal checked in the sub-program
    states: int          # explored LTS states
    deadlock_free: bool
    holds: bool

    @property
    def label(self) -> str:
        return "{}:{}@{}".format(self.kind, self.obligation, self.component)


class ComposeCertificate(NamedTuple):
    """The outcome of :func:`verify_composed`.

    ``method`` is ``"compositional"`` when the assume-guarantee
    decomposition discharged the obligation from local checks alone, or
    ``"monolithic"`` when it fell back (``reason`` says why).  Either
    way ``verdict``/``counterexample`` match what the monolithic
    explicit backend returns for the same design and environment.
    """

    signal: str
    verdict: str                     # "proven" | "refuted"
    method: str                      # "compositional" | "monolithic"
    checks: Tuple[LocalCheck, ...]
    counterexample: object           # Optional[CounterExample]
    reason: Optional[str]            # why the fallback fired (None if not)

    @property
    def holds(self) -> bool:
        return self.verdict == "proven"

    @property
    def num_checks(self) -> int:
        return len(self.checks)

    @property
    def largest_check_states(self) -> int:
        return max((c.states for c in self.checks), default=0)

    def render(self) -> str:
        lines = [
            "never {}: {} ({})".format(self.signal, self.verdict, self.method)
        ]
        if self.reason:
            lines.append("  fallback: {}".format(self.reason))
        for c in self.checks:
            lines.append(
                "  {:<40} {} [{} states{}]".format(
                    c.label,
                    "ok" if c.holds else "FAILED",
                    c.states,
                    "" if c.deadlock_free else ", DEADLOCK",
                )
            )
        return "\n".join(lines)


# -- decomposition ------------------------------------------------------------

class _Cut(NamedTuple):
    signal: str
    producer: str
    contract: ChannelContract


def _plan_cuts(
    program: Program, contracts: Optional[Dict[str, object]]
) -> Optional[Dict[str, _Cut]]:
    """Orient every shared signal; None when orientation fails (a signal
    with zero or several producers cannot be cut)."""
    given = {
        name: resolve_contract(spec) for name, spec in (contracts or {}).items()
    }
    cuts: Dict[str, _Cut] = {}
    shared_names = set()
    for sig in shared_signals(program):
        shared_names.add(sig.name)
        if len(sig.producers) != 1:
            return None
        cuts[sig.name] = _Cut(
            sig.name, sig.producers[0], given.pop(sig.name, FreeContract())
        )
    if given:
        raise ValueError(
            "contracts name signals that are not cut boundaries: {}".format(
                sorted(given)
            )
        )
    return cuts


def _cut_inputs(comp: Component, cuts: Dict[str, _Cut]) -> List[_Cut]:
    """The cut signals ``comp`` consumes (inputs produced elsewhere)."""
    return [
        cuts[name]
        for name in comp.inputs
        if name in cuts and cuts[name].producer != comp.name
    ]


def _guarantee_closure(
    program: Program, cuts: Dict[str, _Cut], roots: Sequence[str]
) -> Optional[List[_Cut]]:
    """Every non-free cut whose guarantee the checks starting from the
    ``roots`` components transitively rely on, in discharge order; None
    when the reliance graph is cyclic (circular AG is unsound here)."""
    order: List[_Cut] = []
    seen: Dict[str, int] = {}  # component -> 0 in-progress, 1 done

    def visit(comp_name: str) -> bool:
        state = seen.get(comp_name)
        if state == 1:
            return True
        if state == 0:
            return False  # cycle
        seen[comp_name] = 0
        comp = program.component(comp_name)
        for cut in _cut_inputs(comp, cuts):
            if isinstance(cut.contract, FreeContract):
                continue
            if not visit(cut.producer):
                return False
            if all(c.signal != cut.signal for c in order):
                order.append(cut)
        seen[comp_name] = 1
        return True

    for root in roots:
        if not visit(root):
            return None
    return order


# -- verification -------------------------------------------------------------

def verify_composed(
    design,
    signal: str,
    contracts: Optional[Dict[str, object]] = None,
    int_values: Sequence[int] = (0, 1),
    always_present: Sequence[str] = (),
    never_present: Sequence[str] = (),
    max_states: int = 20000,
    store=None,
) -> ComposeCertificate:
    """Certify ``never <signal>`` by assume-guarantee decomposition.

    ``contracts`` maps cut signal names to :class:`ChannelContract`
    instances or registry names (``"free"``/``"alternating"``); unnamed
    cuts default to :class:`FreeContract`.  The alphabet options
    (``int_values``/``always_present``/``never_present``) are applied to
    every sub-check via :func:`repro.mc.compile.input_alphabet` — pinned
    names not appearing in a sub-program are ignored, so the projection
    onto each local interface is automatic — and to the monolithic
    fallback, keeping both sides of the cross-validation in the same
    environment.  ``store`` (see :mod:`repro.mc.store`) persists every
    sub-check's LTS and makes re-certification after a one-component
    edit incremental.
    """
    from repro.mc.compile import compile_lts, input_alphabet
    from repro.mc.safety import check_never_present

    def monolithic(
        reason: Optional[str], checks: List[LocalCheck]
    ) -> ComposeCertificate:
        flat = flatten_program(design)
        alphabet = input_alphabet(
            flat,
            int_values=int_values,
            always_present=always_present,
            never_present=never_present,
        )
        lts = compile_lts(
            flat, alphabet=alphabet, max_states=max_states, store=store
        )
        ce = check_never_present(lts, signal)
        checks = checks + [
            LocalCheck(
                "monolithic", "*", signal, lts.num_states(),
                not lts.deadlocks(), ce is None,
            )
        ]
        return ComposeCertificate(
            signal,
            "proven" if ce is None else "refuted",
            "monolithic",
            tuple(checks),
            ce,
            reason,
        )

    if not isinstance(design, Program) or len(design.components) < 2:
        return monolithic("design is not a multi-component program", [])
    cuts = _plan_cuts(design, contracts)
    if cuts is None:
        return monolithic("a shared signal has no unique producer", [])
    owners = [
        comp.name
        for comp in design.components
        if signal in comp.defined_names()
    ]
    if len(owners) != 1:
        return monolithic(
            "obligation signal {!r} has no unique owning component".format(
                signal
            ),
            [],
        )
    owner = owners[0]

    guarantees = _guarantee_closure(design, cuts, [owner])
    if guarantees is None:
        return monolithic("contract reliance graph is cyclic", [])

    def local_check(
        kind: str, comp: Component, obligation: str, observer: Optional[Component]
    ) -> Tuple[LocalCheck, object]:
        """Run one sub-check; returns (record, counterexample)."""
        members: List[Component] = []
        for cut in _cut_inputs(comp, cuts):
            assume = cut.contract.assumption(
                cut.signal, comp.inputs[cut.signal]
            )
            if assume is not None:
                members.append(assume)
        members.append(comp)
        if observer is not None:
            members.append(observer)
        sub = flatten_program(
            Program("check_{}_{}".format(kind, comp.name), members)
        )
        alphabet = input_alphabet(
            sub,
            int_values=int_values,
            always_present=always_present,
            never_present=never_present,
        )
        lts = compile_lts(
            sub, alphabet=alphabet, max_states=max_states, store=store
        )
        ce = check_never_present(lts, obligation)
        record = LocalCheck(
            kind, comp.name, obligation, lts.num_states(),
            not lts.deadlocks(), ce is None,
        )
        return record, ce

    checks: List[LocalCheck] = []
    try:
        # guarantee discharge order: upstream first, so a failure surfaces
        # at the component actually breaking its contract
        for cut in guarantees:
            producer = design.component(cut.producer)
            ty = producer.signals()[cut.signal]
            record, _ = local_check(
                "guarantee",
                producer,
                cut.signal + "__viol",
                cut.contract.observer(cut.signal, ty),
            )
            checks.append(record)
            if not record.deadlock_free:
                return monolithic(
                    "contract for {!r} is incompatible with {!r} "
                    "(deadlock)".format(cut.signal, cut.producer),
                    checks,
                )
            if not record.holds:
                return monolithic(
                    "{!r} does not guarantee the {} contract on "
                    "{!r}".format(cut.producer, cut.contract.name, cut.signal),
                    checks,
                )
        record, _ = local_check(
            "obligation", design.component(owner), signal, None
        )
        checks.append(record)
        if not record.deadlock_free:
            return monolithic(
                "assumptions are incompatible with {!r} (deadlock)".format(
                    owner
                ),
                checks,
            )
        if not record.holds:
            return monolithic(
                "local check refuted under abstract environment "
                "(possibly spurious)",
                checks,
            )
    except VerificationError as exc:
        return monolithic("local check failed: {}".format(exc), checks)
    return ComposeCertificate(
        signal, "proven", "compositional", tuple(checks), None, None
    )
