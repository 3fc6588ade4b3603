"""Compilation of finite-state Signal designs to explicit LTSs.

The reactor's memory (``pre`` registers) is the state; for every reachable
state and every *letter* of the chosen input alphabet a reaction is
executed.  Letters whose reaction is inconsistent in a state (clock
violations) are recorded as invalid there.

Finite-state designs only: value-carrying state must stay in a finite
range (e.g. modular counters); the compiler aborts past ``max_states``
otherwise.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import NonDeterministicClockError, SimulationError, VerificationError
from repro.lang.analysis import flatten_program
from repro.lang.ast import Component, Program
from repro.lang.types import BOOL, EVENT, INT
from repro.perf import PERF
from repro.sim.engine import ABSENT, Reactor
from repro.mc.lts import LTS, freeze_letter, freeze_outputs


def input_alphabet(
    component: Component,
    int_values: Sequence[int] = (0, 1),
    always_present: Iterable[str] = (),
    never_present: Iterable[str] = (),
) -> List[Dict[str, object]]:
    """Every combination of input presence and (finite-domain) values.

    - event inputs: absent or present;
    - boolean inputs: absent, ``True`` or ``False``;
    - integer inputs: absent or one of ``int_values``.

    ``always_present`` / ``never_present`` pin inputs and shrink the
    alphabet (use for clocks known to tick every instant, or ports tied
    off in the verification harness).
    """
    always = set(always_present)
    never = set(never_present)
    choices: List[List[Tuple[str, object]]] = []
    for name, ty in component.inputs.items():
        if name in never:
            continue
        if ty is EVENT:
            options: List[Tuple[str, object]] = [(name, True)]
        elif ty is BOOL:
            options = [(name, True), (name, False)]
        elif ty is INT:
            options = [(name, v) for v in int_values]
        else:
            raise VerificationError("cannot enumerate type {}".format(ty))
        if name not in always:
            options = [(name, None)] + options  # None encodes absence
        choices.append(options)
    alphabet = []
    for combo in itertools.product(*choices):
        alphabet.append({n: v for n, v in combo if v is not None})
    return alphabet


def boolean_alphabet(component: Component, **kwargs) -> List[Dict[str, object]]:
    """Alias of :func:`input_alphabet` restricted to 0/1 integer payloads.

    Data values rarely influence control (alarms, occupancy); a binary
    payload keeps the letter count small while still distinguishing flows.
    """
    return input_alphabet(component, int_values=(0, 1), **kwargs)


def _react_outcome(plan, reactor, letter, state, oracle, instant_index, interface):
    """Execute one reaction from ``state``: ``None`` when it is
    inconsistent, else ``(frozen visible outputs, successor state)``."""
    if plan is not None:
        return plan.react_frozen(letter, state, oracle, instant_index, ABSENT)
    reactor.set_state(list(state))
    outputs = reactor.react(letter)
    new_state = reactor.state()
    visible = {k: v for k, v in outputs.items() if k in interface}
    return freeze_outputs(visible), tuple(new_state)


def compile_lts(
    design,
    alphabet: Optional[List[Dict[str, object]]] = None,
    max_states: int = 200000,
    oracle=None,
    store=None,
) -> LTS:
    """Explore the full reachable state space of ``design``.

    ``design`` is a Component or Program (flattened first).  ``alphabet``
    defaults to :func:`boolean_alphabet`.  Raises
    :class:`~repro.errors.VerificationError` when exploration exceeds
    ``max_states`` (the design is not finite-state, or the bound is too
    small) and when the design needs a clock oracle.

    ``store`` (an :class:`repro.mc.store.MCStore`) persists the compiled
    LTS across processes, keyed by design content and alphabet —
    ``max_states`` never changes the result, so it stays out of the key
    (a stored LTS larger than ``max_states`` still raises).
    Oracle-driven compilations bypass the store: an oracle is arbitrary
    code outside the content hash.

    The returned LTS carries exploration counters in ``lts.stats``.
    """
    comp = flatten_program(design) if isinstance(design, Program) else design
    if alphabet is None:
        alphabet = boolean_alphabet(comp)
    if not alphabet:
        alphabet = [{}]
    key = None
    if store is not None and oracle is None:
        from repro.mc.lts import lts_from_dict
        from repro.mc.store import design_content_key, store_key

        key = store_key(
            "explicit-lts",
            design_content_key(comp),
            {"alphabet": alphabet},
        )
        payload = store.get(key, kind="explicit-lts")
        if payload is not None:
            lts = lts_from_dict(payload)
            if lts.num_states() > max_states:
                raise VerificationError(
                    "state space exceeds {} states; "
                    "is the design finite-state?".format(max_states)
                )
            lts.stats["store"] = "hit"
            lts.stats["elapsed"] = 0.0
            return lts
    t0 = time.perf_counter()
    lts = _explore(comp, alphabet, max_states, oracle)
    elapsed = time.perf_counter() - t0
    lts.stats["elapsed"] = elapsed
    PERF.add_time("mc.explore", elapsed)
    PERF.incr("mc.reactions", int(lts.stats.get("reactions", 0)))
    if key is not None:
        from repro.mc.lts import lts_to_dict

        store.put(key, "explicit-lts", lts_to_dict(lts))
        lts.stats["store"] = "miss"
    return lts


def _explore(comp, alphabet, max_states, oracle) -> LTS:
    """Depth-first exploration: every letter in every reachable state."""
    reactor = Reactor(comp, oracle=oracle)
    plan = reactor.plan
    interface = frozenset(comp.inputs) | frozenset(comp.outputs)
    letters = [(letter, freeze_letter(letter)) for letter in alphabet]
    lts = LTS(reactor.state())
    frontier = [lts.initial]
    explored = set()
    reactions = 0
    while frontier:
        sid = frontier.pop()
        if sid in explored:
            continue
        explored.add(sid)
        state = lts.state_data(sid)
        for letter, frozen in letters:
            try:
                outcome = _react_outcome(
                    plan, reactor, letter, state, oracle, reactions, interface
                )
            except NonDeterministicClockError as exc:
                raise VerificationError(
                    "design has free clocks; fix them or supply an oracle: "
                    "{}".format(exc)
                )
            except SimulationError:
                outcome = None
            reactions += 1
            if outcome is None:
                lts.mark_invalid_frozen(sid, frozen)
                continue
            foutputs, target_state = outcome
            target = lts.add_transition_frozen(sid, frozen, foutputs, target_state)
            if target not in explored:
                frontier.append(target)
            if lts.num_states() > max_states:
                raise VerificationError(
                    "state space exceeds {} states; "
                    "is the design finite-state?".format(max_states)
                )
    if plan is not None:
        lts.stats.update(plan.counters_snapshot())
    lts.stats["reactions"] = reactions
    return lts
