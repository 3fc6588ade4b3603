"""Labeled transition systems produced by compiling Signal components.

States are the contents of the ``pre`` registers; a transition fires one
reaction: its *letter* is the input assignment (a frozen mapping of input
names to values — absent inputs missing) and it carries the reaction's
visible outputs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Mapping, NamedTuple, Optional, Tuple

Letter = Tuple[Tuple[str, object], ...]  # canonical frozen input assignment
Outputs = Tuple[Tuple[str, object], ...]


def freeze_letter(inputs: Mapping[str, object]) -> Letter:
    return tuple(sorted(inputs.items()))


def freeze_outputs(outputs: Mapping[str, object]) -> Outputs:
    return tuple(sorted(outputs.items()))


class Transition(NamedTuple):
    source: int
    letter: Letter
    outputs: Outputs
    target: int

    def letter_dict(self) -> Dict[str, object]:
        return dict(self.letter)

    def outputs_dict(self) -> Dict[str, object]:
        return dict(self.outputs)


class LTS:
    """An explicit, deterministic LTS.

    ``states`` maps a state id to the underlying reactor memory; the
    transition relation is total over the *valid* letters of each state
    (letters whose reaction is consistent); letters that raise clock
    violations in a state are listed in ``invalid``.
    """

    def __init__(self, initial_state_data):
        self._data_of: List[object] = []
        self._id_of: Dict[object, int] = {}
        self._succ: Dict[int, Dict[Letter, Transition]] = {}
        self.invalid: Dict[int, List[Letter]] = {}
        self.initial = self.intern(initial_state_data)

    # -- construction -------------------------------------------------------

    def intern(self, state_data) -> int:
        if state_data in self._id_of:
            return self._id_of[state_data]
        sid = len(self._data_of)
        self._data_of.append(state_data)
        self._id_of[state_data] = sid
        self._succ[sid] = {}
        self.invalid[sid] = []
        return sid

    def add_transition(
        self,
        source: int,
        letter: Mapping[str, object],
        outputs: Mapping[str, object],
        target_data,
    ) -> int:
        target = self.intern(target_data)
        lt = freeze_letter(letter)
        self._succ[source][lt] = Transition(
            source, lt, freeze_outputs(outputs), target
        )
        return target

    def add_transition_frozen(
        self,
        source: int,
        letter: Letter,
        outputs: Outputs,
        target_data,
    ) -> int:
        """Like :meth:`add_transition` for pre-frozen letters/outputs —
        the compiler's hot path (letters freeze once per alphabet, not
        once per reaction)."""
        target = self.intern(target_data)
        self._succ[source][letter] = Transition(source, letter, outputs, target)
        return target

    def mark_invalid(self, source: int, letter: Mapping[str, object]) -> None:
        self.invalid[source].append(freeze_letter(letter))

    def mark_invalid_frozen(self, source: int, letter: Letter) -> None:
        self.invalid[source].append(letter)

    # -- access ---------------------------------------------------------------

    def state_data(self, sid: int):
        return self._data_of[sid]

    def num_states(self) -> int:
        return len(self._data_of)

    def num_transitions(self) -> int:
        return sum(len(t) for t in self._succ.values())

    def successors(self, sid: int) -> Iterator[Transition]:
        return iter(self._succ[sid].values())

    def step(self, sid: int, letter: Mapping[str, object]) -> Optional[Transition]:
        return self._succ[sid].get(freeze_letter(letter))

    def letters(self, sid: int) -> FrozenSet[Letter]:
        return frozenset(self._succ[sid])

    def transitions(self) -> Iterator[Transition]:
        for succ in self._succ.values():
            for t in succ.values():
                yield t

    def deadlocks(self) -> List[int]:
        """States with no valid reaction at all (every letter rejected)."""
        return [sid for sid, succ in self._succ.items() if not succ]

    def __repr__(self) -> str:
        return "LTS({} states, {} transitions)".format(
            self.num_states(), self.num_transitions()
        )


# -- serialization ------------------------------------------------------------
#
# JSON interchange for compiled LTSs, so the on-disk verification store
# (:mod:`repro.mc.store`) can persist exploration results across runs.
# JSON has no tuples, so state data and letters are round-tripped through
# a recursive freeze; state ids are positional (the compiler always
# interns the initial state as id 0, which `lts_to_dict` asserts).

LTS_FORMAT = "lts-v1"


def _freeze(value):
    """Recursively turn JSON lists back into the tuples the reactor uses."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def lts_to_dict(lts: "LTS") -> Dict[str, object]:
    """Serialize an LTS to a JSON-safe dict (see :func:`lts_from_dict`)."""
    if lts.initial != 0:
        raise ValueError("serializable LTSs intern the initial state first")
    return {
        "format": LTS_FORMAT,
        "states": [lts._data_of[sid] for sid in range(lts.num_states())],
        "transitions": [
            [t.source, list(t.letter), list(t.outputs), t.target]
            for sid in range(lts.num_states())
            for t in lts._succ[sid].values()
        ],
        "invalid": [
            [sid, [list(lt) for lt in letters]]
            for sid, letters in sorted(lts.invalid.items())
            if letters
        ],
    }


def lts_from_dict(payload: Dict[str, object]) -> "LTS":
    """Rebuild an LTS serialized by :func:`lts_to_dict`.

    The reconstruction interns states in id order, so state numbering —
    and therefore every downstream counterexample — is identical to the
    original compile.  A ``stats`` field, which older entries carry, is
    ignored.
    """
    if payload.get("format") != LTS_FORMAT:
        raise ValueError(
            "unsupported LTS format {!r} (want {!r})".format(
                payload.get("format"), LTS_FORMAT
            )
        )
    states = payload["states"]
    lts = LTS(_freeze(states[0]))
    for data in states[1:]:
        lts.intern(_freeze(data))
    for source, letter, outputs, target in payload["transitions"]:
        frozen_letter = tuple((n, v) for n, v in letter)
        frozen_outputs = tuple((n, v) for n, v in outputs)
        lts.add_transition_frozen(
            source, frozen_letter, frozen_outputs, lts.state_data(target)
        )
    for sid, letters in payload.get("invalid", ()):
        for letter in letters:
            lts.mark_invalid_frozen(sid, tuple((n, v) for n, v in letter))
    return lts
