"""Bounded model checking: depth-limited search without state hashing.

:func:`compile_lts` needs a finite state space; designs with unbounded
counters (every :func:`repro.designs.producer`) are out of its reach.
Bounded model checking sidesteps that: explore *all input sequences up to
depth k* directly on the reactor, reporting any invariant violation found
— a complete refutation procedure up to the bound (and a proof for
systems whose relevant behavior provably settles within it).

States reached along different input sequences are not merged by default,
so complexity is ``|alphabet| ** depth``; the optional ``prune_states``
flag turns on memoization of (state, depth-remaining) pairs, which is
sound for violation-finding and usually collapses the search back to the
reachable-state count when the design happens to be finite-state after
all.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import NonDeterministicClockError, SimulationError, VerificationError
from repro.lang.analysis import flatten_program
from repro.mc.compile import boolean_alphabet
from repro.mc.safety import CounterExample
from repro.sim.engine import Reactor


class BMCResult:
    """Outcome of a bounded search."""

    def __init__(self, depth: int, explored: int, counterexample=None):
        self.depth = depth
        self.explored = explored  # reactions executed
        self.counterexample: Optional[CounterExample] = counterexample

    @property
    def safe_up_to_bound(self) -> bool:
        return self.counterexample is None

    def __repr__(self):
        return "BMCResult(depth={}, explored={}, {})".format(
            self.depth,
            self.explored,
            "safe up to bound" if self.safe_up_to_bound else "VIOLATED",
        )


def bounded_check(
    design,
    predicate,
    depth: int,
    alphabet: Optional[Sequence[Dict[str, object]]] = None,
    prune_states: bool = True,
    max_reactions: int = 2000000,
    oracle=None,
    name: str = "invariant",
) -> BMCResult:
    """Does ``predicate(outputs)`` hold on every reaction of every input
    sequence of length <= ``depth``?

    Returns a :class:`BMCResult`; its counterexample (when present) is a
    shortest-by-construction violating input sequence (the search is
    iterative-deepening breadth-first over sequence length).
    """
    comp = flatten_program(design)
    if alphabet is None:
        alphabet = boolean_alphabet(comp)
    if not alphabet:
        alphabet = [{}]
    reactor = Reactor(comp, oracle=oracle)
    initial = reactor.state()

    explored = 0
    # breadth-first over depths so the first violation is shortest
    frontier: List[Tuple[Tuple, List[Dict[str, object]], List[Dict[str, object]]]] = [
        (initial, [], [])
    ]
    seen: Set[Tuple[Tuple, int]] = set()
    for level in range(depth):
        next_frontier = []
        for state, inputs, outputs in frontier:
            for letter in alphabet:
                reactor.set_state(list(state))
                try:
                    out = reactor.react(letter)
                except NonDeterministicClockError as exc:
                    raise VerificationError(
                        "design has free clocks: {}".format(exc)
                    )
                except SimulationError:
                    continue  # letter invalid in this state
                explored += 1
                if explored > max_reactions:
                    raise VerificationError(
                        "bounded search exceeded {} reactions; lower the "
                        "depth or prune".format(max_reactions)
                    )
                new_inputs = inputs + [dict(letter)]
                new_outputs = outputs + [dict(out)]
                if not predicate(out):
                    return BMCResult(
                        depth,
                        explored,
                        CounterExample(
                            new_inputs,
                            new_outputs,
                            "{} violated by outputs {}".format(name, out),
                        ),
                    )
                new_state = reactor.state()
                if prune_states:
                    key = (new_state, level)
                    if key in seen:
                        continue
                    seen.add(key)
                next_frontier.append((new_state, new_inputs, new_outputs))
        frontier = next_frontier
        if not frontier:
            break
    return BMCResult(depth, explored, None)


def bounded_never_present(
    design, signal: str, depth: int, **kwargs
) -> BMCResult:
    """Bounded version of the paper's obligation: ``signal`` never occurs
    within ``depth`` reactions."""
    return bounded_check(
        design,
        lambda out: signal not in out,
        depth,
        name="never {}".format(signal),
        **kwargs,
    )
