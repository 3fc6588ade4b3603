"""The closed estimation/verification loop of Section 5.2.

    "Verification of the desynchronized design consists of checking that
     no alarm signal is raised.  In case of failing to prove this, the
     error trace may help us finding the input sequence resulting in
     alarm.  This input can be added to our simulation data.  Then, we can
     re-iterate the process by simulating with the new test-data,
     estimating the sufficient buffer size and coming back to the
     verification phase."

:func:`verified_buffer_sizes` implements exactly that feedback loop:
estimate with the instrumented FIFOs, model-check "no alarm", and on
failure prepend the counterexample's input sequence to the simulation
data and iterate.  The environment assumption is the model checker's input
alphabet (which inputs can arrive together); without any assumption a
finite buffer can always be overflowed, and the loop reports
``proven=False`` with the surviving counterexample.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Union

from repro.lang.ast import Program
from repro.mc.compile import compile_lts
from repro.mc.safety import CounterExample, check_never_present
from repro.desync.estimator import EstimationReport, estimate_buffer_sizes
from repro.desync.transform import desynchronize


class VerificationRound(NamedTuple):
    round: int
    estimation: EstimationReport
    sizes: Dict[str, int]
    states: int
    counterexample: Optional[CounterExample]  # None: proven this round


class VerifiedSizes(NamedTuple):
    proven: bool
    sizes: Dict[str, int]
    rounds: List[VerificationRound]
    counterexample: Optional[CounterExample]  # surviving CE when not proven

    def render(self) -> str:
        lines = []
        for r in self.rounds:
            verdict = (
                "PROVEN" if r.counterexample is None
                else "alarm reachable in {} instants".format(len(r.counterexample))
            )
            lines.append(
                "round {}: sizes={} states={} -> {}".format(
                    r.round,
                    {k: v for k, v in sorted(r.sizes.items())},
                    r.states,
                    verdict,
                )
            )
        lines.append(
            "result: {} with sizes {}".format(
                "PROVEN" if self.proven else "NOT proven",
                {k: v for k, v in sorted(self.sizes.items())},
            )
        )
        return "\n".join(lines)


def verified_buffer_sizes(
    program: Program,
    stimulus_factory: Callable[[], Iterable[Dict[str, object]]],
    horizon: int,
    alphabet: List[Dict[str, object]],
    initial: Union[int, Dict[str, int]] = 1,
    max_rounds: int = 4,
    max_estimation_iterations: int = 16,
    kind: str = "direct",
    max_states: int = 200000,
) -> VerifiedSizes:
    """Estimate buffer sizes, then prove them; feed error traces back.

    ``alphabet`` is the environment assumption: the set of input letters
    the model checker may play (e.g. "every write instant is also a read
    instant").  ``stimulus_factory`` is the designer's simulation data; at
    each failed round the counterexample inputs are prepended to it, as
    the paper prescribes.  The simulation data must drive each channel's
    read request, ``<x>_rreq``.

    Each round's estimation starts at the sizes the previous round ended
    on.  Its networks' plans come from the process-wide plan cache
    (:func:`repro.sim.plan.shared_plan`), so a sizes vector that an
    earlier round simulated compiles nothing again.

    Each round checks the channels' alarms in channel order and stops at
    the first counterexample; that channel's error trace is the one fed
    back.  A design with no channel has no alarm and is proven in round 1.
    """
    rounds: List[VerificationRound] = []
    stim_factory = stimulus_factory
    sizes: Dict[str, int] = {}
    last_ce: Optional[CounterExample] = None
    # No LTS is kept across rounds: a counterexample alarms in simulation
    # at the sizes that produced it, so the next round always checks
    # larger sizes.
    for rnd in range(1, max_rounds + 1):
        estimation = estimate_buffer_sizes(
            program,
            stim_factory,
            horizon=horizon,
            initial=sizes if sizes else initial,
            max_iterations=max_estimation_iterations,
            kind=kind,
        )
        sizes = dict(estimation.sizes)
        sized = desynchronize(program, capacities=sizes, kind=kind)
        lts = compile_lts(sized.program, alphabet=alphabet, max_states=max_states)
        ce: Optional[CounterExample] = None
        for ch in sized.channels:
            ce = check_never_present(lts, ch.alarm)
            if ce is not None:
                break
        rounds.append(
            VerificationRound(rnd, estimation, dict(sizes), lts.num_states(), ce)
        )
        if ce is None:
            return VerifiedSizes(True, sizes, rounds, None)
        last_ce = ce
        # the paper's feedback: add the error trace to the simulation data
        ce_rows = [dict(row) for row in ce.inputs]
        prev_factory = stim_factory

        def stim_factory(_rows=ce_rows, _prev=prev_factory):
            return itertools.chain(iter(_rows), _prev())

    return VerifiedSizes(False, sizes, rounds, last_ce)
