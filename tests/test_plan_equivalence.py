"""The compiled reaction plan is observationally identical to the interpreter.

The plan (:mod:`repro.sim.plan`) executes the same monotone constraint
fixpoint as the reference interpreter, only pre-scheduled; these tests pin
the equivalence empirically: instant-for-instant outputs, state
trajectories, rejection behavior (exception type and failing instant) and
oracle interaction must match on random programs and on the paper's
designs.
"""

import pytest
from hypothesis import given, settings

from repro import designs
from repro.designs import modular_producer_consumer
from repro.desync import desynchronize
from repro.errors import NonDeterministicClockError, SimulationError
from repro.lang import parse_component
from repro.lang.analysis import flatten_program
from repro.sim import Interpreter, ReactionPlan, Reactor, SpecializedPlan, stimuli
from repro.sim.runner import simulate
from repro.sim.trace import SimTrace

from tests.test_property_random_programs import random_component, random_stimulus


def run_both(comp, rows, oracle=None):
    """(outcome, states) on the interpreter, then on the plan; outcome
    rows end with a rejection marker naming the exception type when the
    run dies."""
    results = []
    for executor in (Interpreter, ReactionPlan):
        reactor = Reactor(comp, check=False, plan=executor(comp), oracle=oracle)
        out = []
        states = [reactor.state()]
        for row in rows:
            try:
                out.append(reactor.react(row))
            except NonDeterministicClockError:
                out.append("needs-oracle")
                break
            except SimulationError:
                out.append("rejected")
                break
            states.append(reactor.state())
        results.append((out, states))
    return results


@settings(max_examples=80, deadline=None)
@given(random_component(), random_stimulus(12))
def test_prop_plan_matches_interpreter(comp, rows):
    (ref_out, ref_states), (plan_out, plan_states) = run_both(comp, rows)
    assert plan_out == ref_out
    assert plan_states == ref_states


@settings(max_examples=40, deadline=None)
@given(random_component(), random_stimulus(10))
def test_prop_plan_trace_render_identical(comp, rows):
    """Full rendered traces (the user-visible artifact) are byte-identical."""
    traces = []
    for executor in (Interpreter, ReactionPlan):
        reactor = Reactor(comp, check=False, plan=executor(comp))
        trace = SimTrace()
        try:
            for row in rows:
                trace.append(reactor.react(row))
        except SimulationError:
            pass
        traces.append(trace.render())
    assert traces[0] == traces[1]


class TestPaperDesigns:
    def test_fig3_desync_traces_byte_identical(self):
        res = desynchronize(modular_producer_consumer(modulus=3), capacities=2)
        rows = list(
            stimuli.take(
                stimuli.merge(
                    stimuli.bursty("p_act", burst=2, gap=1),
                    stimuli.periodic("x_rreq", 2),
                ),
                40,
            )
        )
        ref = simulate(res.program, rows, reactor=None)
        comp = flatten_program(res.program)
        interp = Reactor(comp, plan=Interpreter(comp))
        trace = SimTrace()
        for row in rows:
            trace.append(interp.react(row))
        assert ref.instants == trace.instants
        assert ref.render() == trace.render()

    def test_oracle_driven_free_clock_matches(self):
        comp = parse_component(
            "process Cell = (? integer msgin; ! integer msgout;)"
            "(| data := msgin default (pre 0 data)"
            " | msgout := data when ^msgout |)"
            " where integer data; end"
        )

        def oracle(t, undetermined):
            return {"msgout": t % 2 == 1}

        rows = [{"msgin": 3}, {}, {"msgin": 8}, {}]
        (ref_out, ref_states), (plan_out, plan_states) = run_both(
            comp, rows, oracle=oracle
        )
        assert plan_out == ref_out
        assert plan_states == ref_states
        assert [o.get("msgout") for o in plan_out] == [None, 3, None, 8]

    def test_inconsistent_reaction_rejected_in_both_modes(self):
        comp = parse_component(
            "process C = (? integer a; ? integer b; ! integer x;)"
            "(| x := b | x ^= a |) end"
        )
        for executor in (Interpreter, ReactionPlan):
            reactor = Reactor(comp, plan=executor(comp))
            with pytest.raises(SimulationError):
                reactor.react({"a": 1})

    def test_interpreter_passed_as_plan(self):
        comp = parse_component(
            "process P = (? integer a; ! integer x;) (| x := a + 1 |) end"
        )
        reactor = Reactor(comp, plan=Interpreter(comp))
        assert reactor.plan.kind == "interp"
        assert reactor.react({"a": 2}) == {"a": 2, "x": 3}
        assert Reactor(comp).plan.kind == "plan"  # the default: closure plan


EXECUTORS = (Interpreter, ReactionPlan, SpecializedPlan)


class TestPlanArgument:
    """``plan=`` picks the executor; the component check is its only
    validation."""

    @pytest.mark.parametrize("executor", EXECUTORS, ids=lambda e: e.__name__)
    def test_plan_of_another_component_rejected(self, executor):
        a = flatten_program(designs.producer_consumer())
        b = flatten_program(designs.producer_accumulator())
        with pytest.raises(
            SimulationError, match="plan was compiled for another component"
        ):
            Reactor(a, plan=executor(b))

    @pytest.mark.parametrize("executor", EXECUTORS, ids=lambda e: e.__name__)
    def test_plan_of_structurally_equal_component_accepted(self, executor):
        a = flatten_program(designs.producer_consumer())
        b = flatten_program(designs.producer_consumer())
        assert a is not b
        rows = [{"p_act": True}, {}, {"p_act": True}, {"p_act": True}]
        own = Reactor(a, plan=executor(a))
        shared = Reactor(a, plan=executor(b))
        assert [shared.react(r) for r in rows] == [own.react(r) for r in rows]
        assert shared.state() == own.state()
