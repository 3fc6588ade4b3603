"""The specialized reaction plan is observationally identical to the
interpreter.

The plan (:mod:`repro.sim.specialize`) executes the same monotone
constraint fixpoint as the reference interpreter, only pre-scheduled and
generated; these tests pin the equivalence empirically: instant-for-instant
outputs, state trajectories, rejection behavior (exception type and failing
instant) and oracle interaction must match on random programs and on the
paper's designs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import designs
from repro.designs import modular_producer_consumer
from repro.desync import desynchronize
from repro.errors import SimulationError
from repro.lang import parse_component
from repro.lang.analysis import dependency_graph, flatten_program
from repro.lang.ast import App, Component, Equation, Pre, SyncConstraint, Var
from repro.lang.types import INT
from repro.sim import (
    Interpreter,
    Reactor,
    SpecializedPlan,
    shared_plan,
    simulate_batch,
    stimuli,
)
from repro.sim.runner import simulate
from repro.sim.trace import SimTrace

from tests.test_property_random_programs import random_component, random_stimulus
from tests.test_specialize_batch import _corpus_and_networks


def run_outcome(reactor, rows):
    """(outcome, states) of ``reactor`` over ``rows``; the outcome rows end
    with a rejection marker naming the exception type when the run dies."""
    out = []
    states = [reactor.state()]
    for row in rows:
        try:
            out.append(reactor.react(row))
        except SimulationError as exc:
            out.append(("rejected", type(exc).__name__))
            break
        states.append(reactor.state())
    return out, states


def run_both(comp, rows, oracle=None):
    """:func:`run_outcome` on the interpreter, then on the plan."""
    return [
        run_outcome(
            Reactor(comp, plan=executor(comp), oracle=oracle), rows
        )
        for executor in (Interpreter, SpecializedPlan)
    ]


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
    for executor in (Interpreter, SpecializedPlan):
        reactor = Reactor(comp, plan=executor(comp))
        trace = SimTrace()
        try:
            for row in rows:
                trace.append(reactor.react(row))
        except SimulationError:
            pass
        traces.append(trace.render())
    assert traces[0] == traces[1]


@st.composite
def synced_component(draw):
    """A random component plus one ``^=`` between two of its defined
    signals."""
    comp = draw(random_component().filter(lambda c: len(c.outputs) >= 2))
    pair = draw(
        st.lists(
            st.sampled_from(sorted(comp.outputs)),
            min_size=2, max_size=2, unique=True,
        )
    )
    return comp.with_statements(list(comp.statements) + [SyncConstraint(pair)])


@settings(max_examples=80, deadline=None)
@given(synced_component(), random_stimulus(10))
def test_prop_sync_constraint_executors_agree(comp, rows):
    """The generated sync steps against the oracle: the interpreter, a bare
    ``Reactor`` (the cached specialized plan) and the batch lanes agree on
    outputs, states, the rejecting instant and the exception type.  The
    messages may differ: the plan can meet the conflict first as a clock
    contradiction of a member."""
    ref_out, ref_states = run_outcome(
        Reactor(comp, plan=Interpreter(comp)), rows
    )
    reactor = Reactor(comp)
    assert isinstance(reactor.plan, SpecializedPlan)
    assert run_outcome(reactor, rows) == (ref_out, ref_states)
    rejected = bool(ref_out) and isinstance(ref_out[-1], tuple)
    expected_error = ref_out[-1][1] if rejected else None
    expected_rows = ref_out[:-1] if rejected else ref_out
    report = simulate_batch(comp, [iter(rows), iter(rows)], capture_errors=True)
    for lane in range(2):
        error = report.errors[lane]
        assert (error and error[0]) == expected_error
        assert repr(report.traces[lane].instants) == repr(expected_rows)


@st.composite
def feedback_component(draw):
    """A component whose full data-flow graph has cycles: each signal
    adds up the input, earlier signals, and any signal through ``pre``
    (state feedback, like a FIFO's count register)."""
    names = ["s{}".format(i) for i in range(draw(st.integers(1, 6)))]
    equations = []
    for i, name in enumerate(names):
        operands = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.integers(0, 2))
            if kind == 2:
                operands.append(Pre(0, Var(draw(st.sampled_from(names)))))
            elif kind == 1 and i:
                operands.append(Var(draw(st.sampled_from(names[:i]))))
            else:
                operands.append(Var("a"))
        expr = operands[0]
        for operand in operands[1:]:
            expr = App("+", (expr, operand))
        equations.append(Equation(name, expr))
    return Component("Loop", {"a": INT}, {n: INT for n in names}, {}, equations)


def assert_schedule_follows_scc_order(comp):
    """Each equation of the plan's schedule comes after every equation it
    depends on (``pre`` and clock operands included), unless the two lie
    on one dependency cycle."""
    deps = dependency_graph(comp, instantaneous=False)
    deps = {t: {d for d in ds if d in deps} for t, ds in deps.items()}
    order = [stmt for kind, stmt in SpecializedPlan(comp).schedule if kind == "eq"]
    assert sorted(map(repr, order)) == sorted(map(repr, comp.equations()))

    def reaches(source, target):
        seen, todo = set(), [source]
        while todo:
            n = todo.pop()
            if n == target:
                return True
            if n not in seen:
                seen.add(n)
                todo.extend(deps[n])
        return False

    last = {eq.target: k for k, eq in enumerate(order)}
    for k, eq in enumerate(order):
        for d in deps[eq.target]:
            if not reaches(d, eq.target):  # not on one cycle
                assert last[d] < k, (comp.name, eq.target, d)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        random_component(),
        feedback_component(),
        st.deferred(
            lambda: st.sampled_from([c for _, c in _corpus_and_networks()])
        ),
    ),
    st.data(),
)
def test_prop_schedule_follows_scc_order(comp, data):
    """The schedule is the SCC order of the full data-flow graph, whatever
    the declaration order."""
    statements = data.draw(st.permutations(comp.statements))
    assert_schedule_follows_scc_order(comp.with_statements(statements))


def test_corpus_schedules_follow_scc_order():
    for name, comp in _corpus_and_networks():
        assert_schedule_follows_scc_order(comp)


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
        for executor in (Interpreter, SpecializedPlan):
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
        # the default: the cached specialized plan
        assert Reactor(comp).plan is shared_plan(comp)
        assert Reactor(comp).plan.kind == "plan.spec"


EXECUTORS = (Interpreter, SpecializedPlan)


class TestPlanArgument:
    """``plan=`` picks the executor; the component check is its only
    validation."""

    def test_pickled_interpreter_reacts_identically(self):
        """An interpreter pickles as its component (its registers are
        keyed by node identity, which a pickle does not keep)."""
        import pickle

        comp = flatten_program(designs.producer_consumer())
        rows = [{"p_act": True}, {}, {"p_act": True}, {"p_act": True}]
        own = Reactor(comp, plan=Interpreter(comp))
        shipped = Reactor(comp, plan=pickle.loads(pickle.dumps(own.plan)))
        assert [shipped.react(r) for r in rows] == [own.react(r) for r in rows]
        assert shipped.state() == own.state() != tuple(own.plan.init_state)

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
