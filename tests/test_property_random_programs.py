"""Property-based conformance: the reaction engine vs the denotational
semantics, on randomly generated well-typed programs.

The generator builds acyclic components (each equation only references
inputs and earlier-defined signals), so every right-hand side can be
evaluated bottom-up by :func:`repro.tags.denotation.denote_expression` —
an independent implementation of the semantics.  The property: whenever
the operational engine accepts a reaction sequence, the trace of every
defined signal equals its denotational value over the same behavior.

Programs whose clock constraints a random stimulus violates are legal
rejections (``SimulationError``), not failures; the test distinguishes
the two.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.lang.ast import App, ClockOf, Component, Const, Default, Equation, Pre, Var, When
from repro.lang.typecheck import check_component
from repro.lang.types import BOOL, EVENT, INT
from repro.sim import Interpreter, Reactor, SpecializedPlan, stimuli
from repro.sim.trace import SimTrace
from repro.tags.denotation import denote_expression

INPUTS = {"a": INT, "b": INT, "c": BOOL, "d": BOOL, "e": EVENT}

INT_OPS = ["+", "-", "*", "min", "max"]
BOOL_OPS = ["and", "or", "xor"]
CMP_OPS = ["<", "<=", ">", ">=", "=="]


def _chameleon(expr):
    """Can this expression's clock adapt to any context (constant-like)?

    Such expressions are legal operands but have no standalone denotation
    (their clock is whatever the context imposes); the generator avoids
    putting them where that would be degenerate (under `pre`, as a
    `default` left branch, or as a whole equation body).
    """
    if isinstance(expr, Const):
        return True
    if isinstance(expr, Default):
        return _chameleon(expr.left)
    if isinstance(expr, When):
        return _chameleon(expr.expr) and _chameleon(expr.cond)
    if isinstance(expr, App):
        return all(_chameleon(a) for a in expr.args)
    if isinstance(expr, ClockOf):
        return _chameleon(expr.expr)
    return False


@st.composite
def typed_expr(draw, ty, env, depth):
    """A random expression of type ``ty`` over typed names ``env``."""
    names = [n for n, t in env.items() if t is ty or (ty is BOOL and t is EVENT)]
    leaf_choices = []
    if names:
        leaf_choices.append(st.sampled_from(sorted(names)).map(Var))
    if ty is INT:
        leaf_choices.append(st.integers(-4, 4).map(Const))
    else:
        leaf_choices.append(st.booleans().map(Const))
    leaf = st.one_of(*leaf_choices)
    if depth <= 0:
        return draw(leaf)
    kind = draw(st.integers(0, 6))
    if kind == 0:
        return draw(leaf)
    if kind == 1:  # pre
        inner = draw(typed_expr(ty, env, depth - 1))
        if _chameleon(inner):
            return inner  # pre of a constant-like expression has no clock
        init = draw(st.integers(-4, 4)) if ty is INT else draw(st.booleans())
        return Pre(init, inner)
    if kind == 2:  # when
        base = draw(typed_expr(ty, env, depth - 1))
        cond = draw(typed_expr(BOOL, env, depth - 1))
        return When(base, cond)
    if kind == 3:  # default
        left = draw(typed_expr(ty, env, depth - 1))
        right = draw(typed_expr(ty, env, depth - 1))
        # A constant-like (context-clocked) operand is only comparable
        # between the engine and the bottom-up denotation when it sits on
        # the left (where it shadows the merge into a plain chameleon);
        # on the right it means "fill at whatever clock the context
        # imposes", which a bottom-up evaluator cannot express.
        if _chameleon(right) and not _chameleon(left):
            left, right = right, left
        return Default(left, right)
    if ty is INT:
        op = draw(st.sampled_from(INT_OPS))
        return App(op, (
            draw(typed_expr(INT, env, depth - 1)),
            draw(typed_expr(INT, env, depth - 1)),
        ))
    if kind == 4:
        op = draw(st.sampled_from(CMP_OPS))
        return App(op, (
            draw(typed_expr(INT, env, depth - 1)),
            draw(typed_expr(INT, env, depth - 1)),
        ))
    if kind == 5:
        return App("not", (draw(typed_expr(BOOL, env, depth - 1)),))
    op = draw(st.sampled_from(BOOL_OPS))
    return App(op, (
        draw(typed_expr(BOOL, env, depth - 1)),
        draw(typed_expr(BOOL, env, depth - 1)),
    ))


@st.composite
def random_component(draw):
    env = dict(INPUTS)
    equations = []
    outputs = {}
    n_eqs = draw(st.integers(1, 4))
    for i in range(n_eqs):
        ty = draw(st.sampled_from([INT, BOOL]))
        expr = draw(typed_expr(ty, env, depth=draw(st.integers(1, 3))))
        if _chameleon(expr):
            # constant-like bodies have free clocks; anchor to an input
            expr = When(Const(draw(st.integers(0, 3))), Var("c"))
            ty = INT
        name = "x{}".format(i)
        env[name] = ty
        outputs[name] = ty
        equations.append(Equation(name, expr))
    comp = Component("Rand", INPUTS, outputs, {}, equations)
    check_component(comp)
    return comp


@st.composite
def random_stimulus(draw, n):
    rows = []
    for _ in range(n):
        row = {}
        if draw(st.booleans()):
            row["a"] = draw(st.integers(-3, 3))
        if draw(st.booleans()):
            row["b"] = draw(st.integers(-3, 3))
        if draw(st.booleans()):
            row["c"] = draw(st.booleans())
        if draw(st.booleans()):
            row["d"] = draw(st.booleans())
        if draw(st.booleans()):
            row["e"] = True
        rows.append(row)
    return rows


@settings(max_examples=60, deadline=None)
@given(random_component(), random_stimulus(12))
def test_prop_engine_matches_denotation(comp, rows):
    reactor = Reactor(comp, check=False)
    trace = SimTrace()
    try:
        for row in rows:
            trace.append(reactor.react(row))
    except SimulationError:
        return  # clock-inconsistent reaction: a legal rejection
    behavior = trace.behavior(list(comp.signals()))
    for eq in comp.equations():
        try:
            expected = denote_expression(eq.expr, behavior)
        except ValueError:
            # The equation's strict denotation is empty/undefined on this
            # behavior (e.g. a clock-inconsistent sub-expression inside a
            # `default` branch the lazy engine never had to evaluate).
            # The engine is deliberately more permissive there; nothing to
            # compare.
            continue
        assert behavior[eq.target] == expected, (
            "engine disagrees with denotation on {!r}".format(eq)
        )


@settings(max_examples=60, deadline=None)
@given(random_component(), random_stimulus(10))
def test_prop_interpreter_plan_specialized_batch_agree(comp, rows):
    """The five execution paths — reference interpreter, compiled plan,
    specialized generated code, the same code shipped through a pickle,
    batched lanes (on the specialized plan and on the interpreter) —
    produce identical traces: same presence statuses (a signal is in the
    row iff present), same values, same rejection errors."""
    import pickle

    from repro.sim.batch import simulate_batch

    def run(reactor):
        out = []
        try:
            for row in rows:
                out.append(reactor.react(row))
        except SimulationError as exc:
            out.append(("rejected", type(exc).__name__, str(exc)))
        return out

    ref = run(Reactor(comp, check=False, plan=Interpreter(comp)))
    plan_out = run(Reactor(comp, check=False))
    spec = Reactor(comp, check=False, plan=SpecializedPlan(comp))
    assert spec.plan.fallback_steps == 0  # every step is generated code
    spec_out = run(spec)
    shipped = pickle.loads(pickle.dumps(spec.plan))
    assert shipped.fallback_steps == 0
    shipped_out = run(Reactor(comp, check=False, plan=shipped))
    assert repr(plan_out) == repr(ref)
    assert repr(spec_out) == repr(ref)
    assert repr(shipped_out) == repr(ref)

    rejected = bool(ref) and isinstance(ref[-1], tuple)
    rows_ok = ref[:-1] if rejected else ref
    report = simulate_batch(comp, [iter(rows), iter(rows)], capture_errors=True)
    for lane in range(2):
        if rejected:
            assert report.errors[lane] == (ref[-1][1], ref[-1][2])
        else:
            assert report.errors[lane] is None
        assert repr(report.traces[lane].instants) == repr(rows_ok)
    interp = simulate_batch(
        comp, [iter(rows), iter(rows)], plan=Interpreter(comp),
        capture_errors=True,
    )
    assert interp.errors == report.errors
    for lane in range(2):
        assert repr(interp.traces[lane].instants) == repr(
            report.traces[lane].instants
        )


@settings(max_examples=40, deadline=None)
@given(random_component(), random_stimulus(10))
def test_prop_engine_deterministic(comp, rows):
    def run():
        reactor = Reactor(comp, check=False)
        out = []
        try:
            for row in rows:
                out.append(reactor.react(row))
        except SimulationError:
            out.append("rejected")
        return out

    assert run() == run()


@settings(max_examples=40, deadline=None)
@given(random_component(), random_stimulus(10))
def test_prop_state_roundtrip(comp, rows):
    """Saving and restoring engine state replays identically."""
    reactor = Reactor(comp, check=False)
    outs = []
    states = [reactor.state()]
    try:
        for row in rows:
            outs.append(reactor.react(row))
            states.append(reactor.state())
    except SimulationError:
        return
    for i, row in enumerate(rows):
        reactor.set_state(list(states[i]))
        assert reactor.react(row) == outs[i]


@settings(max_examples=50, deadline=None)
@given(random_component())
def test_prop_printer_roundtrip_components(comp):
    from repro.lang import format_component, parse_component

    again = parse_component(format_component(comp))
    assert list(again.statements) == list(comp.statements)
    assert again.inputs == comp.inputs and again.outputs == comp.outputs


@settings(max_examples=50, deadline=None)
@given(random_component())
def test_prop_clock_analysis_total(comp):
    """The clock calculus accepts every generated component."""
    from repro.clocks import analyze_clocks

    analysis = analyze_clocks(comp)
    assert set(comp.signals()) <= set(analysis.rep)


def test_null_clocked_default_left_defers_to_constant_right():
    """Regression: ``(0 when false) default 0`` is the context-clocked
    constant 0 — `when false` has the null clock, so the merge must defer
    to the constant right instead of concretizing it to the empty trace.
    Found by the engine-vs-denotation property above.
    """
    comp = Component(
        "Regress",
        INPUTS,
        {"x0": INT},
        {},
        (
            Equation(
                "x0",
                When(
                    Default(When(Const(0), Const(False)), Const(0)),
                    Var("e"),
                ),
            ),
        ),
    )
    check_component(comp)
    reactor = Reactor(comp, check=False)
    trace = SimTrace()
    rows = [{} for _ in range(11)] + [{"e": True}]
    for row in rows:
        trace.append(reactor.react(row))
    behavior = trace.behavior(list(comp.signals()))
    (eq,) = comp.equations()
    assert behavior["x0"] == denote_expression(eq.expr, behavior)
    assert behavior["x0"].values() == (0,)
