"""Tests for the symbolic (BDD) verification backend."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.clocks import analyze_clocks
from repro.desync import one_place_fifo, n_fifo_chain
from repro.errors import VerificationError
from repro.lang import parse_component
from repro.lang.ast import App, Component, Const, Default, Equation, Pre, Var, When
from repro.lang.typecheck import check_component
from repro.lang.types import BOOL, EVENT
from repro.mc import check_never_present, compile_lts
from repro.mc.harness import never_present_verdicts
from repro.mc.symbolic import SymbolicChecker, boolean_core
from repro.sim import simulate
from tests.test_property_random_programs import _chameleon, typed_expr

TOGGLER = (
    "process T = (? event tick; ! boolean b;)"
    "(| b := not (pre false b) | b ^= tick |) end"
)


class TestEncoding:
    def test_rejects_integer_programs(self):
        comp = parse_component(
            "process C = (? integer a; ! integer x;) (| x := a + 1 |) end"
        )
        with pytest.raises(VerificationError):
            SymbolicChecker(comp)

    # every declared signal is boolean, but normalization hoists the
    # integer ``-1 when x2`` into a temporary
    INT_TEMPORARY = (
        "process C = (? boolean c; ! boolean y;)"
        "(| x2 := true when c | y := (-1 when x2) == -1 |)"
        " where boolean x2; end"
    )

    def test_rejects_integer_temporary(self):
        comp = parse_component(self.INT_TEMPORARY)
        with pytest.raises(VerificationError, match="-1 when x2"):
            SymbolicChecker(comp)

    def test_harness_rejects_integer_temporary(self):
        comp = parse_component(self.INT_TEMPORARY)
        with pytest.raises(VerificationError):
            list(never_present_verdicts(comp, "symbolic", ["y"]))

    def test_toggler_two_states(self):
        chk = SymbolicChecker(parse_component(TOGGLER))
        assert chk.state_count() == 2
        assert chk.iterations >= 2

    def test_stateless_program_one_state(self):
        comp = parse_component(
            "process C = (? boolean a; ! boolean x;) (| x := not a |) end"
        )
        chk = SymbolicChecker(comp)
        assert chk.state_count() == 1

    def test_reachable_output_conditions(self):
        chk = SymbolicChecker(parse_component(TOGGLER))
        bdd = chk.bdd
        b_true = bdd.AND(chk.presence("b"), bdd.variable("v:b"))
        b_false = bdd.AND(chk.presence("b"), bdd.NOT(bdd.variable("v:b")))
        assert chk.reachable(b_true)
        assert chk.reachable(b_false)

    def test_alphabet_constrains_environment(self):
        # without ticks, the toggler can never produce b
        chk = SymbolicChecker(parse_component(TOGGLER), alphabet=[{}])
        assert not chk.reachable(chk.presence("b"))
        assert chk.state_count() == 1


class TestFifoVerification:
    """The paper's obligation, symbolically, on the (boolean) FIFO cells."""

    FREE = [{}, {"msgin": True}, {"msgin": False}, {"rreq": True},
            {"msgin": True, "rreq": True}, {"msgin": False, "rreq": True}]
    POLLED = [{"rreq": True}, {"msgin": True, "rreq": True},
              {"msgin": False, "rreq": True}]

    def test_alarm_reachable_in_free_environment(self):
        from repro.lang.types import BOOL

        comp, ports = one_place_fifo(dtype=BOOL)
        chk = SymbolicChecker(comp, alphabet=self.FREE)
        ce = chk.check_never_present(ports.alarm)
        assert ce is not None
        assert len(ce.inputs) == 2  # write, then write again

    def test_counterexample_replays_in_simulator(self):
        from repro.lang.types import BOOL

        comp, ports = one_place_fifo(dtype=BOOL)
        chk = SymbolicChecker(comp, alphabet=self.FREE)
        ce = chk.check_never_present(ports.alarm)
        trace = simulate(comp, ce.as_stimulus())
        assert trace.presence_count(ports.alarm) >= 1

    def test_one_place_blocking_alarms_even_when_polled(self):
        # the paper's 1-place cell rejects a same-instant write+read on a
        # full buffer, so even a polling reader cannot make it safe
        from repro.lang.types import BOOL

        comp, ports = one_place_fifo(dtype=BOOL)
        chk = SymbolicChecker(comp, alphabet=self.POLLED)
        ce = chk.check_never_present(ports.alarm)
        assert ce is not None

    def test_agrees_with_explicit_backend(self):
        from repro.lang.types import BOOL

        comp, ports = one_place_fifo(dtype=BOOL)
        lts = compile_lts(comp, alphabet=self.FREE)
        explicit = check_never_present(lts, ports.alarm)
        chk = SymbolicChecker(comp, alphabet=self.FREE)
        symbolic = chk.check_never_present(ports.alarm)
        assert (explicit is None) == (symbolic is None)
        assert len(explicit) == len(symbolic.inputs)

    def test_chain_fifo_symbolically(self):
        from repro.lang.types import BOOL

        comp, ports = n_fifo_chain(2, dtype=BOOL)
        alphabet = [
            {"tick": True},
            {"tick": True, "msgin": True},
            {"tick": True, "rreq": True},
            {"tick": True, "msgin": True, "rreq": True},
        ]
        chk = SymbolicChecker(comp, alphabet=alphabet)
        ce = chk.check_never_present(ports.alarm)
        assert ce is not None  # back-to-back writes overwhelm the head cell
        # spaced writes: at most every other tick -> need memory of last
        # write, which the alphabet cannot express; the refutation stands.

    def test_state_count_matches_explicit_reachability(self):
        from repro.lang.types import BOOL

        comp, ports = one_place_fifo(dtype=BOOL)
        lts = compile_lts(comp, alphabet=self.FREE)
        chk = SymbolicChecker(comp, alphabet=self.FREE)
        assert chk.state_count() == lts.num_states()


def _free_alphabet(names):
    import itertools

    out = []
    for r in range(len(names) + 1):
        for combo in itertools.combinations(names, r):
            out.append({n: True for n in combo})
    return out


class TestDesyncBackendAgreement:
    """Symbolic vs explicit on the Section 5.2 designs (chain-kind
    boolean desynchronization, lossy and backpressure-masked): verdicts,
    counterexample lengths and reachable state counts must agree."""

    def _check_both(self, masked):
        from repro.designs import boolean_producer_consumer
        from repro.desync import desynchronize

        kwargs = {"backpressure": {"P": "p_act"}} if masked else {}
        res = desynchronize(
            boolean_producer_consumer(), capacities=2, kind="chain", **kwargs
        )
        ch = res.channels[0]
        alphabet = _free_alphabet(["p_act", ch.rreq, "x_tick"])
        lts = compile_lts(res.program, alphabet=alphabet)
        explicit_ce = check_never_present(lts, ch.alarm)
        chk = SymbolicChecker(res.program, alphabet=alphabet)
        symbolic_ce = chk.check_never_present(ch.alarm)
        return lts, explicit_ce, chk, symbolic_ce

    def test_lossy_design_agreement(self):
        lts, explicit_ce, chk, symbolic_ce = self._check_both(masked=False)
        assert explicit_ce is not None and symbolic_ce is not None
        assert len(explicit_ce) == len(symbolic_ce.inputs)
        assert chk.state_count() == lts.num_states()

    def test_backpressure_masked_design_agreement(self):
        # chain-kind clock gating reads the occupancy through ``pre`` (one
        # instant stale), so unlike the direct-kind A4 design the masked
        # chain still alarms — both backends must agree on that verdict,
        # the counterexample length, and the reachable state count
        lts, explicit_ce, chk, symbolic_ce = self._check_both(masked=True)
        assert (explicit_ce is None) == (symbolic_ce is None)
        if explicit_ce is not None:
            assert len(explicit_ce) == len(symbolic_ce.inputs)
        assert chk.state_count() == lts.num_states()


class TestPartitionedImage:
    """The partitioned path is a pure evaluation-strategy change: the
    reachable-set BDD it computes must be *identical* (same node in the
    same manager) to the monolithic one."""

    def _reached_both_ways(self, comp, alphabet):
        chk = SymbolicChecker(comp, alphabet=alphabet, partitioned=True)
        reached_part = chk.reachable_states()
        # recompute monolithically on the SAME manager so node ids are
        # comparable (hash-consing makes equal functions equal ids)
        chk._reached = None
        chk._rings = []
        chk.partitioned = False
        reached_mono = chk.reachable_states()
        return reached_part, reached_mono

    def test_toggler_reachable_sets_identical(self):
        part, mono = self._reached_both_ways(parse_component(TOGGLER), None)
        assert part == mono

    def test_chain_fifo_reachable_sets_identical(self):
        from repro.lang.types import BOOL

        comp, ports = n_fifo_chain(2, dtype=BOOL)
        alphabet = [
            {"tick": True},
            {"tick": True, "msgin": True},
            {"tick": True, "rreq": True},
            {"tick": True, "msgin": True, "rreq": True},
        ]
        part, mono = self._reached_both_ways(comp, alphabet)
        assert part == mono

    def test_desynchronized_design_reachable_sets_identical(self):
        from repro.designs import boolean_producer_consumer
        from repro.desync import desynchronize

        res = desynchronize(
            boolean_producer_consumer(), capacities=2, kind="chain"
        )
        ch = res.channels[0]
        alphabet = _free_alphabet(["p_act", ch.rreq, "x_tick"])
        part, mono = self._reached_both_ways(res.program, alphabet)
        assert part == mono


class _FullCount(SymbolicChecker):
    """The clustering bound's node count walked over the whole cone,
    as it was before the walk stopped at the limit; records each size
    in ``sizes``."""

    def _bdd_size(self, f, limit):
        seen = set()
        stack = [f]
        nodes = self.bdd._nodes
        while stack:
            n = stack.pop()
            if n <= 1 or n in seen:
                continue
            seen.add(n)
            _, low, high = nodes[n]
            stack.append(low)
            stack.append(high)
        self.sizes.append(len(seen))
        return len(seen)


def _boolean_corpus():
    """Every zero-argument design of :mod:`repro.designs` the symbolic
    backend accepts, the relay chains of one to three stages, and a
    chain-kind boolean desynchronization."""
    import inspect

    from repro import designs
    from repro.desync import desynchronize
    from repro.lang.ast import Component, Program

    out = []
    for name in sorted(dir(designs)):
        fn = getattr(designs, name)
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        if any(
            p.default is inspect.Parameter.empty
            for p in inspect.signature(fn).parameters.values()
        ):
            continue
        design = fn()
        if isinstance(design, (Program, Component)):
            out.append((name, design))
    out += [
        ("gals_relay_chain({})".format(k), designs.gals_relay_chain(k))
        for k in (1, 3)
    ]
    res = desynchronize(
        designs.boolean_producer_consumer(), capacities=2, kind="chain"
    )
    out.append(("boolean_producer_consumer/chain", res.program))
    return out


class TestClustering:
    def test_corpus_clusters_match_full_count(self):
        """The clustering bound's count stops once it passes the limit;
        every design's clusters are the nodes a full count builds, on
        designs where some merged product does pass the limit."""
        checked = 0
        sizes = []
        for name, design in _boolean_corpus():
            try:
                bounded = SymbolicChecker(design)
            except VerificationError:
                continue  # not a boolean program
            full = _FullCount(design)
            full.sizes = sizes
            assert bounded._ordered_parts() == full._ordered_parts(), name
            checked += 1
        assert checked >= 8
        limit = SymbolicChecker.CLUSTER_LIMIT
        assert any(size > limit for size in sizes)
        assert any(size <= limit for size in sizes)


# -- generated boolean programs --------------------------------------------------

GEN_INPUTS = {"c": BOOL, "d": BOOL, "e": EVENT}

#: the 18 input letters over GEN_INPUTS: ``c`` and ``d`` absent, true or
#: false, ``e`` absent or present
LETTERS = [
    {name: v for name, v in (("c", c), ("d", d), ("e", e)) if v is not None}
    for c in (None, True, False)
    for d in (None, True, False)
    for e in (None, True)
]

alphabets = st.lists(
    st.sampled_from(range(len(LETTERS))), min_size=1, unique=True
).map(lambda picked: [LETTERS[i] for i in sorted(picked)])


@st.composite
def nested_boolean_component(draw):
    """One to four boolean equations, each a random operator tree over
    the inputs, earlier equations and constants."""
    env = dict(GEN_INPUTS)
    equations = []
    for i in range(draw(st.integers(1, 4))):
        expr = draw(typed_expr(BOOL, env, depth=draw(st.integers(1, 3))))
        if _chameleon(expr):
            # constant-like bodies have free clocks; anchor to an input
            expr = When(Const(draw(st.booleans())), Var("c"))
        name = "x{}".format(i)
        env[name] = BOOL
        equations.append(Equation(name, expr))
    outputs = {eq.target: BOOL for eq in equations}
    comp = Component("Rand", GEN_INPUTS, outputs, {}, equations)
    check_component(comp)
    return comp


@st.composite
def core_boolean_component(draw):
    """One to five boolean equations in core form: one operator over
    the inputs and earlier equations."""
    env = dict(GEN_INPUTS)
    equations = []
    for i in range(draw(st.integers(1, 5))):
        var = st.sampled_from(sorted(env)).map(Var)
        kind = draw(st.integers(0, 4))
        if kind == 0:
            expr = Pre(draw(st.booleans()), draw(var))
        elif kind == 1:
            expr = When(draw(var), draw(var))
        elif kind == 2:
            expr = Default(draw(var), draw(var))
        elif kind == 3:
            expr = App("not", (draw(var),))
        else:
            op = draw(st.sampled_from(["and", "or", "xor", "=="]))
            expr = App(op, (draw(var), draw(var)))
        name = "x{}".format(i)
        env[name] = BOOL
        equations.append(Equation(name, expr))
    outputs = {eq.target: BOOL for eq in equations}
    comp = Component("Core", GEN_INPUTS, outputs, {}, equations)
    check_component(comp)
    return comp


def _symbolic_answers(comp, alphabet, partitioned):
    chk = SymbolicChecker(comp, alphabet=alphabet, partitioned=partitioned)
    out = [chk.state_count(), chk.iterations]
    for name in comp.outputs:
        ce = chk.check_never_present(name)
        out.append(None if ce is None else ce.inputs)
    return out


@settings(max_examples=100, deadline=None)
@given(nested_boolean_component(), alphabets)
def test_prop_partitioned_matches_monolithic(comp, alphabet):
    """The partitioned image is an evaluation strategy only: on nested
    operator trees with constants, applications of constants included,
    both paths count the same states in the same iterations and give
    every output the same verdict and the same counterexample inputs.
    A program the backend rejects (an integer temporary) is rejected on
    construction."""
    try:
        partitioned = _symbolic_answers(comp, alphabet, True)
    except VerificationError:
        with pytest.raises(VerificationError):
            SymbolicChecker(comp, alphabet=alphabet, partitioned=False)
        return
    assert _symbolic_answers(comp, alphabet, False) == partitioned


@settings(max_examples=100, deadline=None)
@given(core_boolean_component(), alphabets)
def test_prop_symbolic_matches_explicit_on_core_programs(comp, alphabet):
    """On input-deterministic core-form programs (no free clock), the
    symbolic backend and the explicit one (``compile_lts`` +
    ``check_never_present``) agree on every output's verdict and on the
    length of its counterexample."""
    assume(not analyze_clocks(comp).free)
    chk = SymbolicChecker(comp, alphabet=alphabet)
    lts = compile_lts(comp, alphabet=alphabet)
    for name in comp.outputs:
        symbolic = chk.check_never_present(name)
        explicit = check_never_present(lts, name)
        assert (symbolic is None) == (explicit is None), name
        if symbolic is not None:
            assert len(symbolic.inputs) == len(explicit), name


@pytest.mark.xfail(
    strict=True,
    reason="normalization hoists the unused branch `c and e` into an "
    "equation that forces ^c = ^e, which the engine never evaluates",
)
def test_hoisted_default_branch_synchronizes_only_symbolically():
    """``x0 := e default (c and e)`` under the one letter ``{e}``: the
    engine presents ``x0`` without evaluating ``c and e``, so the
    explicit backend refutes ``never x0``; the symbolic backend encodes
    the hoisted ``_t0 := c and e``, whose clock constraint rules out
    the only letter, and proves it."""
    comp = Component(
        "Rand",
        GEN_INPUTS,
        {"x0": BOOL},
        {},
        [Equation("x0", Default(Var("e"), App("and", (Var("c"), Var("e")))))],
    )
    alphabet = [{"e": True}]
    explicit = check_never_present(compile_lts(comp, alphabet=alphabet), "x0")
    symbolic = SymbolicChecker(comp, alphabet=alphabet).check_never_present("x0")
    assert explicit is not None
    assert symbolic is not None


@pytest.mark.parametrize("alphabet", [
    [{"c": True}, {}], [{"c": False}, {"d": True}], [{}], LETTERS,
], ids=["c-or-silent", "c-false-or-d", "silent", "every-letter"])
@pytest.mark.parametrize("expr", [
    App("and", (Var("c"), App("not", (Const(False),)))),
    App("or", (App("not", (Const(True),)), Var("d"))),
    When(App("not", (Const(False),)), Var("c")),
], ids=["c-and-not-false", "not-true-or-d", "not-false-when-c"])
def test_constant_application_is_clocked_by_its_context(expr, alphabet):
    """Normalization hoists an application of constants (``not false``)
    into a temporary, which the boolean core folds into its value, so it
    stays clocked by its context as in the engine.  The symbolic and
    explicit backends agree on the verdict and the counterexample
    length, and under every letter each ``x0`` can be present."""
    comp = Component("Rand", GEN_INPUTS, {"x0": BOOL}, {}, [Equation("x0", expr)])
    symbolic = SymbolicChecker(comp, alphabet=alphabet).check_never_present("x0")
    explicit = check_never_present(compile_lts(comp, alphabet=alphabet), "x0")
    assert (symbolic is None) == (explicit is None)
    if symbolic is not None:
        assert len(symbolic.inputs) == len(explicit)
    if alphabet is LETTERS:
        assert symbolic is not None


@pytest.mark.parametrize("true", [
    App("not", (Const(False),)), App("not", (App("not", (Const(True),)),)),
], ids=["not-false", "not-not-true"])
def test_constant_application_has_no_clock_of_its_own(true):
    """``(not false) when c`` is present whenever ``c`` is true, as
    ``true when c`` is: a clock of its own for the hoisted ``not false``
    would let ``x0`` be absent then, ``w`` be ``not c`` = false, and
    ``z`` fire.  Both backends prove ``never z`` and agree on ``x0`` and
    ``w`` under every alphabet."""
    comp = Component("Rand", GEN_INPUTS, {"x0": BOOL, "w": BOOL, "z": BOOL}, {}, [
        Equation("x0", When(true, Var("c"))),
        Equation("w", Default(Var("x0"), App("not", (Var("c"),)))),
        Equation("z", When(Const(True), App("not", (Var("w"),)))),
    ])
    core = boolean_core(comp)
    assert core.statements[0] == Equation("x0", When(Const(True), Var("c")))
    for alphabet in ([{"c": True}, {}], [{"c": False}, {"d": True}], [{}], LETTERS):
        for signal in ("x0", "w", "z"):
            symbolic = SymbolicChecker(comp, alphabet=alphabet).check_never_present(signal)
            explicit = check_never_present(compile_lts(comp, alphabet=alphabet), signal)
            assert (symbolic is None) == (explicit is None)
        assert SymbolicChecker(comp, alphabet=alphabet).check_never_present("z") is None
