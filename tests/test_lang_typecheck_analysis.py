"""Tests for type checking and static analyses."""

import pytest

from repro.errors import CausalityError, SignalTypeError
from repro.lang import (
    BOOL,
    Component,
    ComponentBuilder,
    EVENT,
    Equation,
    INT,
    Program,
    check_component,
    check_program,
    classify_signals,
    const,
    dependency_graph,
    flatten_program,
    instantaneous_cycles,
    normalize_component,
    parse_component,
    parse_program,
    pre,
    shared_signals,
    var,
)
from repro.lang.analysis import check_causality
from repro.lang.ast import ClockOf, When
from repro.lang.typecheck import infer_type


class TestInferType:
    ENV = {"i": INT, "b": BOOL, "e": EVENT}

    def test_var_and_const(self):
        assert infer_type(var("i"), self.ENV) is INT
        assert infer_type(const(True), self.ENV) is BOOL
        assert infer_type(const(3), self.ENV) is INT

    def test_undeclared_rejected(self):
        with pytest.raises(SignalTypeError):
            infer_type(var("ghost"), self.ENV)

    def test_arith_and_cmp(self):
        assert infer_type(var("i") + 1, self.ENV) is INT
        assert infer_type(var("i") < 2, self.ENV) is BOOL
        with pytest.raises(SignalTypeError):
            infer_type(var("b") + 1, self.ENV)

    def test_equality_is_polymorphic(self):
        assert infer_type(var("i").eq(var("i")), self.ENV) is BOOL
        assert infer_type(var("b").eq(var("b")), self.ENV) is BOOL
        with pytest.raises(SignalTypeError):
            infer_type(var("i").eq(var("b")), self.ENV)

    def test_event_is_sub_boolean(self):
        assert infer_type(var("b") & var("e"), self.ENV) is BOOL
        assert infer_type(var("i").when(var("e")), self.ENV) is INT

    def test_when_condition_must_be_boolean(self):
        with pytest.raises(SignalTypeError):
            infer_type(var("i").when(var("i")), self.ENV)

    def test_true_when_makes_event(self):
        assert infer_type(const(True).when(var("b")), self.ENV) is EVENT

    def test_clockof_is_event(self):
        assert infer_type(ClockOf(var("i")), self.ENV) is EVENT

    def test_default_joins_branches(self):
        assert infer_type(var("b").default(var("e")), self.ENV) is BOOL
        with pytest.raises(SignalTypeError):
            infer_type(var("i").default(var("b")), self.ENV)

    def test_pre_checks_init(self):
        assert infer_type(pre(0, var("i")), self.ENV) is INT
        with pytest.raises(SignalTypeError):
            infer_type(pre(True, var("i")), self.ENV)

    def test_pre_of_event_is_boolean(self):
        assert infer_type(pre(False, var("e")), self.ENV) is BOOL

    def test_arity_mismatch(self):
        from repro.lang.ast import App

        with pytest.raises(SignalTypeError):
            infer_type(App("not", (var("b"), var("b"))), self.ENV)

    def test_unknown_function(self):
        from repro.lang.ast import App

        with pytest.raises(SignalTypeError):
            infer_type(App("bogus", (var("b"),)), self.ENV)


class TestCheckComponent:
    def test_good_component(self):
        comp = parse_component(
            "process C = (? integer a; ! integer x;)"
            "(| x := a + (pre 0 x) |) end"
        )
        check_component(comp)

    def test_input_cannot_be_defined(self):
        comp = Component("C", {"a": INT}, {}, {}, [Equation("a", const(1) + 1)])
        with pytest.raises(SignalTypeError):
            check_component(comp)

    def test_double_definition_rejected(self):
        comp = Component(
            "C",
            {"a": INT},
            {"x": INT},
            {},
            [Equation("x", var("a")), Equation("x", var("a"))],
        )
        with pytest.raises(SignalTypeError):
            check_component(comp)

    def test_missing_definition_rejected(self):
        comp = Component("C", {"a": INT}, {"x": INT}, {"m": INT}, [Equation("x", var("a"))])
        with pytest.raises(SignalTypeError):
            check_component(comp)

    def test_type_mismatch_rejected(self):
        comp = Component("C", {"a": INT}, {"x": BOOL}, {}, [Equation("x", var("a") + 1)])
        with pytest.raises(SignalTypeError):
            check_component(comp)

    def test_event_target_needs_event_expr(self):
        good = Component(
            "C",
            {"a": INT},
            {"e": EVENT},
            {},
            [Equation("e", const(True).when(var("a") > 0))],
        )
        check_component(good)
        bad = Component(
            "C", {"b": BOOL}, {"e": EVENT}, {}, [Equation("e", var("b"))]
        )
        with pytest.raises(SignalTypeError):
            check_component(bad)


class TestCheckProgram:
    def test_shared_signal_one_producer(self):
        prog = parse_program(
            "process P = (? integer a; ! integer x;) (| x := a |) end\n"
            "process Q = (? integer x; ! integer y;) (| y := x |) end\n"
        )
        check_program(prog)

    def test_two_producers_rejected(self):
        prog = parse_program(
            "process P = (? integer a; ! integer x;) (| x := a |) end\n"
            "process Q = (? integer a; ! integer x;) (| x := a |) end\n",
        )
        with pytest.raises(SignalTypeError):
            check_program(prog)

    def test_type_disagreement_rejected(self):
        prog = parse_program(
            "process P = (? integer a; ! integer x;) (| x := a |) end\n"
            "process Q = (? boolean x; ! boolean y;) (| y := x |) end\n",
        )
        with pytest.raises(SignalTypeError):
            check_program(prog)


class TestClassifyAndDeps:
    def comp(self):
        return parse_component(
            "process C = (? integer a; ! integer x;)"
            "(| x := a + m | m := pre 0 x |) where integer m; end"
        )

    def test_classify(self):
        cls = classify_signals(self.comp())
        assert cls.inputs == {"a"}
        assert cls.defined == {"x", "m"}
        assert cls.undefined == frozenset()

    def test_instantaneous_deps_cut_pre(self):
        g = dependency_graph(self.comp())
        assert g["x"] == {"a", "m"}
        assert g["m"] == frozenset()  # pre cuts the x dependency

    def test_full_deps_include_pre(self):
        g = dependency_graph(self.comp(), instantaneous=False)
        assert g["m"] == {"x"}

    def test_no_cycle_through_pre(self):
        assert instantaneous_cycles(self.comp()) == []
        check_causality(self.comp())

    def test_direct_cycle_detected(self):
        comp = parse_component(
            "process C = (! integer x;) (| x := x + 1 |) end"
        )
        assert instantaneous_cycles(comp) == [["x"]]
        with pytest.raises(CausalityError):
            check_causality(comp)

    def test_mutual_cycle_detected(self):
        comp = parse_component(
            "process C = (! integer x;) (| x := y + 1 | y := x - 1 |)"
            " where integer y; end"
        )
        cycles = instantaneous_cycles(comp)
        assert cycles == [["x", "y"]]


class TestSharedSignals:
    def test_orientation(self):
        prog = parse_program(
            "process P = (? integer a; ! integer x;) (| x := a |) end\n"
            "process Q = (? integer x; ! integer y;) (| y := x |) end\n"
        )
        shared = shared_signals(prog)
        assert len(shared) == 1
        s = shared[0]
        assert (s.name, s.producer, s.consumers) == ("x", "P", ("Q",))

    def test_environment_produced(self):
        prog = parse_program(
            "process P = (? integer a; ! integer x;) (| x := a |) end\n"
            "process Q = (? integer a; ! integer y;) (| y := a |) end\n"
        )
        s = [x for x in shared_signals(prog) if x.name == "a"][0]
        assert s.producer == ""
        assert set(s.consumers) == {"P", "Q"}


class TestFlatten:
    def test_flattening_is_remembered(self):
        prog = parse_program(
            "process P = (? integer a; ! integer x;) (| x := a + 1 |) end\n"
            "process Q = (? integer x; ! integer y;) (| y := x * 2 |) end\n"
        )
        flat = flatten_program(prog)
        assert flatten_program(prog) is flat
        assert flatten_program(flat) is flat

    def test_flatten_fuses_and_namespaces(self):
        prog = parse_program(
            "process P = (? integer a; ! integer x;) (| x := a + m |)"
            " where integer m; end\n"
            "process Q = (? integer x; ! integer y;) (| y := x + m |)"
            " where integer m; end\n"
        )
        # give each m a definition to pass later checks
        comps = []
        for comp in prog.components:
            eqs = list(comp.statements) + [Equation("m", pre(0, var("m")) + 1)]
            comps.append(Component(comp.name, comp.inputs, comp.outputs, comp.locals, eqs))
        prog = Program("main", comps)
        flat = flatten_program(prog)
        assert set(flat.inputs) == {"a"}
        assert set(flat.outputs) == {"x", "y"}
        assert set(flat.locals) == {"P__m", "Q__m"}
        check_component(flat)

    def test_flatten_collision_of_namespaced_locals(self):
        """``P``'s local ``_m`` and ``P_``'s local ``m`` both namespace
        to ``P___m``: flattening refuses to merge them."""
        p = Component(
            "P", {}, {"x": INT}, {"_m": INT},
            [Equation("x", var("_m")), Equation("_m", pre(0, var("_m")) + 1)],
        )
        q = Component(
            "P_", {"x": INT}, {"y": INT}, {"m": INT},
            [Equation("y", var("m")), Equation("m", var("x") + 1)],
        )
        with pytest.raises(SignalTypeError):
            flatten_program(Program("main", [p, q]))

    def test_undefined_local_becomes_input(self):
        prog = parse_program(
            "process P = (! integer x;) (| x := m |) where integer m; end\n"
        )
        flat = flatten_program(prog)
        assert "P__m" in flat.inputs


class TestNormalize:
    def test_lower_clockof(self):
        comp = parse_component(
            "process C = (? integer a; ! event e;) (| e := ^a |) end"
        )
        normed = normalize_component(comp)
        eq = normed.equations()[0]
        assert isinstance(eq.expr, When)
        check_component(normed)

    def test_to_core_three_address(self):
        comp = parse_component(
            "process C = (? integer a; ? boolean c; ! integer x;)"
            "(| x := (a + 1) when (not c) default (pre 0 x) |) end"
        )
        core = normalize_component(comp, to_core=True)
        check_component(core)
        for eq in core.equations():
            for child in eq.expr.children():
                assert not child.children(), "operands must be flat: {!r}".format(eq)

    def test_to_core_preserves_interface(self):
        comp = parse_component(
            "process C = (? integer a; ! integer x;) (| x := a * 2 + 1 |) end"
        )
        core = normalize_component(comp, to_core=True)
        assert core.inputs == comp.inputs
        assert core.outputs == comp.outputs

class TestCycleCanonicalization:
    def test_cycle_is_rotation_canonical_and_sorted(self):
        comp = parse_component(
            "process C = (! integer x;)"
            "(| x := z + 1 | z := y + 1 | y := x + 1 |)"
            " where integer y, z; end"
        )
        assert instantaneous_cycles(comp) == [["x", "z", "y"]]

    def test_statement_order_does_not_change_report(self):
        a = parse_component(
            "process C = (! integer x;)"
            "(| x := z + 1 | z := y + 1 | y := x + 1 |)"
            " where integer y, z; end"
        )
        b = parse_component(
            "process C = (! integer x;)"
            "(| y := x + 1 | x := z + 1 | z := y + 1 |)"
            " where integer y, z; end"
        )
        assert instantaneous_cycles(a) == instantaneous_cycles(b)

    def test_two_disjoint_cycles_sorted(self):
        comp = parse_component(
            "process C = (! integer x;)"
            "(| x := y | y := x | b := a | a := b |)"
            " where integer y, a, b; end"
        )
        assert instantaneous_cycles(comp) == [["a", "b"], ["x", "y"]]

    def test_deep_chain_within_recursion_limit(self):
        """The SCC search is iterative: a dependency chain far deeper than
        the interpreter's recursion limit has no cycle, and one closed
        back on itself reports every link."""
        import sys

        from repro.lang.analysis import strongly_connected_components

        n = sys.getrecursionlimit() + 100
        graph = {"s{}".format(i): {"s{}".format(i + 1)} for i in range(n)}
        graph["s{}".format(n)] = set()
        sccs = strongly_connected_components(graph)
        assert len(sccs) == n + 1
        # each component comes after the components it reaches
        assert sccs[0] == ["s{}".format(n)] and sccs[-1] == ["s0"]
        graph["s{}".format(n)] = {"s0"}
        (ring,) = strongly_connected_components(graph)
        assert sorted(ring) == sorted(graph)


class TestSharedSignalsMultiProducer:
    def test_all_producers_recorded(self):
        prog = parse_program(
            "process P = (? integer a; ! integer x;) (| x := a |) end\n"
            "process R = (? integer a; ! integer x;) (| x := a + 1 |) end\n"
            "process Q = (? integer x; ! integer y;) (| y := x |) end\n"
        )
        s = [x for x in shared_signals(prog) if x.name == "x"][0]
        assert s.producer == "P"  # first writer, for the transform
        assert s.producers == ("P", "R")
        assert s.consumers == ("Q",)  # no producer is its own consumer

    def test_namespaced_locals_not_shared(self):
        # Two components each use a local `t`; after namespacing the
        # flattened program must not report P__t/Q__t as shared edges.
        prog = parse_program(
            "process P = (? integer a; ! integer x;)"
            " (| t := a + 1 | x := t |) where integer t; end\n"
            "process Q = (? integer x; ! integer y;)"
            " (| t := x * 2 | y := t |) where integer t; end\n"
        )
        flat = flatten_program(prog)
        names = {eq.target for eq in flat.statements
                 if isinstance(eq, Equation)}
        assert "P__t" in names and "Q__t" in names
        shared_names = {s.name for s in shared_signals(prog)}
        assert shared_names == {"x"}
