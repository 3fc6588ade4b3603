"""Tests for the model-checking backend."""

import pytest

from repro.designs import modular_producer_consumer
from repro.desync import desynchronize, n_fifo_direct, one_place_fifo
from repro.errors import VerificationError
from repro.lang import flatten_program, parse_component, parse_program
from repro.mc import (
    bisimulation_classes,
    boolean_alphabet,
    check_invariant,
    check_never_present,
    compile_lts,
    find_reaction_error,
    input_alphabet,
    reachable_outputs,
    trace_equivalent,
)
from repro.mc.harness import (
    BACKENDS,
    cross_check_never_present,
    never_present_verdicts,
)
from repro.perf import PERF
from repro.sim import simulate

TOGGLER = (
    "process T = (? event tick; ! boolean b;)"
    "(| b := not (pre false b) | b ^= tick |) end"
)


class TestAlphabet:
    def test_event_and_bool_and_int(self):
        comp = parse_component(
            "process C = (? event e; ? boolean c; ? integer i; ! integer x;)"
            "(| x := i when c when e |) end"
        )
        letters = input_alphabet(comp, int_values=(0, 1))
        # e: 2 options, c: 3, i: 3 -> 18 combinations
        assert len(letters) == 18
        assert {} in letters

    def test_always_present_pins_input(self):
        comp = parse_component(
            "process C = (? event e; ! event x;) (| x := e |) end"
        )
        letters = input_alphabet(comp, always_present=["e"])
        assert letters == [{"e": True}]

    def test_never_present_drops_input(self):
        comp = parse_component(
            "process C = (? event e; ? event f; ! event x;) (| x := e |) end"
        )
        letters = input_alphabet(comp, never_present=["f"])
        assert all("f" not in l for l in letters)
        assert len(letters) == 2


class TestCompile:
    def test_toggler_has_two_states(self):
        lts = compile_lts(parse_component(TOGGLER))
        assert lts.num_states() == 2
        assert lts.num_transitions() == 4  # two letters per state

    def test_transitions_carry_outputs(self):
        lts = compile_lts(parse_component(TOGGLER))
        tr = lts.step(lts.initial, {"tick": True})
        assert tr.outputs_dict() == {"tick": True, "b": True}
        assert lts.step(lts.initial, {}).outputs_dict() == {}

    def test_invalid_letters_recorded(self):
        comp = parse_component(
            "process C = (? integer a; ? integer b; ! integer x;)"
            "(| x := a + b |) end"
        )
        lts = compile_lts(comp, alphabet=[{}, {"a": 1}, {"a": 1, "b": 1}])
        assert any(lts.invalid.values())  # {a} alone violates synchrony

    def test_state_bound_enforced(self):
        comp = parse_component(
            "process C = (? event t; ! integer x;)"
            "(| x := (pre 0 x) + 1 | x ^= t |) end"
        )
        with pytest.raises(VerificationError):
            compile_lts(comp, max_states=10)

    def test_program_input(self):
        lts = compile_lts(modular_producer_consumer(modulus=2))
        assert lts.num_states() == 2


class TestSafety:
    def desync_lts(self, capacity, letters):
        res = desynchronize(
            modular_producer_consumer(modulus=2), capacities=capacity
        )
        lts = compile_lts(res.program, alphabet=letters)
        return lts, res.channels[0]

    FREE_ENV = [{}, {"p_act": True}, {"x_rreq": True}, {"p_act": True, "x_rreq": True}]
    POLLED_ENV = [{}, {"p_act": True, "x_rreq": True}, {"x_rreq": True}]

    def test_alarm_reachable_in_free_environment(self):
        lts, ch = self.desync_lts(1, self.FREE_ENV)
        ce = check_never_present(lts, ch.alarm)
        assert ce is not None
        # shortest violation: fill the buffer then write again unread
        assert len(ce) == 2
        assert all("p_act" in row for row in ce.inputs)

    def test_alarm_unreachable_when_reader_polls_every_write(self):
        lts, ch = self.desync_lts(1, self.POLLED_ENV)
        assert check_never_present(lts, ch.alarm) is None

    def test_counterexample_replays_in_simulator(self):
        lts, ch = self.desync_lts(1, self.FREE_ENV)
        ce = check_never_present(lts, ch.alarm)
        trace = simulate(
            desynchronize(
                modular_producer_consumer(modulus=2), capacities=1
            ).program,
            ce.as_stimulus(),
        )
        assert trace.presence_count(ch.alarm) == 1

    def test_bigger_buffer_needs_longer_counterexample(self):
        lts1, ch1 = self.desync_lts(1, self.FREE_ENV)
        lts3, ch3 = self.desync_lts(3, self.FREE_ENV)
        ce1 = check_never_present(lts1, ch1.alarm)
        ce3 = check_never_present(lts3, ch3.alarm)
        assert len(ce3) == len(ce1) + 2  # two more unread writes needed

    def test_check_invariant_custom_predicate(self):
        lts = compile_lts(parse_component(TOGGLER))
        ce = check_invariant(
            lts, lambda out: out.get("b") is not False, name="b stays true"
        )
        assert ce is not None
        assert len(ce) == 2  # tick, tick

    def test_reachable_outputs(self):
        lts = compile_lts(parse_component(TOGGLER))
        assert reachable_outputs(lts, "b") == {True, False}

    def test_find_reaction_error(self):
        comp = parse_component(
            "process C = (? integer a; ? integer b; ! integer x;)"
            "(| x := a + b |) end"
        )
        lts = compile_lts(comp, alphabet=[{}, {"a": 1}, {"a": 1, "b": 1}])
        ce = find_reaction_error(lts)
        assert ce is not None

    def test_counterexample_render(self):
        lts, ch = self.desync_lts(1, self.FREE_ENV)
        ce = check_never_present(lts, ch.alarm)
        assert "counterexample" in ce.render()


class TestEquivalence:
    def fifo_alphabet(self):
        return [
            {},
            {"msgin": 0},
            {"msgin": 1},
            {"rreq": True},
            {"msgin": 0, "rreq": True},
            {"msgin": 1, "rreq": True},
        ]

    def test_identical_designs_equivalent(self):
        a = compile_lts(n_fifo_direct(1)[0], alphabet=self.fifo_alphabet())
        b = compile_lts(n_fifo_direct(1)[0], alphabet=self.fifo_alphabet())
        assert trace_equivalent(a, b) is None

    def test_one_place_vs_direct_differ_on_passthrough(self):
        # The paper's 1-place cell rejects a write while full even when a
        # simultaneous read frees the slot; the direct FIFO accepts it.
        blocking = compile_lts(one_place_fifo()[0], alphabet=self.fifo_alphabet())
        direct = compile_lts(n_fifo_direct(1)[0], alphabet=self.fifo_alphabet())

        def view(out):
            return {
                k: v for k, v in out.items() if k in ("msgout", "alarm", "ok")
            }

        d = trace_equivalent(blocking, direct, view=view)
        assert d is not None
        # the distinguishing run must exercise a write on a full buffer
        assert any("msgin" in row for row in d.inputs)

    def test_view_can_mask_differences(self):
        blocking = compile_lts(one_place_fifo()[0], alphabet=self.fifo_alphabet())
        direct = compile_lts(n_fifo_direct(1)[0], alphabet=self.fifo_alphabet())
        # Ignoring everything, the designs are vacuously equivalent.
        assert trace_equivalent(blocking, direct, view=lambda out: {}) is None

    def test_bisimulation_classes_on_toggler(self):
        lts = compile_lts(parse_component(TOGGLER))
        classes = bisimulation_classes(lts)
        assert len(set(classes.values())) == 2

    def test_bisimulation_collapses_redundant_state(self):
        # a design whose two pre cells always carry the same value
        comp = parse_component(
            "process C = (? event t; ! boolean b;)"
            "(| b := not (pre false b) | b ^= t |) end"
        )
        lts = compile_lts(comp)
        classes = bisimulation_classes(lts, view=lambda out: {})
        # with outputs masked, both states react identically up to renaming
        assert len(set(classes.values())) <= 2


class TestNeverDispatch:
    # ``loc`` is a local: flattening renames it ``C__loc`` and keeps it
    # out of the interface, so no backend observes either name as a port
    LOCAL = (
        "process C = (? event tick; ! event out;)"
        "(| loc := tick | out := loc |) where event loc; end"
    )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("signal", ["C__loc", "loc", "ghost"])
    def test_every_backend_rejects_a_signal_outside_the_interface(
        self, backend, signal
    ):
        program = parse_program(self.LOCAL)
        for design in (program, flatten_program(program)):
            with pytest.raises(VerificationError, match=signal):
                cross_check_never_present(
                    design, signal, backends=(backend,), depth=4
                )

    def test_interface_signals_agree_on_every_backend(self):
        report = cross_check_never_present(
            parse_program(self.LOCAL), "out", backends=BACKENDS, depth=4
        )
        assert report.agree and not report.holds
        assert {v.ce_length for v in report.verdicts} == {1}

    def test_backend_name_is_checked_before_the_signals(self):
        with pytest.raises(ValueError, match="bogus"):
            never_present_verdicts(parse_program(self.LOCAL), "bogus", ["ghost"])

    def test_one_lazy_build_answers_every_signal_in_order(self):
        PERF.reset("mc.")
        verdicts = never_present_verdicts(
            modular_producer_consumer(),
            "explicit",
            ["y", "x"],
            int_values=(0,),
            never_present=("p_act",),
        )
        assert PERF.get("mc.reactions") == 0   # nothing runs until asked
        first = next(verdicts)
        built = PERF.get("mc.reactions")
        second = next(verdicts)
        assert [(v.signal, v.verdict) for v in (first, second)] \
            == [("y", "proven"), ("x", "proven")]
        assert built > 0 and PERF.get("mc.reactions") == built
        assert next(verdicts, None) is None
