"""Plan specialization, the shared plan cache, and batched lane execution.

The contract under test everywhere: the specialized generated code and
the batch lanes are *observationally identical* to the reference
interpreter — same traces, same rejections, same estimator outputs, same
soak verdicts — only faster.
"""

import sys

import pytest

from repro import designs
from repro.errors import SimulationError
from repro.lang.analysis import flatten_program
from repro.lang.ast import App, Component, Equation, Program, Var
from repro.lang.serializer import content_key
from repro.lang.types import EVENT, INT
from repro.perf import PERF
from repro.sim import (
    Interpreter,
    Reactor,
    simulate,
    simulate_batch,
    stimuli,
)
from repro.sim.plan import clear_plan_cache, plan_cache_stats, shared_plan
from repro.sim.specialize import PlanBudgetError, SpecializedPlan


def _corpus():
    """Every zero-argument design in :mod:`repro.designs`."""
    import inspect

    out = []
    for name in sorted(dir(designs)):
        if name.startswith("_"):
            continue
        fn = getattr(designs, name)
        if not inspect.isfunction(fn):
            continue
        sig = inspect.signature(fn)
        if any(
            p.default is inspect.Parameter.empty
            for p in sig.parameters.values()
        ):
            continue
        built = fn()
        if isinstance(built, (Program, Component)):
            out.append((name, built))
    return out


def _stimulus(comp, seed, n=25):
    import random

    from repro.sim.engine import ABSENT

    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        row = {}
        for name, ty in comp.inputs.items():
            if rng.random() < 0.3:
                row[name] = ABSENT
            elif ty is INT:
                row[name] = rng.randrange(-5, 10)
            elif ty is EVENT:
                row[name] = True
            else:
                row[name] = rng.random() < 0.5
        rows.append(row)
    return rows


class TestSpecializedCorpus:
    def test_corpus_byte_identical(self):
        """Specialized traces match the interpreter's across the whole
        designs corpus, several stimuli each."""
        for name, design in _corpus():
            comp = (
                flatten_program(design)
                if isinstance(design, Program)
                else design
            )
            spec_plan = SpecializedPlan(comp)
            for seed in range(3):
                rows = _stimulus(comp, seed)
                ref = simulate(
                    comp,
                    iter(rows),
                    reactor=Reactor(comp, plan=Interpreter(comp)),
                )
                got = simulate(
                    comp,
                    iter(rows),
                    reactor=Reactor(comp, plan=spec_plan),
                )
                assert repr(got.instants) == repr(ref.instants), (name, seed)

    def test_specialize_helper(self):
        comp = flatten_program(designs.producer_consumer())
        plan = SpecializedPlan(comp)
        assert plan.kind == "plan.spec"
        assert "_sweep" in plan.source

    def test_submodule_import_is_the_module(self):
        """No name bound on ``repro.sim`` shadows the submodule."""
        import repro.sim.specialize as module

        assert module.SpecializedPlan is SpecializedPlan

    def test_corpus_and_instrumented_networks_inline_every_step(self):
        """Every component of the corpus, and of its capacity-2
        instrumented desynchronizations, gets a specialized plan from the
        cache: none is over the generator's budget."""
        steps = 0
        for name, comp in _corpus_and_networks():
            plan = shared_plan(comp)
            assert isinstance(plan, SpecializedPlan), name
            steps += len(plan.steps)
        assert steps >= 800

    @pytest.mark.parametrize("depth, interpreted", [(12, 0), (100, 1)])
    def test_deep_default_chain_matches_interpreter(self, depth, interpreted):
        """Generated code grows linearly with a right-nested ``default``
        chain (``a0 default (a1 default (... a<depth>))``), so a depth-12
        chain is specialized whole; one nested past ``MAX_STEP_DEPTH`` is
        over budget, and the cache hands out its interpreter instead.
        ``Reactor``, ``simulate_batch`` and a pickled copy of the cached
        executor all react exactly as the interpreter does."""
        import pickle
        import random

        from repro.lang.ast import Default
        from repro.sim.engine import ABSENT

        names = ["a{}".format(i) for i in range(depth + 1)]
        expr = Var(names[-1])
        for name in reversed(names[:-1]):
            expr = Default(Var(name), expr)
        comp = Component(
            "chain", {n: INT for n in names}, {"y": INT}, {},
            [Equation("y", expr)],
        )
        plan = shared_plan(comp)
        if interpreted:
            with pytest.raises(PlanBudgetError):
                SpecializedPlan(comp)
            assert isinstance(plan, Interpreter)
        else:
            assert isinstance(plan, SpecializedPlan)
        shipped = pickle.loads(pickle.dumps(plan))
        assert type(shipped) is type(plan)
        rng = random.Random(depth)
        rows = [
            {n: ABSENT if rng.random() < 0.85 else rng.randrange(9)
             for n in names}
            for _ in range(200)
        ]
        ref = Reactor(comp, plan=Interpreter(comp))
        expected = [ref.react(r) for r in rows]
        default = Reactor(comp)
        assert default.plan is plan
        for reactor in (default, Reactor(comp, plan=shipped)):
            assert [reactor.react(r) for r in rows] == expected
        with PERF.scope() as counts:
            report = simulate_batch(comp, [iter(rows)])
        assert report.traces[0].instants == expected
        assert counts.counts["batch.{}.reactions".format(plan.kind)] > 0

    def test_jittered_lanes_run_few_residual_steps(self):
        """The schedule settles the instrumented FIFO network in its first
        sweep: the steps the residual re-sweep runs again stay at most one
        per reaction on jittered lanes (the count is deterministic; 3,764
        for 684 reactions before the schedule followed every ``pre``
        cycle)."""
        from repro.desync import desynchronize
        from repro.faults.soak import jittered_stimulus

        comp = flatten_program(desynchronize(
            designs.producer_consumer(), capacities=2, instrument=True
        ).program)
        plan = SpecializedPlan(comp)
        reruns = [0]

        def counted(step):
            def run(*args):
                reruns[0] += 1
                return step(*args)
            return run

        # the generated sweep calls its steps by name, not through this
        # tuple, so every call counted here comes from the residual
        plan.steps = tuple(counted(step) for step in plan.steps)
        base = [
            {"p_act": True} if i % 2 == 0 else {"x_rreq": True}
            for i in range(100)
        ]
        lanes = [jittered_stimulus(base, 0.25, k) for k in range(16)]
        with PERF.scope() as counts:
            simulate_batch(comp, lanes, n=100, plan=plan)
        reactions = counts.counts["batch.plan.spec.reactions"]
        assert reactions == 684
        assert reruns[0] == 344


def _corpus_and_networks():
    """The corpus's components and its capacity-2 instrumented
    desynchronizations, as ``(name, component)`` pairs."""
    from repro.desync import desynchronize

    comps = []
    for name, design in _corpus():
        if isinstance(design, Program):
            comps.append((name, flatten_program(design)))
            net = desynchronize(design, capacities=2, instrument=True)
            comps.append((name + "/desync", flatten_program(net.program)))
        else:
            comps.append((name, design))
    return comps


def _slot_runs(plan, rows):
    """``plan.react_slots`` over ``rows`` from the initial state, each
    result (or the rejection) as its ``repr``."""
    out = []
    state = list(plan.init_state)
    try:
        for t, row in enumerate(rows):
            status, value, state = plan.react_slots(row, state, None, t)
            out.append(repr((status, value, state)))
    except SimulationError as exc:
        out.append(("rejected", type(exc).__name__, str(exc)))
    return out


def _spawned_runs(plan, seed):
    """The slot names and :func:`_slot_runs` of ``plan`` on the seeded
    stimulus, drawn where this runs (``ABSENT`` is per process)."""
    return tuple(plan.names), _slot_runs(plan, _stimulus(plan.component, seed))


class TestShippedPlans:
    """A pickled specialized plan is its component, rebuilt where it is
    loaded, and reacts exactly as the plan it came from."""

    def test_shipped_plan_reacts_like_built_one(self):
        import pickle

        for name, comp in _corpus_and_networks():
            plan = SpecializedPlan(comp)
            shipped = pickle.loads(pickle.dumps(plan))
            assert isinstance(shipped, SpecializedPlan)
            assert shipped.source == plan.source
            assert len(shipped.steps) == len(plan.steps)
            for seed in range(2):
                rows = _stimulus(comp, seed)
                assert _slot_runs(shipped, rows) == _slot_runs(plan, rows), (
                    name, seed
                )

    def test_plan_loads_in_a_spawned_interpreter(self):
        """A spawn or forkserver sweep worker is a fresh interpreter with
        its own hash seed; the plan it loads has the same slots and
        reacts as the one pickled in this process."""
        import multiprocessing

        from repro.desync import desynchronize

        plans = [
            SpecializedPlan(flatten_program(
                desynchronize(design, capacities=2, instrument=True).program
            ))
            for design in (
                designs.producer_consumer(),
                designs.modular_producer_consumer(),
            )
        ]
        points = [(plan, seed) for plan in plans for seed in range(2)]
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            shipped = pool.starmap_async(_spawned_runs, points).get(timeout=120)
        assert shipped == [_spawned_runs(plan, seed) for plan, seed in points]

    def test_build_memory_transient_is_a_fraction_of_one_compile(self):
        """Each generated function compiles on its own, so a first
        build's peak allocation stays well below that of compiling the
        plan's source as one module (the estimator builds every round's
        plan in the calling process)."""
        import gc
        import tracemalloc

        from repro.desync import desynchronize

        net = desynchronize(
            designs.producer_consumer(), capacities=7, instrument=True
        )
        comp = flatten_program(net.program)

        def peak(build):
            """``build()``'s allocation peak above what was traced when it
            started, and its result; tracing already on stays on."""
            gc.collect()
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                result = build()
                return tracemalloc.get_traced_memory()[1] - before, result
            finally:
                if started:
                    tracemalloc.stop()

        build_peak, plan = peak(lambda: SpecializedPlan(comp))
        module_peak, _ = peak(
            lambda: compile(plan.source, "<specialized>", "exec")
        )
        assert build_peak < module_peak / 2


class TestPlanCache:
    def setup_method(self):
        clear_plan_cache()

    def teardown_method(self):
        clear_plan_cache()

    def test_content_hash_ignores_identity(self):
        a = flatten_program(designs.producer_consumer())
        b = flatten_program(designs.producer_consumer())
        assert a is not b
        assert content_key(a) == content_key(b)
        assert shared_plan(a) is shared_plan(b)

    def test_hit_miss_counters(self):
        PERF.reset("plan.")
        comp = flatten_program(designs.producer_consumer())
        shared_plan(comp)
        assert PERF.get("plan.cache_misses") == 1
        assert PERF.get("plan.cache_hits") == 0
        shared_plan(comp)
        shared_plan(flatten_program(designs.producer_consumer()))
        assert PERF.get("plan.cache_hits") == 2
        assert PERF.get("plan.cache_misses") == 1

    def test_shared_plans_are_specialized_one_entry_per_component(self):
        a = flatten_program(designs.producer_consumer())
        b = flatten_program(designs.producer_accumulator())
        plan = shared_plan(a)
        assert isinstance(plan, SpecializedPlan)
        assert shared_plan(a) is plan
        assert isinstance(shared_plan(b), SpecializedPlan)
        assert plan_cache_stats()["size"] == 2

    def test_declaration_order_is_part_of_the_key(self):
        """Two components that differ only in their input order have
        equal content keys but not one plan: a reactor returns its
        outputs in its own component's order."""
        eqs = [Equation("y", App("+", (Var("a"), Var("b"))))]
        a = Component("ab", {"a": INT, "b": INT}, {"y": INT}, {}, eqs)
        b = Component("ab", {"b": INT, "a": INT}, {"y": INT}, {}, eqs)
        assert content_key(a) == content_key(b)
        shared_plan(a)
        out = Reactor(b).react({"a": 1, "b": 2})
        assert list(out) == ["b", "a", "y"] == list(b.signals())
        assert shared_plan(b) is not shared_plan(a)

    def test_bounded_lru(self):
        from repro.lang.ast import Const
        from repro.sim import plan as plan_mod

        cap = plan_mod._PLAN_CACHE_CAPACITY
        for i in range(cap + 10):
            comp = Component(
                "N{}".format(i), {"a": INT}, {"y": INT}, {},
                [Equation("y", App("+", (Var("a"), Const(i))))],
            )
            shared_plan(comp)
        stats = plan_cache_stats()
        assert stats["size"] <= stats["capacity"] == cap


def _reference_runs(comp, plan, seeds=range(3)):
    """``simulate`` of ``comp`` with ``plan`` on seeded stimuli, each run's
    instants as their ``repr`` (or the type of the rejection)."""
    out = []
    for seed in seeds:
        rows = _stimulus(comp, seed)
        try:
            trace = simulate(
                comp, iter(rows), reactor=Reactor(comp, plan=plan)
            )
            out.append(repr(trace.instants))
        except SimulationError as exc:
            out.append(type(exc).__name__)
    return out


def _functions(plan):
    """The generated functions a specialized plan bound."""
    import types

    return [
        f for f in plan._sweep_fn.__globals__.values()
        if isinstance(f, types.FunctionType)
        and f.__code__.co_filename == "<specialized>"
    ]


class TestShapeTable:
    """Each step shape compiles once per process; every plan binds its
    functions from the table and reacts as the interpreter does."""

    def setup_method(self):
        clear_plan_cache()

    def teardown_method(self):
        clear_plan_cache()

    def test_steps_differing_in_slots_and_names_share_shapes(self):
        """A renamed copy of a design, with an unused input declared
        first, has every slot and name of the original moved: it
        compiles no shape, and both plans react like the interpreter."""
        a = flatten_program(designs.pipeline(2))
        renamed = a.rename({n: "r_" + n for n in a.signals()}, name="renamed")
        b = Component(
            "renamed",
            dict({"pad": EVENT}, **renamed.inputs),
            renamed.outputs,
            renamed.locals,
            renamed.statements,
        )
        with PERF.scope() as first:
            plan_a = SpecializedPlan(a)
        with PERF.scope() as second:
            plan_b = SpecializedPlan(b)
        n_a, n_b = len(_functions(plan_a)), len(_functions(plan_b))
        assert n_a == n_b
        misses = first.counts["plan.shape_misses"]
        assert 0 < misses < n_a  # some shapes repeat within the design too
        assert first.counts.get("plan.shape_hits", 0) == n_a - misses
        assert "plan.shape_misses" not in second.counts
        assert second.counts["plan.shape_hits"] == n_b
        assert all(
            plan_b.slot["r_" + n] == i + 1 for i, n in enumerate(plan_a.names)
        )
        assert plan_a.source != plan_b.source
        for comp, plan in ((a, plan_a), (b, plan_b)):
            assert _reference_runs(comp, plan) == _reference_runs(
                comp, Interpreter(comp)
            )

    def test_checkers_share_one_plan_per_design(self):
        """``compile_lts`` builds the design's specialized plan once, and
        the bounded checker and later explorations reuse it."""
        from repro.mc import (
            bounded_never_present,
            check_never_present,
            compile_lts,
        )

        design = designs.gals_relay_chain(1)
        with PERF.scope() as cold:
            lts = compile_lts(design)
        with PERF.scope() as warm:
            result = bounded_never_present(design, "f0_alarm", depth=4)
            again = compile_lts(design)
        assert cold.counts["plan.cache_misses"] == 1
        assert "plan.cache_hits" not in cold.counts
        assert cold.counts["plan.shape_misses"] > 0
        assert "plan.cache_misses" not in warm.counts
        assert "plan.shape_misses" not in warm.counts
        assert warm.counts["plan.cache_hits"] == 2
        assert again.num_states() == lts.num_states()
        # both find the shortest overflow of the unpolled chain
        explicit = check_never_present(lts, "f0_alarm")
        assert result.counterexample.inputs == explicit.inputs

    def test_plans_built_after_evictions_react_identically(self, monkeypatch):
        """With a table of four shapes, building the corpus evicts
        shapes over and over; the plans still react like the
        interpreter."""
        import repro.sim.specialize as specialize

        monkeypatch.setattr(specialize, "_CODE_TABLE_CAPACITY", 4)
        with PERF.scope() as counts:
            for name, comp in _corpus_and_networks():
                plan = SpecializedPlan(comp)
                assert _reference_runs(comp, plan, range(2)) == _reference_runs(
                    comp, Interpreter(comp), range(2)
                ), name
        assert counts.counts["plan.shape_evictions"] > 0
        assert len(specialize._code_table) == 4


class TestBatchLanes:
    def test_matches_simulate_per_lane(self):
        comp = flatten_program(designs.modular_producer_consumer())
        lanes = [_stimulus(comp, seed) for seed in range(5)]
        refs = [simulate(comp, iter(rows)) for rows in lanes]
        report = simulate_batch(comp, [iter(rows) for rows in lanes])
        assert report.lanes == 5
        for k, ref in enumerate(refs):
            assert repr(report.traces[k].instants) == repr(ref.instants)

    def test_ints_beyond_64_bits_match_simulate(self):
        comp = Component(
            "big", {"x": INT}, {"y": INT}, {},
            [Equation("y", App("*", (Var("x"), Var("x"))))],
        )
        rows = [{"x": 3}, {"x": 2 ** 40}, {"x": -7}]
        ref = simulate(comp, iter(rows))
        report = simulate_batch(comp, [iter(rows), iter([{"x": 2}])])
        assert repr(report.traces[0].instants) == repr(ref.instants)
        assert report.traces[1].instants == [{"x": 2, "y": 4}]

    def test_non_canonical_values_match_simulate(self):
        comp = Component(
            "ev", {"e": EVENT}, {"o": EVENT}, {}, [Equation("o", Var("e"))]
        )
        rows = [{"e": 1}, {}, {"e": True}]  # 1 is a tick, but not a bool
        ref = simulate(comp, iter(rows))
        report = simulate_batch(comp, [iter(rows)])
        assert repr(report.traces[0].instants) == repr(ref.instants)

    def test_capture_errors_per_lane(self):
        comp = Component(
            "sync", {"a": INT, "b": INT}, {"o": INT}, {},
            [Equation("o", App("+", (Var("a"), Var("b"))))],
        )
        good = [{"a": 1, "b": 2}] * 3
        bad = [{"a": 1, "b": 2}, {"a": 1}]
        report = simulate_batch(
            comp, [iter(good), iter(bad)], capture_errors=True
        )
        assert report.errors[0] is None
        assert report.errors[1] is not None
        assert report.errors[1][0] == "SimulationError"
        assert len(report.traces[0]) == 3
        assert len(report.traces[1]) == 1  # stopped at the rejection
        with pytest.raises(SimulationError):
            simulate_batch(comp, [iter(bad)])

    def test_aggregation_helpers(self):
        comp = flatten_program(designs.modular_producer_consumer())
        lanes = [_stimulus(comp, seed) for seed in range(3)]
        refs = [simulate(comp, iter(rows)) for rows in lanes]
        report = simulate_batch(comp, [iter(rows) for rows in lanes])
        for sig in list(comp.signals())[:4]:
            expected_counts = [ref.presence_count(sig) for ref in refs]
            assert report.presence_counts(sig) == expected_counts
            expected_max = [
                max(ref.values(sig)) if ref.values(sig) else 0 for ref in refs
            ]
            assert report.max_values(sig) == expected_max

    @pytest.mark.skipif(
        sys.version_info < (3, 10), reason="needs sys.stdlib_module_names"
    )
    def test_batch_paths_import_only_the_standard_library(self):
        """Lanes are pure Python: a batch and a multi-lane estimation in
        a fresh interpreter import nothing outside the standard library
        and ``repro`` (the package declares no dependencies)."""
        import os
        import subprocess

        import repro

        script = """if True:
            import sys
            before = set(sys.modules)
            from repro import designs
            from repro.desync.estimator import estimate_buffer_sizes
            from repro.lang.analysis import flatten_program
            from repro.sim import simulate_batch
            from repro.workloads import scenarios

            prog = designs.modular_producer_consumer()
            comp = flatten_program(prog)
            rows = [{"p_act": True}, {}] * 5
            simulate_batch(comp, [iter(rows), iter(rows[1:])])
            envs = [scenarios.steady(), scenarios.bursty_producer()]
            estimate_buffer_sizes(
                prog, [w.stimulus_factory for w in envs], horizon=30
            )
            imported = {m.split(".")[0] for m in set(sys.modules) - before}
            # multiprocessing registers __main__ again as __mp_main__
            known = set(sys.stdlib_module_names) | {"repro", "__mp_main__"}
            outside = imported - known
            assert not outside, sorted(outside)
        """
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestBatchMemo:
    def test_identical_lanes_hit_memo_on_object_backend(self):
        comp = flatten_program(designs.modular_producer_consumer())
        rows = _stimulus(comp, 3, n=12)
        ref = simulate(comp, iter(rows))
        with PERF.scope() as counts:
            report = simulate_batch(comp, [iter(rows) for _ in range(4)])
        assert counts.counts["batch.memo_hits"] >= 3 * 12
        for k in range(4):
            assert repr(report.traces[k].instants) == repr(ref.instants)

    def test_memoized_rows_are_not_shared(self):
        """A memo hit records a copy of the row: mutating a row of one
        lane changes neither the other lane's row at that instant nor the
        rows of a later call."""
        comp = flatten_program(designs.modular_producer_consumer())
        rows = _stimulus(comp, 3, n=12)
        first = simulate_batch(comp, [iter(rows), iter(rows)]).traces
        expected = repr(first[1].instants)
        for row in first[0].instants:
            row["mutated"] = True
        assert repr(first[1].instants) == expected
        later = simulate_batch(comp, [iter(rows), iter(rows)]).traces
        assert repr(later[0].instants) == expected
        assert repr(later[1].instants) == expected

    def test_memo_distinguishes_bool_from_int(self):
        """``1 == True`` hashes alike; the memo must not conflate a
        canonical tick with the non-canonical int form (they record
        differently)."""
        comp = Component(
            "ev", {"e": EVENT}, {"o": EVENT}, {}, [Equation("o", Var("e"))]
        )
        report = simulate_batch(
            comp, [iter([{"e": True}]), iter([{"e": 1}])]
        )
        assert report.traces[0].instants == [{"e": True, "o": True}]
        assert report.traces[1].instants == [{"e": 1, "o": 1}]

    def test_oracle_lanes_bypass_memo(self):
        comp = flatten_program(designs.modular_producer_consumer())
        rows = _stimulus(comp, 4, n=8)
        with PERF.scope() as oracle_counts:
            report = simulate_batch(
                comp,
                [iter(rows), iter(rows)],
                oracle=lambda index, undetermined: {},
            )
        assert "batch.memo_hits" not in oracle_counts.counts
        with PERF.scope() as plain_counts:
            plain = simulate_batch(comp, [iter(rows), iter(rows)])
        assert plain_counts.counts["batch.memo_hits"] > 0
        for k in range(2):
            assert repr(report.traces[k].instants) == repr(
                plain.traces[k].instants
            )


def _reference_with_errors(comp, rows):
    reactor = Reactor(comp)
    out, err = [], None
    for row in rows:
        try:
            out.append(reactor.react(row))
        except SimulationError as exc:
            err = (type(exc).__name__, str(exc))
            break
    return out, err


class TestUnspecializedBatch:
    """Wide batches over the interpreter (``plan=Interpreter(comp)``)."""

    def test_corpus_byte_identical(self):
        """Traces *and* captured rejection errors of a 12-lane batch
        match the per-lane engine across the designs corpus."""
        lanes_n = 12
        for name, design in _corpus():
            comp = (
                flatten_program(design)
                if isinstance(design, Program)
                else design
            )
            lane_rows = [
                _stimulus(comp, 7 * k + 1, n=12) for k in range(lanes_n)
            ]
            refs = [_reference_with_errors(comp, rows) for rows in lane_rows]
            report = simulate_batch(
                comp,
                [iter(rows) for rows in lane_rows],
                plan=Interpreter(comp),
                capture_errors=True,
            )
            for k, (out, err) in enumerate(refs):
                assert report.errors[k] == err, (name, k)
                assert repr(report.traces[k].instants) == repr(out), (name, k)

    def test_wide_values_match_per_lane_engine(self):
        """Products past 64 bits (``2**80``) record exactly as the
        per-lane engine computes them."""
        comp = Component(
            "big", {"x": INT}, {"y": INT}, {},
            [Equation("y", App("*", (Var("x"), Var("x"))))],
        )
        lanes = [[{"x": k}, {"x": 2 ** 40}, {"x": -k}] for k in range(10)]
        refs = [simulate(comp, iter(rows)) for rows in lanes]
        report = simulate_batch(
            comp, [iter(rows) for rows in lanes], plan=Interpreter(comp)
        )
        for k, ref in enumerate(refs):
            assert repr(report.traces[k].instants) == repr(ref.instants)


class TestCounterAttribution:
    def test_plan_vs_spec_vs_batch_phases(self):
        comp = flatten_program(designs.producer_consumer())
        rows = _stimulus(comp, 0, n=10)
        PERF.reset()
        simulate(comp, iter(rows), reactor=Reactor(comp))
        assert PERF.get("sim.plan.spec.reactions") == 10
        assert PERF.get("sim.interp.reactions") == 0
        simulate(
            comp, iter(rows),
            reactor=Reactor(comp, plan=Interpreter(comp)),
        )
        assert PERF.get("sim.interp.reactions") == 10
        assert PERF.get("sim.plan.spec.reactions") == 10  # unchanged
        clear_plan_cache()
        with PERF.scope() as run:
            simulate_batch(comp, [iter(rows), iter(rows)])
        counts = run.counts
        # identical lanes share reactions through the batch memo: executed
        # reactions + memo hits account for every recorded instant, and
        # the second lane is hits from start to finish
        reactions = counts["batch.plan.spec.reactions"]
        assert reactions + counts["batch.memo_hits"] == 20
        assert counts["batch.memo_hits"] >= 10
        assert counts["batch.lanes"] == 2
        assert counts["batch.instants"] == 20
        # the scope folded into the registry on exit
        assert PERF.get("batch.plan.spec.reactions") == reactions
        assert PERF.get("batch.memo_hits") == counts["batch.memo_hits"]
        clear_plan_cache()
        with PERF.scope() as run2:
            simulate_batch(comp, [iter(rows)], plan=Interpreter(comp))
        counts2 = run2.counts
        assert (
            counts2["batch.interp.reactions"] + counts2.get("batch.memo_hits", 0)
            == 10
        )
        assert "batch.plan.spec.reactions" not in counts2

    def test_counts_of_one_call_are_its_own_under_threads(self):
        """Three threads run batches and simulations on one cached plan at
        once, each in a ``PERF.scope()`` of its own: every thread counts
        exactly the work it records when it runs alone."""
        import threading

        from repro.desync import desynchronize
        from repro.faults.soak import jittered_stimulus

        comp = flatten_program(
            desynchronize(
                designs.producer_consumer(), capacities=2, instrument=True
            ).program
        )
        plan = shared_plan(comp)
        base = [
            {"p_act": True} if i % 2 == 0 else {"x_rreq": True}
            for i in range(200)
        ]
        names = (
            "batch.plan.spec.reactions",
            "batch.memo_hits",
            "batch.instants",
            "sim.plan.spec.reactions",
        )

        def work(thread):
            with PERF.scope() as tables:
                for rnd in range(10):
                    seed = 100 * thread + 10 * rnd
                    simulate_batch(
                        comp,
                        [jittered_stimulus(base, 0.5, seed + k) for k in range(4)],
                        plan=plan,
                    )
                    simulate(
                        comp,
                        jittered_stimulus(base, 0.5, seed + 9),
                        reactor=Reactor(comp, plan=plan),
                    )
            return {name: tables.counts.get(name, 0) for name in names}

        alone = [work(thread) for thread in range(3)]
        assert all(counts["batch.plan.spec.reactions"] for counts in alone)
        together = [None] * 3
        errors = []

        def run(thread):
            try:
                together[thread] = work(thread)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(thread,)) for thread in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not [t for t in threads if t.is_alive()]
        assert errors == []
        assert together == alone

    def test_sweep_merges_batch_counters(self):
        from repro.perf.sweep import sweep

        comp = flatten_program(designs.producer_consumer())
        rows = _stimulus(comp, 1, n=8)
        PERF.reset()
        report = sweep(
            lambda _: simulate_batch(comp, [iter(rows)]).lanes, [0, 1]
        )
        assert report.values() == [1, 1]
        per_task = [r.counters for r in report.results]
        total = sum(c.get("batch.plan.spec.reactions", 0) for c in per_task)
        assert total == 16
        assert PERF.get("batch.plan.spec.reactions") == 16


class TestEstimatorLanes:
    def test_multi_lane_dominates_each_environment(self):
        from repro.desync.estimator import estimate_buffer_sizes
        from repro.workloads import scenarios

        prog = designs.modular_producer_consumer()
        envs = [scenarios.steady(), scenarios.bursty_producer()]
        lanes = estimate_buffer_sizes(
            prog, [w.stimulus_factory for w in envs], horizon=60
        )
        assert lanes.converged
        for env in envs:
            single = estimate_buffer_sizes(
                prog, env.stimulus_factory, horizon=60
            )
            for sig, size in single.sizes.items():
                assert lanes.sizes[sig] >= size

    def test_single_factory_steps_replay_on_interpreter(self):
        """One environment is a batch of one lane: every step's counters
        equal a reference-interpreter run of the network at its sizes."""
        from repro.desync import desynchronize
        from repro.desync.estimator import estimate_buffer_sizes
        from repro.workloads import scenarios

        prog = designs.modular_producer_consumer()
        env = scenarios.bursty_producer()
        report = estimate_buffer_sizes(prog, env.stimulus_factory, horizon=60)
        assert len(report.history) > 1   # some step raised alarms
        for step in report.history:
            result = desynchronize(prog, capacities=step.sizes, instrument=True)
            comp = flatten_program(result.program)
            trace = simulate(
                comp, env.stimulus_factory(), n=60,
                reactor=Reactor(comp, plan=Interpreter(comp)),
            )
            for ch in result.channels:
                regs = trace.values(ch.reg)
                assert step.misses[ch.signal] == (max(regs) if regs else 0)
                assert step.alarms[ch.signal] == trace.presence_count(ch.alarm)
        listed = estimate_buffer_sizes(
            prog, [env.stimulus_factory], horizon=60
        )
        assert listed == report

    def test_parallel_lanes_identical(self):
        """Three lanes at ``workers=2`` run as uneven chunks (2 + 1), and
        the lone lane of the second chunk is the one that sets the size:
        the merge across chunks decides the answer."""
        from repro.desync.estimator import estimate_buffer_sizes

        prog = designs.modular_producer_consumer()
        factories = [
            _steady_env_stimulus, _bursty_env_stimulus, _long_burst_env_stimulus
        ]
        seq = estimate_buffer_sizes(prog, factories, horizon=60)
        par = estimate_buffer_sizes(prog, factories, horizon=60, workers=2)
        assert par == seq
        first_chunk = estimate_buffer_sizes(prog, factories[:2], horizon=60)
        assert seq.sizes["x"] > first_chunk.sizes["x"]

    def test_plan_cache_serves_revisited_sizes(self):
        """The process-wide plan cache is the estimator's only cache of
        compiled networks: a first call compiles one plan per distinct
        sizes vector, and a repeat call compiles none."""
        from repro.desync.estimator import estimate_buffer_sizes
        from repro.workloads import scenarios

        prog = designs.modular_producer_consumer()
        env = scenarios.bursty_producer()
        clear_plan_cache()
        with PERF.scope() as cold_counts:
            cold = estimate_buffer_sizes(prog, env.stimulus_factory, horizon=60)
        with PERF.scope() as warm_counts:
            warm = estimate_buffer_sizes(prog, env.stimulus_factory, horizon=60)
        distinct = {tuple(sorted(step.sizes.items())) for step in cold.history}
        assert cold_counts.counts.get("plan.cache_misses") == len(distinct)
        assert "plan.cache_hits" not in cold_counts.counts
        assert warm_counts.counts.get("plan.cache_hits") == warm.iterations
        assert "plan.cache_misses" not in warm_counts.counts
        assert warm == cold

    def test_pooled_estimation_builds_each_sizes_vector_once(self):
        """Pooled rounds build their plan in this process and ship it, so
        the workers build nothing: a first call misses once per distinct
        sizes vector, and a repeat is served from this process's cache."""
        from repro.desync.estimator import estimate_buffer_sizes

        prog = designs.modular_producer_consumer()
        factories = [
            _steady_env_stimulus, _bursty_env_stimulus, _long_burst_env_stimulus
        ]
        clear_plan_cache()
        with PERF.scope() as cold_counts:
            cold = estimate_buffer_sizes(prog, factories, horizon=60, workers=2)
        with PERF.scope() as warm_counts:
            warm = estimate_buffer_sizes(prog, factories, horizon=60, workers=2)
        distinct = {tuple(sorted(step.sizes.items())) for step in cold.history}
        assert len(distinct) == 4
        assert cold_counts.counts.get("plan.cache_misses") == len(distinct)
        assert warm_counts.counts.get("plan.cache_hits") == len(distinct)
        assert "plan.cache_misses" not in warm_counts.counts
        assert warm == cold


# module-level so the workers=2 estimator path can pickle them
def _steady_env_stimulus():
    return stimuli.merge(
        stimuli.periodic("p_act", 1), stimuli.periodic("x_rreq", 1)
    )


def _bursty_env_stimulus():
    return stimuli.merge(
        stimuli.bursty("p_act", burst=3, gap=3),
        stimuli.periodic("x_rreq", 2),
    )


def _long_burst_env_stimulus():
    return stimuli.merge(
        stimuli.bursty("p_act", burst=6, gap=6),
        stimuli.periodic("x_rreq", 2),
    )


class TestBatchedSoaks:
    def test_soak_batch_matches_standalone(self):
        from repro.faults.soak import soak, soak_batch
        from repro.faults.spec import uniform_plan
        from repro.workloads import scenarios

        prog = designs.modular_producer_consumer()
        wl = scenarios.steady()
        plans = [
            uniform_plan(seed=7),
            uniform_plan(seed=7, drop=0.2),
            uniform_plan(seed=7, duplicate=0.2),
        ]
        batched = soak_batch(prog, wl, plans, horizon=25.0)
        for plan, got in zip(plans, batched):
            ref = soak(prog, wl, plan, horizon=25.0)
            assert got.classification == ref.classification
            assert got.flow_equivalent == ref.flow_equivalent
            assert got.fault_counts == ref.fault_counts

    def test_signal_iterator_classifies_every_plan(self):
        from repro.faults.soak import soak_batch
        from repro.faults.spec import uniform_plan
        from repro.resilience import RecoveryConfig
        from repro.workloads import scenarios

        prog = designs.modular_producer_consumer()
        plans = [uniform_plan(seed=7, drop=0.2)] * 2
        for recovery in (None, RecoveryConfig()):
            reports = soak_batch(
                prog, scenarios.steady(), plans, horizon=25.0,
                signals=iter(["x", "y"]), recovery=recovery,
            )
            assert [sorted(r.classification) for r in reports] == [
                ["x", "y"], ["x", "y"]
            ]
            assert reports[0].flow_equivalent == reports[1].flow_equivalent

    def test_batched_sweeps_byte_identical(self):
        """A sweep row is the standalone soak's: its summary for an
        unhardened spec, the report's ``summary()`` plus the scenario
        name for a hardened one.  Specs that differ only in their
        recovery config go to separate tasks."""
        from repro.faults.soak import soak
        from repro.resilience import RecoveryConfig
        from repro.workloads.scenarios import (
            _soak_summary,
            batched_soak_sweep,
            fault_kind_specs,
            recovery_rate_specs,
            workload_from_spec,
        )

        def standalone(spec, horizon):
            report = soak(
                prog, workload_from_spec(spec.workload), spec.plan,
                horizon=horizon, recovery=spec.recovery,
            )
            if spec.recovery is None:
                return _soak_summary(spec.name, report)
            return dict(report.summary(), scenario=spec.name)

        prog = designs.modular_producer_consumer()
        specs = fault_kind_specs(seed=7, rate=0.2)
        specs += [spec._replace(recovery=RecoveryConfig()) for spec in specs]
        with PERF.scope() as tables:
            rows = batched_soak_sweep(prog, specs, horizon=25.0)
        assert tables.counts["sweep.tasks"] == 2
        assert rows == [standalone(spec, 25.0) for spec in specs]
        rspecs = recovery_rate_specs(rates=(0.05, 0.3))
        assert batched_soak_sweep(prog, rspecs, horizon=20.0) == [
            standalone(spec, 20.0) for spec in rspecs
        ]

    def test_zero_fault_soak_is_its_reference_run(self, monkeypatch):
        """A plan that injects nothing is served by the reference run: its
        report equals weaving it into a fresh network and running that,
        and no network runs for it.  A hardened soak still runs every
        plan, since hardening changes the network."""
        from repro.faults.inject import weave_faults
        from repro.faults.soak import _classify, soak_batch
        from repro.faults.spec import uniform_plan
        from repro.gals.network import AsyncNetwork
        from repro.resilience import RecoveryConfig
        from repro.workloads import scenarios

        prog = designs.modular_producer_consumer()
        wl = scenarios.steady()
        clean, drop = uniform_plan(seed=7), uniform_plan(seed=7, drop=0.2)
        assert not clean.active and drop.active
        runs = []
        run = AsyncNetwork.run

        def counted(net, *args, **kwargs):
            runs.append(net)
            return run(net, *args, **kwargs)

        monkeypatch.setattr(AsyncNetwork, "run", counted)
        served, _ = soak_batch(prog, wl, [clean, drop], horizon=25.0)
        assert len(runs) == 2
        reference = AsyncNetwork.from_program(prog, wl.gals_schedules())
        woven = AsyncNetwork.from_program(prog, wl.gals_schedules())
        weave_faults(woven, clean)
        reference, woven = reference.run(25.0), woven.run(25.0)
        assert repr(served.faulted.behavior) == repr(woven.behavior)
        assert served.fault_counts == woven.fault_counts()
        assert (served.classification, served.flow_equivalent) == _classify(
            reference, woven, None
        )
        del runs[:]
        soak_batch(
            prog, wl, [clean, drop], horizon=25.0, recovery=RecoveryConfig()
        )
        assert len(runs) == 3

    def test_pooled_sweep_workers_build_each_node_plan_once(self):
        """A pooled soak sweep ships the program with each task, and a
        sweep worker keeps the plans it builds: after
        ``clear_plan_cache()`` a cold sweep misses each node's plan at
        least once and at most once per worker, and no worker builds one
        twice, so the next identical sweep misses none once every worker
        has run a task."""
        from repro.workloads.scenarios import batched_soak_sweep, fault_kind_specs

        prog = designs.producer_consumer()
        specs = fault_kind_specs() + fault_kind_specs(workload={"kind": "bursty"})
        nodes, workers = len(prog.components), 2
        clear_plan_cache()
        misses = []
        for _ in range(2):
            with PERF.scope() as counts:
                batched_soak_sweep(prog, specs, horizon=10.0, workers=workers)
            misses.append(counts.counts.get("plan.cache_misses", 0))
        cold, warm = misses
        assert nodes <= cold <= nodes * workers
        assert cold + warm <= nodes * workers
