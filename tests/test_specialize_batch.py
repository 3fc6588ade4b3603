"""Plan specialization, the shared plan cache, and batched lane execution.

The contract under test everywhere: the specialized generated code and
the batch lanes are *observationally byte-identical* to the closure plan
and the reference interpreter — same traces, same errors, same estimator
outputs, same soak verdicts — only faster.
"""

import sys

import pytest

from repro import designs
from repro.errors import SimulationError
from repro.lang.analysis import flatten_program
from repro.lang.ast import App, Component, Equation, Program, Var
from repro.lang.types import EVENT, INT
from repro.perf import PERF
from repro.sim import (
    Interpreter,
    ReactionPlan,
    Reactor,
    simulate,
    simulate_batch,
    stimuli,
)
from repro.sim.plan import (
    clear_plan_cache,
    component_key,
    plan_cache_stats,
    shared_plan,
)
from repro.sim.specialize import SpecializedPlan


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
        """Specialized traces match the closure plan's across the whole
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
                ref = simulate(comp, iter(rows))
                got = simulate(
                    comp,
                    iter(rows),
                    reactor=Reactor(comp, plan=spec_plan, check=False),
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
        """No step of the corpus, or of its capacity-2 instrumented
        desynchronizations, falls back to its closure."""
        steps = 0
        for name, comp in _corpus_and_networks():
            plan = SpecializedPlan(comp)
            assert plan.fallback_steps == 0, name
            steps += plan.specialized_steps
        assert steps >= 800

    @pytest.mark.parametrize("depth, fallbacks", [(12, 0), (100, 1)])
    def test_deep_default_chain_matches_closure_plan(self, depth, fallbacks):
        """Generated code grows linearly with a right-nested ``default``
        chain (``a0 default (a1 default (... a<depth>))``), so a depth-12
        chain is inlined whole; one nested past ``MAX_STEP_DEPTH`` keeps
        its closure step instead of failing to compile.  Both react
        exactly as the closure plan does."""
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
        plan = SpecializedPlan(comp)
        assert plan.fallback_steps == fallbacks
        shipped = pickle.loads(pickle.dumps(plan))
        assert shipped.fallback_steps == fallbacks
        rng = random.Random(depth)
        rows = [
            {n: ABSENT if rng.random() < 0.85 else rng.randrange(9)
             for n in names}
            for _ in range(200)
        ]
        ref = Reactor(comp)
        expected = [ref.react(r) for r in rows]
        for executor in (plan, shipped):
            spec = Reactor(comp, plan=executor)
            assert [spec.react(r) for r in rows] == expected


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
    from repro.sim.engine import ABSENT

    out = []
    state = list(plan.init_state)
    try:
        for t, row in enumerate(rows):
            status, value, state = plan.react_slots(row, state, None, t, ABSENT)
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
            assert shipped.specialized_steps == plan.specialized_steps
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
        assert component_key(a) == component_key(b)
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
            "sync", {"a": EVENT, "b": EVENT}, {"o": INT}, {},
            [Equation("o", App("+", (Var("a"), Var("b"))))],
        )
        good = [{"a": True, "b": True}] * 3
        bad = [{"a": True, "b": True}, {"a": True}]
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
    reactor = Reactor(comp, check=False)
    out, err = [], None
    for row in rows:
        try:
            out.append(reactor.react(row))
        except SimulationError as exc:
            err = (type(exc).__name__, str(exc))
            break
    return out, err


class TestUnspecializedBatch:
    """Wide batches over the closure plan (``plan=ReactionPlan(comp)``)."""

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
                plan=ReactionPlan(comp),
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
            comp, [iter(rows) for rows in lanes], plan=ReactionPlan(comp)
        )
        for k, ref in enumerate(refs):
            assert repr(report.traces[k].instants) == repr(ref.instants)


class TestCounterAttribution:
    def test_plan_vs_spec_vs_batch_phases(self):
        comp = flatten_program(designs.producer_consumer())
        rows = _stimulus(comp, 0, n=10)
        PERF.reset()
        simulate(comp, iter(rows), reactor=Reactor(comp, check=False))
        assert PERF.get("sim.plan.reactions") == 10
        assert PERF.get("sim.plan.spec.reactions") == 0
        simulate(
            comp, iter(rows),
            reactor=Reactor(comp, check=False, plan=SpecializedPlan(comp)),
        )
        assert PERF.get("sim.plan.spec.reactions") == 10
        assert PERF.get("sim.plan.reactions") == 10  # unchanged
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
            simulate_batch(comp, [iter(rows)], plan=ReactionPlan(comp))
        counts2 = run2.counts
        assert (
            counts2["batch.plan.reactions"] + counts2.get("batch.memo_hits", 0)
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
        from repro.faults.soak import recovery_soak_batch, soak_batch
        from repro.faults.spec import uniform_plan
        from repro.workloads import scenarios

        prog = designs.modular_producer_consumer()
        plans = [uniform_plan(seed=7, drop=0.2)] * 2
        for batch in (soak_batch, recovery_soak_batch):
            reports = batch(
                prog, scenarios.steady(), plans, horizon=25.0,
                signals=iter(["x", "y"]),
            )
            assert [sorted(r.classification) for r in reports] == [
                ["x", "y"], ["x", "y"]
            ]
            assert reports[0].flow_equivalent == reports[1].flow_equivalent

    def test_batched_sweeps_byte_identical(self):
        from repro.faults.soak import recovery_soak, soak
        from repro.workloads.scenarios import (
            _soak_summary,
            batched_recovery_sweep,
            batched_soak_sweep,
            fault_kind_specs,
            recovery_rate_specs,
            workload_from_spec,
        )

        prog = designs.modular_producer_consumer()
        specs = fault_kind_specs(seed=7, rate=0.2)
        assert batched_soak_sweep(prog, specs, horizon=25.0) == [
            _soak_summary(
                spec.name,
                soak(
                    prog, workload_from_spec(spec.workload), spec.plan,
                    horizon=25.0,
                ),
            )
            for spec in specs
        ]
        rspecs = recovery_rate_specs(rates=(0.05, 0.3))
        expected = []
        for spec in rspecs:
            summary = recovery_soak(
                prog, workload_from_spec(spec.workload), spec.plan,
                horizon=20.0,
            ).summary()
            summary["scenario"] = spec.name
            expected.append(summary)
        assert batched_recovery_sweep(prog, rspecs, horizon=20.0) == expected
