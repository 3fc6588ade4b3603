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
from repro.sim import Reactor, simulate, simulate_batch, stimuli
from repro.sim.plan import (
    ReactionPlan,
    clear_plan_cache,
    component_key,
    plan_cache_stats,
    shared_plan,
)
from repro.sim.specialize import SpecializedPlan, specialize


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
        plan = specialize(comp)
        assert isinstance(plan, SpecializedPlan)
        assert plan.kind == "plan.spec"
        assert "_sweep" in plan.source
        # a plan can be re-specialized from an existing ReactionPlan
        assert isinstance(specialize(ReactionPlan(comp)), SpecializedPlan)


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

    def test_plain_and_specialized_cached_separately(self):
        comp = flatten_program(designs.producer_consumer())
        plain = shared_plan(comp, specialize=False)
        spec = shared_plan(comp, specialize=True)
        assert plain is not spec
        assert not isinstance(plain, SpecializedPlan)
        assert isinstance(spec, SpecializedPlan)
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
            shared_plan(comp, specialize=False)
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
        report = simulate_batch(comp, [iter(rows) for _ in range(4)])
        assert report.stats["memo_hits"] >= 3 * 12
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
        report = simulate_batch(
            comp,
            [iter(rows), iter(rows)],
            oracle=lambda index, undetermined: {},
        )
        assert report.stats["memo_hits"] == 0
        plain = simulate_batch(comp, [iter(rows), iter(rows)])
        assert plain.stats["memo_hits"] > 0
        for k in range(2):
            assert repr(report.traces[k].instants) == repr(
                plain.traces[k].instants
            )


def _reference_with_errors(comp, rows):
    reactor = Reactor(comp, check=False, specialize=False)
    out, err = [], None
    for row in rows:
        try:
            out.append(reactor.react(row))
        except SimulationError as exc:
            err = (type(exc).__name__, str(exc))
            break
    return out, err


class TestUnspecializedBatch:
    """Wide batches over the closure plan (``specialize=False``)."""

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
                specialize=False,
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
            comp, [iter(rows) for rows in lanes], specialize=False
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
            reactor=Reactor(comp, check=False, specialize=True),
        )
        assert PERF.get("sim.plan.spec.reactions") == 10
        assert PERF.get("sim.plan.reactions") == 10  # unchanged
        clear_plan_cache()
        rep = simulate_batch(comp, [iter(rows), iter(rows)])
        # identical lanes share reactions through the batch memo: executed
        # reactions + memo hits account for every recorded instant, and
        # the second lane is hits from start to finish
        assert rep.stats["reactions"] + rep.stats["memo_hits"] == 20
        assert rep.stats["memo_hits"] >= 10
        assert PERF.get("batch.plan.spec.reactions") == rep.stats["reactions"]
        assert PERF.get("batch.memo_hits") == rep.stats["memo_hits"]
        assert PERF.get("batch.lanes") == 2
        assert PERF.get("batch.instants") == 20
        clear_plan_cache()
        rep2 = simulate_batch(comp, [iter(rows)], specialize=False)
        assert rep2.stats["reactions"] + rep2.stats["memo_hits"] == 10
        assert PERF.get("batch.plan.reactions") == rep2.stats["reactions"]

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

    def test_single_factory_list_degrades_to_classic(self):
        from repro.desync.estimator import estimate_buffer_sizes
        from repro.workloads import scenarios

        prog = designs.modular_producer_consumer()
        env = scenarios.bursty_producer()
        classic = estimate_buffer_sizes(prog, env.stimulus_factory, horizon=60)
        listed = estimate_buffer_sizes(
            prog, [env.stimulus_factory], horizon=60
        )
        assert listed == classic

    def test_parallel_lanes_identical(self):
        from repro.desync.estimator import estimate_buffer_sizes

        prog = designs.modular_producer_consumer()
        factories = [_steady_env_stimulus, _bursty_env_stimulus]
        seq = estimate_buffer_sizes(prog, factories, horizon=60)
        par = estimate_buffer_sizes(prog, factories, horizon=60, workers=2)
        assert par == seq


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

    def test_batched_sweeps_byte_identical(self):
        from repro.workloads.scenarios import (
            batched_recovery_sweep,
            batched_soak_sweep,
            fault_kind_specs,
            recovery_rate_specs,
            recovery_sweep,
            soak_sweep,
        )

        prog = designs.modular_producer_consumer()
        specs = fault_kind_specs(seed=7, rate=0.2)
        assert (
            batched_soak_sweep(prog, specs, horizon=25.0)
            == soak_sweep(prog, specs, horizon=25.0).values()
        )
        rspecs = recovery_rate_specs(rates=(0.05, 0.3))
        assert (
            batched_recovery_sweep(prog, rspecs, horizon=20.0)
            == recovery_sweep(prog, rspecs, horizon=20.0).values()
        )
