"""Tests for the shared sweep executor (:mod:`repro.perf.sweep`)."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import pytest

from repro.perf import PERF
from repro.perf.sweep import (
    SweepReport,
    TaskResult,
    run_task,
    submit_task,
    sweep,
    worker_pool,
)


# task functions live at module level so the process pool can pickle them

def square(x):
    return x * x


def square_counted(x):
    PERF.incr("test.squares")
    PERF.add_time("test.square", 0.25)
    return x * x


def scaled(context, x):
    return context["factor"] * x


def jittered_identity(x):
    # later submissions finish first: completion order != submission order
    time.sleep(0.05 * (4 - x) / 4.0)
    return x


class TestSequential:
    def test_values_in_submission_order(self):
        report = sweep(square, [3, 1, 2])
        assert report.values() == [9, 1, 4]
        assert [r.index for r in report.results] == [0, 1, 2]
        assert report.workers == 1

    def test_lambdas_work_sequentially(self):
        report = sweep(lambda x: x + 1, [1, 2])
        assert report.values() == [2, 3]

    def test_shared_context(self):
        report = sweep(partial(scaled, {"factor": 10}), [1, 2, 3])
        assert report.values() == [10, 20, 30]

    def test_empty_items(self):
        report = sweep(square, [])
        assert report.values() == []
        assert isinstance(report, SweepReport)

    def test_per_task_counter_deltas(self):
        PERF.reset("test.")
        report = sweep(square_counted, [1, 2, 3])
        for task in report.results:
            assert isinstance(task, TaskResult)
            assert task.counters["test.squares"] == 1
            assert task.counters["time.test.square"] == pytest.approx(0.25)
            assert task.seconds >= 0.0
        assert report.totals()["test.squares"] == 3
        # sweep bookkeeping lands in the coordinator's registry
        assert PERF.get("test.squares") == 3

    def test_sweep_run_counters(self):
        before_runs = PERF.get("sweep.runs")
        before_tasks = PERF.get("sweep.tasks")
        sweep(square, [1, 2, 3, 4])
        assert PERF.get("sweep.runs") == before_runs + 1
        assert PERF.get("sweep.tasks") == before_tasks + 4


class TestParallel:
    def test_submission_order_beats_completion_order(self):
        report = sweep(jittered_identity, [0, 1, 2, 3], workers=4)
        assert report.values() == [0, 1, 2, 3]
        assert report.workers == 4

    def test_identical_results_at_any_worker_count(self):
        reference = sweep(square, list(range(8))).values()
        for workers in (2, 4):
            assert sweep(square, list(range(8)), workers=workers).values() \
                == reference

    def test_shared_context_ships_to_workers(self):
        report = sweep(partial(scaled, {"factor": 5}), [1, 2, 3], workers=2)
        assert report.values() == [5, 10, 15]
        assert report.workers == 2

    def test_worker_deltas_merge_into_coordinator(self):
        PERF.reset("test.")
        time_before = PERF.get_time("test.square")
        report = sweep(square_counted, [1, 2, 3, 4], workers=2)
        # each worker ran with a clean registry, so every task reports
        # exactly its own delta...
        for task in report.results:
            assert task.counters["test.squares"] == 1
        # ...and the coordinator's registry reads as if it ran them all
        assert PERF.get("test.squares") == 4
        assert PERF.get_time("test.square") - time_before \
            == pytest.approx(1.0)

    def test_workers_capped_by_item_count(self):
        report = sweep(square, [1, 2], workers=16)
        assert report.workers == 2
        assert report.values() == [1, 4]


def float_counted(x):
    # a float counter that is NOT a time phase: folding pool results
    # once dropped these, so coordinator PERF disagreed with a
    # sequential run
    PERF.incr("test.score", 0.5)
    PERF.incr("test.points")
    return x


def resetting_task(x):
    PERF.incr("test.before_reset", 2)
    if x % 2:
        PERF.reset()
    PERF.incr("test.after_reset")
    return x


def flaky(x):
    if x == 2:
        raise ValueError("boom on {}".format(x))
    PERF.incr("test.flaky_ok")
    return x * 10


def marked(directory, x):
    """Leave a marker file on starting; point 0 fails at once, the
    others take a while."""
    open(os.path.join(directory, str(x)), "w").close()
    if x == 0:
        raise ValueError("point 0 fails")
    time.sleep(0.3)
    return x


def scripted(ops):
    """Interpret a per-task op list generated by the property test."""
    for op in ops:
        if op[0] == "incr":
            PERF.incr("test.prop." + op[1], op[2])
        elif op[0] == "time":
            PERF.add_time("test.prop." + op[1], op[2])
        elif op[0] == "reset":
            PERF.reset()
        elif op[0] == "raise":
            raise RuntimeError("scripted failure")
    return len(ops)


class TestCounterAccounting:
    def test_float_counters_merge_back_from_workers(self):
        """Regression: a non-``time.`` float delta must fold back so the
        coordinator registry reads the same at any worker count."""
        PERF.reset("test.")
        seq = sweep(float_counted, [1, 2, 3, 4])
        seq_score = PERF.get("test.score")
        seq_totals = seq.totals()
        PERF.reset("test.")
        par = sweep(float_counted, [1, 2, 3, 4], workers=4)
        assert PERF.get("test.score") == pytest.approx(seq_score) \
            == pytest.approx(2.0)
        assert par.totals() == seq_totals
        assert par.totals()["test.score"] == pytest.approx(2.0)
        assert par.totals()["test.points"] == 4

    def test_totals_rounds_once_not_per_addition(self):
        """Rounding on every addition flushed tiny per-task floats to
        zero (and compounded error on big sweeps)."""
        tiny = 1e-7
        results = tuple(
            TaskResult(i, None, 0.0, {"test.tiny": tiny}) for i in range(100)
        )
        report = SweepReport(results, 0.0, 1)
        assert report.totals()["test.tiny"] == pytest.approx(1e-5)

    def test_mid_task_reset_same_counters_at_any_worker_count(self):
        PERF.reset("test.")
        seq = sweep(resetting_task, [0, 1, 2, 3])
        seq_state = (PERF.get("test.before_reset"), PERF.get("test.after_reset"))
        PERF.reset("test.")
        par = sweep(resetting_task, [0, 1, 2, 3], workers=4)
        par_state = (PERF.get("test.before_reset"), PERF.get("test.after_reset"))
        assert [r.counters for r in seq.results] \
            == [r.counters for r in par.results]
        assert seq.totals() == par.totals()
        assert seq_state == par_state


def in_process(fn, items):
    """Capture each point's error, in this process: the service
    scheduler's inline path."""
    return [
        run_task(fn, index, item, capture_errors=True)
        for index, item in enumerate(items)
    ]


def pooled(fn, items, workers=4):
    """Capture each point's error on a worker pool, folding every
    result's counters into this process: the service scheduler's pooled
    path."""
    with worker_pool(workers) as pool:
        futures = [
            submit_task(pool, fn, index, item, True)
            for index, item in enumerate(items)
        ]
        results = [f.result() for f in futures]
    for r in results:
        PERF.merge(r.counters)
    return results


def errors(results):
    return [(r.index, r.error) for r in results if r.error]


class TestErrorCapture:
    def test_default_still_raises_sequentially(self):
        with pytest.raises(ValueError):
            sweep(flaky, [1, 2, 3])

    def test_default_still_raises_in_pool(self):
        with pytest.raises(ValueError):
            sweep(flaky, [1, 2, 3], workers=2)

    def test_pool_error_cancels_queued_points(self, tmp_path):
        """The first error propagates without running the points still
        queued: only the ones already handed to the workers (two running,
        a few prefetched) start."""
        points = list(range(16))
        with pytest.raises(ValueError, match="point 0 fails"):
            sweep(partial(marked, str(tmp_path)), points, workers=2)
        started = os.listdir(str(tmp_path))
        assert "0" in started
        assert len(started) < len(points) // 2

    def test_capture_records_error_slot(self):
        results = in_process(flaky, [1, 2, 3])
        assert [r.value for r in results] == [10, None, 30]
        assert errors(results) == [(1, "ValueError: boom on 2")]
        ok, bad = results[0], results[1]
        assert ok.error is None
        assert bad.value is None and bad.error.startswith("ValueError")

    def test_capture_keeps_pool_alive(self):
        results = pooled(flaky, [1, 2, 3, 4])
        assert [r.value for r in results] == [10, None, 30, 40]
        assert errors(results) == [(1, "ValueError: boom on 2")]

    def test_capture_identical_across_worker_counts(self):
        seq = in_process(flaky, [1, 2, 3, 4])
        par = pooled(flaky, [1, 2, 3, 4])
        assert [r.value for r in seq] == [r.value for r in par]
        assert errors(seq) == errors(par)
        assert [r.counters for r in seq] == [r.counters for r in par]


def dies_on_one(x):
    """Point 1 ends its worker process on the spot."""
    if x == 1:
        os._exit(3)
    return x


def worker_parent(_):
    return os.getppid()


def producer_consumer_plan(_):
    """Take one network's plan from this worker's cache; the task's
    counters say whether that missed."""
    from repro import designs
    from repro.lang.analysis import flatten_program
    from repro.sim.plan import shared_plan

    shared_plan(flatten_program(designs.producer_consumer()))
    return os.getpid()


def sweep_in_child(conn):
    """Run a pooled sweep in this process; send back the parent pid each
    point's worker reported and the pids of this process's children,
    then return, so the process exits normally."""
    parents = sweep(worker_parent, range(4), workers=2).values()
    conn.send((
        sorted(set(parents)),
        [p.pid for p in multiprocessing.active_children()],
    ))
    conn.close()


def alive(pids):
    """The pids in ``pids`` that name a process."""
    out = []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        out.append(pid)
    return out


def misses_by_worker(*reports):
    """Worker pid -> the plan-cache misses of each of its tasks, in the
    order it ran them (a worker takes its points in submission order)."""
    out = {}
    for report in reports:
        for r in report.results:
            misses = r.counters.get("plan.cache_misses", 0)
            out.setdefault(r.value, []).append(misses)
    return out


class TestPoolLifecycle:
    """One pool per process: kept across calls, replaced when broken,
    forgotten by a fork, ended at exit and by ``clear_plan_cache``."""

    def test_dead_worker_fails_its_sweep_and_the_next_replaces_the_pool(self):
        with pytest.raises(BrokenProcessPool):
            sweep(dies_on_one, [0, 1, 2, 3], workers=2)
        assert sweep(square, [1, 2, 3], workers=2).values() == [1, 4, 9]

    def test_forked_child_sweeps_on_its_own_workers(self):
        """A fork forgets its parent's pool: every worker of the child's
        sweep is the child's own, the child ends them when it exits
        normally, and the parent's pool still serves."""
        assert sweep(square, [1, 2], workers=2).values() == [1, 4]
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=sweep_in_child, args=(send,))
        child.start()
        send.close()
        workers = []
        try:
            assert receive.poll(60)
            parents, workers = receive.recv()
            child.join(60)
            assert not child.is_alive()
        finally:
            if child.is_alive():
                child.kill()
                child.join(10)
            for pid in alive(workers):
                os.kill(pid, signal.SIGKILL)
        assert child.exitcode == 0
        assert parents == [child.pid]
        assert len(workers) == 2
        assert alive(workers) == []
        assert sweep(square, [3, 4], workers=2).values() == [9, 16]

    def test_exiting_interpreter_ends_its_workers(self):
        import repro

        code = (
            "import json, multiprocessing, os\n"
            "from repro.perf.sweep import sweep\n"
            "def pid(_):\n"
            "    return os.getpid()\n"
            "sweep(pid, range(4), workers=2)\n"
            "print(json.dumps([p.pid for p in multiprocessing.active_children()]))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
        ).stdout
        workers = json.loads(out.strip().splitlines()[-1])
        try:
            assert len(workers) == 2
            assert alive(workers) == []
        finally:
            for pid in alive(workers):
                os.kill(pid, signal.SIGKILL)

    def test_workers_keep_their_plans_until_clear_plan_cache(self):
        """A worker builds the plan on its first point and on no later
        one, in this call or the next; after ``clear_plan_cache()`` new
        workers build it again."""
        from repro.sim.plan import clear_plan_cache

        clear_plan_cache()
        kept = misses_by_worker(
            sweep(producer_consumer_plan, range(6), workers=2),
            sweep(producer_consumer_plan, range(6), workers=2),
        )
        clear_plan_cache()
        fresh = misses_by_worker(
            sweep(producer_consumer_plan, range(6), workers=2)
        )
        assert not set(kept) & set(fresh)
        for misses in list(kept.values()) + list(fresh.values()):
            assert misses == [1] + [0] * (len(misses) - 1)


try:
    from hypothesis import HealthCheck, example, given, settings, strategies as st

    _op = st.one_of(
        st.tuples(st.just("incr"), st.sampled_from("abc"),
                  st.integers(min_value=1, max_value=5)),
        st.tuples(st.just("time"), st.sampled_from("ab"),
                  st.floats(min_value=0.001, max_value=0.5)),
        st.tuples(st.just("reset")),
        st.tuples(st.just("raise")),
    )

    class TestWorkerCountInvariance:
        """Property: a task that resets PERF or raises mid-grid yields
        identical values, error slots, per-task counters and registry
        in-process and on a 4-worker pool."""

        @given(grid=st.lists(st.lists(_op, max_size=4), min_size=1, max_size=4))
        # phase times whose per-task roundings sum past the rounded total
        @example(grid=[[("time", "a", 0.47168076563054984)],
                       [("time", "a", 0.3442615183334297)]])
        @settings(max_examples=6, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def test_reports_identical_at_1_and_4_workers(self, grid):
            PERF.reset("test.")
            PERF.reset("time.test.")
            seq = in_process(scripted, grid)
            seq_registry = {
                k: v for k, v in PERF.snapshot().items()
                if k.startswith("test.prop.") or k.startswith("time.test.prop.")
            }
            PERF.reset("test.")
            PERF.reset("time.test.")
            par = pooled(scripted, grid)
            par_registry = {
                k: v for k, v in PERF.snapshot().items()
                if k.startswith("test.prop.") or k.startswith("time.test.prop.")
            }
            assert [r.value for r in seq] == [r.value for r in par]
            assert errors(seq) == errors(par)
            assert [r.counters for r in seq] == [r.counters for r in par]
            for key in set(seq_registry) | set(par_registry):
                assert seq_registry.get(key, 0) \
                    == pytest.approx(par_registry.get(key, 0))
except ImportError:  # pragma: no cover - hypothesis is a test extra
    pass
