"""Tests for the verification-job platform (:mod:`repro.service`):
content-addressed keys, repeats served from the job table, and the
scheduler's states, priorities, coalescing, cancellation and
worker-count invariance."""

import inspect
import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest

from repro import designs
from repro.errors import VerificationError
from repro.lang.ast import Component, Program
from repro.lang.serializer import content_key, program_to_dict
from repro.mc.store import STORE_ENV, store_key
from repro.perf import PERF
from repro.perf.sweep import run_task
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    JobSpec,
    Scheduler,
    execute,
    job_key,
    resolve_program,
)
from repro.service.jobs import design_key, result_digest, spec_from_dict


LINT = {"kind": "lint", "design": "producer_consumer", "params": {}}
SOAK = {
    "kind": "soak", "design": "producer_consumer",
    "params": {"seed": 3, "drop": 0.2, "horizon": 8.0},
}
VERIFY = {
    "kind": "verify", "design": "boolean_producer_consumer",
    "params": {"backend": "explicit", "never": "y"},
}
ESTIMATE = {
    "kind": "estimate", "design": "producer_consumer",
    "params": {"horizon": 6},
}
MIXED = [LINT, SOAK, VERIFY, ESTIMATE]
BAD = {"kind": "verify", "design": "producer_consumer",
       "params": {"backend": "bogus"}}


def corpus_names():
    """Every design in :mod:`repro.designs` a job can name: constructors
    that take no required argument and build a design."""
    names = []
    for name in sorted(dir(designs)):
        fn = getattr(designs, name)
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        params = inspect.signature(fn).parameters.values()
        if any(p.default is inspect.Parameter.empty for p in params):
            continue
        if isinstance(fn(), (Program, Component)):
            names.append(name)
    return names


class TestJobKeys:
    def test_content_addressing_ignores_design_spelling(self):
        """A corpus name and the equivalent inline program share a key."""
        inline = {"program": program_to_dict(designs.producer_consumer())}
        by_name = job_key(spec_from_dict(LINT))
        by_program = job_key(spec_from_dict({
            "kind": "lint", "design": inline, "params": {},
        }))
        assert by_name == by_program

    def test_kind_params_and_design_discriminate(self):
        base = job_key(spec_from_dict(LINT))
        assert base != job_key(spec_from_dict(
            {"kind": "estimate", "design": "producer_consumer", "params": {}}))
        assert base != job_key(spec_from_dict(
            {"kind": "lint", "design": "producer_accumulator", "params": {}}))
        assert base != job_key(spec_from_dict(
            {"kind": "lint", "design": "producer_consumer",
             "params": {"synchronous": True}}))

    def test_priority_is_not_part_of_the_key(self):
        lo = spec_from_dict(dict(LINT, priority=0))
        hi = spec_from_dict(dict(LINT, priority=9))
        assert job_key(lo) == job_key(hi)

    def test_design_key_accepts_constructor_args(self):
        k3 = design_key({"name": "pipeline", "args": {"stages": 3}})
        k4 = design_key({"name": "pipeline", "args": {"stages": 4}})
        assert k3 != k4
        assert k3 == design_key("pipeline")  # default stages=3

    def test_one_key_recipe_with_the_store(self):
        """Job keys and design keys are the store's."""
        names = corpus_names()
        assert len(names) >= 7
        for name in names:
            assert design_key(name) == content_key(resolve_program(name))
        for spec in map(spec_from_dict, MIXED):
            assert job_key(spec) == store_key(
                spec.kind, design_key(spec.design), spec.params)

    def test_validation(self):
        with pytest.raises(ValueError):
            spec_from_dict({"kind": "nope", "design": "producer_consumer"})
        with pytest.raises(ValueError):
            spec_from_dict({"kind": "lint"})
        with pytest.raises(ValueError):
            design_key("definitely_not_a_design")
        with pytest.raises(ValueError):
            design_key({"what": "is this"})


class TestRunnerDeterminism:
    def test_every_kind_reproduces_its_digest(self):
        for spec in MIXED:
            first = execute(dict(spec))
            second = execute(dict(spec))
            assert first["digest"] == second["digest"]
            assert first["result"] == second["result"]
            assert first["digest"] == result_digest(first["result"])

    def test_failures_raise(self):
        with pytest.raises(ValueError):
            execute({"kind": "verify", "design": "producer_consumer",
                     "params": {"backend": "bogus"}})

    def test_verify_rejects_a_signal_outside_the_interface(self):
        # the explicit backend answered "proven": its LTS never sees the name
        with pytest.raises(VerificationError, match="ghost"):
            execute({"kind": "verify", "design": "producer_consumer",
                     "params": {"never": "ghost"}})


class TestJobCounters:
    def test_symbolic_jobs_record_bdd_counters(self, monkeypatch):
        # a job's counters are its run_task scope; each symbolic verdict
        # folds its BDD counts there once, so a rerun in a fresh scope
        # reports the same figures
        monkeypatch.delenv(STORE_ENV, raising=False)
        verify = dict(VERIFY, params={"backend": "symbolic", "never": "y"})
        prove = {
            "kind": "prove", "design": "boolean_producer_consumer",
            "params": {"backend": "symbolic", "fifo": "boolean",
                       "capacities": 1},
        }
        for spec in (verify, prove):
            runs = [run_task(execute, 0, spec).counters for _ in range(2)]
            bdd = [
                {k: v for k, v in counters.items() if k.startswith("bdd.")}
                for counters in runs
            ]
            assert bdd[0]["bdd.apply_misses"] > 0
            assert bdd[0] == bdd[1]


class TestResultCache:
    """The job table's served results, as ``stats()['result_cache']``
    reports them."""

    def test_miss_then_hit(self):
        with PERF.scope():
            sched = Scheduler(workers=1)
            first = sched.submit(LINT)
            cache = sched.stats()["result_cache"]
            assert cache == {"size": 0, "hits": 0, "misses": 1,
                             "hit_rate": 0.0}
            sched.start()
            try:
                assert sched.wait([first], timeout=60)
                assert sched.stats()["result_cache"]["size"] == 1
                again = sched.submit(LINT)
                cache = sched.stats()["result_cache"]
            finally:
                sched.shutdown()
        assert sched.job(again).envelope == sched.job(first).envelope
        assert cache["hits"] == 1 and cache["misses"] == 1
        assert cache["hit_rate"] == pytest.approx(0.5)
        assert cache["size"] == 1


class TestSchedulerInline:
    def test_byte_identity_vs_direct_execution(self):
        reference = [execute(dict(s))["digest"] for s in MIXED]
        with Scheduler(workers=1) as sched:
            ids = sched.submit_many(MIXED)
            assert sched.wait(ids, timeout=120)
            digests = [sched.job(i).envelope["digest"] for i in ids]
        assert digests == reference

    def test_resubmission_hits_result_cache(self):
        # submit counts its hit or miss in the caller's scope
        with PERF.scope(), Scheduler(workers=1) as sched:
            first = sched.submit(LINT)
            assert sched.wait([first], timeout=60)
            again = sched.submit(LINT)
            record = sched.job(again)
            assert record.state == DONE and record.cache_hit
            assert record.envelope == sched.job(first).envelope
            cache = sched.stats()["result_cache"]
        assert cache["hits"] == 1 and cache["misses"] == 1
        assert cache["hit_rate"] == pytest.approx(0.5)
        assert cache["size"] == 1

    def test_resubmission_after_failure_runs_again(self):
        with Scheduler(workers=1) as sched:
            first = sched.submit(BAD)
            assert sched.wait([first], timeout=60)
            again = sched.submit(BAD)
            assert sched.wait([again], timeout=60)
            records = [sched.job(first), sched.job(again)]
            stats = sched.stats()
        assert [r.state for r in records] == [FAILED, FAILED]
        assert not records[1].cache_hit and not records[1].coalesced
        assert stats["executed"] == 2
        assert stats["result_cache"]["size"] == 0

    def test_resubmission_after_cancel_is_queued(self):
        sched = Scheduler(workers=1)
        victim = sched.submit(LINT)
        assert sched.cancel(victim)
        again = sched.submit(LINT)
        assert not sched.job(again).cache_hit
        assert not sched.job(again).coalesced
        sched.start()
        try:
            assert sched.wait([again], timeout=60)
            assert sched.job(again).state == DONE
            assert sched.stats()["executed"] == 1
        finally:
            sched.shutdown()

    def test_result_cache_size_counts_distinct_done_keys(self):
        sched = Scheduler(workers=1)
        ids = sched.submit_many([LINT, SOAK, SOAK, BAD])
        sched.start()
        try:
            assert sched.wait(ids, timeout=120)
            ids.append(sched.submit(LINT))
            assert sched.job(ids[-1]).cache_hit
            stats = sched.stats()
        finally:
            sched.shutdown()
        states = [sched.job(i).state for i in ids]
        assert states == [DONE, DONE, DONE, FAILED, DONE]
        # LINT and SOAK; the coalesced twin, the repeat and the failure
        # add no key
        assert stats["result_cache"]["size"] == 2
        assert stats["executed"] == 3

    def test_resubmissions_racing_completion_run_once(self):
        """Threads resubmitting a key while its job completes are all
        served or coalesced: deciding between serving, coalescing and
        queueing takes one critical section, so none of them can miss
        both the finished result and the in-flight twin."""
        threads_n, per_thread = 8, 25
        sched = Scheduler(workers=1)
        leader = sched.submit(SOAK)
        started = threading.Barrier(threads_n + 1)
        submitted = [[] for _ in range(threads_n)]

        def resubmit(mine):
            mine.append(sched.submit(SOAK))
            started.wait(30)  # every thread submitted once before start()
            while len(mine) < per_thread - 1 and not sched.job(leader).done:
                mine.append(sched.submit(SOAK))
            sched.wait([leader], timeout=120)
            while len(mine) < per_thread:
                mine.append(sched.submit(SOAK))

        threads = [threading.Thread(target=resubmit, args=(mine,))
                   for mine in submitted]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            started.wait(30)
            sched.start()
            for t in threads:
                t.join(120)
            assert not any(t.is_alive() for t in threads)
            ids = [leader] + [i for mine in submitted for i in mine]
            assert len(ids) == 1 + threads_n * per_thread
            assert sched.wait(ids, timeout=120)
            stats = sched.stats()
        finally:
            sys.setswitchinterval(interval)
            sched.shutdown()
        records = [sched.job(i) for i in ids]
        assert stats["executed"] == 1
        assert [r.state for r in records] == [DONE] * len(records)
        digest = records[0].envelope["digest"]
        assert all(r.envelope["digest"] == digest for r in records)
        assert not records[0].cache_hit
        assert all(r.cache_hit for r in records[1:])

    def test_coalescing_of_inflight_twins(self):
        # submit before start(): the twin coalesces onto the queued job
        sched = Scheduler(workers=1)
        a = sched.submit(SOAK)
        b = sched.submit(SOAK)
        assert sched.job(b).coalesced
        sched.start()
        try:
            assert sched.wait([a, b], timeout=120)
            ra, rb = sched.job(a), sched.job(b)
            assert ra.state == DONE and rb.state == DONE
            assert rb.cache_hit
            assert ra.envelope["digest"] == rb.envelope["digest"]
            # the work ran once
            assert sched.stats()["executed"] == 1
        finally:
            sched.shutdown()

    def test_priorities_order_execution(self):
        sched = Scheduler(workers=1)
        events = sched.subscribe()
        low = sched.submit(dict(LINT, priority=0))
        high = sched.submit(dict(VERIFY, priority=5))
        sched.start()
        try:
            assert sched.wait([low, high], timeout=60)
        finally:
            sched.shutdown()
        running = [e["id"] for e in _drain(events) if e["state"] == "running"]
        assert running == [high, low]

    def test_cancel_pending_job(self):
        sched = Scheduler(workers=1)
        victim = sched.submit(LINT)
        assert sched.cancel(victim)
        sched.start()
        try:
            assert sched.wait([victim], timeout=10)
            assert sched.job(victim).state == CANCELLED
            # terminal states cannot be cancelled again
            assert not sched.cancel(victim)
        finally:
            sched.shutdown()

    def test_cancel_leader_promotes_coalesced_twin(self):
        sched = Scheduler(workers=1)
        leader = sched.submit(SOAK)
        twin = sched.submit(SOAK)
        assert sched.cancel(leader)
        sched.start()
        try:
            assert sched.wait([leader, twin], timeout=120)
            assert sched.job(leader).state == CANCELLED
            assert sched.job(twin).state == DONE
        finally:
            sched.shutdown()

    def test_failed_job_records_error(self):
        with Scheduler(workers=1) as sched:
            job_id = sched.submit(BAD)
            assert sched.wait([job_id], timeout=60)
            record = sched.job(job_id)
            assert record.state == FAILED
            assert "bogus" in record.error
            assert record.envelope is None

    def test_estimate_cap_below_initial_size_fails(self):
        spec = {"kind": "estimate", "design": "producer_consumer",
                "params": {"initial": 4, "max_capacity": 2}}
        with Scheduler(workers=1) as sched:
            job_id = sched.submit(spec)
            assert sched.wait([job_id], timeout=60)
            record = sched.job(job_id)
        assert record.state == FAILED
        assert record.error == (
            "ValueError: max_capacity 2 is below the initial size 4 "
            "of channel 'x'"
        )
        assert record.envelope is None

    @pytest.mark.parametrize("params, error", [
        ({"horizon": 0, "stim": ["p_act:1", "x_rreq:3"]},
         "ValueError: horizon must be >= 1"),
        ({"horizon": 30, "initial": {"y": 4}},
         "ValueError: initial names no channel: 'y' (channels: x)"),
    ])
    def test_estimate_unusable_input_fails(self, params, error):
        spec = {"kind": "estimate", "design": "producer_consumer",
                "params": params}
        with Scheduler(workers=1) as sched:
            job_id = sched.submit(spec)
            assert sched.wait([job_id], timeout=60)
            record = sched.job(job_id)
        assert record.state == FAILED
        assert record.error == error
        assert record.envelope is None

    def test_shutdown_cancels_pending(self):
        sched = Scheduler(workers=1)
        job_id = sched.submit(LINT)   # never started
        sched.shutdown()
        assert sched.job(job_id).state in (PENDING, CANCELLED)
        sched.start()
        sched.shutdown()
        assert sched.job(job_id).state == CANCELLED

    def test_counters_under_concurrent_threads(self, monkeypatch, tmp_path):
        """Inline jobs run in counter scopes of their own: a thread that
        polls ``stats()`` never reads a counter going down, and every
        increment two other threads make meanwhile lands in the registry
        and in no job record."""
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "store"))
        jobs = [
            {"kind": "verify", "design": "gals_relay_chain",
             "params": {"backend": backend, "never": never}}
            for backend in ("explicit", "symbolic")
            for never in ("dup", "f0_alarm", "f0_full", "f0_ok", "x0")
        ] + [
            {"kind": "lint", "design": design, "params": {}}
            for design in ("producer_consumer", "pipeline", "fan_out",
                           "request_response", "token_ring")
        ]
        sched = Scheduler(workers=1).start()
        done = threading.Event()
        reads = []
        bumps = [0, 0]

        def poll():
            while not done.is_set():
                stats = sched.stats()
                reads.append([
                    stats[section][field]
                    for section, field in (
                        ("mc_store", "hits"), ("mc_store", "misses"),
                        ("mc_store", "puts"), ("plan_cache", "hits"),
                        ("plan_cache", "misses"), ("result_cache", "misses"),
                    )
                ])
                time.sleep(0.0005)

        def bump(slot):
            while not done.is_set():
                PERF.incr("test.stress.bumps")
                bumps[slot] += 1
                time.sleep(0.0001)

        PERF.reset("test.stress.")
        threads = [threading.Thread(target=poll)] + [
            threading.Thread(target=bump, args=(slot,)) for slot in (0, 1)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            ids = sched.submit_many(jobs)
            finished = sched.wait(ids, timeout=120)
        finally:
            done.set()
            for t in threads:
                t.join(10)
            sys.setswitchinterval(interval)
            sched.shutdown()
        assert finished and not any(t.is_alive() for t in threads)
        records = [sched.job(i) for i in ids]
        assert [r.state for r in records] == [DONE] * len(jobs)
        assert len(reads) > 1 and min(bumps) > 0
        for before, after in zip(reads, reads[1:]):
            assert all(a >= b for a, b in zip(after, before)), (before, after)
        assert PERF.get("test.stress.bumps") == sum(bumps)
        assert not any("test.stress.bumps" in r.counters for r in records)
        assert sum(r.counters.get("mc.store.hits", 0) for r in records) > 0

    def test_stats_shape(self):
        with Scheduler(workers=1) as sched:
            ids = sched.submit_many([LINT, VERIFY])
            assert sched.wait(ids, timeout=60)
            stats = sched.stats()
        assert stats["submitted"] == 2
        assert stats["states"] == {"done": 2}
        for section in ("result_cache", "plan_cache"):
            for field in ("hits", "misses"):
                assert field in stats[section]
        assert sorted(stats["result_cache"]) == [
            "hit_rate", "hits", "misses", "size"]


def _drain(q):
    out = []
    while not q.empty():
        out.append(q.get_nowait())
    return out


class TestSchedulerPool:
    def test_byte_identity_at_2_workers(self):
        reference = [execute(dict(s))["digest"] for s in MIXED]
        with Scheduler(workers=2) as sched:
            ids = sched.submit_many(MIXED + MIXED)  # dupes coalesce or hit
            assert sched.wait(ids, timeout=300)
            digests = [sched.job(i).envelope["digest"] for i in ids]
        assert digests == reference + reference

    def test_stats_cover_the_pool_plan_cache(self):
        from repro.sim.plan import clear_plan_cache

        clear_plan_cache()  # the workers fork with an empty plan cache
        soaks = [
            dict(SOAK, params=dict(SOAK["params"], seed=seed))
            for seed in range(4)
        ]
        with Scheduler(workers=2) as sched:
            before = sched.stats()["plan_cache"]
            ids = sched.submit_many(soaks)
            assert sched.wait(ids, timeout=120)
            after = sched.stats()["plan_cache"]
        assert after["misses"] - before["misses"] > 0
        assert after["hits"] - before["hits"] > 0

    def test_worker_failure_is_contained(self):
        bad = {"kind": "estimate", "design": "producer_consumer",
               "params": {"stim": ["nonsense"]}}
        with Scheduler(workers=2) as sched:
            ids = sched.submit_many([bad, LINT])
            assert sched.wait(ids, timeout=120)
            assert sched.job(ids[0]).state == FAILED
            assert sched.job(ids[1]).state == DONE

    def test_workers_fork_at_start(self):
        before = {p.pid for p in multiprocessing.active_children()}
        sched = Scheduler(workers=2).start()
        try:
            forked = [
                p for p in multiprocessing.active_children()
                if p.pid not in before
            ]
            assert len(forked) == 2
        finally:
            sched.shutdown()

    def test_worker_death_fails_jobs_and_pool_recovers(self):
        """Killing the workers mid-job ends every job ``done`` or
        ``failed`` instead of requeueing a job on the dead pool forever,
        and a job submitted afterwards runs on a fresh pool."""
        long_soak = {
            "kind": "soak", "design": "producer_consumer",
            "params": {"seed": 3, "horizon": 30000.0},
        }
        before = {p.pid for p in multiprocessing.active_children()}
        with Scheduler(workers=2) as sched:
            ids = sched.submit_many([long_soak, LINT, SOAK])
            deadline = time.monotonic() + 30
            while sched.job(ids[0]).state == PENDING:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            for p in multiprocessing.active_children():
                if p.pid not in before:
                    os.kill(p.pid, signal.SIGKILL)
            assert sched.wait(ids, timeout=30)
            states = [sched.job(i).state for i in ids]
            assert set(states) <= {DONE, FAILED}
            assert states[0] == FAILED
            assert "BrokenProcessPool" in sched.job(ids[0]).error
            later = sched.submit(VERIFY)
            assert sched.wait([later], timeout=30)
            assert sched.job(later).state == DONE
            assert sched.job(later).envelope["digest"] == (
                execute(dict(VERIFY))["digest"]
            )


class TestPlanCacheThreadSafety:
    def test_concurrent_shared_plan_is_consistent(self):
        from repro.lang import flatten_program
        from repro.sim.plan import (
            clear_plan_cache,
            plan_cache_stats,
            shared_plan,
        )

        comps = [
            flatten_program(designs.producer_consumer()),
            flatten_program(designs.producer_accumulator()),
            flatten_program(designs.boolean_producer_consumer()),
        ]
        clear_plan_cache()
        before = plan_cache_stats()
        plans = [[] for _ in range(8)]
        errors = []

        def hammer(slot):
            try:
                for _ in range(50):
                    for comp in comps:
                        plans[slot].append(shared_plan(comp))
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # single compile per component: every thread saw the same objects
        for slot in plans[1:]:
            assert [id(p) for p in slot[:3]] == [id(p) for p in plans[0][:3]]
        after = plan_cache_stats()
        assert after["misses"] - before["misses"] == len(comps)
        assert after["hits"] - before["hits"] == 8 * 50 * len(comps) - len(comps)
