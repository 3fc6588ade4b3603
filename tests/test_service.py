"""Tests for the verification-job platform (:mod:`repro.service`):
content-addressed keys, the result cache, and the scheduler's states,
priorities, coalescing, cancellation and worker-count invariance."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import designs
from repro.lang.serializer import program_to_dict
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    JobSpec,
    ResultCache,
    Scheduler,
    execute,
    job_key,
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


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(4)
        assert cache.get("k") is None
        cache.put("k", {"digest": "d"})
        assert cache.get("k") == {"digest": "d"}
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_lru_eviction(self):
        cache = ResultCache(2)
        cache.put("a", {}); cache.put("b", {})
        cache.get("a")             # refresh a
        cache.put("c", {})         # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats()["evictions"] == 1

    def test_clear_keeps_cumulative_stats(self):
        cache = ResultCache(2)
        cache.put("a", {}); cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1


class TestSchedulerInline:
    def test_byte_identity_vs_direct_execution(self):
        reference = [execute(dict(s))["digest"] for s in MIXED]
        with Scheduler(workers=1) as sched:
            ids = sched.submit_many(MIXED)
            assert sched.wait(ids, timeout=120)
            digests = [sched.job(i).envelope["digest"] for i in ids]
        assert digests == reference

    def test_resubmission_hits_result_cache(self):
        with Scheduler(workers=1) as sched:
            first = sched.submit(LINT)
            assert sched.wait([first], timeout=60)
            again = sched.submit(LINT)
            record = sched.job(again)
            assert record.state == DONE and record.cache_hit
            assert record.envelope == sched.job(first).envelope
            assert sched.cache.stats()["hits"] == 1

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
        bad = {"kind": "verify", "design": "producer_consumer",
               "params": {"backend": "bogus"}}
        with Scheduler(workers=1) as sched:
            job_id = sched.submit(bad)
            assert sched.wait([job_id], timeout=60)
            record = sched.job(job_id)
            assert record.state == FAILED
            assert "bogus" in record.error
            assert record.envelope is None

    def test_shutdown_cancels_pending(self):
        sched = Scheduler(workers=1)
        job_id = sched.submit(LINT)   # never started
        sched.shutdown()
        assert sched.job(job_id).state in (PENDING, CANCELLED)
        sched.start()
        sched.shutdown()
        assert sched.job(job_id).state == CANCELLED

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
                        plans[slot].append(shared_plan(comp, specialize=False))
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
