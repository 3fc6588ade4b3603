"""Service <-> persistent-store integration: invalidation on design
edits, stored results served at submit across scheduler lifetimes (and
refused when they are not intact), each job keyed once, and the
``mc.store.*`` counters in the stats surfaces (scheduler, socket API,
``repro mc`` CLI)."""

import json
import sys
import threading
import time

import pytest

from repro import designs
from repro.__main__ import main
from repro.lang.serializer import canonical_json, program_to_dict
from repro.mc.store import STORE_ENV, default_store
from repro.perf import PERF
from repro.service import (
    DONE, RUNNING, Scheduler, ServiceClient, ServiceServer, execute, job_key,
)
from repro.service import runner, scheduler
from repro.service.jobs import spec_from_dict


def verify_job(design):
    return {
        "kind": "verify", "design": design,
        "params": {"backend": "explicit", "never": "dup"},
    }


@pytest.fixture()
def store_env(monkeypatch, tmp_path):
    """Point the process-wide default store at a fresh directory."""
    monkeypatch.setenv(STORE_ENV, str(tmp_path / "mcstore"))
    store = default_store()
    assert store.stats()["entries"] == 0
    return store


def store_counts():
    """The root's ``mc.store.*`` counts, where the scheduler's dispatcher
    thread folds each inline job's scope; compare two of them."""
    snapshot = PERF.snapshot()
    return {name: snapshot.get("mc.store." + name, 0)
            for name in ("hits", "misses", "puts")}


def edited_program_dict():
    """A one-token edit of ``gals_relay_chain(1)``: rename the observer
    output in the serialized design document."""
    doc = program_to_dict(designs.gals_relay_chain(1))
    text = json.dumps(doc)
    edited = text.replace('"dup"', '"dup2"')
    assert edited != text
    return json.loads(edited)


class TestInvalidation:
    def test_one_token_edit_misses_both_caches(self, store_env):
        base = {"program": program_to_dict(designs.gals_relay_chain(1))}
        job = verify_job(base)

        with Scheduler(workers=0) as sched:
            a = sched.submit(job)
            assert sched.wait([a], timeout=120)
            baseline = store_counts()
            # same design, same scheduler: the job table serves it
            b = sched.submit(dict(job))
            assert sched.job(b).cache_hit
            assert store_counts()["misses"] == baseline["misses"]

        # fresh scheduler (empty job table): the disk store serves the
        # verdict without re-exploring
        with Scheduler(workers=0) as sched:
            c = sched.submit(dict(job))
            assert sched.wait([c], timeout=120)
            assert not sched.job(c).cache_hit
            after = store_counts()
            assert after["hits"] > baseline["hits"]
            assert after["puts"] == baseline["puts"]

        # one-token edit: different design_key -> both caches miss and
        # the obligation is re-verified (new puts, no new verdict hits)
        edited = verify_job({"program": edited_program_dict()})
        edited["params"]["never"] = "dup2"
        before = store_counts()
        with Scheduler(workers=0) as sched:
            d = sched.submit(edited)
            assert sched.wait([d], timeout=120)
            assert not sched.job(d).cache_hit
        after = store_counts()
        assert after["puts"] > before["puts"]

    def test_warm_verdict_is_byte_identical(self, store_env):
        job = verify_job({"program": program_to_dict(
            designs.gals_relay_chain(1))})
        envelopes = []
        before = store_counts()
        for _ in range(2):
            with Scheduler(workers=0) as sched:
                i = sched.submit(dict(job))
                assert sched.wait([i], timeout=120)
                envelopes.append(sched.job(i).envelope)
        assert envelopes[0] == envelopes[1]
        assert store_counts()["hits"] - before["hits"] >= 1


CHAIN = {"name": "gals_relay_chain", "args": {"stages": 1}}

#: one job per verify backend and a proof each way: the stored kinds
STORED = [
    {"kind": "verify", "design": CHAIN,
     "params": {"backend": backend, "never": "f0_alarm", "always": ["f0_rreq"]}}
    for backend in ("explicit", "symbolic", "bounded", "compose")
] + [
    {"kind": "prove", "design": "producer_consumer",
     "params": {"rates": ["p_act:1", "x_rreq:1"]}},
    {"kind": "prove", "design": "boolean_producer_consumer",
     "params": {"backend": "explicit", "capacities": 1}},
]

#: kinds whose results the store never keeps
NOT_STORED = [
    {"kind": "lint", "design": "producer_consumer", "params": {}},
    {"kind": "soak", "design": "producer_consumer",
     "params": {"seed": 3, "drop": 0.2, "horizon": 8.0}},
    {"kind": "estimate", "design": "producer_consumer", "params": {"horizon": 6}},
]


def key_of(spec):
    return job_key(spec_from_dict(spec))


@pytest.fixture()
def warm_store(store_env):
    """``STORED`` run cold into the store; their envelopes, in order."""
    return [execute(dict(spec)) for spec in STORED]


class TestServedAtSubmit:
    def test_stored_repeats_are_done_when_submit_returns(self, warm_store):
        with Scheduler(workers=2) as sched:
            records = [sched.job(sched.submit(dict(spec))) for spec in STORED]
            assert [r.state for r in records] == [DONE] * len(STORED)
            assert sched.stats()["executed"] == 0
        for record, cold in zip(records, warm_store):
            assert not record.cache_hit
            assert canonical_json(record.envelope) == canonical_json(cold)
            # one read of the job's entry, and no exploration
            assert record.counters == {"mc.store.hits": 1}

    def test_stored_repeat_overtakes_running_soaks(self, warm_store):
        soaks = [
            {"kind": "soak", "design": "producer_consumer",
             "params": {"seed": seed, "horizon": 10000.0}}
            for seed in (1, 2)
        ]
        with Scheduler(workers=2) as sched:
            running = [sched.submit(spec) for spec in soaks]
            deadline = time.monotonic() + 60
            while any(sched.job(i).state != RUNNING for i in running):
                assert time.monotonic() < deadline
                time.sleep(0.001)
            repeat = sched.job(sched.submit(dict(STORED[0])))
            assert repeat.state == DONE
            assert [sched.job(i).state for i in running] == [RUNNING] * 2
            assert sched.wait(running, timeout=120)
        assert repeat.envelope == warm_store[0]

    def test_racing_submits_of_a_stored_key_serve_it_once(self, warm_store):
        """Threads submitting one stored key at once may all read the
        store before taking the lock; under it, the first serves the
        stored envelope and every other finds it in the job table."""
        threads_n, per_thread = 8, 10
        sched = Scheduler(workers=1)     # never started: no job needs a worker
        start = threading.Barrier(threads_n)
        submitted = [[] for _ in range(threads_n)]

        def submit(mine):
            start.wait(30)
            for _ in range(per_thread):
                mine.append(sched.submit(dict(STORED[0])))

        served = PERF.get("service.store_served")
        threads = [threading.Thread(target=submit, args=(mine,))
                   for mine in submitted]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        records = [sched.job(i) for mine in submitted for i in mine]
        assert len(records) == threads_n * per_thread
        assert [r.state for r in records] == [DONE] * len(records)
        assert sum(not r.cache_hit for r in records) == 1
        assert PERF.get("service.store_served") - served == 1
        assert all(r.envelope == warm_store[0] for r in records)
        assert sched.stats()["executed"] == 0

    def test_lint_soak_and_estimate_are_never_stored(self, store_env):
        cold = [execute(dict(spec)) for spec in NOT_STORED]
        assert store_env.stats()["entries"] == 0
        with Scheduler(workers=2) as sched:
            ids = sched.submit_many(NOT_STORED)
            assert sched.wait(ids, timeout=120)
            assert sched.stats()["executed"] == len(NOT_STORED)
            envelopes = [sched.job(i).envelope for i in ids]
        assert envelopes == cold
        assert store_env.stats()["entries"] == 0

    def test_without_a_store_every_job_runs(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV, raising=False)
        cold = [execute(dict(spec)) for spec in STORED]
        served = PERF.get("service.store_served")
        with Scheduler(workers=2) as sched:
            ids = sched.submit_many(STORED)
            assert sched.wait(ids, timeout=120)
            assert sched.stats()["executed"] == len(STORED)
            records = [sched.job(i) for i in ids]
        assert [r.envelope for r in records] == cold
        assert PERF.get("service.store_served") == served
        assert not any("mc.store.hits" in r.counters for r in records)

    def test_each_job_is_keyed_and_looked_up_once(self, store_env, monkeypatch):
        keyed = job_key

        def counting_job_key(spec):
            PERF.incr("test.job_key")
            return keyed(spec)

        # patched before the pool forks, so the workers count too, and
        # their counts come back with each job's counters
        monkeypatch.setattr(scheduler, "job_key", counting_job_key)
        monkeypatch.setattr(runner, "job_key", counting_job_key)
        bounded = dict(STORED[2], params=dict(STORED[2]["params"], depth=3))
        jobs = [bounded] + NOT_STORED
        before = PERF.get("test.job_key")
        with Scheduler(workers=2) as sched:
            ids = sched.submit_many(jobs)
            assert sched.wait(ids, timeout=120)
            again = sched.submit_many(jobs)     # served by the job table
            records = [sched.job(i) for i in ids]
        assert PERF.get("test.job_key") - before == len(ids) + len(again)
        # a bounded check reads no store itself: the one lookup of its
        # entry was submit's, and the worker only put the envelope
        assert records[0].counters["mc.store.puts"] == 1
        assert "mc.store.misses" not in records[0].counters
        assert records[0].envelope["key"] == key_of(bounded)

    def test_execute_without_a_key_takes_it(self, warm_store):
        for spec, cold in zip(STORED, warm_store):
            assert cold["key"] == key_of(spec)
            with PERF.scope() as scope:
                assert execute(dict(spec)) == cold    # served from its entry
            assert scope.counts == {"mc.store.hits": 1}
        lint = execute(dict(NOT_STORED[0]))
        assert lint["key"] == key_of(NOT_STORED[0])


def _tamper(store, key, field):
    """Change one value inside the stored envelope of ``key``; the entry
    stays valid JSON of the right store kind."""
    path = store._path(key)
    with open(path, encoding="utf-8") as fh:
        entry = json.load(fh)
    envelope = entry["payload"]
    if field == "result":
        envelope["result"]["verdict"] = "refuted"
    elif field == "key":
        envelope["key"] = key_of(STORED[1])
    else:
        envelope["kind"] = "prove"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh)


class TestStoredEnvelopeIntegrity:
    """A stored envelope is served only when its key and kind are the
    job's and its digest is its result's: anything else is recomputed,
    never served."""

    @pytest.mark.parametrize("field", ["result", "key", "kind"])
    def test_scheduler_recomputes_a_tampered_envelope(self, warm_store, field):
        key = key_of(STORED[0])
        _tamper(default_store(), key, field)
        with Scheduler(workers=2) as sched:
            i = sched.submit(dict(STORED[0]))
            assert sched.wait([i], timeout=120)
            assert sched.stats()["executed"] == 1
            envelope = sched.job(i).envelope
        assert envelope == warm_store[0]
        # the tampered entry was dropped, and the recomputed one put
        assert runner.stored_envelope(default_store(), key, "verify") == warm_store[0]

    @pytest.mark.parametrize("field", ["result", "key", "kind"])
    def test_execute_recomputes_a_tampered_envelope(self, warm_store, field):
        _tamper(default_store(), key_of(STORED[0]), field)
        with PERF.scope() as scope:
            assert execute(dict(STORED[0])) == warm_store[0]
        # the refused entry is a miss; the explicit backend then reads
        # its compiled LTS (the one hit), and the envelope is put again
        assert {name: scope.counts.get("mc.store." + name)
                for name in ("hits", "misses", "puts")} == {
                    "hits": 1, "misses": 1, "puts": 1}


class TestStatsSurfaces:
    def test_store_served_submits_are_counted(self, warm_store):
        with Scheduler(workers=2) as sched:
            before = sched.stats()["result_cache"]
            sched.submit_many(STORED)
            sched.submit_many(STORED)           # now served by the job table
            after = sched.stats()["result_cache"]
        assert after["store_served"] - before["store_served"] == len(STORED)
        assert after["hits"] - before["hits"] == len(STORED)
        assert after["misses"] - before["misses"] == len(STORED)

    def test_scheduler_stats_exposes_mc_store(self, store_env):
        with Scheduler(workers=0) as sched:
            i = sched.submit(verify_job(
                {"program": program_to_dict(designs.gals_relay_chain(1))}))
            assert sched.wait([i], timeout=120)
            stats = sched.stats()
        mc = stats["mc_store"]
        assert mc["enabled"] is True
        assert mc["root"] == store_env.root
        for key in ("hits", "misses", "puts", "evictions", "errors"):
            assert isinstance(mc[key], int)
        assert mc["puts"] >= 1 and mc["entries"] >= 1

    def test_disabled_store_still_reports_shape(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV, raising=False)
        with Scheduler(workers=0) as sched:
            mc = sched.stats()["mc_store"]
        assert mc["enabled"] is False
        assert "root" not in mc

    def test_socket_stats_exposes_mc_store(self, store_env):
        scheduler = Scheduler(workers=1)
        server = ServiceServer(scheduler, port=0)
        server.start()
        client = ServiceClient(*server.address)
        try:
            ids = client.submit([verify_job("gals_relay_chain")])
            client.wait(ids, timeout=120)
            stats = client.stats()
        finally:
            client.close()
            server.close()
        assert stats["mc_store"]["enabled"] is True
        assert stats["mc_store"]["puts"] >= 1


class TestMcCli:
    def test_cold_then_warm_verify(self, tmp_path, capsys):
        store_dir = str(tmp_path / "cli-store")
        argv = ["verify", "gals_relay_chain:stages=1",
                "--never", "f0_alarm", "--always", "f0_rreq",
                "--store", store_dir]
        assert main(list(argv)) == 0
        cold = capsys.readouterr().out
        assert "PROVEN" in cold.upper() or "holds" in cold
        assert main(list(argv)) == 0
        warm = capsys.readouterr().out
        assert "[store hit]" in warm

    def test_compose_backend_with_contracts(self, capsys):
        argv = ["verify", "gals_relay_chain:stages=1",
                "--never", "dup", "--backend", "compose",
                "--always", "f0_rreq"]
        for cut in ("x0", "f0_msgout", "x1"):
            argv += ["--contract", "{}=alternating".format(cut)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "compositional" in out

    def test_stats_requires_a_store(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV, raising=False)
        with pytest.raises(SystemExit):
            main(["mc", "stats"])

    def test_stats_reports_json(self, tmp_path, capsys):
        store_dir = str(tmp_path / "cli-store")
        assert main(["verify", "toggle_producer", "--never", "x",
                     "--store", store_dir]) == 1  # refuted
        capsys.readouterr()
        assert main(["mc", "stats", "--store", store_dir]) == 0
        stats = json.loads(capsys.readouterr().out)
        # the on-disk footprint; the counts live in PERF
        assert sorted(stats) == ["bytes", "entries", "limit_bytes", "root"]
        assert stats["entries"] >= 1 and stats["bytes"] > 0
