"""Service <-> persistent-store integration: invalidation on design
edits, warm verdict serving across scheduler lifetimes, and the
``mc.store.*`` counters in the stats surfaces (scheduler, socket API,
``repro mc`` CLI)."""

import json

import pytest

from repro import designs
from repro.__main__ import main
from repro.lang.serializer import program_to_dict
from repro.mc.store import STORE_ENV, default_store
from repro.perf import PERF
from repro.service import Scheduler, ServiceClient, ServiceServer


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


class TestStatsSurfaces:
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
