"""Socket API tests: :mod:`repro.service.server` against
:mod:`repro.service.client`, over a real ephemeral-port TCP connection."""

import json
import multiprocessing
import socket
import threading

import pytest

from repro.service import Scheduler, ServiceClient, ServiceServer
from repro.service.client import ServiceError


LINT = {"kind": "lint", "design": "producer_consumer", "params": {}}
VERIFY = {
    "kind": "verify", "design": "boolean_producer_consumer",
    "params": {"backend": "explicit", "never": "y"},
}
BAD = {"kind": "verify", "design": "producer_consumer",
       "params": {"backend": "bogus"}}


@pytest.fixture()
def service():
    scheduler = Scheduler(workers=1)
    server = ServiceServer(scheduler, port=0)
    server.start()
    host, port = server.address
    client = ServiceClient(host, port)
    try:
        yield client, server
    finally:
        client.close()
        server.close()


class TestProtocol:
    def test_ping(self, service):
        client, _ = service
        assert client.ping().startswith("repro-service")

    def test_submit_wait_result_roundtrip(self, service):
        client, _ = service
        ids = client.submit([LINT, VERIFY])
        assert len(ids) == 2
        jobs = client.wait(ids, timeout=60)
        assert [j["state"] for j in jobs] == ["done", "done"]
        reply = client.result(ids[0])
        assert reply["envelope"]["digest"] == jobs[0]["digest"]
        assert reply["envelope"]["result"]["program"] == "prodcons"

    def test_list_filters_by_state(self, service):
        client, _ = service
        ids = client.submit([LINT, BAD])
        client.wait(ids, timeout=60)
        done = client.list(state="done")
        failed = client.list(state="failed")
        assert [j["id"] for j in done] == [ids[0]]
        assert [j["id"] for j in failed] == [ids[1]]
        assert "bogus" in failed[0]["error"]

    def test_status_unknown_job_is_an_error(self, service):
        client, _ = service
        with pytest.raises(ServiceError):
            client.status("J999999")

    def test_cancel_terminal_job_reports_false(self, service):
        client, _ = service
        ids = client.submit([LINT])
        client.wait(ids, timeout=60)
        assert client.cancel(ids[0]) is False

    def test_stats_exposes_caches(self, service):
        client, _ = service
        ids = client.submit([LINT])
        client.wait(ids, timeout=60)
        ids2 = client.submit([LINT])
        client.wait(ids2, timeout=60)
        stats = client.stats()
        assert stats["result_cache"]["hits"] >= 1
        assert "plan_cache" in stats
        assert stats["states"]["done"] == 2

    def test_watch_streams_until_terminal(self, service):
        client, server = service
        ids = client.submit([LINT, VERIFY])
        with ServiceClient(*server.address) as watcher:
            events = watcher.watch(ids)
        # at minimum the terminal event of each watched job arrives
        seen = {e["id"]: e["state"] for e in events}
        assert set(ids) <= set(seen)
        assert all(seen[i] == "done" for i in ids)

    def test_watch_sends_terminal_event_of_job_ending_mid_watch(self):
        """A job that ends after the watch subscribed and replayed, but
        before it next looks the job up, still gets its terminal event
        streamed: the watch ends on what it sent, not on job states."""

        class LateScheduler(Scheduler):
            # runs nothing until a job is looked up, then answers only
            # once that job has ended
            def start(self):
                return self

            def job(self, job_id):
                Scheduler.start(self)
                self.wait([job_id], timeout=60)
                return super().job(job_id)

        scheduler = LateScheduler(workers=1)
        server = ServiceServer(scheduler, port=0).start()
        try:
            job_id = scheduler.submit(LINT)
            with ServiceClient(*server.address, timeout=30) as watcher:
                events = watcher.watch([job_id])
        finally:
            server.close()
        assert [e["state"] for e in events] == ["running", "done"]

    def test_unknown_op_keeps_connection_alive(self, service):
        client, _ = service
        with pytest.raises(ServiceError):
            client.request("frobnicate")
        assert client.ping().startswith("repro-service")

    def test_malformed_json_keeps_connection_alive(self, service):
        client, server = service
        raw = socket.create_connection(server.address, timeout=10)
        try:
            raw.sendall(b"this is not json\n")
            reply = json.loads(raw.makefile("rb").readline())
            assert reply["ok"] is False
        finally:
            raw.close()
        assert client.ping().startswith("repro-service")

    def test_submit_validates_specs(self, service):
        client, _ = service
        with pytest.raises(ServiceError):
            client.submit([{"kind": "lint"}])
        with pytest.raises(ServiceError):
            client.request("submit", jobs=[])

    def test_shutdown_stops_service(self):
        scheduler = Scheduler(workers=1)
        server = ServiceServer(scheduler, port=0).start()
        with ServiceClient(*server.address) as client:
            ids = client.submit([LINT])
            client.wait(ids, timeout=60)
            client.shutdown()
        # the listener goes away; a fresh connect must fail
        import time
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                probe = socket.create_connection(server.address, timeout=1)
                probe.close()
                time.sleep(0.1)
            except OSError:
                break
        else:
            pytest.fail("server still accepting connections after shutdown")


class TestClose:
    def test_concurrent_closes_run_once(self):
        """The ``shutdown`` op closes the server from a helper thread
        while ``with`` closes it too: both calls must return cleanly and
        leave no worker process behind."""
        before = {p.pid for p in multiprocessing.active_children()}

        def close(server, errors):
            try:
                server.close()
            except Exception as exc:  # the failure mode under test
                errors.append(exc)

        for _ in range(20):
            server = ServiceServer(Scheduler(workers=2), port=0).start()
            errors = []
            threads = [
                threading.Thread(target=close, args=(server, errors))
                for _ in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert {p.pid for p in multiprocessing.active_children()} <= before


class TestCliShorthand:
    def test_job_shorthand_parsing(self):
        from repro.__main__ import _parse_job_shorthand

        job = _parse_job_shorthand(
            "soak:producer_consumer:seed=3,drop=0.2,horizon=10.0")
        assert job == {
            "kind": "soak", "design": "producer_consumer",
            "params": {"seed": 3, "drop": 0.2, "horizon": 10.0},
        }
        job = _parse_job_shorthand("lint:prodcons:rates=p_act@1+x_rreq@2")
        assert job["params"]["rates"] == ["p_act:1", "x_rreq:2"]
        job = _parse_job_shorthand("verify:bpc:backend=symbolic,never=y")
        assert job["params"] == {"backend": "symbolic", "never": "y"}

    def test_job_shorthand_rejects_garbage(self):
        from repro.__main__ import _parse_job_shorthand

        with pytest.raises(SystemExit):
            _parse_job_shorthand("lint")
        with pytest.raises(SystemExit):
            _parse_job_shorthand("lint:design:notkeyvalue")
