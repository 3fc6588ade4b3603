"""Line-delimited JSON socket API in front of the scheduler.

Protocol: a client connects over local TCP, sends one JSON object per
line, and reads one JSON response per line.  Every response carries
``"ok"``; errors come back as ``{"ok": false, "error": ...}`` instead of
closing the connection.  Ops:

==========  ================================================================
``ping``    liveness check; returns the service banner
``submit``  ``{"jobs": [spec, ...]}`` → ``{"ids": [...], "states": [...]}``
            (cache hits are already ``done`` when the reply arrives)
``status``  ``{"id": ...}`` → the job summary
``result``  ``{"id": ...}`` → summary plus the result envelope
``list``    ``{"state": optional}`` → all job summaries, submission order
``cancel``  ``{"id": ...}`` → whether a pending job was cancelled
``stats``   scheduler + cache + plan-cache statistics
``wait``    ``{"ids": optional, "timeout": optional}`` → blocks, then
            summaries
``watch``   ``{"ids": optional}`` → **streams** one event line per state
            change; each job's stream ends with its terminal event, and
            once every watched job's has gone out, a final
            ``{"ok": true, "done": true}``
``shutdown``stops the scheduler and the server
==========  ================================================================

The server binds ``127.0.0.1`` by default and is deliberately
unauthenticated — it is a local development service, the same trust
domain as running ``repro verify`` yourself.
"""

from __future__ import annotations

import json
import queue
import socket
import socketserver
import threading
from typing import Any, Dict, Optional

from repro.service.jobs import TERMINAL_STATES
from repro.service.scheduler import Scheduler

BANNER = "repro-service/1"


class _Handler(socketserver.StreamRequestHandler):
    daemon_threads = True

    def handle(self) -> None:
        server: "ServiceServer" = self.server.service  # type: ignore[attr-defined]
        for raw in self.rfile:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                op = request.get("op")
                handler = getattr(self, "_op_" + str(op), None)
                if handler is None:
                    self._send({"ok": False, "error": "unknown op {!r}".format(op)})
                    continue
                stop = handler(server, request)
                if stop:
                    return
            except (BrokenPipeError, ConnectionResetError):
                return
            except Exception as exc:
                try:
                    self._send({
                        "ok": False,
                        "error": "{}: {}".format(type(exc).__name__, exc),
                    })
                except (BrokenPipeError, ConnectionResetError):
                    return

    def _send(self, payload: Dict[str, Any]) -> None:
        self.wfile.write((json.dumps(payload) + "\n").encode("utf-8"))
        self.wfile.flush()

    # -- ops ----------------------------------------------------------------

    def _op_ping(self, server, request) -> bool:
        self._send({"ok": True, "service": BANNER})
        return False

    def _op_submit(self, server, request) -> bool:
        jobs = request.get("jobs")
        if not isinstance(jobs, list) or not jobs:
            self._send({"ok": False, "error": "submit needs a non-empty jobs list"})
            return False
        ids = []
        for spec in jobs:
            ids.append(server.scheduler.submit(spec))
        states = [server.scheduler.job(i).state for i in ids]
        self._send({"ok": True, "ids": ids, "states": states})
        return False

    def _record(self, server, request):
        record = server.scheduler.job(request.get("id"))
        if record is None:
            self._send({"ok": False, "error": "no such job {!r}".format(
                request.get("id"))})
        return record

    def _op_status(self, server, request) -> bool:
        record = self._record(server, request)
        if record is not None:
            self._send({"ok": True, "job": record.summary()})
        return False

    def _op_result(self, server, request) -> bool:
        record = self._record(server, request)
        if record is not None:
            self._send({
                "ok": True,
                "job": record.summary(),
                "envelope": record.envelope,
            })
        return False

    def _op_list(self, server, request) -> bool:
        state = request.get("state")
        summaries = [r.summary() for r in server.scheduler.jobs(state)]
        self._send({"ok": True, "jobs": summaries})
        return False

    def _op_cancel(self, server, request) -> bool:
        ok = server.scheduler.cancel(request.get("id"))
        self._send({"ok": True, "cancelled": ok})
        return False

    def _op_stats(self, server, request) -> bool:
        self._send({"ok": True, "stats": server.scheduler.stats()})
        return False

    def _op_wait(self, server, request) -> bool:
        ids = request.get("ids")
        finished = server.scheduler.wait(ids, timeout=request.get("timeout"))
        watched = ids if ids is not None else [
            r.job_id for r in server.scheduler.jobs()
        ]
        summaries = []
        for job_id in watched:
            record = server.scheduler.job(job_id)
            if record is not None:
                summaries.append(record.summary())
        self._send({"ok": True, "finished": finished, "jobs": summaries})
        return False

    def _op_watch(self, server, request) -> bool:
        ids = request.get("ids")
        scheduler = server.scheduler
        events = scheduler.subscribe()
        try:
            watched = set(ids) if ids is not None else None
            # ids whose terminal event went out: a job's stream ends there
            reported = set()

            def send(event: Dict[str, Any]) -> None:
                if event["state"] in TERMINAL_STATES:
                    reported.add(event["id"])
                self._send({"ok": True, **event})

            def unreported() -> bool:
                records = (
                    [scheduler.job(i) for i in watched]
                    if watched is not None
                    else scheduler.jobs()
                )
                return any(
                    r is not None and r.job_id not in reported for r in records
                )

            # replay current terminal states so a late watcher still sees
            # every job it asked about; a job that ends after subscribe()
            # has its terminal event queued, so the loop below sends it
            for record in scheduler.jobs():
                if watched is not None and record.job_id not in watched:
                    continue
                if record.done:
                    send({"event": "job", **record.summary()})
            while unreported():
                try:
                    event = events.get(timeout=0.5)
                except queue.Empty:
                    continue
                if event["id"] in reported:
                    continue
                if watched is not None and event["id"] not in watched:
                    continue
                send(event)
            self._send({"ok": True, "done": True})
        finally:
            scheduler.unsubscribe(events)
        return False

    def _op_shutdown(self, server, request) -> bool:
        self._send({"ok": True, "stopping": True})
        server.stop_async()
        return True


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ServiceServer:
    """The scheduler behind a local TCP socket.

    ``port=0`` picks an ephemeral port; read it back from
    :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.scheduler = scheduler
        self._tcp = _TCPServer((host, port), _Handler)
        self._tcp.service = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._close_lock = threading.Lock()
        self._closed = False

    @property
    def address(self):
        """``(host, port)`` actually bound."""
        return self._tcp.server_address

    def start(self) -> "ServiceServer":
        self.scheduler.start()
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            name="repro-service-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Run in the calling thread until :meth:`close` (CLI mode)."""
        self.scheduler.start()
        try:
            self._tcp.serve_forever()
        finally:
            self.close()

    def stop_async(self) -> None:
        """Initiate shutdown from a request handler without deadlocking
        on the server's own event loop."""
        threading.Thread(target=self.close, daemon=True).start()

    def close(self) -> None:
        """Stop serving and the scheduler.  A second call, concurrent or
        later, waits for the first and returns."""
        with self._close_lock:
            if self._closed:
                return
            self._tcp.shutdown()
            self._tcp.server_close()
            self.scheduler.shutdown()
            if self._thread is not None and self._thread is not threading.current_thread():
                self._thread.join(timeout=10)
                self._thread = None
            self._closed = True

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
