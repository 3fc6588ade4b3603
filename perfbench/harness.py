"""Execution machinery: service passes (timed, against a ``repro serve``
subprocess; or inline, in this process), the soak campaign, set-up
probes, and reference results computed in a fresh interpreter.

Everything a run writes goes under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
GOLDEN = os.path.join(HERE, "golden")

#: a job that has not answered after this long fails the run
JOB_TIMEOUT_S = 60.0
SERVER_START_TIMEOUT_S = 60.0


def canonical_digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def work_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def fresh_store(name: str, template: Optional[str] = None) -> str:
    """An empty store directory, or a fresh copy of ``template``."""
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    if template is None:
        os.makedirs(path)
    else:
        shutil.copytree(template, path)
    return path


def perf_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def tree_bytes(root: str) -> int:
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(directory, name))
            except OSError:
                pass
    return total


def self_maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- child processes ---------------------------------------------------------------

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the parent of every orphaned descendant (Linux), so that a
    server's workers or a pool's helpers are this process's to wait for
    once their own parent has gone."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _live_children() -> List[int]:
    """Pids of this process's children that have not exited."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(os.path.join("/proc", entry, "stat"), encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue
        state, ppid = stat[stat.rindex(")") + 2:].split()[:2]
        if ppid == me and state != "Z":
            pids.append(int(entry))
    return pids


def reap_group(pgid: int) -> None:
    """Wait for every child in process group ``pgid`` (killed already)."""
    while True:
        try:
            os.waitpid(-pgid, 0)
        except ChildProcessError:
            return


def stop_children(timeout: float = 30.0) -> None:
    """Stop and wait for every process this one started that is still
    around: the multiprocessing resource tracker (which only exits on
    end-of-file from its parent), and any child or adopted orphan."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            raise RuntimeError("child processes did not end: {}".format(_live_children()))
        for child in _live_children():
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.01)


# -- closed-loop clients ---------------------------------------------------------

class JobOutcome(NamedTuple):
    index: int
    latency_s: float
    summary: Optional[Dict[str, Any]]   # the server's job summary
    error: Optional[str]


class LoopResult(NamedTuple):
    outcomes: List[JobOutcome]          # in job order
    started: float                      # perf_counter of the first submit
    finished: float                     # perf_counter of the last reply


def closed_loop(address, jobs: Sequence[Dict[str, Any]], clients: int) -> LoopResult:
    """``clients`` threads, one connection each, each with one job
    outstanding: submit, wait for it to finish, take the next job."""
    from repro.service.client import ServiceClient

    lock = threading.Lock()
    cursor = iter(range(len(jobs)))
    outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
    marks: Dict[str, float] = {}

    def client() -> None:
        try:
            conn = ServiceClient(address[0], address[1], timeout=JOB_TIMEOUT_S)
        except OSError as exc:
            marks.setdefault("error", str(exc))
            return
        with conn:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                t0 = time.perf_counter()
                with lock:
                    marks.setdefault("started", t0)
                try:
                    ids = conn.submit([jobs[i]])
                    summary = conn.wait(ids)[0]
                    error = None if summary.get("state") == "done" else (
                        summary.get("error") or summary.get("state"))
                except Exception as exc:  # a failed job must not stop the loop
                    summary, error = None, "{}: {}".format(type(exc).__name__, exc)
                t1 = time.perf_counter()
                outcomes[i] = JobOutcome(i, t1 - t0, summary, error)

    threads = [threading.Thread(target=client, daemon=True) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    now = time.perf_counter()
    filled = [
        o if o is not None else JobOutcome(i, 0.0, None, marks.get("error", "not run"))
        for i, o in enumerate(outcomes)
    ]
    return LoopResult(filled, marks.get("started", now), now)


def open_server(address, workers: int) -> List[JobOutcome]:
    """Answer the set-up jobs (:func:`workloads.setup_jobs`) before the
    pass, the first one alone, the rest from ``workers`` clients.

    The scheduler forks its first worker on its first dispatch; a fork
    while another request thread of the server is inside an import leaves
    that module's import lock held in the workers, and the first job
    importing it there hangs for good.  So nothing else is in flight when
    the pool starts."""
    from workloads import setup_jobs

    jobs = setup_jobs(workers)
    first = closed_loop(address, jobs[:1], 1).outcomes
    return first + closed_loop(address, jobs[1:], workers).outcomes


def server_stats(address) -> Dict[str, Any]:
    """Result-cache and MC-store counts of a server (workers included)."""
    from repro.service.client import ServiceClient

    with ServiceClient(address[0], address[1], timeout=JOB_TIMEOUT_S) as conn:
        stats = conn.stats()
    return {
        "cache_hits": stats["result_cache"]["hits"],
        "store_hits": stats["mc_store"]["hits"],
        "store_misses": stats["mc_store"]["misses"],
        "store_puts": stats["mc_store"]["puts"],
    }


# -- timed service pass: `repro serve` in its own process ------------------------

class ServerProcess:
    """``python -m repro serve`` on an ephemeral loopback port, with the
    MC store rooted at ``store_dir``."""

    _BANNER = re.compile(r"listening on ([0-9.]+):(\d+)")

    def __init__(self, store_dir: str, workers: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["REPRO_MC_STORE"] = store_dir
        env["PYTHONUNBUFFERED"] = "1"
        self._log = open(os.path.join(work_dir(), "server.log"), "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True,
        )
        self.maxrss_mb = 0.0
        line = self._banner()
        match = self._BANNER.search(line)
        if match is None:
            self.close()
            raise RuntimeError("server did not start: {!r}".format(line))
        self.address = (match.group(1), int(match.group(2)))

    def _banner(self) -> str:
        result: List[bytes] = []
        reader = threading.Thread(
            target=lambda: result.append(self.proc.stdout.readline()), daemon=True)
        reader.start()
        reader.join(SERVER_START_TIMEOUT_S)
        return result[0].decode("utf-8", "replace") if result else ""

    def close(self, timeout: float = 60.0) -> None:
        """Stop the server and reap it; its ``wait4`` rusage covers the
        server and its reaped workers.

        SIGTERM takes the server's graceful path on its main thread.  (The
        socket API's ``shutdown`` op closes the server from a second thread
        while the main thread closes it too; the two race on the worker
        pool and can exit leaving the workers running.)"""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                os.killpg(self.proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        try:  # no worker of the session may outlive the run
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        # the killed workers were adopted by this process (adopt_orphans)
        reap_group(self.proc.pid)
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self._log.close()


class PassResult(NamedTuple):
    outcomes: List[JobOutcome]
    setup: List[JobOutcome]  # the set-up jobs
    setup_s: float          # launch -> last set-up job answered
    wall_s: float           # launch -> last job answered
    busy_s: float           # first submit of the pass -> last job answered
    peak_rss_mb: float
    store_bytes: int
    stats: Dict[str, Any]   # server_stats() at the end of the pass


def timed_service_pass(jobs, store_dir: str, workers: int, clients: int) -> PassResult:
    launched = time.perf_counter()
    server = ServerProcess(store_dir, workers)
    try:
        setup = open_server(server.address, workers)
        ready = time.perf_counter()
        loop = closed_loop(server.address, jobs, clients)
        stats = server_stats(server.address)
    finally:
        server.close()
    return PassResult(
        loop.outcomes,
        setup,
        ready - launched,
        loop.finished - launched,
        loop.finished - loop.started,
        server.maxrss_mb,
        tree_bytes(store_dir),
        stats,
    )


# -- single-process service pass (traced and untraced) ---------------------------

class InlineResult(NamedTuple):
    outcomes: List[JobOutcome]
    setup: List[JobOutcome]
    # job id -> (seconds, cache_hit, coalesced, PERF counters of the job)
    records: Dict[str, Any]
    wall_s: float
    store_bytes: int
    store_entries: int


def inline_service_pass(jobs, store_dir: str, clients: int, ready=None) -> InlineResult:
    """The same closed loop against an in-process ``Scheduler(workers=1)``
    that runs every job on its dispatcher thread, so wrappers installed in
    this process see all of the work.  The set-up jobs run first, outside
    the records and the wall time; ``ready()``, if given, is called after
    them."""
    from repro.service import Scheduler, ServiceServer

    os.environ["REPRO_MC_STORE"] = store_dir
    server = ServiceServer(Scheduler(workers=1), port=0).start()
    try:
        setup = open_server(server.address, clients)
        if ready is not None:
            ready()
        loop = closed_loop(server.address, jobs, clients)
        ids = {o.summary["id"] for o in loop.outcomes if o.summary}
        records = {
            r.job_id: (r.seconds or 0.0, r.cache_hit, r.coalesced, r.counters)
            for r in server.scheduler.jobs() if r.job_id in ids
        }
    finally:
        server.close()
        del os.environ["REPRO_MC_STORE"]
    entries = sum(len(files) for _, _, files in os.walk(store_dir))
    return InlineResult(loop.outcomes, setup, records, loop.finished - loop.started,
                        tree_bytes(store_dir), entries)


# -- soak campaign -----------------------------------------------------------------

class CampaignResult(NamedTuple):
    digests: List[str]        # one per unit, in unit order
    latencies_s: List[float]  # one per unit
    wall_s: float
    perf: List[Dict[str, Any]]  # per-unit PERF deltas (traced runs only)


def campaign_pass(units, workers, perf_deltas: bool = False) -> CampaignResult:
    from repro.perf import PERF
    from workloads import run_unit

    digests, latencies, deltas = [], [], []
    start = time.perf_counter()
    for unit in units:
        before = PERF.snapshot() if perf_deltas else None
        t0 = time.perf_counter()
        out = run_unit(unit, workers)
        latencies.append(time.perf_counter() - t0)
        digests.append(canonical_digest(out))
        if perf_deltas:
            deltas.append(perf_delta(before, PERF.snapshot()))
    return CampaignResult(digests, latencies, time.perf_counter() - start, deltas)


def unit_ids(units) -> List[str]:
    return [
        "{}:{}:{}:{}".format(i, u.kind, u.name, u.args.get("hold", ""))
        for i, u in enumerate(units)
    ]


def setup_probe(seed: int) -> float:
    """Wall time of a fresh interpreter that imports the campaign's
    modules and builds its designs and inputs, then exits."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
         "--workload", "soak-campaign", "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.DEVNULL,
    )
    # a blocking wait: waiting with a timeout polls in steps of up to
    # 50 ms, which would quantize the measurement
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    try:
        status = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if status != 0:
        raise RuntimeError("set-up probe exited with {}".format(status))
    return elapsed


def probe_setup(seed: int) -> None:
    """The body of a set-up probe (runs in the probe interpreter)."""
    from repro import designs
    import repro.desync.estimator  # noqa: F401
    import repro.workloads.scenarios  # noqa: F401
    from workloads import SOAK_DESIGNS, ESTIMATE_DESIGNS, soak_campaign_units

    soak_campaign_units(seed)
    for name, args in SOAK_DESIGNS:
        getattr(designs, name)(**args)
    for name in ESTIMATE_DESIGNS:
        getattr(designs, name)()


# -- references in a fresh interpreter ---------------------------------------------

def in_fresh_interpreters(fn, arg_lists, workers: int = 1) -> list:
    """``[fn(*args) for args in arg_lists]``, each call in a newly spawned
    interpreter (``workers`` at a time), so nothing it caches warms this
    process or the workers this process forks."""
    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
        futures = [pool.submit(fn, *args) for args in arg_lists]
        return [f.result() for f in futures]


def reference_digests(jobs, workers: int) -> Dict[str, str]:
    """Cold digests of ``jobs`` without a store, split across workers."""
    out: Dict[str, str] = {}
    chunks = [(jobs[i::workers], None) for i in range(workers)]
    for part in in_fresh_interpreters(execute_jobs, chunks, workers):
        out.update(part)
    return out


def execute_jobs(jobs, store_dir: Optional[str] = None) -> Dict[str, str]:
    """Job key -> result digest, each job run by the service runner
    directly (no scheduler, no server); with ``store_dir`` the MC store
    is enabled there."""
    from repro.service import runner

    if store_dir is None:
        os.environ.pop("REPRO_MC_STORE", None)
    else:
        os.environ["REPRO_MC_STORE"] = store_dir
    out: Dict[str, str] = {}
    for spec in jobs:
        envelope = runner.execute(dict(spec))
        out[envelope["key"]] = envelope["digest"]
    return out


def prepare_ci_store(base, store_dir: str, cold_jobs) -> Dict[str, str]:
    """Run the previous commit's jobs into the store (cold), then the
    pass's new jobs without a store: digests of both, all computed cold."""
    digests = execute_jobs(base, store_dir)
    digests.update(execute_jobs(cold_jobs, None))
    return digests


def _campaign_units_digests(seed: int, indices: List[int]) -> Dict[str, str]:
    from workloads import soak_campaign_units

    units = soak_campaign_units(seed)
    ids = unit_ids(units)
    result = campaign_pass([units[i] for i in indices], None)
    return {ids[i]: d for i, d in zip(indices, result.digests)}


def campaign_reference(seed: int, workers: int) -> Dict[str, str]:
    """Unit id -> digest of every campaign unit, computed sequentially in
    fresh interpreters, the jittered estimations spread across them."""
    from workloads import soak_campaign_units

    units = soak_campaign_units(seed)
    order = sorted(range(len(units)), key=lambda i: -units[i].args.get("hold", 0.0))
    out: Dict[str, str] = {}
    chunks = [(seed, order[i::workers]) for i in range(workers)]
    for part in in_fresh_interpreters(_campaign_units_digests, chunks, workers):
        out.update(part)
    return out


def inline_child(workload: str, seed: int, store_src: Optional[str],
                 clients: int) -> Dict[str, Any]:
    """An untraced single-process pass in a fresh interpreter (the
    baseline of the tracing overhead).  Like the traced run, it imports
    every traced module and keys every job before the pass starts."""
    import importlib

    from tracing import PRELOAD
    from workloads import ci_rerun_plan, key_of, soak_campaign_units, verify_cold_jobs

    for module in PRELOAD:
        importlib.import_module(module)
    if workload == "soak-campaign":
        result = campaign_pass(soak_campaign_units(seed), None)
        return {"wall_s": result.wall_s, "digests": result.digests}
    jobs = verify_cold_jobs(seed) if workload == "verify-cold" else ci_rerun_plan(seed).jobs
    for spec in jobs:
        key_of(spec)
    store = fresh_store("inline-untraced-store", store_src)
    result = inline_service_pass(jobs, store, clients)
    return {
        "wall_s": result.wall_s,
        "digests": {
            o.summary["key"]: o.summary["digest"]
            for o in result.outcomes if o.summary and "digest" in o.summary
        },
    }


# -- golden digests -------------------------------------------------------------------

def golden_path(workload: str) -> str:
    return os.path.join(GOLDEN, workload + ".json")


def load_golden(workload: str, seed: int) -> Optional[Dict[str, Any]]:
    path = golden_path(workload)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    return golden if golden.get("seed") == seed else None


def mismatches(expected: Dict[str, str], got: Dict[str, str]) -> List[str]:
    """Keys whose digest differs from (or is missing in) ``expected``."""
    return sorted(k for k, v in got.items() if expected.get(k) != v)


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")
