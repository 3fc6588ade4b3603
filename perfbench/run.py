#!/usr/bin/env python3
"""The repository benchmark: three workloads, timed end to end, traced
per layer, every output checked.

    python3 perfbench/run.py --workload verify-cold --seed 0 --seconds 30 --trace 0

Workloads (inputs generated from ``--seed`` by ``perfbench/workloads.py``):

- ``verify-cold`` — two closed-loop clients submit execution-bound
  ``verify``/``prove`` jobs (pairwise-distinct keys) to ``repro serve``
  with ``os.cpu_count()`` workers and a fresh, empty MC store;
- ``ci-rerun`` — the same loop against a new server lifetime over a copy
  of a pre-warmed store: a per-commit mix of repeated, one-token-edited
  and in-pass duplicate jobs;
- ``soak-campaign`` — batched fault-soak sweeps and jittered
  multi-environment buffer estimation with ``os.cpu_count()`` sweep
  workers, in this process.

``--trace 0`` repeats whole passes (a new server, or the whole campaign)
until ``--seconds`` have elapsed and reports the end-to-end metrics:
``setup_s`` (median over passes of server launch to fixed set-up jobs
answered, which spans server start, pool spawn and worker imports; for
the campaign, the median of fresh interpreters importing and building
its inputs, two before each pass and at least seven), ``campaign_s``
(median pass, set-up included), ``jobs_per_s`` (median over passes of jobs — for the campaign, library
calls — per second after set-up), ``job_p50_ms`` / ``job_p95_ms`` (submit
to answer, over every job of every pass; for the campaign, every call)
and ``peak_rss_mb`` (this process, the server and its workers; the run's
maximum).  The pass count is recorded.  ``--trace 1`` runs one pass in
a single process with spans around every layer (``perfbench/tracing.py``)
and one untraced single-process pass in a fresh interpreter, and reports
the per-layer metrics of ``perfbench/layers.py`` plus the tracing
overhead.  ``--seconds`` does not apply to traced runs.

Every job digest is checked against the golden digests of the default
seed (``perfbench/golden/``) or, for another seed, against a reference
computed untimed in a fresh interpreter; ``ci-rerun`` must also reproduce
the cold digests.  The last line of standard output is the JSON result;
a full record, stamped with commit and machine, goes to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

import harness
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("verify-cold", "ci-rerun", "soak-campaign")
#: the campaign's set-up probes: two before each pass, at least seven
PROBES_PER_PASS = 2
SETUP_PROBES = 7

E2E_UNITS = {
    "setup_s": ("s", "lower"),
    "campaign_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "job_p50_ms": ("ms", "lower"),
    "job_p95_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}


def _git(*args: str):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp(args, workers: int) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "repeat": args.repeat,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "workers": workers,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


class Check:
    """Counts attempted and failed units; a failed unit is one that
    errored or whose output digest differs from the reference."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._setup = {}

    def job(self, expected: dict, key: str, summary, error) -> None:
        self.attempted += 1
        digest = None if summary is None else summary.get("digest")
        if error is not None or summary is None:
            self.fail("job {} failed: {}".format(key[:12], error))
        elif summary.get("key") != key:
            self.fail("job {} answered for key {}".format(key[:12], summary.get("key")))
        elif expected.get(key) != digest:
            self.fail("job {} digest {} != reference {}".format(
                key[:12], (digest or "-")[:12], (expected.get(key) or "-")[:12]))

    def setup(self, outcomes) -> None:
        """Set-up jobs: answered without error, each with the digest it
        had in the run's first pass."""
        for o in outcomes:
            self.attempted += 1
            if o.error is not None or o.summary is None:
                self.fail("set-up job failed: {}".format(o.error))
                continue
            key, digest = o.summary["key"], o.summary.get("digest")
            if self._setup.setdefault(key, digest) != digest:
                self.fail("set-up job {} digest changed between passes".format(key[:12]))

    def units(self, expected: dict, ids, digests) -> None:
        for uid, digest in zip(ids, digests):
            self.attempted += 1
            if expected.get(uid) != digest:
                self.fail("unit {} digest {} != reference {}".format(
                    uid, digest[:12], (expected.get(uid) or "-")[:12]))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def _expected(workload: str, seed: int, check: Check, compute, computed=None) -> dict:
    """Reference digests: the golden file for the default seed, else
    ``computed`` or ``compute()``.  A cold reference computed anyway must
    agree with the golden file."""
    golden = harness.load_golden(workload, seed)
    if golden is None:
        return computed if computed is not None else compute()
    for key in harness.mismatches(golden["digests"], computed or {}):
        check.fail("cold reference {} differs from golden".format(key[:12]))
    return golden["digests"]


def _traced(fn):
    """``fn(start)``, where ``start()`` installs the tracer once set-up is
    done: ``(result, tracer, PERF delta since start())``."""
    from repro.perf import PERF
    from tracing import Tracer

    tracer = Tracer()
    marks = {}

    def start():
        tracer.install()
        marks["before"] = PERF.snapshot()

    try:
        result = fn(start)
    finally:
        tracer.uninstall()
    return result, tracer, harness.perf_delta(marks["before"], PERF.snapshot())


# -- service workloads -------------------------------------------------------------

def _service_inputs(workload: str, seed: int):
    """(jobs, keys, ci plan or None)."""
    from workloads import ci_rerun_plan, key_of, verify_cold_jobs

    plan = None
    if workload == "verify-cold":
        jobs = verify_cold_jobs(seed)
    else:
        plan = ci_rerun_plan(seed)
        jobs = plan.jobs
    keys = [key_of(j) for j in jobs]
    if workload == "verify-cold" and len(set(keys)) != len(keys):
        raise SystemExit("verify-cold generated duplicate job keys")
    return jobs, keys, plan


def _prepare_ci(plan, keys):
    """Prepared store (untimed) and the cold digests of every pass key."""
    store = harness.fresh_store("ci-prepared-store")
    edits = {k: spec for spec, k, origin in zip(plan.jobs, keys, plan.origins)
             if origin == "edit"}
    cold, = harness.in_fresh_interpreters(
        harness.prepare_ci_store, [(plan.base, store, list(edits.values()))])
    return store, cold


def run_service_timed(args, workers: int, record: dict) -> Check:
    check = Check()
    jobs, keys, plan = _service_inputs(args.workload, args.seed)
    prepared = cold = None
    if plan is not None:
        prepared, cold = _prepare_ci(plan, keys)
    passes = []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        store = harness.fresh_store("store", prepared)
        passes.append(harness.timed_service_pass(jobs, store, workers, workers))
    peak = max([harness.self_maxrss_mb()] + [p.peak_rss_mb for p in passes])

    expected = _expected(args.workload, args.seed, check, computed=cold,
                         compute=lambda: harness.reference_digests(jobs, workers))
    per_pass = []
    for p in passes:
        check.setup(p.setup)
        for o in p.outcomes:
            check.job(expected, keys[o.index], o.summary, o.error)
        latencies = [o.latency_s for o in p.outcomes]
        per_pass.append(dict(
            p.stats,
            setup_s=p.setup_s,
            campaign_s=p.wall_s,
            jobs_per_s=len(jobs) / p.busy_s,
            job_p50_ms=1000.0 * harness.quantile(latencies, 0.50),
            job_p95_ms=1000.0 * harness.quantile(latencies, 0.95),
            served=sum(1 for o in p.outcomes if o.summary and o.summary.get("cache_hit")),
            store_mb=p.store_bytes / 2.0 ** 20,
        ))
    record["details"] = {"passes": per_pass, "pass_count": len(passes),
                         "jobs_per_pass": len(jobs),
                         "latency_samples": len(jobs) * len(passes)}
    if plan is not None:
        record["details"]["declared_shares"] = plan.shares()
    # medians over the run's passes (their count is recorded, not used);
    # latency percentiles over every job of every pass
    latencies = [o.latency_s for p in passes for o in p.outcomes]
    record["metrics"] = {
        name: harness.median([p[name] for p in per_pass])
        for name in ("setup_s", "campaign_s", "jobs_per_s")
    }
    record["metrics"].update(
        job_p50_ms=1000.0 * harness.quantile(latencies, 0.50),
        job_p95_ms=1000.0 * harness.quantile(latencies, 0.95),
        peak_rss_mb=peak,
    )
    return check


def run_service_traced(args, workers: int, record: dict) -> Check:
    check = Check()
    jobs, keys, plan = _service_inputs(args.workload, args.seed)
    prepared = cold = None
    if plan is not None:
        prepared, cold = _prepare_ci(plan, keys)
    untraced, = harness.in_fresh_interpreters(
        harness.inline_child, [(args.workload, args.seed, prepared, workers)])
    store = harness.fresh_store("store", prepared)
    result, tracer, delta = _traced(
        lambda start: harness.inline_service_pass(jobs, store, clients=workers, ready=start))

    expected = _expected(args.workload, args.seed, check, computed=cold,
                         compute=lambda: untraced["digests"])
    check.setup(result.setup)
    latency_by_id = {}
    for o in result.outcomes:
        check.job(expected, keys[o.index], o.summary, o.error)
        if o.summary is not None:
            latency_by_id[o.summary["id"]] = o.latency_s
    for key in harness.mismatches(expected, untraced["digests"]):
        check.fail("untraced pass: job {} digest differs".format(key[:12]))
    values, calls = layers.compute(tracer, delta, result.wall_s, service={
        "records": result.records, "latency_s": latency_by_id,
        "store_bytes": result.store_bytes, "store_entries": result.store_entries,
        "workers": 1,
    })
    _finish_traced(args, record, check, tracer, values, calls,
                   result.wall_s, untraced["wall_s"])
    if plan is not None:
        record["details"]["served"] = _ci_served(plan, result, check)
    return check


def _ci_served(plan, result, check: Check) -> dict:
    """Per origin, the share of ci-rerun's jobs that the result cache
    (``cache``) or the MC store (``store``: store hits, no misses, no
    exploration) answered.  A repeat the store did not serve fails: the
    workload would not measure what it declares."""
    counts = {o: {"jobs": 0, "cache": 0, "store": 0} for o in ("repeat", "edit", "dup")}
    for o in result.outcomes:
        if o.summary is None:
            continue
        origin = plan.origins[o.index]
        _, cache_hit, _, counters = result.records[o.summary["id"]]
        store_hit = (counters.get("mc.store.hits", 0) > 0
                     and counters.get("mc.store.misses", 0) == 0
                     and counters.get("mc.reactions", 0) == 0)
        by = "cache" if cache_hit else "store" if store_hit else None
        counts[origin]["jobs"] += 1
        if by:
            counts[origin][by] += 1
        if origin == "repeat" and by != "store":
            check.fail("repeat job {} was not served by the store".format(
                o.summary["key"][:12]))
    return {
        origin: {"jobs": c["jobs"],
                 "cache_frac": c["cache"] / max(1, c["jobs"]),
                 "store_frac": c["store"] / max(1, c["jobs"])}
        for origin, c in counts.items()
    }


# -- soak campaign -----------------------------------------------------------------

def run_campaign_timed(args, workers: int, record: dict) -> Check:
    from workloads import soak_campaign_units

    check = Check()
    units = soak_campaign_units(args.seed)
    setups, passes = [], []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        # probes before every pass: the host's speed drifts over seconds,
        # and probes taken back to back would all sample one phase of it
        setups.extend(harness.setup_probe(args.seed) for _ in range(PROBES_PER_PASS))
        passes.append(harness.campaign_pass(units, workers))
    while len(setups) < SETUP_PROBES:
        setups.append(harness.setup_probe(args.seed))
    peak = max(harness.self_maxrss_mb(), harness.children_maxrss_mb())

    expected = _expected(args.workload, args.seed, check,
                         compute=lambda: harness.campaign_reference(args.seed, workers))
    ids = harness.unit_ids(units)
    for p in passes:
        check.units(expected, ids, p.digests)
    # percentiles over every call of every pass: six calls a pass leave
    # fewer than ten samples beyond p95, which is near the slowest call
    latencies = [t for p in passes for t in p.latencies_s]
    record["details"] = {
        "passes": [{"campaign_s": p.wall_s, "latency_s": p.latencies_s} for p in passes],
        "pass_count": len(passes),
        "units_per_pass": len(units),
        "latency_samples": len(latencies),
        "setup_samples": setups,
    }
    record["metrics"] = {
        "setup_s": harness.median(setups),
        "campaign_s": harness.median([p.wall_s for p in passes]),
        "jobs_per_s": harness.median([len(units) / p.wall_s for p in passes]),
        "job_p50_ms": 1000.0 * harness.quantile(latencies, 0.50),
        "job_p95_ms": 1000.0 * harness.quantile(latencies, 0.95),
        "peak_rss_mb": peak,
    }
    return check


def run_campaign_traced(args, workers: int, record: dict) -> Check:
    from workloads import soak_campaign_units

    check = Check()
    units = soak_campaign_units(args.seed)
    ids = harness.unit_ids(units)
    untraced, = harness.in_fresh_interpreters(
        harness.inline_child, [(args.workload, args.seed, None, 1)])
    def campaign(start):
        start()
        return harness.campaign_pass(units, None, perf_deltas=True)

    result, tracer, delta = _traced(campaign)

    expected = _expected(args.workload, args.seed, check,
                         compute=lambda: dict(zip(ids, untraced["digests"])))
    check.units(expected, ids, result.digests)
    for uid, a, b in zip(ids, untraced["digests"], result.digests):
        if a != b:
            check.fail("untraced pass: unit {} digest differs".format(uid))
    campaign = [{"hold": u.args.get("hold"), "perf": d} for u, d in zip(units, result.perf)]
    values, calls = layers.compute(tracer, delta, result.wall_s, campaign=campaign)
    _finish_traced(args, record, check, tracer, values, calls,
                   result.wall_s, untraced["wall_s"])
    return check


def _finish_traced(args, record, check, tracer, values, calls, traced_s, untraced_s):
    for name in layers.dead_metrics(args.workload, calls):
        check.fail("per-layer metric {} recorded no calls on {}".format(name, args.workload))
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    values["trace.traced_wall_s"] = traced_s
    values["trace.untraced_wall_s"] = untraced_s
    record["metrics"] = values
    record["calls"] = calls
    path = os.path.join(harness.work_dir("traces"), "{}-seed{}.json".format(
        args.workload, args.seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans,
                   "totals": {k: list(v) for k, v in tracer.totals.items()}}, fh)
    record["details"] = {"spans": len(tracer.spans), "trace_file": os.path.relpath(path, ROOT)}


# -- entry point --------------------------------------------------------------------

def units_of(name: str, traced: bool) -> tuple:
    """(unit, better) of a reported metric."""
    if not traced:
        return E2E_UNITS[name]
    m = next(m for m in layers.LAYER_METRICS + layers.OVERHEAD_METRICS if m.name == name)
    return m.unit, m.better


def write_golden(workload: str) -> None:
    """Regenerate ``perfbench/golden/<workload>.json`` for the default
    seed, computing every digest cold in fresh interpreters."""
    from workloads import DEFAULT_SEED

    seed = DEFAULT_SEED
    workers = os.cpu_count() or 1
    if workload == "soak-campaign":
        digests = harness.campaign_reference(seed, workers)
    else:
        jobs, keys, plan = _service_inputs(workload, seed)
        if plan is None:
            digests = harness.reference_digests(jobs, workers)
        else:
            digests = _prepare_ci(plan, keys)[1]
    os.makedirs(harness.GOLDEN, exist_ok=True)
    with open(harness.golden_path(workload), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "digests": dict(sorted(digests.items()))}, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="repeat index recorded in the result stamp")
    parser.add_argument("--out", default=None,
                        help="directory for the stamped record "
                             "(default .perfbench_work/results/<workload>)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate the golden digests of the default seed")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: no program to benchmark: {} is missing".format(
            os.path.join(SRC, "repro")), file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

    if args.setup_probe:
        harness.probe_setup(args.seed)
        return 0
    # every process the run starts, and every orphan one of them leaves,
    # is stopped and waited for before the run exits, on every path out
    harness.adopt_orphans()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args)
    finally:
        harness.stop_children()


def run(args) -> int:
    if args.write_golden:
        write_golden(args.workload)
        return 0

    workers = os.cpu_count() or 1
    record = {"stamp": stamp(args, workers)}
    runner = {
        (0, False): run_service_timed, (1, False): run_service_traced,
        (0, True): run_campaign_timed, (1, True): run_campaign_traced,
    }[(args.trace, args.workload == "soak-campaign")]
    check = runner(args, workers, record)

    record.update(attempted=check.attempted, failed=check.failed, errors=check.errors)
    record["error_rate"] = check.failed / max(1, check.attempted)
    out_dir = args.out or harness.work_dir("results", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    name = "{}-seed{}-r{}-t{}-{}.json".format(
        args.workload, args.seed, args.repeat, args.trace, time.time_ns())
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    traced = bool(args.trace)
    print("{} seed={} {}: {} attempted, {} failed, error_rate={:.4f}".format(
        args.workload, args.seed, "traced" if traced else "timed",
        check.attempted, check.failed, record["error_rate"]))
    for message in check.errors:
        print("  error:", message)
    metrics = {}
    for name, value in record["metrics"].items():
        unit, better = units_of(name, traced)
        metrics[name] = {"value": value, "unit": unit}
        print("  {:<32} {:>14.6g} {:<6} {}".format(
            name, value, unit, "({} is better)".format(better) if better else ""))
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": max(1, check.attempted),
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
