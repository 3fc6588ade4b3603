"""Experiment A12 — the verification service under a 10k-mixed-job load.

The service layer (:mod:`repro.service`) exists to turn the repo's
one-shot pipelines into user-facing throughput: thousands of lint /
estimate / verify / soak jobs per commit, sharded over a persistent
worker pool, with repeated job keys served from the finished jobs.
This bench pushes one mixed batch over the ``repro.designs`` corpus ×
parameter grids through the platform four ways and records:

- ``sequential``: every job run in-process by
  :func:`repro.service.runner.execute` — the reference digests;
- ``service @ 1/2/4 workers``: the same batch through a cold
  :class:`~repro.service.scheduler.Scheduler` (process pool at >1
  worker).  **Every job's digest must be byte-identical to the
  sequential reference** — scheduling, sharding and caching must never
  change a result;
- ``warm rerun``: the batch resubmitted to the still-warm 4-worker
  service; the scheduler has to serve ≥90 % of it from its finished
  jobs (in practice all of it) and the plan cache keeps compiled plans
  across jobs.

Throughput scaling is recorded per worker count (``cpu_count`` is in the
JSON: on a single-core CI box the scaling column is flat by
construction, so byte-identity and the cache-hit floor are the asserted
gates, matching A8/A9 practice).

``BENCH_QUICK=1`` shrinks the batch to a few hundred jobs; the committed
``BENCH_A12_service.json`` is generated with the full ≥10k batch.
"""

import os
import time

from repro.service import Scheduler
from repro.service import runner
from repro.sim.plan import clear_plan_cache, plan_cache_stats

from _report import emit, quick, table

WORKER_COUNTS = (1, 2, 4)
MIN_WARM_HIT_RATE = 0.90

LINT_DESIGNS = (
    "producer_consumer", "producer_accumulator", "modular_producer_consumer",
    "boolean_producer_consumer", "request_response", "fan_out",
    "producer_accumulator", "token_ring",
)


def build_jobs(target):
    """A deterministic mixed batch of ~``target`` jobs: mostly cheap lint
    and verify obligations, a band of seeded soaks, a few estimation
    loops — the per-commit workload of a design shop."""
    jobs = []

    def add(kind, design, params):
        jobs.append({"kind": kind, "design": design, "params": params})

    i = 0
    while len(jobs) < target:
        design = LINT_DESIGNS[i % len(LINT_DESIGNS)]
        bucket = i % 20
        if bucket < 10:
            # lint grid: rate assumptions and channel reading vary
            params = {}
            if bucket % 3 == 1:
                params = {"rates": ["p_act:{}".format(1 + bucket % 2),
                                    "x_rreq:{}".format(2 + bucket % 3)]}
            elif bucket % 3 == 2:
                params = {"synchronous": True}
            if bucket % 5 == 4:
                params = dict(params, stages=None)  # distinct key, same run
            add("lint", design, params)
        elif bucket < 14:
            backend = ("explicit", "symbolic", "bounded")[bucket % 3]
            params = {"backend": backend, "never": "y"}
            if backend == "bounded":
                params["depth"] = 3 + bucket % 3
            add("verify", "boolean_producer_consumer"
                if backend != "bounded" else "producer_consumer", params)
        elif bucket < 19:
            add("soak", "producer_consumer", {
                "seed": i % 97,
                "drop": (i % 4) * 0.08,
                "duplicate": 0.1 if i % 5 == 0 else 0.0,
                "horizon": 8.0 + (i % 3) * 2.0,
            })
        else:
            add("estimate", "producer_consumer", {
                "horizon": 5 + i % 3,
                "stim": ["p_act:1", "x_rreq:{}".format(2 + i % 2)],
            })
        i += 1
    return jobs


def run_sequential(jobs):
    t0 = time.perf_counter()
    digests = [runner.execute(dict(spec))["digest"] for spec in jobs]
    return digests, time.perf_counter() - t0


def run_service(jobs, workers):
    clear_plan_cache()
    scheduler = Scheduler(workers=workers)
    # result-cache hits and misses are process-wide PERF counts, which
    # the earlier runs of this process add to: keep this run's change
    before = scheduler.stats()["result_cache"]
    with scheduler:
        t0 = time.perf_counter()
        ids = scheduler.submit_many(jobs)
        assert scheduler.wait(ids, timeout=7200), "service run timed out"
        seconds = time.perf_counter() - t0
        records = [scheduler.job(i) for i in ids]
        digests = [r.envelope["digest"] for r in records]
        failed = [r for r in records if r.state != "done"]
        assert not failed, "jobs failed: {}".format(
            [(r.job_id, r.error) for r in failed[:3]])
        # warm rerun against the same still-live scheduler
        t0 = time.perf_counter()
        warm_ids = scheduler.submit_many(jobs)
        assert scheduler.wait(warm_ids, timeout=600)
        warm_seconds = time.perf_counter() - t0
        warm_records = [scheduler.job(i) for i in warm_ids]
        warm_digests = [r.envelope["digest"] for r in warm_records]
        served = sum(1 for r in warm_records if r.cache_hit)
        stats = scheduler.stats()
    cache = stats["result_cache"]
    for field in ("hits", "misses"):
        cache[field] -= before[field]
    cache["hit_rate"] = cache["hits"] / (cache["hits"] + cache["misses"])
    return {
        "digests": digests,
        "seconds": seconds,
        "warm_digests": warm_digests,
        "warm_seconds": warm_seconds,
        "warm_served": served,
        "stats": stats,
    }


def test_a12_service_throughput():
    target = 400 if quick() else 10000
    jobs = build_jobs(target)
    n = len(jobs)
    unique = len({runner.job_key(runner.spec_from_dict(s)) for s in jobs})

    reference, t_seq = run_sequential(jobs)

    rows = []
    data_rows = []
    rows.append(("sequential", "-", "{:.2f}".format(t_seq),
                 "{:.0f}".format(n / t_seq), "-", "reference"))
    for workers in WORKER_COUNTS:
        out = run_service(jobs, workers)
        # the hard gate: byte-identical results at every worker count
        assert out["digests"] == reference, \
            "digest mismatch at workers={}".format(workers)
        assert out["warm_digests"] == reference, \
            "warm digest mismatch at workers={}".format(workers)
        hit_rate = out["warm_served"] / n
        assert hit_rate >= MIN_WARM_HIT_RATE, \
            "warm cache served only {:.1%}".format(hit_rate)
        cache = out["stats"]["result_cache"]
        plans = out["stats"]["plan_cache"]
        rows.append((
            "service w={}".format(workers),
            "{:.2f}".format(t_seq / out["seconds"]),
            "{:.2f}".format(out["seconds"]),
            "{:.0f}".format(n / out["seconds"]),
            "{:.2f}s {:.0%} hit".format(out["warm_seconds"], hit_rate),
            "identical",
        ))
        data_rows.append({
            "workers": workers,
            "jobs": n,
            "unique_jobs": unique,
            "seconds": round(out["seconds"], 3),
            "jobs_per_second": round(n / out["seconds"], 1),
            "speedup_vs_sequential": round(t_seq / out["seconds"], 3),
            "byte_identical": True,
            "warm_seconds": round(out["warm_seconds"], 3),
            "warm_cache_hit_rate": round(hit_rate, 4),
            "warm_jobs_per_second": round(n / out["warm_seconds"], 1),
            "result_cache": cache,
            "plan_cache": {k: plans[k] for k in ("hits", "misses", "evictions")},
        })

    kinds = {}
    for spec in jobs:
        kinds[spec["kind"]] = kinds.get(spec["kind"], 0) + 1
    text = "A12: {} mixed jobs ({}), {} unique keys, cpu_count={}\n".format(
        n, ", ".join("{} {}".format(v, k) for k, v in sorted(kinds.items())),
        unique, os.cpu_count())
    text += table(
        ("run", "speedup", "seconds", "jobs/s", "warm rerun", "digests"),
        rows,
    )
    emit("A12_service", text, data={
        "jobs": n,
        "kinds": dict(sorted(kinds.items())),
        "unique_jobs": unique,
        "cpu_count": os.cpu_count(),
        "sequential_seconds": round(t_seq, 3),
        "sequential_jobs_per_second": round(n / t_seq, 1),
        "min_warm_hit_rate": MIN_WARM_HIT_RATE,
        "runs": data_rows,
    })
