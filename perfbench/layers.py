"""Per-layer metrics of a traced run, computed from the tracer's spans and
hooks, ``repro.perf.PERF`` deltas and the scheduler's job records.

:data:`LAYER_METRICS` lists every metric with its unit, the workload
meant to stress it, and the end-to-end metric it should move there.
Each metric also has a *call count*: how often the layer it reads was
entered.  On its stress workload that count must be nonzero, so a wrapper
bound to a name the program no longer uses fails the run instead of
reporting 0.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple


class LayerMetric(NamedTuple):
    name: str
    unit: str
    stress: str        # workload meant to stress it
    moves: str         # end-to-end metric it should move there

    @property
    def better(self) -> str:
        # less time and less work for the same answers is better; shares
        # of work avoided or of capacity used are better higher
        higher = self.unit in ("frac", "1/s") or self.name == "service.coalesced"
        if self.name in ("trace.overhead_frac",):
            higher = False
        return "higher" if higher else "lower"


VC, CI, SC = "verify-cold", "ci-rerun", "soak-campaign"

LAYER_METRICS = (
    LayerMetric("service.exec_s", "s", VC, "jobs_per_s"),
    LayerMetric("service.worker_busy_frac", "frac", VC, "jobs_per_s"),
    LayerMetric("service.overhead_ms_p50", "ms", CI, "job_p50_ms"),
    LayerMetric("service.job_key_s", "s", CI, "job_p50_ms"),
    LayerMetric("service.cache_served_frac", "frac", CI, "jobs_per_s"),
    LayerMetric("service.coalesced", "count", CI, "jobs_per_s"),
    LayerMetric("mc.store.get_s", "s", CI, "job_p50_ms"),
    LayerMetric("mc.store.hit_frac", "frac", CI, "job_p50_ms"),
    LayerMetric("mc.store.put_s", "s", VC, "jobs_per_s"),
    LayerMetric("mc.store.puts", "count", VC, "jobs_per_s"),
    LayerMetric("mc.store.mb", "MiB", VC, "jobs_per_s"),
    LayerMetric("mc.compile_lts.s", "s", VC, "jobs_per_s"),
    LayerMetric("mc.compile_lts.calls", "count", VC, "jobs_per_s"),
    LayerMetric("mc.compile_lts.self_s", "s", VC, "jobs_per_s"),
    LayerMetric("mc.compile_lts.react_s", "s", VC, "jobs_per_s"),
    LayerMetric("mc.compile_lts.state_s", "s", VC, "jobs_per_s"),
    LayerMetric("mc.compile_lts.reactor_s", "s", VC, "jobs_per_s"),
    LayerMetric("mc.compile_lts.store_s", "s", VC, "jobs_per_s"),
    LayerMetric("mc.reactions", "count", VC, "jobs_per_s"),
    LayerMetric("mc.reactions_per_s", "1/s", VC, "job_p95_ms"),
    LayerMetric("mc.memo_hit_frac", "frac", VC, "jobs_per_s"),
    LayerMetric("mc.lts_codec.s", "s", VC, "jobs_per_s"),
    LayerMetric("mc.symbolic.s", "s", VC, "job_p95_ms"),
    LayerMetric("mc.bdd.apply_hit_frac", "frac", VC, "job_p95_ms"),
    LayerMetric("mc.bdd.gc_collections", "count", VC, "job_p95_ms"),
    LayerMetric("mc.compose.s", "s", VC, "jobs_per_s"),
    LayerMetric("mc.compose.fallbacks", "count", VC, "jobs_per_s"),
    LayerMetric("mc.bmc.s", "s", VC, "jobs_per_s"),
    LayerMetric("prove.s", "s", VC, "job_p95_ms"),
    LayerMetric("prove.affine_frac", "frac", VC, "job_p95_ms"),
    LayerMetric("prove.cert_hit_frac", "frac", CI, "jobs_per_s"),
    LayerMetric("lint.s", "s", CI, "job_p50_ms"),
    LayerMetric("lang.serializer.s", "s", CI, "job_p50_ms"),
    LayerMetric("lang.flatten.s", "s", VC, "jobs_per_s"),
    LayerMetric("sim.specialize.s", "s", SC, "campaign_s"),
    LayerMetric("sim.plan.cache_hit_frac", "frac", SC, "campaign_s"),
    LayerMetric("sim.batch.s", "s", SC, "campaign_s"),
    LayerMetric("sim.batch.lane_instants", "count", SC, "campaign_s"),
    LayerMetric("sim.batch.memo_hit_frac", "frac", SC, "campaign_s"),
    LayerMetric("sim.batch.memo_hit_frac.j0", "frac", SC, "campaign_s"),
    LayerMetric("sim.batch.memo_hit_frac.j25", "frac", SC, "campaign_s"),
    LayerMetric("sim.spec.reactions", "count", SC, "campaign_s"),
    LayerMetric("gals.network_run.s", "s", SC, "campaign_s"),
    LayerMetric("faults.soak_batch.s", "s", SC, "campaign_s"),
    LayerMetric("faults.injected", "count", SC, "campaign_s"),
    LayerMetric("desync.desynchronize.s", "s", SC, "campaign_s"),
    LayerMetric("desync.estimate.s", "s", SC, "campaign_s"),
    LayerMetric("desync.estimate.iterations", "count", SC, "campaign_s"),
    LayerMetric("perf.sweep.s", "s", SC, "campaign_s"),
    LayerMetric("perf.sweep.tasks", "count", SC, "campaign_s"),
    LayerMetric("perf.sweep.worker_busy_frac", "frac", SC, "campaign_s"),
)

#: tracing cost, reported on every workload
OVERHEAD_METRICS = (
    LayerMetric("trace.overhead_frac", "frac", "", ""),
    LayerMetric("trace.traced_wall_s", "s", "", ""),
    LayerMetric("trace.untraced_wall_s", "s", "", ""),
)


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def _perf(delta: Dict[str, Any], *names: str) -> float:
    return sum(delta.get(n, 0) for n in names)


def compute(
    tracer,
    perf: Dict[str, Any],
    wall_s: float,
    service: Optional[Dict[str, Any]] = None,
    campaign: Optional[List[Dict[str, Any]]] = None,
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """``(values, calls)`` for every metric in :data:`LAYER_METRICS`.

    ``perf`` is the PERF delta over the traced pass; ``service`` carries
    the scheduler's view of a service pass (job records, client
    latencies, store footprint); ``campaign`` the per-unit PERF deltas of
    a soak campaign with the unit's jitter.
    """
    t = tracer
    v: Dict[str, float] = {}
    c: Dict[str, int] = {}

    def put(name: str, value: float, calls: int) -> None:
        v[name] = value
        c[name] = int(calls)

    def span(name: str, span_name: str) -> None:
        put(name, t.seconds(span_name), t.calls(span_name))

    # service
    svc = service or {"records": {}, "latency_s": {}, "store_bytes": 0,
                      "store_entries": 0, "workers": 1}
    records = svc["records"]
    executed = [r for r in records.values() if not r[1]]
    exec_s = sum(r[0] for r in executed)
    put("service.exec_s", exec_s, len(executed))
    put("service.worker_busy_frac", _frac(exec_s, svc["workers"] * wall_s), len(executed))
    overheads = sorted(
        (lat - records[job_id][0]) * 1000.0
        for job_id, lat in svc["latency_s"].items() if job_id in records
    )
    put("service.overhead_ms_p50",
        overheads[len(overheads) // 2] if overheads else 0.0, len(overheads))
    span("service.job_key_s", "service.job_key")
    served = sum(1 for r in records.values() if r[1])
    put("service.cache_served_frac", _frac(served, len(records)), len(records))
    coalesced = sum(1 for r in records.values() if r[2])
    put("service.coalesced", coalesced, coalesced)

    # mc.store
    span("mc.store.get_s", "mc.store.get")
    lookups = _perf(perf, "mc.store.hits", "mc.store.misses")
    put("mc.store.hit_frac", _frac(perf.get("mc.store.hits", 0), lookups), lookups)
    span("mc.store.put_s", "mc.store.put")
    put("mc.store.puts", perf.get("mc.store.puts", 0), perf.get("mc.store.puts", 0))
    put("mc.store.mb", svc["store_bytes"] / 2.0 ** 20, svc["store_entries"])

    # mc: compile_lts and the E1 split of its time
    n_lts = t.calls("mc.compile_lts")
    span("mc.compile_lts.s", "mc.compile_lts")
    put("mc.compile_lts.calls", n_lts, n_lts)
    put("mc.compile_lts.self_s", t.self_seconds("mc.compile_lts"), n_lts)
    span("mc.compile_lts.react_s", "mc.compile_lts.react")
    span("mc.compile_lts.state_s", "mc.lts.state")
    span("mc.compile_lts.reactor_s", "mc.compile_lts.reactor")
    store_s = t.seconds_under(
        {"mc.store.get", "mc.store.put", "mc.lts_codec"}, "mc.compile_lts")
    put("mc.compile_lts.store_s", store_s, n_lts)
    reactions = perf.get("mc.reactions", 0)
    put("mc.reactions", reactions, reactions)
    # reactions per second of exploration: compile_lts time outside store I/O
    explore_s = t.seconds("mc.compile_lts") - store_s
    put("mc.reactions_per_s", _frac(reactions, explore_s), reactions)
    memo = _perf(perf, "mc.memo_hits", "mc.memo_misses")
    # no caller in the job path passes a ReactionMemo: 0 lookups is the
    # finding, so liveness rests on compile_lts having run
    put("mc.memo_hit_frac", _frac(perf.get("mc.memo_hits", 0), memo), n_lts)
    span("mc.lts_codec.s", "mc.lts_codec")
    span("mc.symbolic.s", "mc.symbolic")
    hits = sum(b.apply_hits for b in t.bdds)
    misses = sum(b.apply_misses for b in t.bdds)
    put("mc.bdd.apply_hit_frac", _frac(hits, hits + misses), len(t.bdds))
    put("mc.bdd.gc_collections", sum(b.gc_collections for b in t.bdds), len(t.bdds))
    span("mc.compose.s", "mc.compose")
    put("mc.compose.fallbacks", t.compose_fallbacks, t.compose_calls)
    span("mc.bmc.s", "mc.bmc")

    # prove, lint, lang
    span("prove.s", "prove")
    put("prove.affine_frac", _frac(t.prove_affine, t.prove_calls), t.prove_calls)
    certs = _perf(perf, "prove.cert.hits", "prove.cert.misses")
    put("prove.cert_hit_frac", _frac(perf.get("prove.cert.hits", 0), certs), certs)
    span("lint.s", "lint")
    span("lang.serializer.s", "lang.serializer")
    span("lang.flatten.s", "lang.flatten")

    # sim
    span("sim.specialize.s", "sim.specialize")
    plans = _perf(perf, "plan.cache_hits", "plan.cache_misses")
    put("sim.plan.cache_hit_frac", _frac(perf.get("plan.cache_hits", 0), plans), plans)
    span("sim.batch.s", "sim.batch")
    instants = perf.get("batch.instants", 0)
    put("sim.batch.lane_instants", instants, instants)
    put("sim.batch.memo_hit_frac", _frac(perf.get("batch.memo_hits", 0), instants), instants)
    for suffix, hold in (("j0", 0.0), ("j25", 0.25)):
        units = [u for u in (campaign or []) if u["hold"] == hold]
        hits_j = sum(u["perf"].get("batch.memo_hits", 0) for u in units)
        inst_j = sum(u["perf"].get("batch.instants", 0) for u in units)
        put("sim.batch.memo_hit_frac." + suffix, _frac(hits_j, inst_j), inst_j)
    spec = _perf(perf, "sim.plan.spec.reactions", "batch.plan.spec.reactions")
    put("sim.spec.reactions", spec, spec)

    # gals, faults, desync, perf.sweep
    span("gals.network_run.s", "gals.network_run")
    span("faults.soak_batch.s", "faults.soak_batch")
    injected = perf.get("faults.injected", 0)
    put("faults.injected", injected, injected)
    span("desync.desynchronize.s", "desync.desynchronize")
    span("desync.estimate.s", "desync.estimate")
    put("desync.estimate.iterations", t.estimate_iterations, t.calls("desync.estimate"))
    span("perf.sweep.s", "perf.sweep")
    tasks = perf.get("sweep.tasks", 0)
    put("perf.sweep.tasks", tasks, tasks)
    put("perf.sweep.worker_busy_frac", _frac(t.sweep_task_s, t.sweep_capacity_s),
        t.calls("perf.sweep"))
    return v, c


def dead_metrics(workload: str, calls: Dict[str, int]) -> List[str]:
    """Metrics whose layer was never entered on the workload that is
    meant to stress them."""
    return [m.name for m in LAYER_METRICS
            if m.stress == workload and calls.get(m.name, 0) <= 0]
