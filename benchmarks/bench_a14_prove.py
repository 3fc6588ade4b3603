"""Experiment A14 — the static flow-equivalence prover (repro.prove).

Four legs, all against one persistent store:

1. **corpus cross-validation** — every affine/endochronous design in
   :mod:`repro.designs` is proven statically (occupancy induction under
   all-present rates) AND validated dynamically by the Theorem 2 checker
   over the same environment; the two verdicts must agree.  Designs the
   affine path cannot carry (underivable clock words) must degrade to a
   sound ``unknown`` with a machine-readable reason, never silently.
2. **refutation mutants** — >= 3 seeded desynchronization mutants
   (starved reader, capacity below the inductive bound, free-environment
   overflow on the explicit and symbolic backends) are REFUTED with
   witnesses whose :mod:`repro.sim` replay diverges at exactly the
   reported signal/instant.
3. **warm store rate** — the whole proof workload runs twice; the second
   pass must serve >= 90% of certificates from the ``prove-certificate``
   store kind (measured on the PERF counters, not wall-clock luck).
4. **worker determinism** — the same proofs dispatched through the
   service scheduler at 1/2/4 workers produce byte-identical result
   digests to sequential execution.

Wall time for the whole experiment is pinned (generously) so the smoke
lane catches pathological slowdowns.
"""

import shutil
import tempfile
import time

from repro import designs
from repro.desync.theorems import validate_theorem2
from repro.lang.analysis import flatten_program
from repro.lint.bounds import PeriodicWord
from repro.mc.store import MCStore, default_store
from repro.perf import PERF
from repro.prove import prove_flow_equivalence, replay_witness
from repro.service.runner import execute
from repro.service.scheduler import Scheduler
from repro.sim.stimuli import stimulus_factory

from _report import emit, quick, table

#: affine/endochronous corpus under the all-present environment
AFFINE_CORPUS = (
    "producer_consumer",
    "producer_accumulator",
    "modular_producer_consumer",
    "boolean_producer_consumer",
    "pipeline",
    "request_response",
    "fan_out",
)

#: designs the affine path must *soundly* decline (underivable words)
DEGRADE_CORPUS = ("token_ring",)

DYNAMIC_HORIZON = 24
WORKER_COUNTS = (1, 2) if quick() else (1, 2, 4)
WALL_BUDGET_SECONDS = 60.0 if quick() else 120.0
WARM_RATE_FLOOR = 0.90


def all_present_rates(program):
    flat = flatten_program(program)
    return {name: PeriodicWord.parse("1") for name in flat.inputs}


def corpus_row(name, store):
    """Static proof vs. dynamic Theorem 2 validation of one design."""
    program = getattr(designs, name)()
    rates = all_present_rates(program)

    t0 = time.perf_counter()
    cert = prove_flow_equivalence(program, rates=rates, store=store)
    t_prove = time.perf_counter() - t0

    # drive every deployment input (source activations AND the channels'
    # read requests) every instant — the same environment the static
    # proof assumes (an absent rreq rate defaults to the always word)
    from repro.desync import desynchronize

    dep_inputs = sorted(flatten_program(desynchronize(program).program).inputs)
    report = validate_theorem2(
        program, 1,
        stimulus_factory(["{}:1".format(n) for n in dep_inputs]),
        horizon=DYNAMIC_HORIZON,
    )
    assert cert.verdict == "proven", (name, cert.verdict, cert.reason)
    assert cert.method == "affine-inductive", (name, cert.method)
    assert report.ok, (name, report.render())
    return {
        "design": name,
        "verdict": cert.verdict,
        "method": cert.method,
        "channels": len(cert.obligations),
        "max_bound": max(o.get("bound", 0) for o in cert.obligations),
        "dynamic_ok": report.ok,
        "t_prove": t_prove,
    }


def degrade_row(name, store):
    """The affine path must decline designs it cannot carry — with a
    reason, not a silent downgrade (and not a state-space stall)."""
    program = getattr(designs, name)()
    cert = prove_flow_equivalence(
        program, rates=all_present_rates(program), backend="affine",
        store=store,
    )
    assert cert.verdict == "unknown", (name, cert.verdict)
    assert cert.reason, name
    return {"design": name, "verdict": cert.verdict, "reason": cert.reason}


#: (label, design, prove kwargs, expected divergence instant)
MUTANTS = (
    ("starved-reader", "producer_consumer",
     dict(rates={"p_act": PeriodicWord.parse("1"),
                 "x_rreq": PeriodicWord.parse("2")}), 1),
    ("capacity-below-bound", "producer_consumer",
     dict(rates={"p_act": PeriodicWord.parse("110000"),
                 "x_rreq": PeriodicWord.parse("3:2")}, capacities=1), 1),
    ("free-env-explicit", "boolean_producer_consumer",
     dict(backend="explicit", capacities=2), 2),
    ("free-env-symbolic", "boolean_producer_consumer",
     dict(backend="symbolic", fifo="boolean"), 1),
)


def mutant_row(label, design, kwargs, expected_instant, store):
    program = getattr(designs, design)()
    cert = prove_flow_equivalence(program, store=store, **kwargs)
    assert cert.verdict == "refuted", (label, cert.verdict, cert.reason)
    witness = cert.witness
    assert witness["instant"] == expected_instant, (label, witness)
    rep = replay_witness(program, cert)
    assert rep.ok, (label, rep.render())
    assert rep.observed_instant == expected_instant, (label, rep)
    return {
        "mutant": label,
        "design": design,
        "method": cert.method,
        "event": witness["event"],
        "instant": witness["instant"],
        "replay_confirmed": rep.ok,
    }


def prove_pass(store):
    """The full proof workload; certificate-cacheable end to end."""
    t0 = time.perf_counter()
    body = {
        "corpus": [corpus_row(n, store) for n in AFFINE_CORPUS],
        "degraded": [degrade_row(n, store) for n in DEGRADE_CORPUS],
        "mutants": [mutant_row(*m, store) for m in MUTANTS],
    }
    body["wall_seconds"] = time.perf_counter() - t0
    return body


def cert_counters():
    return PERF.get("prove.cert.hits"), PERF.get("prove.cert.misses")


WORKER_SPECS = [
    {"kind": "prove", "design": "producer_consumer",
     "params": {"rates": ["p_act:1", "x_rreq:1"]}},
    {"kind": "prove", "design": "producer_consumer",
     "params": {"rates": ["p_act:1", "x_rreq:2"]}},
    {"kind": "prove", "design": "boolean_producer_consumer",
     "params": {"backend": "explicit", "backpressure": {"P": "p_act"}}},
    {"kind": "prove", "design": "boolean_producer_consumer",
     "params": {"backend": "symbolic", "fifo": "boolean",
                "backpressure": {"P": "p_act"}}},
]


def worker_determinism():
    """Byte-identical certificate digests at every worker count."""
    reference = [execute(dict(s))["digest"] for s in WORKER_SPECS]
    rows = []
    for workers in WORKER_COUNTS:
        with Scheduler(workers=workers) as sched:
            ids = sched.submit_many([dict(s) for s in WORKER_SPECS])
            assert sched.wait(ids, timeout=300)
            digests = [sched.job(i).envelope["digest"] for i in ids]
        assert digests == reference, (workers, digests, reference)
        rows.append({"workers": workers, "jobs": len(digests),
                     "byte_identical": True})
    return rows


def run_experiment():
    store = default_store()
    scratch = None
    if store is None:
        scratch = tempfile.mkdtemp(prefix="a14-store-")
        store = MCStore(scratch)
    t0 = time.perf_counter()
    try:
        hc, mc = cert_counters()
        cold = prove_pass(store)
        h0, m0 = cert_counters()
        warm = prove_pass(store)
        h1, m1 = cert_counters()
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    cold_lookups = (h0 - hc) + (m0 - mc)
    cold_rate = (h0 - hc) / cold_lookups if cold_lookups else 0.0
    warm_lookups = (h1 - h0) + (m1 - m0)
    warm_rate = (h1 - h0) / warm_lookups if warm_lookups else 0.0
    workers = worker_determinism()
    wall = time.perf_counter() - t0
    return {
        "cold": cold,
        "warm": warm,
        "cold_cert_lookups": cold_lookups,
        "cold_cert_rate": cold_rate,
        "warm_cert_lookups": warm_lookups,
        "warm_cert_rate": warm_rate,
        "warm_speedup": cold["wall_seconds"] / warm["wall_seconds"],
        "workers": workers,
        "store_root_persistent": scratch is None,
        "wall_seconds": wall,
    }


def test_a14_prove(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    assert results["warm_cert_rate"] >= WARM_RATE_FLOOR, results
    assert results["wall_seconds"] <= WALL_BUDGET_SECONDS, results
    assert all(r["byte_identical"] for r in results["workers"])

    rows = [
        (r["design"], r["verdict"], r["method"], r["channels"],
         r["max_bound"], "yes" if r["dynamic_ok"] else "NO",
         "{:.3f}".format(r["t_prove"]))
        for r in results["cold"]["corpus"]
    ]
    for r in results["cold"]["degraded"]:
        rows.append((r["design"], r["verdict"], "affine-inductive",
                     "-", "-", "-", "-"))
    corpus_text = table(
        ["design", "verdict", "method", "channels", "max bound",
         "dynamic ok", "prove (s)"],
        rows,
    )
    mutant_text = table(
        ["mutant", "design", "method", "event", "instant", "replay"],
        [
            (r["mutant"], r["design"], r["method"], r["event"],
             r["instant"], "confirmed" if r["replay_confirmed"] else "NO")
            for r in results["cold"]["mutants"]
        ],
    )
    summary = (
        "warm prove-certificate rate: {:.0%} over {} lookups "
        "(floor {:.0%})\nwarm speedup: {:.1f}x; worker counts {} "
        "byte-identical; wall {:.1f}s (budget {:.0f}s)".format(
            results["warm_cert_rate"], results["warm_cert_lookups"],
            WARM_RATE_FLOOR, results["warm_speedup"],
            [r["workers"] for r in results["workers"]],
            results["wall_seconds"], WALL_BUDGET_SECONDS,
        )
    )
    emit(
        "A14_prove",
        corpus_text + "\n\n" + mutant_text + "\n\n" + summary,
        data=results,
    )
