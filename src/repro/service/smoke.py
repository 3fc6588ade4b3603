"""``make serve-smoke``: end-to-end gate for the verification service.

Spins up a real :class:`~repro.service.server.ServiceServer` (process
pool, ephemeral port), pushes a small mixed batch over the socket,
asserts every job's digest is byte-identical to in-process sequential
execution, resubmits the batch to check that the scheduler serves every
repeat from its finished jobs, and shuts down cleanly.  Exits non-zero
on any mismatch — CI runs this next to the soak smoke.

Run directly with ``python -m repro.service.smoke [--workers N]``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

from repro.service import Scheduler, ServiceClient, ServiceServer
from repro.service import runner


def mixed_batch() -> List[Dict]:
    """A small batch touching every job kind and several designs."""
    jobs: List[Dict] = []
    for design in ("producer_consumer", "producer_accumulator",
                   "modular_producer_consumer", "boolean_producer_consumer",
                   "request_response", "fan_out"):
        jobs.append({"kind": "lint", "design": design, "params": {}})
        jobs.append({
            "kind": "lint", "design": design,
            "params": {"rates": ["p_act:1", "x_rreq:2"]},
        })
    for stages in (2, 3):
        jobs.append({
            "kind": "lint",
            "design": {"name": "pipeline", "args": {"stages": stages}},
            "params": {},
        })
    jobs.append({
        "kind": "verify", "design": "boolean_producer_consumer",
        "params": {"backend": "explicit", "never": "y"},
    })
    jobs.append({
        "kind": "verify", "design": "boolean_producer_consumer",
        "params": {"backend": "symbolic", "never": "y"},
    })
    jobs.append({
        "kind": "verify", "design": "producer_consumer",
        "params": {"backend": "bounded", "never": "y", "depth": 4},
    })
    for seed in (1, 2):
        jobs.append({
            "kind": "soak", "design": "producer_consumer",
            "params": {"seed": seed, "drop": 0.15, "horizon": 10.0},
        })
    jobs.append({
        "kind": "estimate", "design": "producer_consumer",
        "params": {"horizon": 6},
    })
    return jobs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args(argv)

    batch = mixed_batch()
    print("serve-smoke: {} mixed jobs, {} workers".format(len(batch), args.workers))

    # sequential in-process reference
    reference = [runner.execute(dict(spec)) for spec in batch]

    scheduler = Scheduler(workers=args.workers)
    server = ServiceServer(scheduler, port=0)
    failures = 0
    with server:
        host, port = server.address
        with ServiceClient(host, port) as client:
            assert client.ping().startswith("repro-service")
            ids = client.submit(batch)
            jobs = client.wait(ids, timeout=300)
            for spec, ref, summary in zip(batch, reference, jobs):
                if summary["state"] != "done":
                    print("FAIL {}: state={} error={}".format(
                        summary["id"], summary["state"], summary.get("error")))
                    failures += 1
                elif summary["digest"] != ref["digest"]:
                    print("FAIL {}: digest mismatch for {!r}".format(
                        summary["id"], spec))
                    failures += 1
            # warm resubmission: every job must be served from the job table
            warm_ids = client.submit(batch)
            warm = client.wait(warm_ids, timeout=60)
            served = sum(1 for s in warm if s.get("cache_hit"))
            stats = client.stats()
            client.shutdown()
    print("cold: {}/{} byte-identical to sequential".format(
        len(batch) - failures, len(batch)))
    print("warm: {}/{} served from result cache (hit rate {:.1%})".format(
        served, len(batch), stats["result_cache"]["hit_rate"]))
    print("plan cache: {hits} hits / {misses} misses".format(
        **stats["plan_cache"]))
    if served < len(batch):
        print("FAIL: warm resubmission missed the cache")
        failures += 1
    print("serve-smoke: {}".format("OK" if failures == 0 else "FAILED"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
