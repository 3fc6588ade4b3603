"""``make serve-smoke``: end-to-end gate for the verification service.

Spins up a real :class:`~repro.service.server.ServiceServer` (process
pool, ephemeral port) over a temporary persistent store, pushes a small
mixed batch over the socket, asserts every job's digest is
byte-identical to in-process sequential execution (run without a
store), resubmits the batch to check that the scheduler serves every
repeat from its finished jobs, and shuts down cleanly.  A second server
lifetime over the same store then gets the batch again: every ``verify``
job must be ``done`` in the submit reply, served from the store, and
every digest must again be the sequential one.  Exits non-zero on any
mismatch — CI runs this next to the soak smoke.

Run directly with ``python -m repro.service.smoke [--workers N]``.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import Dict, List

from repro.mc.store import STORE_ENV
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


def _lifetime(label: str, batch, reference, workers: int, check) -> int:
    """One server lifetime over the store ``REPRO_MC_STORE`` names: submit
    the batch, compare every digest with the sequential ``reference``,
    then run ``check(client, batch, states)`` on the submit reply's job
    states.  Returns the number of failed checks."""
    failures = 0
    with ServiceServer(Scheduler(workers=workers), port=0) as server:
        with ServiceClient(*server.address) as client:
            assert client.ping().startswith("repro-service")
            reply = client.request("submit", jobs=batch)
            jobs = client.wait(reply["ids"], timeout=300)
            for spec, ref, summary in zip(batch, reference, jobs):
                if summary["state"] != "done":
                    print("FAIL {}: state={} error={}".format(
                        summary["id"], summary["state"], summary.get("error")))
                    failures += 1
                elif summary["digest"] != ref["digest"]:
                    print("FAIL {}: digest mismatch for {!r}".format(
                        summary["id"], spec))
                    failures += 1
            print("{}: {}/{} byte-identical to sequential".format(
                label, len(batch) - failures, len(batch)))
            failures += check(client, batch, reply["states"])
            client.shutdown()
    return failures


def _served_from_table(client, batch, states) -> int:
    """A resubmission of the whole batch is served from the job table."""
    warm = client.wait(client.submit(batch), timeout=60)
    served = sum(1 for s in warm if s.get("cache_hit"))
    stats = client.stats()
    print("warm: {}/{} served from result cache (hit rate {:.1%})".format(
        served, len(batch), stats["result_cache"]["hit_rate"]))
    print("plan cache: {hits} hits / {misses} misses".format(
        **stats["plan_cache"]))
    if served < len(batch):
        print("FAIL: warm resubmission missed the cache")
        return 1
    return 0


def _served_from_store(client, batch, states) -> int:
    """Every ``verify`` job was ``done`` in its submit reply."""
    verify = [state for spec, state in zip(batch, states) if spec["kind"] == "verify"]
    served = verify.count("done")
    print("store: {}/{} verify jobs done at submit".format(served, len(verify)))
    if served < len(verify):
        print("FAIL: a verify job was not served from the store")
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args(argv)

    batch = mixed_batch()
    print("serve-smoke: {} mixed jobs, {} workers".format(len(batch), args.workers))

    saved = os.environ.pop(STORE_ENV, None)
    try:
        # sequential in-process reference, without a store
        reference = [runner.execute(dict(spec)) for spec in batch]
        with tempfile.TemporaryDirectory(prefix="serve-smoke-") as store:
            os.environ[STORE_ENV] = store
            failures = _lifetime("cold", batch, reference, args.workers,
                                 _served_from_table)
            # a new server over the store the first one filled
            failures += _lifetime("second server", batch, reference, args.workers,
                                  _served_from_store)
    finally:
        os.environ.pop(STORE_ENV, None)
        if saved is not None:
            os.environ[STORE_ENV] = saved
    print("serve-smoke: {}".format("OK" if failures == 0 else "FAILED"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
