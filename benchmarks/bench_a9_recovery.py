"""Experiment A9 — recovery cost under rising fault pressure.

A7 measured how *unprotected* GALS deployments diverge under
clock-domain-crossing faults; A9 measures what masking those faults
costs.  Every scenario runs the full recovery stack — reliable channels
(ack/retransmit, :mod:`repro.resilience.channel`) plus checkpoint/restart
supervision (:mod:`repro.resilience.supervisor`) — against a composite
fault dose (drop at ``r``, duplicate and reorder at ``r/2``) with a crash
window on the consumer node, and reports:

- retransmissions and abandoned frames (wire repair work),
- checkpoints taken and reactions replayed (supervision work),
- time-to-recover (the longest watchdog gap a restart closed),
- the health verdict: flow-equivalent to the zero-fault reference with
  no abandoned frames and no denied restarts.

The rows come from :func:`repro.workloads.scenarios.batched_soak_sweep`
over :func:`~repro.workloads.scenarios.recovery_rate_specs`, whose specs
carry ``CONFIG`` as their ``recovery``, so each soak runs the hardened
deployment.  A9's specs share one workload and one config, so at every
worker count the sweep is a single :func:`repro.perf.sweep.sweep` task
with one shared reference run.  The run asserts that the summaries are
byte-identical at 1, 2 and 4 workers: that checks determinism, not
fan-out (the tier-1 test ``test_recovery_sweep_identical_across_workers``
checks fan-out on two workloads).  ``sweep_seconds`` times each worker
count with :func:`time.perf_counter`, after one untimed warm-up sweep.

``BENCH_QUICK=1`` shrinks the rate axis (``make recover-quick``).
"""

import json
import time

from repro.designs import producer_accumulator
from repro.resilience import RecoveryConfig, ReliableConfig, RestartPolicy
from repro.workloads import scenarios

from _report import emit, quick, table

RATES = (0.05, 0.3) if quick() else (0.05, 0.15, 0.3)
HORIZON = 40.0
CRASH = ((8.0, 12.0),)
CONFIG = RecoveryConfig(
    channel=ReliableConfig(timeout=1.5, backoff=1.5, max_retries=10),
    watchdog=2.5,
    checkpoint_interval=3.0,
    policy=RestartPolicy(max_restarts=3),
)


def run_experiment():
    program = producer_accumulator()
    specs = scenarios.recovery_rate_specs(
        rates=RATES, seed=11, crash=CRASH, recovery=CONFIG
    )
    rows = {}
    seconds = {}
    # the first sweep of a process pays imports and plan builds; the
    # specs make one in-process task at every worker count, so timing
    # that sweep would charge the warm-up to ``workers=1`` and read as a
    # fan-out speed-up
    scenarios.batched_soak_sweep(program, specs, horizon=HORIZON, workers=1)
    for workers in (1, 2, 4):
        start = time.perf_counter()
        rows[workers] = scenarios.batched_soak_sweep(
            program, specs, horizon=HORIZON, workers=workers
        )
        seconds[workers] = round(time.perf_counter() - start, 6)
    serialized = {w: json.dumps(r, sort_keys=True) for w, r in rows.items()}
    return rows[1], serialized, seconds


def test_a9_recovery(benchmark):
    rows, serialized, seconds = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )

    lines = [
        table(
            ["scenario", "healthy", "retransmits", "abandoned",
             "checkpoints", "replayed", "time-to-recover"],
            [
                (r["scenario"], r["healthy"], r["retransmits"],
                 r["abandoned"], r["checkpoints"], r["replayed"],
                 r["max_recovery_gap"])
                for r in rows
            ],
        ),
        "",
        "sweep determinism: summaries byte-identical at workers 1/2/4: {}".format(
            serialized[1] == serialized[2] == serialized[4]
        ),
        "sweep seconds: " + ", ".join(
            "{}w={:.3f}".format(w, s) for w, s in sorted(seconds.items())
        ),
    ]
    emit(
        "A9_recovery",
        "\n".join(lines),
        data={
            "rates": list(RATES),
            "crash": [list(w) for w in CRASH],
            "rows": rows,
            "deterministic": serialized[1] == serialized[2] == serialized[4],
            "sweep_seconds": seconds,
        },
    )

    # the recovery layer masks every dose on the axis
    for r in rows:
        assert r["healthy"], r["scenario"]
        assert r["flow_equivalent"], r["scenario"]
        assert r["restarts"] >= 1, r["scenario"]  # the crash window bites
    # repair work grows with the dose
    assert rows[-1]["retransmits"] > rows[0]["retransmits"]
    # fan-out does not change the answer
    assert serialized[1] == serialized[2] == serialized[4]
