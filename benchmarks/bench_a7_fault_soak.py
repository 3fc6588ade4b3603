"""Experiment A7 — fault-injection soak of the GALS network.

The paper's flow-equivalence results (Definition 4, Theorem 1) say what a
*correct* desynchronization preserves.  This bench probes the converse:
inject the classic clock-domain-crossing faults (drop, duplicate,
reorder, latency jitter, value corruption, node stalls) into the
event-driven deployment and classify, per signal, how the observed flows
diverge from the zero-fault reference.

Three sub-experiments:

- fault-kind matrix: one scenario per fault kind at a fixed rate and
  seed; each kind must land in its expected divergence class, and pure
  latency jitter must remain flow-equivalent (jitter is a stretching);
- drop sweep: divergence onset as the drop rate rises from 0;
- capacity inflation: re-run the Section 5.2 buffer-size estimation
  under consumer-side read jitter and report how much capacity the
  jitter costs.

``BENCH_QUICK=1`` shrinks horizons and the sweep (``make soak-quick``).
"""

import os

from repro.designs import producer_consumer
from repro.faults import EstimateConfig, capacity_inflation
from repro.workloads import scenarios

from _report import emit, quick, table

HORIZON = 20.0 if quick() else 60.0
BURST_HORIZON = 40.0 if quick() else 120.0
WORKERS = min(4, os.cpu_count() or 1)

EXPECTED_CLASS = {
    "clean": None,
    "drop": "lost",
    "duplicate": "duplicated",
    "reorder": "order-divergent",
    "jitter": None,
    "corrupt": "value-divergent",
    "stall": "lost",
}


def soak_matrix():
    program = producer_consumer()
    specs = []
    for spec in scenarios.fault_kind_specs(seed=2):
        # dup/reorder need backlog and drain slack to classify cleanly
        if spec.name in ("duplicate", "reorder", "jitter"):
            spec = spec._replace(
                workload={"kind": "single_burst"}, horizon=BURST_HORIZON
            )
        specs.append(spec)
    return scenarios.batched_soak_sweep(
        program, specs, horizon=HORIZON, workers=WORKERS
    )


def sweep_drops():
    program = producer_consumer()
    rates = (0.0, 0.1, 0.4) if quick() else (0.0, 0.05, 0.1, 0.2, 0.4)
    specs = scenarios.drop_sweep_specs(rates=rates, seed=11)
    summaries = scenarios.batched_soak_sweep(
        program, specs, horizon=HORIZON, workers=WORKERS
    )
    rows = []
    for spec, row in zip(specs, summaries):
        rate = (
            spec.plan.for_channel("*", "*").drop if spec.plan.active else 0.0
        )
        rows.append({
            "rate": rate,
            "drops": row["faults"].get("drops", 0),
            "divergent_signals": row["divergent_signals"],
        })
    return rows


def measure_inflation():
    config = EstimateConfig(
        horizon=40 if quick() else 100, hold=0.4, max_iterations=16
    )
    inflation = capacity_inflation(
        producer_consumer(), scenarios.steady(), config, seed=3
    )
    return {
        "base": inflation.base,
        "jittered": inflation.jittered,
        "ratio": {s: inflation.ratio(s) for s in inflation.base},
        "base_converged": inflation.base_converged,
        "jittered_converged": inflation.jittered_converged,
    }


def run_experiment():
    return soak_matrix(), sweep_drops(), measure_inflation()


def test_a7_fault_soak(benchmark):
    matrix, sweep, inflation = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )

    lines = [
        table(
            ["scenario", "flow-equivalent", "divergence class", "injected"],
            [
                (r["scenario"], r["flow_equivalent"], r["class"] or "-",
                 r["faults"].get("injected", 0) + r["faults"].get("stalls", 0))
                for r in matrix
            ],
        ),
        "",
        table(
            ["drop rate", "drops", "divergent signals"],
            [(r["rate"], r["drops"], r["divergent_signals"]) for r in sweep],
        ),
        "",
        "capacity inflation under read jitter (hold=0.4): "
        + ", ".join(
            "{}: {} -> {} ({:.1f}x)".format(
                s, inflation["base"][s], inflation["jittered"][s],
                inflation["ratio"][s],
            )
            for s in sorted(inflation["base"])
        ),
    ]
    emit(
        "A7_fault_soak",
        "\n".join(lines),
        data={"matrix": matrix, "drop_sweep": sweep, "inflation": inflation},
    )

    by_name = {r["scenario"]: r for r in matrix}
    # every fault kind lands in its expected class; clean + jitter stay
    # flow-equivalent (jitter is a stretching, Definition 3)
    for name, expected in EXPECTED_CLASS.items():
        row = by_name[name]
        if expected is None:
            assert row["flow_equivalent"], name
        else:
            assert row["class"] == expected, (name, row["class"])
    # divergence is monotone-ish in the drop rate: endpoints behave
    assert sweep[0]["divergent_signals"] == 0
    assert sweep[-1]["divergent_signals"] > 0
    # read jitter never shrinks the required capacity
    assert all(r >= 1.0 for r in inflation["ratio"].values())
