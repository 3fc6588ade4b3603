"""Experiment A11 — batched lane execution: the soak-campaign hot path.

A soak campaign is many near-identical runs of one design: the same base
schedule with per-lane fault/jitter perturbation ("validate many flows,
not one").  This bench measures the wall-time of running N such lanes on
the desynchronized producer-consumer pair two ways:

- ``sequential``: the pre-batching idiom — one unspecialized
  :class:`~repro.sim.Reactor` per lane, reacted row by row (the
  baseline every speedup is quoted against);
- ``batch``: :func:`~repro.sim.batch.simulate_batch` in its default
  configuration — one shared *specialized* plan, and the run-wide
  reaction memo that shares work across lanes reaching the same
  ``(state, inputs)`` pair.

The specialized plan is built once, before the first cell, and its build
time is reported on its own row: a campaign pays it once, so charging it
to whichever cell happens to run first would misstate that cell.

Every cell asserts the batched trace is byte-identical to the
sequential trace, lane by lane — the speedup must come from
amortization and sharing, never from approximation.

``BENCH_QUICK=1`` shrinks the horizon and drops the 256-lane column.
"""

import time

from repro.designs import modular_producer_consumer
from repro.desync import desynchronize
from repro.faults.soak import jittered_stimulus
from repro.lang.analysis import flatten_program
from repro.sim import Reactor
from repro.sim.batch import simulate_batch
from repro.sim.plan import clear_plan_cache, shared_plan

from _report import emit, quick, table

LANES = (1, 16, 64) if quick() else (1, 16, 64, 256)
RATES = (0.0, 0.25)
HORIZON = 120 if quick() else 400

#: required wall-time reduction of the default batch path at 64 lanes
#: (smoke mode runs too few instants for a stable ratio and only checks
#: direction)
FLOOR_64 = 2.0 if quick() else 5.0


def _base_rows(n):
    # the steady produce/consume handshake the jitter perturbs
    return [
        {"p_act": True} if i % 2 == 0 else {"x_rreq": True} for i in range(n)
    ]


def _design():
    return flatten_program(
        desynchronize(modular_producer_consumer(), capacities=2).program
    )


def _lane_rows(n_lanes, rate):
    base = _base_rows(HORIZON)
    return [
        list(jittered_stimulus(base, rate, seed=k)) for k in range(n_lanes)
    ]


def _cell(comp, plan, n_lanes, rate):
    lanes = _lane_rows(n_lanes, rate)

    t0 = time.perf_counter()
    sequential = []
    for rows in lanes:
        reactor = Reactor(comp, check=False, specialize=False)
        sequential.append([reactor.react(row) for row in rows])
    t_seq = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = simulate_batch(comp, [iter(rows) for rows in lanes], plan=plan)
    t_batch = time.perf_counter() - t0

    for k in range(n_lanes):
        assert repr(report.traces[k].instants) == repr(sequential[k]), (
            n_lanes, rate, k,
        )

    instants = n_lanes * HORIZON
    return {
        "lanes": n_lanes,
        "rate": rate,
        "instants": instants,
        "sequential_s": t_seq,
        "batch_s": t_batch,
        "batch_memo_hits": report.stats["memo_hits"],
        "batch_speedup": t_seq / t_batch if t_batch else 0.0,
    }


def run_experiment():
    comp = _design()
    clear_plan_cache()
    t0 = time.perf_counter()
    plan = shared_plan(comp)
    build_s = time.perf_counter() - t0
    cells = [_cell(comp, plan, n, rate) for n in LANES for rate in RATES]
    return build_s, cells


def test_a11_batched_soak(benchmark):
    build_s, records = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    emit(
        "A11_batched_soak",
        "batched soak, {} instants/lane, jittered handshake lanes\n".format(
            HORIZON
        )
        + "specialized plan build (once, before the cells): {:.3f} s\n".format(
            build_s
        )
        + table(
            ["lanes", "jitter", "sequential (s)", "batch (s)", "speedup",
             "memo hits"],
            [
                (r["lanes"], r["rate"],
                 "{:.3f}".format(r["sequential_s"]),
                 "{:.3f}".format(r["batch_s"]),
                 "{:.1f}x".format(r["batch_speedup"]),
                 r["batch_memo_hits"])
                for r in records
            ],
        ),
        data={"plan_build_s": build_s, "cells": records},
    )
    for r in records:
        # the batch memo exists to exploit cross-lane redundancy; on this
        # workload every multi-lane cell must share most reactions
        if r["lanes"] >= 16:
            assert r["batch_memo_hits"] > r["instants"] // 2, r
        if r["lanes"] == 64:
            assert r["batch_speedup"] >= FLOOR_64, r
