"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_generators_are_deterministic_per_seed():
    assert workloads.verify_cold_jobs(5) == workloads.verify_cold_jobs(5)
    assert workloads.verify_cold_jobs(5) != workloads.verify_cold_jobs(6)
    assert workloads.ci_rerun_plan(5) == workloads.ci_rerun_plan(5)
    assert workloads.ci_rerun_plan(5).jobs != workloads.ci_rerun_plan(6).jobs
    assert repr(workloads.soak_campaign_units(5)) == repr(workloads.soak_campaign_units(5))
    assert repr(workloads.soak_campaign_units(5)) != repr(workloads.soak_campaign_units(6))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_cold_has_no_duplicate_keys(seed):
    keys = [workloads.key_of(j) for j in workloads.verify_cold_jobs(seed)]
    assert len(keys) >= 200
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("seed", [0, 1])
def test_ci_rerun_measured_shares_match_declared(seed):
    plan = workloads.ci_rerun_plan(seed)
    base_keys = {workloads.key_of(s) for s in plan.base}
    seen, measured = set(), []
    for spec in plan.jobs:
        key = workloads.key_of(spec)
        if key in seen:
            measured.append("dup")
        elif key in base_keys:
            measured.append("repeat")
        else:
            measured.append("edit")
        seen.add(key)
    assert measured == plan.origins
    for origin, share in workloads.CI_SHARES.items():
        assert abs(measured.count(origin) / len(measured) - share) <= 0.02, origin


def test_seeds_draw_order_and_fault_seeds_not_work():
    """ci-rerun repeats and edits the same jobs for every seed apart from
    the soak fault seeds, and the campaign estimates the same lanes: what
    a seed changes must not change how long a pass takes."""
    def ci_work(seed):
        plan = workloads.ci_rerun_plan(seed)
        return sorted(workloads.key_of(j) for j, origin in zip(plan.jobs, plan.origins)
                      if j["kind"] != "soak" and origin != "dup")

    def lanes(seed):
        return [repr(u) for u in workloads.soak_campaign_units(seed) if u.kind == "estimate"]

    assert ci_work(0) == ci_work(1)
    assert lanes(0) == lanes(1)


def test_setup_jobs_are_distinct_and_in_no_workload():
    setup = [workloads.key_of(j) for j in workloads.setup_jobs(2)]
    assert len(set(setup)) == len(setup) == 20
    plan = workloads.ci_rerun_plan(0)
    used = {workloads.key_of(j) for j in workloads.verify_cold_jobs(0) + plan.jobs + plan.base}
    assert not used & set(setup)


def test_ci_rerun_repeats_are_served_by_the_prepared_store(tmp_path, monkeypatch):
    """Each repeat is answered from the store the previous commit's jobs
    warmed: store hits, no misses, no exploration."""
    from repro.perf import PERF
    from repro.service import runner

    plan = workloads.ci_rerun_plan(0)
    monkeypatch.setenv("REPRO_MC_STORE", str(tmp_path))
    for spec in plan.base:
        runner.execute(dict(spec))
    served = []
    for spec, origin in zip(plan.jobs, plan.origins):
        if origin != "repeat":
            continue
        before = PERF.snapshot()
        runner.execute(dict(spec))
        delta = harness.perf_delta(before, PERF.snapshot())
        served.append(delta.get("mc.store.hits", 0) > 0
                      and delta.get("mc.store.misses", 0) == 0
                      and delta.get("mc.reactions", 0) == 0)
    assert len(served) == round(workloads.CI_PASS * workloads.CI_SHARES["repeat"])
    assert all(served)


def test_jitter_zero_lanes_share_far_more_memo_hits():
    from repro.perf import PERF

    fracs = {}
    for unit in workloads.soak_campaign_units(0):
        if unit.kind != "estimate" or unit.name != "producer_consumer":
            continue
        before = PERF.snapshot()
        workloads.run_unit(unit, None)
        delta = harness.perf_delta(before, PERF.snapshot())
        fracs[unit.args["hold"]] = delta["batch.memo_hits"] / delta["batch.instants"]
    assert fracs[0.0] > 0.9
    assert fracs[0.0] - fracs[0.25] > 0.15


def test_golden_digest_matches_and_tampering_fails_the_check():
    from repro.service import runner

    golden = harness.load_golden("verify-cold", workloads.DEFAULT_SEED)
    spec = next(j for j in workloads.verify_cold_jobs(workloads.DEFAULT_SEED)
                if j["kind"] == "prove")
    envelope = runner.execute(dict(spec))
    summary = {"key": envelope["key"], "digest": envelope["digest"]}

    check = run.Check()
    check.job(golden["digests"], envelope["key"], summary, None)
    assert (check.attempted, check.failed) == (1, 0)

    tampered = dict(golden["digests"])
    tampered[envelope["key"]] = "0" * 64
    check = run.Check()
    check.job(tampered, envelope["key"], summary, None)
    assert (check.attempted, check.failed) == (1, 1)


def test_tampered_campaign_digest_fails_the_check():
    golden = harness.load_golden("soak-campaign", workloads.DEFAULT_SEED)
    ids = sorted(golden["digests"])
    digests = [golden["digests"][i] for i in ids]
    check = run.Check()
    check.units(golden["digests"], ids, digests)
    assert check.failed == 0
    digests[1] = "f" * 64
    check = run.Check()
    check.units(golden["digests"], ids, digests)
    assert check.failed == 1


def test_golden_files_cover_the_default_seed():
    for workload in run.WORKLOADS:
        golden = harness.load_golden(workload, workloads.DEFAULT_SEED)
        assert golden is not None, workload
    keys = {workloads.key_of(j) for j in workloads.verify_cold_jobs(workloads.DEFAULT_SEED)}
    assert keys == set(harness.load_golden("verify-cold", 0)["digests"])


def test_benchmark_json_matches_the_metric_registries():
    bench = _bench()
    assert [m["name"] for m in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.E2E_UNITS
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in layers.LAYER_METRICS + layers.OVERHEAD_METRICS
    ]


def test_tracer_binds_every_target_and_restores_the_program():
    import repro.mc
    import repro.mc.compile

    original = repro.mc.compile_lts
    tracer = Tracer()
    tracer.install()
    try:
        assert repro.mc.compile_lts is not original
        assert repro.mc.compile.compile_lts is repro.mc.compile_lts
    finally:
        tracer.uninstall()
    assert repro.mc.compile_lts is original
    assert repro.mc.compile.compile_lts is original


def test_dead_wrapper_fails_loudly():
    calls = {m.name: 1 for m in layers.LAYER_METRICS}
    assert layers.dead_metrics("verify-cold", calls) == []
    calls["mc.compile_lts.s"] = 0
    assert layers.dead_metrics("verify-cold", calls) == ["mc.compile_lts.s"]
    assert layers.dead_metrics("ci-rerun", calls) == []


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.1, 10.0, 10.2, 9.9]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.3 for v in base]
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]

    def v(new):
        return compare.verdict(base, new, list(zip(base, new)), 0.1, "lower")[0]

    assert v(faster) == "improved"
    assert v(slower) == "worse"
    assert v(base) == "unchanged"
    assert v(noisy) == "unresolved"


def test_compare_never_credits_a_side_with_failures(tmp_path):
    def write(side, seed, value, failed):
        directory = tmp_path / side
        directory.mkdir(exist_ok=True)
        record = {"stamp": {"workload": "verify-cold", "seed": seed, "repeat": 0,
                            "traced": False},
                  "attempted": 100, "failed": failed,
                  "metrics": {"campaign_s": value}}
        (directory / "r{}.json".format(seed)).write_text(json.dumps(record))

    for seed in range(10):
        write("base", seed, 10.0 + 0.01 * seed, 0)
        write("new", seed, 5.0 + 0.01 * seed, 1 if seed == 3 else 0)
    bench = {"workloads": [{"name": "verify-cold"}],
             "end_to_end": [{"name": "campaign_s", "unit": "s", "better": "lower",
                             "bound": 0.1}]}
    row, = compare.compare(str(tmp_path / "base"), str(tmp_path / "new"), bench)
    assert row["verdict"] == "failed"
    assert row["new_failed"] == (1, 1000) and row["base_failed"] == (0, 1000)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_stop_children_waits_for_orphans_and_the_resource_tracker():
    # a child that leaves a running grandchild behind, and a spawn-context
    # pool, which starts the resource tracker; neither may outlive the run
    script = (
        "import multiprocessing, subprocess, sys\n"
        "sys.path.insert(0, {here!r})\n"
        "import harness\n"
        "harness.adopt_orphans()\n"
        "out = subprocess.run(['sh', '-c', 'sleep 60 >/dev/null 2>&1 & echo $!'],\n"
        "                     capture_output=True, text=True)\n"
        "print(out.stdout.strip())\n"
        "with multiprocessing.get_context('spawn').Pool(1) as pool:\n"
        "    pool.map(abs, [1])\n"
        "print(multiprocessing.resource_tracker._resource_tracker._pid)\n"
        "harness.stop_children()\n"
        "print(harness._live_children())\n"
    ).format(here=HERE)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=60, check=True)
    orphan, tracker, left = out.stdout.split("\n")[:3]
    assert left == "[]"
    for pid in (int(orphan), int(tracker)):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
