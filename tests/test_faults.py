"""Tests for the fault-injection subsystem and the channel-accounting
bug sweep that rode along with it."""

import pytest

from repro.designs import producer_consumer
from repro.desync import estimate_buffer_sizes
from repro.faults import (
    ChannelFaults,
    EstimateConfig,
    FaultPlan,
    NodeFaults,
    jittered_stimulus,
    soak,
    uniform_plan,
    unweave_faults,
    weave_faults,
)
from repro.faults.schedule import ChannelSchedule, FaultSchedule
from repro.gals import AsyncChannel, AsyncNetwork, schedules
from repro.gals.network import _Recorder
from repro.sim import stimuli
from repro.sim.cosim import classify_flow_divergence
from repro.workloads.scenarios import (
    Workload,
    drop_sweep_specs,
    fault_kind_specs,
    workload_from_spec,
)


def steady_workload():
    return Workload(
        "steady",
        lambda: stimuli.merge(
            stimuli.periodic("p_act", 1), stimuli.periodic("x_rreq", 1)
        ),
        lambda: {
            "P": schedules.periodic(1.0),
            "Q": schedules.periodic(1.0, phase=0.5),
        },
        {},
    )


def burst_workload():
    """A backlog-building burst: reordering and duplication have room to act."""
    return Workload(
        "burst",
        lambda: iter(()),
        lambda: {
            "P": schedules.bursty(burst=10, intra=0.1, gap=1000.0),
            "Q": schedules.periodic(1.0, phase=0.5),
        },
        {},
    )


class TestSpec:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ChannelFaults(drop=1.5).validate()
        with pytest.raises(ValueError):
            ChannelFaults(jitter=-1.0).validate()
        with pytest.raises(ValueError):
            NodeFaults(stall=2.0).validate()
        with pytest.raises(ValueError):
            NodeFaults(intervals=((3.0, 1.0),)).validate()

    def test_lookup_priority(self):
        by_name = ChannelFaults(drop=0.5)
        by_signal = ChannelFaults(drop=0.25)
        fallback = ChannelFaults(drop=0.125)
        plan = FaultPlan(
            seed=0,
            channels={"P->Q:x": by_name, "x": by_signal, "*": fallback},
        )
        assert plan.for_channel("P->Q:x", "x") == by_name
        assert plan.for_channel("P->R:x", "x") == by_signal
        assert plan.for_channel("P->R:z", "z") == fallback

    def test_uniform_plan_activity(self):
        assert not uniform_plan(seed=1).active
        assert uniform_plan(seed=1, drop=0.1).active
        assert uniform_plan(seed=1, stall=0.1).active


class TestSchedule:
    def test_same_seed_same_schedule(self):
        spec = ChannelFaults(drop=0.3, duplicate=0.2, jitter=1.0, corrupt=0.1)
        a = ChannelSchedule("P->Q:x", spec, seed=42).prefix(500)
        b = ChannelSchedule("P->Q:x", spec, seed=42).prefix(500)
        assert a == b

    def test_seed_changes_schedule(self):
        spec = ChannelFaults(drop=0.3)
        a = ChannelSchedule("P->Q:x", spec, seed=1).prefix(200)
        b = ChannelSchedule("P->Q:x", spec, seed=2).prefix(200)
        assert a != b

    def test_channels_are_independent_streams(self):
        # querying channel B first must not shift channel A's decisions
        plan = FaultPlan(seed=9, channels={"*": ChannelFaults(drop=0.4)})
        s1 = FaultSchedule(plan, 9)
        s2 = FaultSchedule(plan, 9)
        a_first = s1.channel("A").prefix(100)
        s2.channel("B").prefix(100)
        a_second = s2.channel("A").prefix(100)
        assert a_first == a_second

    def test_empirical_rate_tracks_spec(self):
        spec = ChannelFaults(drop=0.3)
        ds = ChannelSchedule("c", spec, seed=0).prefix(3000)
        rate = sum(d.drop for d in ds) / len(ds)
        assert 0.25 < rate < 0.35

    def test_stall_windows_memoized_and_interval_faults(self):
        plan = FaultPlan(
            seed=3,
            nodes={"P": NodeFaults(stall=0.5, period=2.0,
                                   intervals=((10.0, 12.0),))},
        )
        sched = plan.compile()
        answers = [sched.stalled("P", t / 2.0) for t in range(40)]
        # repeated queries are stable (memoized windows)
        assert answers == [sched.stalled("P", t / 2.0) for t in range(40)]
        assert sched.stalled("P", 10.5)  # explicit interval always stalls
        assert not sched.stalled("Q", 10.5)  # unspecified node never stalls


class TestChannelAccounting:
    """Regression tests for the channel-accounting bug sweep."""

    def test_pop_counts_without_time(self):
        # pops without an explicit time used to be invisible to the stats
        ch = AsyncChannel("c", latency=1.0)
        ch.push(7, 2.0)
        assert ch.pop() == 7
        assert ch.delivered == 1
        assert ch.mean_latency() == pytest.approx(1.0)  # visible_at - pushed_at

    def test_mean_latency_under_per_item_jitter(self):
        # reconstructing push time as visible_at - channel latency is wrong
        # once per-item jitter varies the latency; the stored timestamp is not
        ch = AsyncChannel("c", latency=1.0)
        ch.enqueue(1, 0.0, latency=3.0)  # jittered item: visible at 3.0
        assert ch.pop(3.0) == 1
        assert ch.mean_latency() == pytest.approx(3.0)

    def test_pop_after_wait_measures_full_delay(self):
        ch = AsyncChannel("c", latency=2.0)
        ch.push(1, 0.0)
        ch.push(2, 0.0)
        assert ch.pop(5.0) == 1
        assert ch.pop(9.0) == 2
        assert ch.delivered == 2
        assert ch.mean_latency() == pytest.approx(7.0)

    def test_loss_times_bounded_reservoir(self):
        ch = AsyncChannel("c", capacity=1, policy="lossy")
        ch.push(0, 0.0)
        for i in range(1000):
            assert not ch.push(i, float(i))
        assert ch.losses == 1000  # the count stays exact
        assert len(ch.loss_times) == AsyncChannel.LOSS_SAMPLES
        assert all(0.0 <= t < 1000.0 for t in ch.loss_times)

    def test_loss_reservoir_is_deterministic(self):
        def run():
            ch = AsyncChannel("c", capacity=1, policy="lossy")
            ch.push(0, 0.0)
            for i in range(500):
                ch.push(i, float(i))
            return list(ch.loss_times)

        assert run() == run()


class TestReorderHeadOfLine:
    def test_woven_reorder_never_hides_arrived_items(self):
        # Plan-driven variant of the head-of-line regression: with every
        # push overtaking (reorder=1.0) on a latency channel, any entry
        # that has arrived must be deliverable, and nothing is ever lost.
        net = AsyncNetwork.from_program(
            producer_consumer(),
            schedules={"P": schedules.periodic(1.0)},
            latencies={"x": 1.0},
        )
        weave_faults(
            net,
            FaultPlan(
                seed=4,
                channels={"x": ChannelFaults(reorder=1.0, window=3, jitter=3.0)},
            ),
        )
        ((_, _), ch), = net.channels.items()
        values = list(range(10))
        for i in values:
            ch.push(i, i * 0.3)
        steps = [round(0.1 * k, 1) for k in range(250)]
        drained = []
        for t in steps:
            arrived = [e for e in ch.items if e[0] <= t]
            if arrived:
                assert ch.available(t), "arrived item hidden at t={}".format(t)
            while ch.available(t):
                drained.append(ch.pop(t))
        assert sorted(drained) == values  # reordered, never lost or stuck
        assert ch.injector.reorders > 0


class TestRecorderTies:
    def test_burst_of_ties_never_crosses_next_real_timestamp(self):
        rec = _Recorder()
        for i in range(100):
            rec.record("a", 1.0, i)
        rec.record("a", 1.0 + 5e-9, "real")
        tags = [e.tag for e in rec.behavior()["a"]]
        assert tags == sorted(set(tags))  # strictly increasing
        assert all(t < 1.0 + 5e-9 for t in tags[:-1])
        assert tags[-1] == 1.0 + 5e-9  # the real event keeps its timestamp

    def test_cross_signal_record_order_preserved_at_one_instant(self):
        rec = _Recorder()
        rec.record("w", 2.0, "first")
        rec.record("r", 2.0, "second")
        b = rec.behavior()
        assert b["w"][0].tag < b["r"][0].tag

    def test_lone_events_keep_exact_timestamps(self):
        rec = _Recorder()
        rec.record("a", 1.0, 1)
        rec.record("a", 2.0, 2)
        assert [e.tag for e in rec.behavior()["a"]] == [1.0, 2.0]


class TestEstimatorFixedPoint:
    def sustained_mismatch(self, with_tick=False):
        parts = [stimuli.periodic("p_act", 1), stimuli.periodic("x_rreq", 3)]
        if with_tick:
            parts.append(stimuli.periodic("x_tick", 1))
        return lambda: stimuli.merge(*parts)

    def test_clamped_growth_exits_early(self):
        report = estimate_buffer_sizes(
            producer_consumer(), self.sustained_mismatch(), horizon=30,
            initial=1, max_iterations=12, max_capacity=3,
        )
        assert not report.converged
        assert report.iterations < 12  # no burned iterations at the fixed point
        assert report.sizes["x"] == 3

    def test_chain_ripple_conservatism_exits_early(self):
        report = estimate_buffer_sizes(
            producer_consumer(), self.sustained_mismatch(with_tick=True),
            horizon=30, initial=1, kind="chain", max_iterations=12,
            max_capacity=4,
        )
        assert not report.converged
        assert report.iterations < 12
        assert report.history[-1].alarms["x"] > 0

    def test_unclamped_behavior_unchanged(self):
        report = estimate_buffer_sizes(
            producer_consumer(), self.sustained_mismatch(), horizon=30,
            initial=1, max_iterations=3,
        )
        assert not report.converged and report.iterations == 3


class TestSoak:
    def test_zero_fault_is_flow_equivalent_and_byte_identical(self):
        wl = steady_workload()
        prog = producer_consumer()
        report = soak(prog, wl, uniform_plan(seed=1), horizon=15.0)
        assert report.flow_equivalent
        assert not report.divergent
        plain = AsyncNetwork.from_program(prog, wl.gals_schedules()).run(15.0)
        assert repr(report.faulted) == repr(plain)
        assert repr(report.reference) == repr(plain)

    def test_same_seed_byte_identical_traces(self):
        wl = steady_workload()
        plan = uniform_plan(seed=11, drop=0.2, jitter=0.5)
        a = soak(producer_consumer(), wl, plan, horizon=20.0)
        b = soak(producer_consumer(), wl, plan, horizon=20.0)
        assert repr(a.faulted) == repr(b.faulted)
        assert a.classification == b.classification

    def test_drop_classified_lost(self):
        report = soak(
            producer_consumer(), steady_workload(),
            uniform_plan(seed=1, drop=0.3), horizon=20.0,
        )
        assert not report.flow_equivalent
        assert report.classification["x__r"] == "lost"
        assert report.fault_counts["drops"] > 0

    def test_duplicate_classified_duplicated(self):
        report = soak(
            producer_consumer(), burst_workload(),
            uniform_plan(seed=2, duplicate=0.4), horizon=40.0,
        )
        assert report.classification["x__r"] == "duplicated"
        assert report.fault_counts["duplicates"] > 0

    def test_reorder_classified_order_divergent(self):
        report = soak(
            producer_consumer(), burst_workload(),
            uniform_plan(seed=2, reorder=0.6, window=3), horizon=40.0,
        )
        assert report.classification["x__r"] == "order-divergent"
        assert report.fault_counts["reorders"] > 0

    def test_corrupt_classified_value_divergent(self):
        report = soak(
            producer_consumer(), steady_workload(),
            uniform_plan(seed=5, corrupt=0.3), horizon=20.0,
        )
        assert report.classification["x__r"] == "value-divergent"
        assert report.fault_counts["corrupts"] > 0

    def test_jitter_alone_preserves_flow_equivalence(self):
        # latency jitter is a stretching: same flows, later tags — the
        # finite-burst workload leaves slack for every item to arrive
        report = soak(
            producer_consumer(), burst_workload(),
            uniform_plan(seed=2, jitter=2.0), horizon=100.0,
        )
        assert report.flow_equivalent
        assert report.fault_counts["jittered"] > 0

    def test_stall_classified_lost(self):
        report = soak(
            producer_consumer(), steady_workload(),
            uniform_plan(seed=5, stall=0.4, stall_period=2.0), horizon=20.0,
        )
        assert not report.flow_equivalent
        assert report.classification["x__w"] == "lost"
        assert report.fault_counts["stalls"] > 0
        assert sum(report.faulted.stalled.values()) > 0

    def test_perf_counters_exported(self):
        from repro.perf import PERF

        PERF.reset("faults")
        soak(
            producer_consumer(), steady_workload(),
            uniform_plan(seed=1, drop=0.3), horizon=20.0,
        )
        assert PERF.get("faults.soaks") == 1
        assert PERF.get("faults.drops") > 0
        assert PERF.get("faults.divergent_signals") > 0
        PERF.reset("faults")

    def test_unweave_restores_plain_network(self):
        wl = steady_workload()
        prog = producer_consumer()
        net = AsyncNetwork.from_program(prog, wl.gals_schedules())
        weave_faults(net, uniform_plan(seed=1, drop=0.5, stall=0.5))
        unweave_faults(net)
        assert all(ch.injector is None for ch in net.channels.values())
        assert net._fault_schedule is None
        plain = AsyncNetwork.from_program(prog, wl.gals_schedules()).run(10.0)
        assert repr(net.run(10.0)) == repr(plain)

    def test_render_mentions_verdict(self):
        report = soak(
            producer_consumer(), steady_workload(),
            uniform_plan(seed=1, drop=0.3), horizon=15.0,
        )
        text = report.render()
        assert "DIVERGENT" in text and "drops=" in text


class TestCapacityInflation:
    def test_read_jitter_inflates_buffer_sizes(self):
        report = soak(
            producer_consumer(), steady_workload(),
            uniform_plan(seed=3, jitter=1.0), horizon=10.0,
            estimate=EstimateConfig(horizon=40, hold=0.4),
        )
        inflation = report.inflation
        assert inflation is not None
        assert inflation.base_converged
        assert inflation.jittered["x"] >= inflation.base["x"]
        assert inflation.ratio("x") >= 1.0
        assert "capacity inflation" in report.render()

    def test_jittered_stimulus_defers_only_read_requests(self):
        # sparse requests (even instants only) make the deferral observable:
        # a held request reappears at an instant that originally had none
        rows = [
            {"p_act": True, "x_rreq": True} if i % 2 == 0 else {"p_act": True}
            for i in range(50)
        ]
        out = list(jittered_stimulus(iter(rows), hold=0.5, seed=1))
        assert len(out) == 50
        assert all("p_act" in r for r in out)  # producer side untouched
        held = sum(
            1 for i, r in enumerate(out) if i % 2 == 0 and "x_rreq" not in r
        )
        assert held > 0  # some reads deferred off their instant
        moved = sum(
            1 for i, r in enumerate(out) if i % 2 == 1 and "x_rreq" in r
        )
        assert moved > 0  # ...and reappear at the next instant

    def test_zero_hold_is_identity(self):
        rows = [{"p_act": True, "x_rreq": True}, {"x_rreq": True}]
        out = list(jittered_stimulus(iter(rows), hold=0.0, seed=1))
        assert out == rows


class TestClassifier:
    def test_classes(self):
        assert classify_flow_divergence((1, 2, 3), (1, 2, 3)) == "flow-equivalent"
        assert classify_flow_divergence((1, 2, 3), (1, 3)) == "lost"
        assert classify_flow_divergence((1, 2), (1, 1, 2)) == "duplicated"
        assert classify_flow_divergence((1, 2, 3), (2, 1, 3)) == "order-divergent"
        assert classify_flow_divergence((1, 2, 3), (1, 9, 3)) == "value-divergent"
        assert classify_flow_divergence((), ()) == "flow-equivalent"


class TestScenarios:
    def test_fault_kind_specs_cover_each_kind(self):
        matrix = fault_kind_specs(seed=7)
        names = [s.name for s in matrix]
        assert names == [
            "clean", "drop", "duplicate", "reorder", "jitter", "corrupt",
            "stall",
        ]
        clean = matrix[0]
        assert not clean.plan.active
        report = soak(
            producer_consumer(), workload_from_spec(clean.workload),
            clean.plan, horizon=10.0,
        )
        assert report.flow_equivalent

    def test_drop_sweep_rates(self):
        sweep = drop_sweep_specs(rates=(0.0, 0.5), seed=1)
        assert len(sweep) == 2
        assert not sweep[0].plan.active
        assert sweep[1].plan.for_channel("P->Q:x", "x").drop == 0.5


class TestCLI:
    def test_soak_command_zero_faults_exits_zero(self, capsys):
        from repro.__main__ import main

        assert main(["faults", "soak", "--design", "prodcons",
                     "--horizon", "10"]) == 0
        out = capsys.readouterr().out
        assert "FLOW EQUIVALENT" in out

    def test_soak_command_with_drops_reports_divergence(self, capsys):
        from repro.__main__ import main

        assert main(["faults", "soak", "--design", "prodcons", "--drop",
                     "0.3", "--seed", "4", "--horizon", "15"]) == 1
        out = capsys.readouterr().out
        assert "lost" in out

    def test_plan_command_dumps_schedule(self, capsys):
        from repro.__main__ import main

        assert main(["faults", "plan", "--design", "prodcons", "--drop",
                     "0.5", "-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "channel P->Q:x" in out
        assert out.count("push") == 4
