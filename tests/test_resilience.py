"""Tests for the recovery & supervision layer (repro.resilience)."""

import json

import pytest

from repro.__main__ import main
from repro.designs import (
    modular_producer_consumer,
    producer_accumulator,
    producer_consumer,
)
from repro.faults import (
    ChannelFaults,
    FaultPlan,
    NodeFaults,
    soak,
    uniform_plan,
    weave_faults,
)
from repro.faults.inject import ChannelInjector
from repro.faults.schedule import ChannelSchedule
from repro.gals import (
    AsyncChannel,
    AsyncNetwork,
    RateController,
    ServiceLevel,
    schedules,
)
from repro.lang import serializer
from repro.perf import PERF
from repro.resilience import (
    AlarmEvent,
    Frame,
    PressureMonitor,
    RecoveryConfig,
    ReliableChannel,
    ReliableConfig,
    RestartPolicy,
    Supervisor,
    harden,
    make_reliable,
    verify_ack_protocol,
)
from repro.workloads import scenarios


def faulty_wire(name="w", seed=0, **rates):
    """A plain channel with a seeded fault injector attached."""
    wire = AsyncChannel(name)
    spec = ChannelFaults(**rates)
    if spec.active:
        wire.injector = ChannelInjector(ChannelSchedule(name, spec, seed))
    return wire


def drain(rc, until, step=0.5):
    """Poll the consumer side like a network would; return delivered values."""
    out, t = [], 0.0
    while t <= until:
        while rc.available(t):
            out.append(rc.pop(t))
        t += step
    return out


class TestReliableChannel:
    def test_config_validation(self):
        for bad in (
            dict(timeout=0.0),
            dict(backoff=0.5),
            dict(max_retries=-1),
            dict(window=0),
            dict(ack_latency=-0.1),
        ):
            with pytest.raises(ValueError):
                ReliableConfig(**bad).validate()

    def test_clean_wire_is_transparent(self):
        rc = ReliableChannel(AsyncChannel("w"))
        for i in range(5):
            rc.push(i, float(i))
        assert drain(rc, 6.0) == [0, 1, 2, 3, 4]
        assert rc.retransmits == 0 and rc.abandoned == 0

    def test_exactly_once_over_hostile_wire(self):
        rc = ReliableChannel(
            faulty_wire(seed=3, drop=0.4, duplicate=0.3, reorder=0.3,
                        window=3, corrupt=0.1),
            ReliableConfig(timeout=1.0, backoff=1.5, max_retries=12),
        )
        for i in range(1, 21):
            rc.push(i, float(i))
        got = drain(rc, 80.0)
        assert got == list(range(1, 21))  # in order, no dups, no losses
        assert rc.retransmits > 0  # the wire really was hostile
        stats = rc.protocol_stats()
        assert stats["dup_frames"] + stats["corrupt_frames"] > 0

    def test_budget_exhaustion_degrades_to_counted_loss(self):
        rc = ReliableChannel(
            faulty_wire(seed=1, drop=1.0),
            ReliableConfig(timeout=0.5, max_retries=2),
        )
        for i in range(5):
            rc.push(i, float(i))
        assert drain(rc, 30.0) == []
        assert rc.abandoned == 5
        assert rc.protocol_stats()["unacked"] == 0  # nothing stuck forever

    def test_receiver_skips_abandoned_gap(self):
        # drop exactly the first frame forever, deliver the rest: the
        # watermark advance lets 1..4 through once 0 is abandoned
        wire = AsyncChannel("w")
        rc = ReliableChannel(wire, ReliableConfig(timeout=0.5, max_retries=1))
        rc.push(0, 0.0)
        wire.items.clear()  # frame 0 vanishes on the wire, every time
        rc.push(1, 0.1)
        rc.push(2, 0.2)
        got, t = [], 0.3
        while t < 10.0:
            if rc.available(t):
                got.append(rc.pop(t))
            if rc._pending.get(0) is not None:
                wire.items = type(wire.items)(
                    e for e in wire.items
                    if not (isinstance(e[1], Frame) and e[1].seq == 0)
                )
            t += 0.25
        assert got == [1, 2]
        assert rc.abandoned == 1 and rc.skipped_gaps == 1

    def test_occupancy_counts_wire_and_reorder_buffer(self):
        wire = AsyncChannel("w", latency=5.0)
        rc = ReliableChannel(wire)
        rc.push("a", 0.0)
        assert len(rc) == 1  # still in flight on the wire
        assert not rc.available(1.0)
        assert rc.available(5.0)
        assert len(rc) == 1  # now in the delivery queue
        assert rc.pop(5.0) == "a"
        assert len(rc) == 0

    def test_make_reliable_composes_with_weave_in_either_order(self):
        def build(first):
            net = AsyncNetwork.from_program(
                producer_consumer(),
                schedules={
                    "P": schedules.periodic(1.0),
                    "Q": schedules.periodic(1.0, phase=0.5),
                },
            )
            plan = uniform_plan(seed=5, drop=0.3)
            if first == "reliable":
                make_reliable(net)
                weave_faults(net, plan)
            else:
                weave_faults(net, plan)
                make_reliable(net)
            return net.run(horizon=20.0)

        a = build("reliable")
        b = build("faults")
        assert repr(a.behavior) == repr(b.behavior)
        assert a.fault_counts() == b.fault_counts()

    def test_full_follows_wire_policy(self):
        wire = AsyncChannel("w", capacity=1, policy="block")
        rc = ReliableChannel(wire, ReliableConfig(timeout=0.5, max_retries=3))
        rc.push("a", 0.0)
        assert rc.full()
        assert rc.policy == "block"


class TestSupervisor:
    def _reactor(self):
        from repro.sim import Reactor

        return Reactor(producer_accumulator().components[0])

    def test_restart_restores_checkpoint_and_replays(self):
        from repro.sim import Reactor
        from repro.lang import parse_component

        comp = parse_component(
            "process Acc = (? integer v; ! integer total;)"
            "(| total := (pre 0 total) + v |) end"
        )
        live = Reactor(comp)
        sup = Supervisor(watchdog=1.0, checkpoint_interval=2.0)
        feed = [{"v": 1}, {"v": 2}, {"v": 3}, {"v": 4}]
        for i, inputs in enumerate(feed):
            t = float(i)
            sup.before_fire("Acc", live, t)
            live.react(dict(inputs))
            sup.after_fire("Acc", live, t, inputs)
        # the crash: volatile state wiped, long silence
        live.reset()
        sup.before_fire("Acc", live, 10.0)
        assert sup.restarts == 1
        out = live.react({"v": 5})
        assert out["total"] == 15  # 1+2+3+4 reconstructed, then +5
        kinds = sup.alarm_counts()
        assert kinds["watchdog"] == 1 and kinds["restart"] == 1
        assert sup.metrics()["max_recovery_gap"] == pytest.approx(10.0 - 3.0)

    def test_restart_budget_denied_and_alarmed(self):
        from repro.sim import Reactor
        from repro.lang import parse_component

        comp = parse_component(
            "process C = (? integer v; ! integer o;)(| o := v |) end"
        )
        r = Reactor(comp)
        sup = Supervisor(watchdog=1.0, policy=RestartPolicy(max_restarts=1))
        sup.before_fire("C", r, 0.0)
        r.react({"v": 1})
        sup.after_fire("C", r, 0.0, {"v": 1})
        sup.before_fire("C", r, 5.0)   # first expiry: restart granted
        sup.after_fire("C", r, 5.0, {"v": 2})
        sup.before_fire("C", r, 10.0)  # second expiry: budget exhausted
        assert sup.restarts == 1
        assert sup.restart_denied == 1
        assert sup.alarm_counts()["restart-denied"] == 1

    def test_checkpoints_truncate_replay_log(self):
        from repro.sim import Reactor
        from repro.lang import parse_component

        comp = parse_component(
            "process C = (? integer v; ! integer o;)(| o := v |) end"
        )
        r = Reactor(comp)
        sup = Supervisor(watchdog=100.0, checkpoint_interval=2.0)
        for i in range(6):
            sup.before_fire("C", r, float(i))
            r.react({"v": i})
            sup.after_fire("C", r, float(i), {"v": i})
        # initial + one every 2 time units after the first
        assert sup.checkpoints >= 3
        assert len(sup._state["C"].log) <= 2


class TestPressureMonitor:
    LEVELS = [
        ServiceLevel("full", 1.0, None, None),
        ServiceLevel("eco", 4.0, 3, 1),
    ]

    def test_degrade_needs_sustained_pressure(self):
        ch = AsyncChannel("c")
        mon = PressureMonitor(RateController(self.LEVELS), ch, sustain=2)
        for i in range(4):
            ch.push(i, 0.0)
        assert mon.sample(0.0).name == "full"  # one spike is not enough
        assert mon.sample(1.0).name == "eco"   # sustained: degrade
        assert [a.kind for a in mon.alarms] == ["degrade"]
        assert mon.alarms[0].detail == "full -> eco"

    def test_recovers_and_alarms_on_the_way_back(self):
        ch = AsyncChannel("c")
        mon = PressureMonitor(RateController(self.LEVELS), ch, sustain=1)
        for i in range(4):
            ch.push(i, 0.0)
        mon.sample(0.0)
        while len(ch):
            ch.pop()
        mon.sample(1.0)
        assert [a.kind for a in mon.alarms] == ["degrade", "recover"]

    def test_retransmit_wear_counts_as_pressure(self):
        rc = ReliableChannel(
            faulty_wire(seed=1, drop=1.0),
            ReliableConfig(timeout=0.5, max_retries=1),
        )
        mon = PressureMonitor(RateController(self.LEVELS), rc, sustain=1)
        for i in range(4):
            rc.push(i, 0.0)
        drain(rc, 5.0)  # everything abandoned: pure wear, empty queue
        assert len(rc) == 0
        assert mon.sample(5.0).name == "eco"

    def test_validation(self):
        with pytest.raises(ValueError):
            PressureMonitor(RateController(self.LEVELS), [], sustain=0)


class TestAckProtocolVerification:
    def test_correct_protocol_holds_on_both_backends(self):
        report = verify_ack_protocol(dedup=True)
        assert report.agree
        assert report.holds
        for backend in ("explicit", "symbolic"):
            v = report.verdict(backend)
            assert v.holds and v.counterexample is None
            assert v.states > 0

    def test_no_dedup_mutant_refuted_identically(self):
        report = verify_ack_protocol(dedup=False)
        assert report.agree
        assert not report.holds
        lengths = {v.backend: v.ce_length for v in report.verdicts}
        assert lengths["explicit"] == lengths["symbolic"]
        report.require_agreement()  # must not raise when backends agree
        assert "refuted" in report.render()


ACCEPTANCE_PLAN = FaultPlan(
    seed=11,
    channels={"x": ChannelFaults(drop=0.25, duplicate=0.2, reorder=0.2,
                                 window=3)},
    nodes={"Q": NodeFaults(crash=((8.0, 12.0),))},
)

ACCEPTANCE_CONFIG = RecoveryConfig(
    channel=ReliableConfig(timeout=1.5, backoff=1.5, max_retries=10),
    watchdog=2.5,
    checkpoint_interval=3.0,
    policy=RestartPolicy(max_restarts=3),
)


class TestRecoverySoak:
    def test_recovers_flow_equivalence_under_faults_and_crash(self):
        report = soak(
            producer_accumulator(),
            scenarios.single_burst(),
            ACCEPTANCE_PLAN,
            horizon=40.0,
            recovery=ACCEPTANCE_CONFIG,
        )
        assert report.healthy
        assert report.flow_equivalent
        assert all(v == "flow-equivalent" for v in report.classification.values())
        assert report.fault_counts["crashes"] >= 1
        assert report.recovery["restarts"] >= 1
        assert report.recovery["retransmits"] > 0
        kinds = {a.kind for a in report.alarms}
        assert {"watchdog", "restart"} <= kinds

    def test_without_recovery_the_same_faults_diverge(self):
        report = soak(
            producer_accumulator(),
            scenarios.single_burst(),
            ACCEPTANCE_PLAN,
            horizon=40.0,
        )
        assert not report.flow_equivalent  # recovery is load-bearing
        assert not report.healthy
        assert report.recovery == {} and report.alarms == ()

    def test_summary_is_json_ready(self):
        report = soak(
            producer_accumulator(),
            scenarios.single_burst(),
            ACCEPTANCE_PLAN,
            horizon=40.0,
            recovery=ACCEPTANCE_CONFIG,
        )
        digest = json.loads(json.dumps(report.summary(), sort_keys=True))
        assert digest["healthy"] is True
        assert digest["retransmits"] > 0

    def test_recovery_sweep_identical_across_workers(self):
        """Two workloads make two sweep tasks, so ``workers=2`` fans out."""
        program = producer_accumulator()
        specs = scenarios.recovery_rate_specs(
            rates=(0.05, 0.3), seed=11, recovery=ACCEPTANCE_CONFIG
        )
        specs += scenarios.recovery_rate_specs(
            rates=(0.05,), seed=11, crash=None, workload={"kind": "steady"},
            recovery=ACCEPTANCE_CONFIG,
        )
        dumps = []
        for workers in (None, 2):
            with PERF.scope() as tables:
                rows = scenarios.batched_soak_sweep(
                    program, specs, horizon=40.0, workers=workers
                )
            assert tables.counts["sweep.tasks"] == 2
            dumps.append(json.dumps(rows, sort_keys=True))
        assert dumps[0] == dumps[1]

    @pytest.mark.parametrize("program, specs, horizon, pinned", [
        (
            producer_accumulator,
            lambda: scenarios.recovery_rate_specs(
                rates=(0.05, 0.15, 0.3), seed=11, crash=((8.0, 12.0),),
                recovery=ACCEPTANCE_CONFIG,
            ),
            40.0,
            "46adf8212c6780b10a2592ea2a968ebc7109b02740e3dd8aaf3db0e0e117b740",
        ),
        (
            modular_producer_consumer,
            lambda: [
                spec._replace(recovery=RecoveryConfig())
                for spec in scenarios.fault_kind_specs(seed=7, rate=0.2)
            ],
            25.0,
            "b966f5215e719be778270c6282da78affab21fd34e811f1ec83345783a237f28",
        ),
    ], ids=["a9-rates", "fault-kinds"])
    def test_hardened_sweep_rows_are_pinned(
        self, program, specs, horizon, pinned
    ):
        """The sha256 of the canonical JSON of the hardened rows, as the
        separate recovery sweep returned them before it was folded into
        :func:`~repro.workloads.scenarios.batched_soak_sweep`: A9's specs
        and config, and every fault kind under the default config."""
        rows = scenarios.batched_soak_sweep(program(), specs(), horizon=horizon)
        assert all("scenario" in row and "healthy" in row for row in rows)
        assert serializer.digest(rows) == pinned

    def test_harden_respects_scope(self):
        net = AsyncNetwork.from_program(
            producer_consumer(),
            schedules={
                "P": schedules.periodic(1.0),
                "Q": schedules.periodic(1.0, phase=0.5),
            },
        )
        hardened = harden(
            net, RecoveryConfig(signals=("nothing-matches",), nodes=("P",))
        )
        assert hardened.channels == ()
        assert hardened.supervisor is net._supervisor
        assert hardened.supervisor.nodes == {"P"}


class TestRecoverCli:
    ARGS = [
        "recover", "soak", "--drop", "0.25", "--dup", "0.2",
        "--reorder", "0.2", "--window", "3", "--crash", "Q:8:12",
        "--seed", "11",
    ]

    def test_healthy_run_exits_zero(self, capsys):
        assert main(list(self.ARGS)) == 0
        out = capsys.readouterr().out
        assert "HEALTHY" in out

    def test_unhealthy_run_exits_nonzero_with_json(self, tmp_path):
        path = tmp_path / "recover.json"
        rc = main([
            "recover", "soak", "--drop", "1.0", "--retries", "1",
            "--json", str(path),
        ])
        assert rc == 1
        digest = json.loads(path.read_text())
        assert digest["healthy"] is False
        assert digest["design"] == "prodacc"

    def test_json_to_stdout_suppresses_render(self, capsys):
        main(list(self.ARGS) + ["--json", "-"])
        out = capsys.readouterr().out
        digest = json.loads(out)
        assert digest["flow_equivalent"] is True

    def test_bad_crash_window_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["recover", "soak", "--crash", "Q:8"])

    def test_faults_soak_json_digest(self, tmp_path):
        path = tmp_path / "soak.json"
        rc = main([
            "faults", "soak", "--drop", "0.4", "--seed", "2",
            "--json", str(path),
        ])
        assert rc == 1  # unprotected drops diverge
        digest = json.loads(path.read_text())
        assert digest["flow_equivalent"] is False
        # the report's summary: an unhardened soak has no alarms and is
        # healthy iff it is flow-equivalent
        assert set(digest) == {
            "design", "seed", "horizon", "flow_equivalent", "healthy",
            "classification", "fault_counts", "alarms",
        }
        assert digest["healthy"] is False and digest["alarms"] == {}
