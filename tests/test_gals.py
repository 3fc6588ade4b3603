"""Tests for the GALS deployment layer."""

import itertools
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro import designs
from repro.designs import producer_consumer, pipeline
from repro.errors import SimulationError
from repro.gals import (
    AsyncChannel,
    AsyncNetwork,
    RateController,
    ServiceLevel,
    fork_component,
    merge_component,
    schedules,
)
from repro.lang import Program, check_component
from repro.lang.types import EVENT
from repro.sim import simulate, stimuli


def take(it, n):
    return list(itertools.islice(it, n))


def merges_prefixes(reads, writes, k):
    """Whether ``reads`` interleaves ``k`` in-order prefixes of ``writes``:
    the recorded reads of a signal with ``k`` consumers, one channel
    each.  With distinct ``writes``, consumers at one position are
    interchangeable, so taking the first that matches decides it."""
    at = [0] * k
    for value in reads:
        j = next(
            (j for j in range(k) if at[j] < len(writes) and writes[at[j]] == value),
            None,
        )
        if j is None:
            return False
        at[j] += 1
    return True


def fork(width):
    """One producer of ``x`` and ``width`` consumers, ``Qi`` emitting
    ``yi = (i + 2) * x``."""
    return Program("fork", [designs.producer()] + [
        designs.consumer("Q{}".format(i), out="y{}".format(i), scale=i + 2)
        for i in range(width)
    ])


def assert_read_flows_are_prefixes(net, trace):
    """Every channel's reads are a prefix of its signal's writes."""
    consumers = {}
    for sig, _ in net.channels:
        consumers[sig] = consumers.get(sig, 0) + 1
    for sig, k in consumers.items():
        writes = list(trace.values(sig + "__w"))
        reads = list(trace.values(sig + "__r"))
        assert merges_prefixes(reads, writes, k), (sig, reads, writes)


class TestSchedules:
    def test_periodic(self):
        assert take(schedules.periodic(2.0, phase=1.0), 3) == [1.0, 3.0, 5.0]

    def test_periodic_jitter_monotone(self):
        ts = take(schedules.periodic(1.0, jitter=0.4, seed=3), 50)
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_periodic_validation(self):
        with pytest.raises(ValueError):
            next(schedules.periodic(0))

    def test_poisson_monotone_and_rate(self):
        ts = take(schedules.poisson(10.0, seed=1), 200)
        assert all(b > a for a, b in zip(ts, ts[1:]))
        # about 200 events in ~20 time units at rate 10
        assert 10 < ts[-1] < 40

    def test_bursty(self):
        ts = take(schedules.bursty(burst=2, intra=1.0, gap=5.0), 4)
        assert ts == [0.0, 1.0, 7.0, 8.0]

    def test_explicit_rejects_disorder(self):
        with pytest.raises(ValueError):
            take(schedules.explicit([1.0, 1.0]), 2)


class TestAsyncChannel:
    def test_unbounded(self):
        ch = AsyncChannel("c")
        for i in range(100):
            assert ch.push(i, float(i))
        assert ch.peak == 100
        assert ch.pop() == 0

    def test_lossy_drops_and_counts(self):
        ch = AsyncChannel("c", capacity=2, policy="lossy")
        assert ch.push(1, 0.0) and ch.push(2, 1.0)
        assert not ch.push(3, 2.0)
        assert ch.losses == 1 and ch.loss_times == [2.0]

    def test_block_raises_on_push(self):
        ch = AsyncChannel("c", capacity=1, policy="block")
        ch.push(1, 0.0)
        with pytest.raises(SimulationError):
            ch.push(2, 1.0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AsyncChannel("c", policy="telepathic")
        with pytest.raises(ValueError):
            AsyncChannel("c", policy="lossy")  # missing capacity

    def test_inflight_overtaker_does_not_block_arrived_items(self):
        # Head-of-line regression: a reorder-injected entry that jumped
        # the queue but is still in flight must not hide the item it
        # overtook — that one was pushed earlier and has already arrived.
        ch = AsyncChannel("c", latency=1.0)
        ch.push("first", 0.0)                      # visible at 1.0
        ch.enqueue("overtaker", 0.5, latency=5.0, position=1)  # visible 5.5
        assert [e[1] for e in ch.items] == ["overtaker", "first"]
        assert ch.available(1.0)
        assert ch.pop(1.0) == "first"
        assert not ch.available(1.0)               # overtaker still in flight
        assert ch.available(5.5)
        assert ch.pop(5.5) == "overtaker"

    def test_unarrived_fifo_head_still_blocks(self):
        # ...but an ordinary (non-reordered) in-flight head keeps FIFO
        # semantics: it blocks everything behind it.
        ch = AsyncChannel("c", latency=2.0)
        ch.push("a", 0.0)        # visible at 2.0
        ch.push("b", 0.1)        # visible at 2.1
        assert not ch.available(1.0)
        assert ch.available(2.0) and ch.pop(2.0) == "a"


class TestAsyncNetworkBasics:
    def test_flow_preserved_data_driven_consumer(self):
        net = AsyncNetwork.from_program(
            producer_consumer(),
            schedules={"P": schedules.periodic(1.0)},
        )
        trace = net.run(horizon=10.0)
        assert trace.values("x__w") == trace.values("x__r")
        assert list(trace.values("y")) == [2 * v for v in trace.values("x__w")]
        assert trace.firings["P"] == 10

    def test_matches_synchronous_reference_flows(self):
        net = AsyncNetwork.from_program(
            producer_consumer(),
            schedules={"P": schedules.periodic(1.0, jitter=0.3, seed=11)},
        )
        async_trace = net.run(horizon=12.0)
        sync_trace = simulate(producer_consumer(), stimuli.periodic("p_act", 1), n=12)
        n = min(len(async_trace.values("y")), len(sync_trace.values("y")))
        assert n >= 10
        assert list(async_trace.values("y"))[:n] == sync_trace.values("y")[:n]

    def test_reads_happen_at_or_after_writes(self):
        net = AsyncNetwork.from_program(
            producer_consumer(),
            schedules={"P": schedules.periodic(1.0)},
        )
        trace = net.run(horizon=8.0)
        from repro.tags.channels import in_afifo

        b = trace.behavior.project({"x__w", "x__r"}).rename(
            {"x__w": "x", "x__r": "y"}
        )
        assert in_afifo(b)

    def test_scheduled_slow_consumer_with_lossy_channel(self):
        net = AsyncNetwork.from_program(
            producer_consumer(),
            schedules={
                "P": schedules.periodic(1.0),
                "Q": schedules.periodic(3.0, phase=0.5),
            },
            policy="lossy",
            capacities={"x": 1},
        )
        trace = net.run(horizon=15.0)
        stats = list(trace.channels.values())[0]
        assert stats["losses"] > 0
        # delivered values are a subsequence of produced values
        produced = list(trace.values("x__w"))
        read = list(trace.values("x__r"))
        it = iter(produced)
        assert all(v in it for v in read)  # subsequence check

    def test_blocking_backpressure_loses_nothing(self):
        net = AsyncNetwork.from_program(
            producer_consumer(),
            schedules={
                "P": schedules.periodic(1.0),
                "Q": schedules.periodic(2.0, phase=0.5),
            },
            policy="block",
            capacities={"x": 2},
        )
        trace = net.run(horizon=20.0)
        stats = list(trace.channels.values())[0]
        assert stats["losses"] == 0
        assert trace.skipped["P"] > 0  # the producer clock was masked
        read = list(trace.values("x__r"))
        assert read == list(trace.values("x__w"))[: len(read)]

    def test_data_driven_stage_waits_for_its_full_blocking_channel(self):
        """A data-driven stage whose blocking out-channel is full is
        masked as a scheduled node is: its input stays queued, and it
        fires once the slow consumer frees the slot (the push used to
        raise on the full channel)."""
        net = AsyncNetwork.from_program(
            pipeline(2),
            {
                "P": schedules.periodic(1.0),
                "S2": schedules.periodic(4.0, phase=0.5),
            },
            policy="block",
            default_capacity=1,
        )
        trace = net.run(20.0)
        for sig in ("x0", "x1"):
            read = list(trace.values(sig + "__r"))
            assert read == list(trace.values(sig + "__w"))[: len(read)]
        assert trace.firings["S2"] == 5
        assert trace.skipped["P"] > 0

    def test_timestamps_a_rounding_error_apart_keep_strict_tags(self):
        """A bursty consumer's accumulated ``3.0000000000000004`` and the
        producer's ``3.0`` are one ulp apart: the recorder still tags
        every signal's events strictly increasingly, in record order (it
        used to raise on two equal tags)."""
        net = AsyncNetwork.from_program(
            fork(3),
            {
                "P": schedules.periodic(0.5),
                "Q2": schedules.bursty(1, 0.1, 0.5),
            },
            policy="block",
            capacities={"x": 2},
        )
        trace = net.run(12.0)
        assert_read_flows_are_prefixes(net, trace)
        written = list(trace.values("x__w"))
        for i in range(3):
            out = list(trace.values("y{}".format(i)))
            assert out == [(i + 2) * v for v in written[: len(out)]]

    def test_pipeline_three_hops(self):
        prog = pipeline(stages=2)
        net = AsyncNetwork.from_program(
            prog, schedules={"P": schedules.periodic(1.0)}
        )
        trace = net.run(horizon=6.0)
        # stage offsets: +10 then +100
        assert list(trace.values("x2")) == [v + 110 for v in trace.values("x0__w")]

    def test_channel_peak_occupancy_reported(self):
        net = AsyncNetwork.from_program(
            producer_consumer(),
            schedules={
                "P": schedules.bursty(burst=3, intra=0.1, gap=5.0),
                "Q": schedules.periodic(1.0, phase=0.5),
            },
        )
        trace = net.run(horizon=10.0)
        stats = list(trace.channels.values())[0]
        assert stats["peak"] >= 2


class TestAdapters:
    def test_fork_copies(self):
        comp = fork_component("a", ["b", "c"])
        check_component(comp)
        prog = Program("forked", [comp])
        trace = simulate(prog, stimuli.periodic("a", 1, values=stimuli.counter()), n=3)
        assert trace.values("b") == trace.values("c") == [0, 1, 2]

    def test_fork_validation(self):
        with pytest.raises(ValueError):
            fork_component("a", [])

    def test_merge_priority(self):
        comp = merge_component(["a", "b"], "m")
        check_component(comp)
        trace = simulate(
            comp,
            stimuli.rows([{"a": 1, "b": 2}, {"b": 3}, {"a": 4}, {}]),
        )
        assert trace.values("m") == [1, 3, 4]

    def test_merge_validation(self):
        with pytest.raises(ValueError):
            merge_component(["a"], "m")


class TestServiceLevels:
    # `enter_above`/`exit_below` live on the slower level: degrade into it
    # at occupancy >= 4, recover out of it below 2.
    LEVELS = [
        ServiceLevel("full", period=1.0, enter_above=None, exit_below=None),
        ServiceLevel("degraded", period=3.0, enter_above=4, exit_below=2),
    ]

    def test_validation(self):
        with pytest.raises(ValueError):
            RateController([])
        with pytest.raises(ValueError):
            RateController(list(reversed(self.LEVELS)))

    def test_degrades_and_recovers(self):
        rc = RateController(self.LEVELS)
        assert rc.current.name == "full"
        rc.observe(5, time=1.0)
        assert rc.current.name == "degraded"
        rc.observe(1, time=2.0)
        assert rc.current.name == "full"
        assert len(rc.switches) == 2

    def test_adaptive_schedule_slows_under_load(self):
        rc = RateController(self.LEVELS)
        occupancy = {"v": 0}
        sched = rc.schedule(lambda: occupancy["v"])
        t0 = next(sched)
        occupancy["v"] = 6  # pressure appears
        t1 = next(sched)
        t2 = next(sched)
        assert t1 - t0 == pytest.approx(1.0)
        assert t2 - t1 == pytest.approx(3.0)  # degraded period

    def test_controller_keeps_lossy_channel_quiet(self):
        # closed loop: the controller watches the channel and the producer
        # schedule adapts; with a slow consumer, losses stay bounded versus
        # the uncontrolled run.
        free = AsyncNetwork.from_program(
            producer_consumer(),
            schedules={
                "P": schedules.periodic(1.0),
                "Q": schedules.periodic(4.0, phase=0.5),
            },
            policy="lossy",
            capacities={"x": 2},
        )
        free_trace = free.run(horizon=40.0)

        controlled = AsyncNetwork.from_program(
            producer_consumer(),
            schedules={"P": schedules.periodic(1.0)},  # replaced below
            activations={},
        )
        # rebuild with an adaptive schedule bound to the real channel
        rc = RateController(
            [
                ServiceLevel("full", 1.0, None, 1),
                ServiceLevel("eco", 4.0, 2, None),
            ]
        )
        controlled = AsyncNetwork.from_program(
            producer_consumer(),
            schedules={
                "P": rc.schedule(lambda: 0),  # placeholder, rebound next line
                "Q": schedules.periodic(4.0, phase=0.5),
            },
            policy="lossy",
            capacities={"x": 2},
        )
        ch = list(controlled.channels.values())[0]
        controlled._schedules["P"] = rc.schedule(lambda: len(ch))
        ctl_trace = controlled.run(horizon=40.0)

        assert ctl_trace.channels[ch.name]["losses"] < free_trace.channels[
            list(free.channels.values())[0].name
        ]["losses"]


# -- generated deployments ------------------------------------------------


@st.composite
def deployments(draw):
    """A ``repro.designs`` chain, fork or fan-in deployed as a network:
    each source scheduled ``periodic`` or ``bursty``, each other node
    either of those or data-driven, each channel of capacity 1 to 3.

    A schedule is drawn as its parameters, bound in a ``partial``:
    :func:`activations` builds fresh iterators from them, so two runs of
    one deployment see the same activations."""
    shape = draw(st.sampled_from(["chain", "fork", "fan-in"]))
    width = draw(st.integers(2, 3))
    if shape == "chain":
        program = designs.pipeline(draw(st.integers(1, 3)))
    elif shape == "fork":
        program = fork(width)
    else:
        inputs = ["x{}".format(i) for i in range(width)]
        program = Program("fan_in", [
            designs.producer("P{}".format(i), "p{}_act".format(i), x)
            for i, x in enumerate(inputs)
        ] + [merge_component(inputs, "y", name="M")])
    scheduled = st.one_of(
        st.builds(
            partial,
            st.just(schedules.periodic),
            st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
            phase=st.sampled_from([0.0, 0.25, 0.5]),
        ),
        st.builds(
            partial,
            st.just(schedules.bursty),
            st.integers(1, 3),
            st.sampled_from([0.1, 0.25]),
            st.sampled_from([0.5, 1.0, 3.0]),
            phase=st.sampled_from([0.0, 0.5]),
        ),
    )
    plan = {}
    for comp in program.components:
        source = not any(ty is not EVENT for ty in comp.inputs.values())
        sched = draw(scheduled if source else st.one_of(st.none(), scheduled))
        if sched is not None:
            plan[comp.name] = sched
    shared = sorted({
        sig for comp in program.components for sig in comp.inputs
        if any(sig in other.outputs for other in program.components)
    })
    capacities = {sig: draw(st.integers(1, 3)) for sig in shared}
    return program, plan, capacities


def activations(plan):
    """Fresh activation iterators for a drawn plan."""
    return {name: make() for name, make in plan.items()}


@settings(max_examples=100, deadline=None)
@given(deployments())
def test_prop_blocking_deployments_keep_every_flow(deployment):
    """Under ``policy="block"`` no run raises, and every read flow is a
    prefix of its write flow: backpressure loses and reorders nothing."""
    program, plan, capacities = deployment
    net = AsyncNetwork.from_program(
        program, activations(plan), policy="block", capacities=capacities
    )
    trace = net.run(12.0)
    assert all(stats["losses"] == 0 for stats in trace.channels.values())
    assert_read_flows_are_prefixes(net, trace)


@settings(max_examples=100, deadline=None)
@given(deployments())
def test_prop_lossy_deployments_sized_at_the_peaks_lose_nothing(deployment):
    """A ``policy="lossy"`` run whose capacities are the peak occupancies
    of the unbounded run under the same schedules (at least 1; a fork's
    signal takes the largest peak among its channels) loses nothing and
    records the unbounded run's behavior."""
    program, plan, _ = deployment
    free = AsyncNetwork.from_program(program, activations(plan))
    unbounded = free.run(12.0)
    peaks = {}
    for (sig, _), ch in free.channels.items():
        peaks[sig] = max(peaks.get(sig, 1), unbounded.channels[ch.name]["peak"])
    lossy = AsyncNetwork.from_program(
        program, activations(plan), policy="lossy", capacities=peaks
    ).run(12.0)
    assert all(stats["losses"] == 0 for stats in lossy.channels.values())
    assert lossy.behavior == unbounded.behavior
