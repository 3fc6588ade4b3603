"""Tests for the Section 5.2 estimation loop and Lemma 2 trace checkers."""

import re

import pytest

from repro.designs import producer_consumer, request_response
from repro.desync import (
    channel_behavior,
    check_lemma2,
    check_theorem2,
    desynchronize,
    estimate_buffer_sizes,
    minimal_bound,
)
from repro.sim import simulate, stimuli
from repro.tags.behavior import Behavior
from repro.tags.trace import SignalTrace


def bursty_env(burst=3, gap=3):
    """Bursty producer, steady reader: finite backlog, estimable."""

    def factory():
        return stimuli.merge(
            stimuli.bursty("p_act", burst=burst, gap=gap),
            stimuli.periodic("x_rreq", 2),
        )

    return factory


class TestEstimator:
    def test_converges_on_bursty_workload(self):
        report = estimate_buffer_sizes(
            producer_consumer(), bursty_env(), horizon=40, initial=1
        )
        assert report.converged
        assert report.sizes["x"] >= 2
        # last step has zero misses, earlier steps show the alarms
        assert all(v == 0 for v in report.history[-1].misses.values())

    def test_estimate_is_quiescent(self):
        report = estimate_buffer_sizes(
            producer_consumer(), bursty_env(), horizon=40, initial=1
        )
        res = desynchronize(producer_consumer(), capacities=report.sizes)
        trace = simulate(res.program, bursty_env()(), n=40)
        assert trace.presence_count(res.channels[0].alarm) == 0

    def test_does_not_converge_under_sustained_mismatch(self):
        def factory():
            return stimuli.merge(
                stimuli.periodic("p_act", 1), stimuli.periodic("x_rreq", 3)
            )

        report = estimate_buffer_sizes(
            producer_consumer(), factory, horizon=30, initial=1, max_iterations=3
        )
        assert not report.converged
        assert report.iterations == 3
        # sizes grow monotonically while the mismatch persists
        tried = [step.sizes["x"] for step in report.history]
        assert tried == sorted(tried) and tried[-1] > tried[0]

    def test_initial_sizes_map(self):
        report = estimate_buffer_sizes(
            producer_consumer(), bursty_env(), horizon=40, initial={"x": 4}
        )
        assert report.converged
        assert report.iterations == 1  # already big enough

    def test_two_channels_estimated_independently(self):
        def factory():
            return stimuli.merge(
                stimuli.bursty("c_act", burst=2, gap=4),
                stimuli.periodic("req_rreq", 1),
                stimuli.periodic("rsp_rreq", 1),
            )

        report = estimate_buffer_sizes(
            request_response(), factory, horizon=40, initial=1
        )
        assert report.converged
        assert set(report.sizes) == {"req", "rsp"}

    def test_render_mentions_iterations(self):
        report = estimate_buffer_sizes(
            producer_consumer(), bursty_env(), horizon=30, initial=1
        )
        text = report.render()
        assert "iter 1" in text and "final sizes" in text

    def test_integer_capacity_is_the_all_channels_map(self):
        """What lets the first round reuse the estimator's probe: the
        network at an integer capacity is the network at that capacity
        on every channel."""
        from repro.lang.analysis import flatten_program
        from repro.lang.serializer import content_key

        prog = request_response()
        whole = desynchronize(prog, capacities=3, instrument=True)
        per_channel = desynchronize(
            prog,
            capacities={ch.signal: 3 for ch in whole.channels},
            instrument=True,
        )
        assert content_key(flatten_program(whole.program)) == content_key(
            flatten_program(per_channel.program)
        )

    def test_integer_initial_desynchronizes_once_per_round(self, monkeypatch):
        """The probe that lists the channels is round 1's network, so an
        estimation desynchronizes once per round, not once more."""
        import repro.desync.estimator as estimator

        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("capacities"))
            return desynchronize(*args, **kwargs)

        monkeypatch.setattr(estimator, "desynchronize", counted)
        report = estimator.estimate_buffer_sizes(
            producer_consumer(), bursty_env(), horizon=40, initial=1
        )
        assert report.iterations > 1
        assert len(calls) == report.iterations


def sustained_mismatch():
    return stimuli.merge(
        stimuli.periodic("p_act", 1), stimuli.periodic("x_rreq", 3)
    )


class TestEstimatorInputs:
    """Inputs the loop cannot honour raise before any round runs."""

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("initial", [4, {"x": 4}])
    def test_cap_below_initial_size_raises(self, workers, lanes, initial):
        envs = sustained_mismatch if lanes == 1 else [sustained_mismatch] * lanes
        with pytest.raises(ValueError, match=(
            "max_capacity 2 is below the initial size 4 of channel 'x'"
        )):
            estimate_buffer_sizes(
                producer_consumer(), envs, horizon=30, initial=initial,
                max_capacity=2, workers=workers,
            )

    @pytest.mark.parametrize("workers", [None, 2])
    def test_no_stimulus_factory_raises(self, workers):
        with pytest.raises(ValueError, match="no stimulus factory"):
            estimate_buffer_sizes(
                producer_consumer(), [], horizon=30, workers=workers
            )

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_raises(self, workers, lanes, horizon):
        envs = sustained_mismatch if lanes == 1 else [sustained_mismatch] * lanes
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            estimate_buffer_sizes(
                producer_consumer(), envs, horizon=horizon, workers=workers
            )

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("lanes", [1, 2])
    def test_initial_naming_no_channel_raises(self, workers, lanes):
        envs = bursty_env() if lanes == 1 else [bursty_env()] * lanes
        with pytest.raises(ValueError, match=re.escape(
            "initial names no channel: 'y' (channels: x)"
        )):
            estimate_buffer_sizes(
                producer_consumer(), envs, horizon=30, initial={"y": 4},
                workers=workers,
            )

    def test_cap_at_initial_size_is_accepted(self):
        report = estimate_buffer_sizes(
            producer_consumer(), sustained_mismatch, horizon=30, initial=2,
            max_capacity=2,
        )
        assert not report.converged
        assert report.sizes == {"x": 2}
        assert [step.sizes for step in report.history] == [{"x": 2}]


class TestConditions:
    def run_trace(self, capacity=3, reader_period=2, n=20):
        res = desynchronize(producer_consumer(), capacities=capacity)
        stim = stimuli.merge(
            stimuli.periodic("p_act", 2),
            stimuli.periodic("x_rreq", reader_period, phase=1),
        )
        return simulate(res.program, stim, n=n), res.channels[0]

    def test_channel_behavior_projection(self):
        trace, ch = self.run_trace()
        b = channel_behavior(trace, ch.write_port, ch.read_port)
        assert b.vars() == {"x", "y"}
        assert len(b["x"]) >= len(b["y"])

    def test_minimal_bound_on_clean_run(self):
        trace, ch = self.run_trace()
        n = minimal_bound(trace, ch.write_port, ch.read_port)
        assert 1 <= n <= 3

    def test_lemma2_holds_at_minimal_bound(self):
        trace, ch = self.run_trace()
        n = minimal_bound(trace, ch.write_port, ch.read_port)
        assert check_lemma2(trace, ch.write_port, ch.read_port, n)

    def test_theorem2_verdicts(self):
        trace, ch = self.run_trace()
        ok, verdicts = check_theorem2(
            trace, [(ch.write_port, ch.read_port, ch.capacity)]
        )
        assert ok
        v = verdicts[0]
        assert v.is_fifo and v.within_bound and v.lemma2
        assert v.minimal <= ch.capacity

    def test_theorem2_fails_on_lossy_channel(self):
        # a run with alarms: the write flow is not delivered faithfully
        res = desynchronize(producer_consumer(), capacities=1)
        stim = stimuli.merge(
            stimuli.periodic("p_act", 1), stimuli.periodic("x_rreq", 4)
        )
        trace = simulate(res.program, stim, n=16)
        assert trace.presence_count(res.channels[0].alarm) > 0
        ok, verdicts = check_theorem2(
            trace, [(res.channels[0].write_port, res.channels[0].read_port, 1)]
        )
        assert not ok
        assert not verdicts[0].is_fifo

    def test_checkers_accept_behaviors_too(self):
        b = Behavior(
            {
                "w": SignalTrace([(0, 1), (1, 2)]),
                "r": SignalTrace([(2, 1), (3, 2)]),
            }
        )
        assert check_lemma2(b, "w", "r", 2)
        assert minimal_bound(b, "w", "r") == 2
