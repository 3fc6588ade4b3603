"""Tests for the closed estimation/verification loop (Section 5.2)."""

from repro.designs import modular_producer_consumer, toggle_producer
from repro.desync import verified_buffer_sizes
from repro.lang.ast import Program
from repro.sim import stimuli


def polled_env_stimulus():
    """Simulation data where the reader polls every second instant."""
    return stimuli.merge(
        stimuli.bursty("p_act", burst=2, gap=2),
        stimuli.periodic("x_rreq", 2),
    )


# environment assumption for the checker: the reader polls at least at
# every second instant; writes come in bursts of at most 2 per 4 instants.
# Encoded as letters over {p_act, x_rreq}: a write never arrives without
# the read having been offered the same instant or the one before; the
# simplest sound encoding is "every instant offers a read".
POLLED_ALPHABET = [
    {"x_rreq": True},
    {"p_act": True, "x_rreq": True},
]

FREE_ALPHABET = [
    {},
    {"p_act": True},
    {"x_rreq": True},
    {"p_act": True, "x_rreq": True},
]


class TestVerifiedSizes:
    def test_proves_under_polled_environment(self):
        result = verified_buffer_sizes(
            modular_producer_consumer(modulus=2),
            polled_env_stimulus,
            horizon=40,
            alphabet=POLLED_ALPHABET,
        )
        assert result.proven
        assert result.counterexample is None
        assert result.rounds[-1].counterexample is None
        assert result.sizes["x"] >= 1

    def test_free_environment_never_proven(self):
        result = verified_buffer_sizes(
            modular_producer_consumer(modulus=2),
            polled_env_stimulus,
            horizon=40,
            alphabet=FREE_ALPHABET,
            max_rounds=2,
        )
        assert not result.proven
        assert result.counterexample is not None
        assert len(result.rounds) == 2

    def test_feedback_grows_sizes(self):
        # Each failed round feeds the counterexample back into the
        # simulation data, so the next estimation sees the offending
        # pattern and grows the buffer.
        result = verified_buffer_sizes(
            modular_producer_consumer(modulus=2),
            polled_env_stimulus,
            horizon=40,
            alphabet=FREE_ALPHABET,
            max_rounds=2,
        )
        tried = [r.sizes["x"] for r in result.rounds]
        assert tried == sorted(tried)
        assert tried[-1] > tried[0]

    def test_counterexamples_get_longer_each_round(self):
        result = verified_buffer_sizes(
            modular_producer_consumer(modulus=2),
            polled_env_stimulus,
            horizon=40,
            alphabet=FREE_ALPHABET,
            max_rounds=2,
        )
        lengths = [len(r.counterexample) for r in result.rounds]
        assert lengths == sorted(lengths)
        assert lengths[-1] > lengths[0]

    def test_render(self):
        result = verified_buffer_sizes(
            modular_producer_consumer(modulus=2),
            polled_env_stimulus,
            horizon=40,
            alphabet=POLLED_ALPHABET,
        )
        text = result.render()
        assert "PROVEN" in text and "round 1" in text

    def test_design_without_channels_is_proven_in_round_one(self):
        # no channel, no alarm to check: the LTS is still explored, so
        # the round reports its state count
        result = verified_buffer_sizes(
            Program("solo", [toggle_producer()]),
            lambda: stimuli.periodic("p_act", 1),
            horizon=10,
            alphabet=[{"p_act": True}, {}],
        )
        assert result.proven
        assert result.sizes == {}
        assert [(r.round, r.states, r.counterexample) for r in result.rounds] == [
            (1, 2, None)
        ]
