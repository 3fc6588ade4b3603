"""Tests for the static flow-equivalence prover (repro.prove): the
affine inductive path, the model-checking product, certificates, witness
replay, store caching, the service job kind, and the CLI."""

import json

import pytest

from repro import designs
from repro.lang import parse_program
from repro.lint import parse_rates
from repro.mc.store import MCStore
from repro.perf import PERF
from repro.prove import (
    CERT_FORMAT,
    ProofCertificate,
    affine_flow_analysis,
    certificate_from_dict,
    overflow_instant,
    prove_certificate_key,
    prove_flow_equivalence,
    replay_witness,
)
from repro.prove.core import normalize_assumptions, word_from_spec, word_spec
from repro.lint.bounds import PeriodicWord
from repro.__main__ import main


BALANCED = ["p_act:1", "x_rreq:1"]
STARVED = ["p_act:1", "x_rreq:2"]          # writer outruns reader: unbounded
BURSTY = ["p_act:110000", "x_rreq:3:2"]    # bounded at 2, above a 1-slot FIFO


def prove(design, rate_specs=None, **kw):
    prog = getattr(designs, design)() if isinstance(design, str) else design
    rates = parse_rates(rate_specs or [])
    return prog, prove_flow_equivalence(prog, rates=rates, **kw)


class TestAffinePath:
    def test_balanced_rates_proven(self):
        _, cert = prove("producer_consumer", BALANCED)
        assert cert.verdict == "proven"
        assert cert.method == "affine-inductive"
        (ob,) = cert.obligations
        assert ob["kind"] == "occupancy-induction"
        assert ob["status"] == "discharged"
        assert ob["bound"] == 1
        assert cert.witness is None

    def test_unbounded_rates_refuted_with_witness(self):
        prog, cert = prove("producer_consumer", STARVED)
        assert cert.verdict == "refuted"
        assert "unbounded" in cert.reason
        w = cert.witness
        assert w["kind"] == "overflow"
        assert w["event"] == "x_alarm"
        assert w["instant"] == 1
        rep = replay_witness(prog, cert)
        assert rep.ok, rep.render()
        assert rep.observed_instant == rep.divergence_instant == 1

    def test_bound_above_capacity_refuted_with_witness(self):
        prog, cert = prove("producer_consumer", BURSTY, capacities=1)
        assert cert.verdict == "refuted"
        assert "needs capacity 2 but 1 is deployed" in cert.reason
        rep = replay_witness(prog, cert)
        assert rep.ok, rep.render()
        assert rep.observed_instant == cert.witness["instant"] == 1

    def test_bound_met_by_larger_capacity_proven(self):
        _, cert = prove("producer_consumer", BURSTY, capacities=2)
        assert cert.verdict == "proven"
        (ob,) = cert.obligations
        assert ob["bound"] == 2 and ob["capacity"] == 2

    def test_no_rates_forced_affine_is_unknown_with_reason(self):
        _, cert = prove("producer_consumer", backend="affine")
        assert cert.verdict == "unknown"
        assert "rate assumptions" in cert.reason

    def test_boolean_fifo_forced_affine_is_unknown(self):
        # the occupancy induction models n_fifo_direct's accept rule, not
        # the stricter paper one-place FIFO — the prover must say so
        _, cert = prove(
            "producer_consumer", BALANCED, backend="affine", fifo="boolean"
        )
        assert cert.verdict == "unknown"
        assert "fifo='boolean'" in cert.reason

    def test_overflow_instant_matches_accept_rule(self):
        write = PeriodicWord.parse("1")
        read = PeriodicWord.parse("2")
        assert overflow_instant(write, read, 1) == 1
        # balanced flows never overflow
        assert overflow_instant(write, PeriodicWord.parse("1"), 1) is None
        # a same-instant read frees the slot: capacity 1 carries 1:1 flows
        assert overflow_instant(write, read, 2) == 3

    def test_affine_analysis_endochronous_and_complete(self):
        analysis = affine_flow_analysis(
            designs.producer_consumer(), parse_rates(BALANCED)
        )
        assert analysis.endochronous and analysis.complete
        (edge,) = analysis.edges
        assert edge.status == "bounded" and edge.bound == 1


class TestModelCheckingPath:
    def test_free_env_overflow_refuted_explicit(self):
        prog, cert = prove(
            "boolean_producer_consumer", backend="explicit", capacities=2
        )
        assert cert.verdict == "refuted"
        assert cert.method == "mc-explicit"
        assert cert.witness["kind"] == "overflow"
        rep = replay_witness(prog, cert)
        assert rep.ok, rep.render()
        assert rep.observed_instant == cert.witness["instant"] == 2

    def test_backpressure_proven_explicit(self):
        # masking the producer's activation with the channel's full
        # status makes overflow unreachable in ANY environment
        _, cert = prove(
            "boolean_producer_consumer",
            backend="explicit",
            backpressure={"P": "p_act"},
        )
        assert cert.verdict == "proven"
        assert {o["status"] for o in cert.obligations} == {"discharged"}
        assert {o["kind"] for o in cert.obligations} == {
            "no-overflow", "fifo-faithful"
        }

    def test_backpressure_proven_symbolic_boolean_fifo(self):
        _, cert = prove(
            "boolean_producer_consumer",
            backend="symbolic",
            fifo="boolean",
            backpressure={"P": "p_act"},
        )
        assert cert.verdict == "proven"
        assert cert.method == "mc-symbolic"
        assert cert.stats["states"] > 0

    def test_symbolic_boolean_fifo_refuted_with_replay(self):
        prog, cert = prove(
            "boolean_producer_consumer", backend="symbolic", fifo="boolean"
        )
        assert cert.verdict == "refuted"
        rep = replay_witness(prog, cert)
        assert rep.ok, rep.render()
        assert rep.observed_instant == cert.witness["instant"] == 1

    def test_backpressure_proven_compose(self):
        _, cert = prove(
            "modular_producer_consumer",
            backend="compose",
            backpressure={"P": "p_act"},
        )
        assert cert.verdict == "proven"
        assert cert.method == "mc-compose"
        assert cert.stats["largest_check_states"] > 0

    def test_auto_picks_symbolic_for_boolean_product(self):
        _, cert = prove(
            "boolean_producer_consumer",
            fifo="boolean",
            backpressure={"P": "p_act"},
        )
        assert cert.method == "mc-symbolic"

    def test_auto_picks_explicit_for_integer_product(self):
        _, cert = prove(
            "modular_producer_consumer", backpressure={"P": "p_act"}
        )
        assert cert.method == "mc-explicit"
        assert cert.verdict == "proven"

    def test_auto_picks_explicit_for_integer_temporary(self):
        # every declared signal is boolean, but normalization gives the
        # consumer an integer temporary for ``-1 when x``: the symbolic
        # backend rejects that product, so auto must not pick it
        prog = parse_program(
            "process P = (? event p_act; ! boolean x;)"
            "(| x := not (pre false x) | x ^= p_act |) end "
            "process Q = (? boolean x; ! boolean y;)"
            "(| y := (-1 when x) == -1 |) end",
            name="int_temporary",
        )
        _, cert = prove(prog, fifo="boolean", backpressure={"P": "p_act"})
        assert cert.method == "mc-explicit"
        assert cert.verdict == "proven"

    def test_state_explosion_is_unknown_with_reason(self):
        # the INT accumulator payload is unbounded: the explicit backend
        # must degrade soundly, never silently
        _, cert = prove(
            "producer_consumer", backend="explicit", max_states=500
        )
        assert cert.verdict == "unknown"
        assert "could not discharge" in cert.reason

    def test_boolean_fifo_needs_capacity_one(self):
        _, cert = prove(
            "boolean_producer_consumer",
            backend="explicit",
            fifo="boolean",
            capacities=2,
        )
        assert cert.verdict == "unknown"
        assert "product construction failed" in cert.reason


class TestTrivialAndCertificates:
    def test_single_component_is_trivially_proven(self):
        prog = parse_program(
            "process P = (? event tick; ! integer x;)"
            " (| x := (pre 0 x) + 1 | x ^= tick |) end\n"
        )
        cert = prove_flow_equivalence(prog)
        assert cert.verdict == "proven"
        assert cert.method == "trivial"

    def test_certificate_roundtrip(self):
        _, cert = prove("producer_consumer", STARVED)
        again = certificate_from_dict(cert.to_dict())
        assert again.to_dict() == cert.to_dict()
        assert isinstance(again, ProofCertificate)

    def test_foreign_format_rejected(self):
        with pytest.raises(ValueError):
            certificate_from_dict({"format": "something-else"})

    def test_certificates_are_deterministic(self):
        a = prove("producer_consumer", BURSTY)[1].to_dict()
        b = prove("producer_consumer", BURSTY)[1].to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["format"] == CERT_FORMAT

    def test_word_spec_roundtrip(self):
        word = PeriodicWord.parse("3:2")
        assert word_from_spec(word_spec(word)).normalized() == word.normalized()

    def test_assumptions_canonical_order(self):
        a = normalize_assumptions(
            rates=parse_rates(["b:1", "a:2"]), always=("z", "a")
        )
        b = normalize_assumptions(
            rates=parse_rates(["a:2", "b:1"]), always=("a", "z")
        )
        assert a == b
        assert list(a["rates"]) == ["a", "b"]


class TestStoreCaching:
    def test_warm_rerun_is_served_from_the_store(self, tmp_path):
        store = MCStore(str(tmp_path / "store"))
        prog = designs.producer_consumer()
        rates = parse_rates(BALANCED)
        cold = prove_flow_equivalence(prog, rates=rates, store=store)
        with PERF.scope() as counts:
            warm = prove_flow_equivalence(prog, rates=rates, store=store)
        assert warm.to_dict() == cold.to_dict()
        assert counts.counts.get("mc.store.hits", 0) == 1

    def test_key_depends_on_assumptions(self):
        prog = designs.producer_consumer()
        k1 = prove_certificate_key(
            prog, normalize_assumptions(rates=parse_rates(BALANCED))
        )
        k2 = prove_certificate_key(
            prog, normalize_assumptions(rates=parse_rates(STARVED))
        )
        assert k1 != k2

    def test_refuted_certificate_caches_with_witness(self, tmp_path):
        store = MCStore(str(tmp_path / "store"))
        prog = designs.producer_consumer()
        rates = parse_rates(STARVED)
        prove_flow_equivalence(prog, rates=rates, store=store)
        warm = prove_flow_equivalence(prog, rates=rates, store=store)
        assert warm.verdict == "refuted"
        rep = replay_witness(prog, warm)
        assert rep.ok, rep.render()


class TestServiceJobKind:
    SPECS = [
        {"kind": "prove", "design": "producer_consumer",
         "params": {"rates": BALANCED}},
        {"kind": "prove", "design": "producer_consumer",
         "params": {"rates": STARVED}},
        {"kind": "prove", "design": "boolean_producer_consumer",
         "params": {"backend": "explicit", "backpressure": {"P": "p_act"}}},
    ]

    def test_execute_returns_certificate_payload(self):
        from repro.service.runner import execute

        env = execute(dict(self.SPECS[0]))
        assert env["kind"] == "prove"
        assert env["result"]["format"] == CERT_FORMAT
        assert env["result"]["verdict"] == "proven"

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_digest_identity_across_worker_counts(self, workers):
        from repro.service.runner import execute
        from repro.service.scheduler import Scheduler

        reference = [execute(dict(s))["digest"] for s in self.SPECS]
        with Scheduler(workers=workers) as sched:
            ids = sched.submit_many([dict(s) for s in self.SPECS])
            assert sched.wait(ids, timeout=300)
            digests = [sched.job(i).envelope["digest"] for i in ids]
        assert digests == reference


class TestProveCLI:
    def test_proven_exits_zero(self, capsys):
        rc = main(["prove", "producer_consumer",
                   "--rate", "p_act:1", "--rate", "x_rreq:1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PROVEN" in out and "affine-inductive" in out

    def test_refuted_exits_one_and_replays(self, capsys):
        rc = main(["prove", "producer_consumer",
                   "--rate", "p_act:1", "--rate", "x_rreq:2", "--replay"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REFUTED" in out and "witness replay confirmed" in out

    def test_unknown_exits_two(self, capsys):
        rc = main(["prove", "producer_consumer", "--backend", "affine"])
        assert rc == 2
        assert "reason:" in capsys.readouterr().out

    def test_json_stdout_is_the_certificate(self, capsys):
        rc = main(["prove", "producer_consumer",
                   "--rate", "p_act:1", "--rate", "x_rreq:1", "--json", "-"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["format"] == CERT_FORMAT and data["verdict"] == "proven"

    def test_capacity_and_backpressure_flags(self, capsys):
        rc = main(["prove", "boolean_producer_consumer",
                   "--backend", "explicit", "--backpressure", "P=p_act"])
        assert rc == 0
        rc = main(["prove", "producer_consumer",
                   "--rate", "p_act:110000", "--rate", "x_rreq:3:2",
                   "--capacity", "x=2"])
        assert rc == 0

    def test_store_flag_serves_warm_rerun(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        from repro.perf import PERF

        args = ["prove", "producer_consumer", "--rate", "p_act:1",
                "--rate", "x_rreq:1", "--store", store]
        assert main(args) == 0
        capsys.readouterr()
        before = PERF.get("prove.cert.hits")
        assert main(args) == 0
        assert PERF.get("prove.cert.hits") == before + 1
        assert MCStore(store).stats()["entries"] == 1

    def test_bad_capacity_rejected(self):
        with pytest.raises(SystemExit):
            main(["prove", "producer_consumer", "--capacity", "x=lots"])

    def test_bad_backpressure_rejected(self):
        with pytest.raises(SystemExit):
            main(["prove", "producer_consumer", "--backpressure", "nope"])


class TestLintEscalation:
    def test_proven_rates_emit_gals006_info(self):
        from repro.lint import lint_program

        report = lint_program(
            designs.producer_consumer(), rates=parse_rates(BALANCED)
        )
        assert any(d.code == "GALS006" for d in report.diagnostics)
        assert not report.has_errors()

    def test_refuted_rates_emit_gals007_error_with_instant(self):
        from repro.lint import lint_program

        report = lint_program(
            designs.producer_consumer(), rates=parse_rates(STARVED)
        )
        gals7 = [d for d in report.diagnostics if d.code == "GALS007"]
        assert gals7 and report.has_errors()
        assert "instant 1" in gals7[0].message
