"""The flow-equivalence prover and its certificates.

:func:`prove_flow_equivalence` discharges (or refutes) flow equivalence
of a synchronous program against its desynchronized deployment:

1. **affine path** — under rate assumptions that make the design
   endochronous, every channel's occupancy induction
   (:mod:`repro.prove.affine`) either bounds the peak within the declared
   capacity (edge discharged) or exhibits the exact first overflow
   instant (edge refuted, with a replayable periodic witness);
2. **model-checking path** — otherwise the product construction
   (:func:`repro.prove.observers.product`) turns the property into
   ``never``-present obligations checked, through
   :func:`repro.mc.harness.never_present_verdicts`, on the explicit,
   symbolic (BDD) or assume-guarantee compose backend; a counterexample
   becomes a witness stimulus.

The outcome is a :class:`ProofCertificate` with verdict ``proven`` /
``refuted`` / ``unknown``.  ``unknown`` is always accompanied by a
machine-readable ``reason`` — the prover never silently degrades.

Certificates are deterministic functions of (design content, assumption
set): no wall-clock, no iteration order dependence — the service's
byte-identity gate compares their digests across worker counts.  When a
:class:`repro.mc.store.MCStore` is available they are cached under kind
``prove-certificate``, so warm re-proofs cost one hash and one JSON
read; the backends additionally thread the same store for their own
intermediates (compiled LTSs, symbolic fixpoints).
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ReproError
from repro.lang.analysis import flatten_program, shared_signals
from repro.lang.ast import Program
from repro.lint.bounds import PeriodicWord
from repro.perf import PERF
from repro.prove.affine import (
    UNBOUNDED,
    AffineAnalysis,
    affine_flow_analysis,
    overflow_instant,
)
from repro.prove.observers import FIFO_FAITHFUL, NO_OVERFLOW, product
from repro.prove.witness import affine_witness, counterexample_witness

#: on-disk certificate format stamp (see :meth:`ProofCertificate.to_dict`)
CERT_FORMAT = "prove-cert-v1"

#: store kind certificates are cached under
CERT_KIND = "prove-certificate"

PROVEN = "proven"
REFUTED = "refuted"
UNKNOWN = "unknown"


class ProofCertificate(NamedTuple):
    """The prover's verdict plus everything needed to audit or replay it."""

    program: str
    verdict: str                       # proven / refuted / unknown
    method: str                        # affine-inductive / mc-<backend> / trivial
    backend: str                       # what was requested
    obligations: Tuple[Dict[str, Any], ...]
    assumptions: Dict[str, Any]        # rates, capacities, pinned inputs...
    stats: Dict[str, Any]              # states explored, edges, constraints
    reason: Optional[str] = None       # mandatory when verdict is unknown
    witness: Optional[Dict[str, Any]] = None  # mandatory when refuted

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": CERT_FORMAT,
            "program": self.program,
            "verdict": self.verdict,
            "method": self.method,
            "backend": self.backend,
            "obligations": [dict(o) for o in self.obligations],
            "assumptions": dict(self.assumptions),
            "stats": dict(self.stats),
            "reason": self.reason,
            "witness": None if self.witness is None else dict(self.witness),
        }


def certificate_from_dict(payload: Mapping[str, Any]) -> ProofCertificate:
    """Rehydrate a cached certificate; raises on a foreign format."""
    if payload.get("format") != CERT_FORMAT:
        raise ValueError(
            "not a {} payload: {!r}".format(CERT_FORMAT, payload.get("format"))
        )
    return ProofCertificate(
        program=payload["program"],
        verdict=payload["verdict"],
        method=payload["method"],
        backend=payload["backend"],
        obligations=tuple(dict(o) for o in payload.get("obligations", [])),
        assumptions=dict(payload.get("assumptions", {})),
        stats=dict(payload.get("stats", {})),
        reason=payload.get("reason"),
        witness=payload.get("witness"),
    )


# -- assumption normalization -------------------------------------------------

def word_spec(word: PeriodicWord) -> str:
    """Canonical ``prefix|cycle`` 0/1 text of a word (normalized first)."""
    n = word.normalized()
    return "{}|{}".format(
        "".join("1" if b else "0" for b in n.prefix),
        "".join("1" if b else "0" for b in n.cycle),
    )


def word_from_spec(spec: str) -> PeriodicWord:
    """Inverse of :func:`word_spec`."""
    prefix, _, cycle = spec.partition("|")
    return PeriodicWord(
        tuple(c == "1" for c in prefix), tuple(c == "1" for c in cycle)
    )


def normalize_assumptions(
    rates: Optional[Mapping[str, PeriodicWord]] = None,
    capacities: Union[int, Mapping[str, int]] = 1,
    backend: str = "auto",
    int_values: Sequence[int] = (0, 1),
    always: Sequence[str] = (),
    never_input: Sequence[str] = (),
    max_states: int = 20000,
    read_requests: Optional[Mapping[str, str]] = None,
    fifo: str = "direct",
    backpressure: Optional[Mapping[str, str]] = None,
) -> Dict[str, Any]:
    """The canonical, JSON-stable assumption set — the certificate's cache
    identity (beyond design content) and its audit record."""
    return {
        "backend": backend,
        "fifo": fifo,
        "rates": {k: word_spec(v) for k, v in sorted((rates or {}).items())},
        "capacities": (
            int(capacities)
            if isinstance(capacities, int)
            else {k: int(v) for k, v in sorted(capacities.items())}
        ),
        "int_values": [int(v) for v in int_values],
        "always": sorted(always),
        "never_input": sorted(never_input),
        "max_states": int(max_states),
        "read_requests": dict(sorted((read_requests or {}).items())),
        "backpressure": dict(sorted((backpressure or {}).items())),
    }


def _capacity_map(program: Program, capacities) -> Dict[str, int]:
    caps: Dict[str, int] = {}
    for s in shared_signals(program):
        if not s.producer or not s.consumers:
            continue
        if isinstance(capacities, int):
            caps[s.name] = capacities
        else:
            caps[s.name] = int(capacities.get(s.name, 1))
    return caps


def prove_certificate_key(program: Program, assumptions: Mapping[str, Any]) -> str:
    """The :mod:`repro.mc.store` address of this (design, assumptions)
    certificate — exported so benches can probe warm rates."""
    from repro.lang.serializer import content_key
    from repro.mc.store import store_key

    key = content_key(flatten_program(program))
    return store_key(CERT_KIND, key, dict(assumptions))


# -- the prover ---------------------------------------------------------------

def prove_flow_equivalence(
    program: Program,
    rates: Optional[Mapping[str, PeriodicWord]] = None,
    capacities: Union[int, Mapping[str, int]] = 1,
    backend: str = "auto",
    int_values: Sequence[int] = (0, 1),
    always: Sequence[str] = (),
    never_input: Sequence[str] = (),
    max_states: int = 20000,
    read_requests: Optional[Mapping[str, str]] = None,
    fifo: str = "direct",
    backpressure: Optional[Mapping[str, str]] = None,
    store=None,
) -> ProofCertificate:
    """Statically prove (or refute) flow equivalence of ``program``'s
    desynchronized deployment against the program itself.

    ``backend``: ``auto`` (affine first, then model checking),
    ``affine`` (inductive path only; unknown when inapplicable),
    ``explicit`` / ``symbolic`` / ``compose`` (force that MC backend).
    ``store`` is an :class:`repro.mc.store.MCStore` (or ``None``); pass
    :func:`repro.mc.store.default_store` to honor ``REPRO_MC_STORE``.
    """
    rates = dict(rates or {})
    assumptions = normalize_assumptions(
        rates, capacities, backend, int_values, always, never_input,
        max_states, read_requests, fifo, backpressure,
    )
    key = None
    if store is not None:
        key = prove_certificate_key(program, assumptions)
        cached = store.get(key, kind=CERT_KIND)
        if cached is not None:
            PERF.incr("prove.cert.hits")
            return certificate_from_dict(cached)
        PERF.incr("prove.cert.misses")
    cert = _prove(
        program, rates, capacities, backend, int_values, always,
        never_input, max_states, read_requests, fifo, backpressure,
        assumptions, store,
    )
    if key is not None:
        store.put(key, CERT_KIND, cert.to_dict())
    return cert


def _prove(
    program, rates, capacities, backend, int_values, always, never_input,
    max_states, read_requests, fifo, backpressure, assumptions, store,
) -> ProofCertificate:
    caps = _capacity_map(program, capacities)
    if not caps:
        return ProofCertificate(
            program=program.name,
            verdict=PROVEN,
            method="trivial",
            backend=backend,
            obligations=(),
            assumptions=assumptions,
            stats={"channels": 0},
            reason="no inter-component channels: the program is its own "
                   "deployment",
        )

    # the occupancy induction models n_fifo_direct's accept rule; other
    # deployments (paper 1-place, chained) go through the product
    if (backend in ("auto", "affine") and rates and fifo == "direct"
            and not backpressure):
        analysis = affine_flow_analysis(program, rates)
        if analysis.endochronous and analysis.complete and analysis.edges:
            return _affine_certificate(
                program, analysis, caps, rates, backend, assumptions,
                read_requests,
            )
        if backend == "affine":
            return ProofCertificate(
                program=program.name,
                verdict=UNKNOWN,
                method="affine-inductive",
                backend=backend,
                obligations=(),
                assumptions=assumptions,
                stats=_affine_stats(analysis),
                reason=_affine_gap(analysis),
            )
    elif backend == "affine":
        return ProofCertificate(
            program=program.name,
            verdict=UNKNOWN,
            method="affine-inductive",
            backend=backend,
            obligations=(),
            assumptions=assumptions,
            stats={"channels": len(caps)},
            reason=(
                "the affine path needs rate assumptions (none given)"
                if fifo == "direct"
                else "the affine occupancy induction models the direct "
                     "n-FIFO deployment, not fifo={!r}".format(fifo)
            ),
        )

    return _mc_certificate(
        program, caps, backend, int_values, always, never_input,
        max_states, read_requests, fifo, backpressure, assumptions, store,
    )


# -- affine path --------------------------------------------------------------

def _affine_stats(analysis: AffineAnalysis) -> Dict[str, Any]:
    return {
        "channels": len(analysis.edges),
        "constraints": analysis.constraints,
        "endochronous": analysis.endochronous,
    }


def _affine_gap(analysis: AffineAnalysis) -> str:
    if not analysis.endochronous:
        return ("not endochronous under the given rates: some clocks stay "
                "free of both inputs and rate assumptions")
    unknown = [e for e in analysis.edges if e.write is None]
    if unknown:
        return "clock words underivable for edges: {}".format(
            ", ".join(sorted("{}->{}".format(e.signal, e.consumer)
                             for e in unknown))
        )
    return "no channel edges derived"


def _edge_obligation(edge, cap: int, status: str) -> Dict[str, Any]:
    ob: Dict[str, Any] = {
        "channel": "{} -> {} : {}".format(edge.producer, edge.consumer,
                                          edge.signal),
        "signal": edge.signal,
        "kind": "occupancy-induction",
        "capacity": cap,
        "status": status,
    }
    if edge.write is not None:
        ob["write"] = word_spec(edge.write)
        ob["read"] = word_spec(edge.read)
    if edge.bound is not None:
        ob["bound"] = edge.bound
    return ob


def _affine_certificate(
    program, analysis: AffineAnalysis, caps, rates, backend, assumptions,
    read_requests=None,
) -> ProofCertificate:
    refuted = analysis.refuted_edges(caps)
    refuted_keys = {(e.signal, e.consumer) for e in refuted}
    obligations = []
    for edge in analysis.edges:
        cap = caps.get(edge.signal, 1)
        status = (
            "violated" if (edge.signal, edge.consumer) in refuted_keys
            else "discharged"
        )
        obligations.append(_edge_obligation(edge, cap, status))
    obligations.sort(key=lambda o: (o["channel"], o["kind"]))
    stats = _affine_stats(analysis)
    if not refuted:
        return ProofCertificate(
            program=program.name,
            verdict=PROVEN,
            method="affine-inductive",
            backend=backend,
            obligations=tuple(obligations),
            assumptions=assumptions,
            stats=stats,
        )
    edge = refuted[0]
    cap = caps.get(edge.signal, 1)
    instant = (
        None if edge.write is None
        else overflow_instant(edge.write, edge.read, cap)
    )
    witness = affine_witness(program, edge, caps, instant, rates, read_requests)
    return ProofCertificate(
        program=program.name,
        verdict=REFUTED,
        method="affine-inductive",
        backend=backend,
        obligations=tuple(obligations),
        assumptions=assumptions,
        stats=stats,
        reason=(
            "channel {} -> {} : {} is unbounded under the assumed rates"
            .format(edge.producer, edge.consumer, edge.signal)
            if edge.status == UNBOUNDED
            else "channel {} -> {} : {} needs capacity {} but {} is deployed"
            .format(edge.producer, edge.consumer, edge.signal, edge.bound, cap)
        ),
        witness=witness,
    )


# -- model-checking path ------------------------------------------------------

def _mc_certificate(
    program, caps, backend, int_values, always, never_input,
    max_states, read_requests, fifo, backpressure, assumptions, store,
) -> ProofCertificate:
    from repro.mc.harness import never_present_verdicts
    from repro.mc.symbolic import boolean_core

    def unknown(method: str, reason: str, stats=None) -> ProofCertificate:
        return ProofCertificate(
            program=program.name,
            verdict=UNKNOWN,
            method=method,
            backend=backend,
            obligations=(),
            assumptions=assumptions,
            stats=stats or {"channels": len(caps)},
            reason=reason,
        )

    try:
        info = product(
            program, capacities=caps,
            read_requests=dict(read_requests or {}), kind=fifo,
            backpressure=dict(backpressure or {}),
        )
    except ReproError as err:
        return unknown("mc-product", "product construction failed: {}".format(err))

    chosen = backend
    if backend == "auto":
        # the symbolic backend's own test: its core form, normalization's
        # temporaries included, must be boolean; a product that does not
        # even flatten goes to explicit, whose failure the certificate
        # reports as before
        try:
            boolean_core(info.program)
        except ReproError:
            chosen = "explicit"
        else:
            chosen = "symbolic"
    if chosen not in ("explicit", "symbolic", "compose"):
        raise ValueError("unknown prove backend {!r}".format(backend))
    method = "mc-" + chosen

    ordered = sorted(info.obligations, key=lambda o: (o.label, o.kind))
    obligations = []
    stats: Dict[str, Any] = {"channels": len(info.deployment.channels)}
    witness = None
    reason = None
    verdict = PROVEN

    try:
        verdicts = never_present_verdicts(
            info.program,
            chosen,
            [ob.event for ob in ordered],
            int_values=tuple(int_values),
            always_present=tuple(always),
            never_present=tuple(never_input),
            max_states=max_states,
            store=store,
        )
        for ob, checked in zip(ordered, verdicts):
            if chosen == "compose":
                stats["largest_check_states"] = max(
                    stats.get("largest_check_states", 0),
                    checked.figures["largest_check_states"],
                )
            else:
                stats.update(checked.figures)
            record = {
                "channel": ob.channel,
                "signal": ob.signal,
                "kind": ob.kind,
                "event": ob.event,
                "capacity": ob.capacity,
                "status": "discharged" if checked.holds else "violated",
            }
            obligations.append(record)
            if not checked.holds:
                verdict = REFUTED
                witness = counterexample_witness(ob, checked.counterexample)
                reason = "obligation {} on channel {} is violated".format(
                    ob.kind, ob.channel
                )
                for rest in ordered[len(obligations):]:
                    obligations.append({
                        "channel": rest.channel,
                        "signal": rest.signal,
                        "kind": rest.kind,
                        "event": rest.event,
                        "capacity": rest.capacity,
                        "status": "not-checked",
                    })
                break
    except ReproError as err:
        return unknown(
            method,
            "{} backend could not discharge the product: {}".format(
                chosen, err
            ),
            stats,
        )

    obligations.sort(key=lambda o: (o["channel"], o["kind"]))
    return ProofCertificate(
        program=program.name,
        verdict=verdict,
        method=method,
        backend=backend,
        obligations=tuple(obligations),
        assumptions=assumptions,
        stats=stats,
        reason=reason,
        witness=witness,
    )
