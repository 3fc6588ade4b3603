"""Deterministic per-job execution for the verification service.

:func:`execute` is the one entry point: a **module-level, picklable**
function from a job-spec dict to a JSON envelope, so the scheduler can
install it in a persistent process pool through the same initializer
machinery :mod:`repro.perf.sweep` uses, or call it inline.

The determinism contract every handler honors:

- no wall-clock, process id, or environment-dependent values in the
  ``result`` payload (wall time lives next to the envelope in the
  scheduler's :class:`~repro.service.scheduler.JobRecord`, outside the
  digest);
- all dict-shaped output is either naturally ordered or sorted before it
  is returned, and the digest is :func:`repro.lang.serializer.digest`;
- randomness only ever comes from seeds carried in ``params``.

Byte-identity of :func:`execute` output across worker counts and
scheduling orders is asserted by ``tests/test_service.py``, the
``make serve-smoke`` gate and experiment A12.

Stored results: when the persistent verification store is enabled (see
:mod:`repro.mc.store`), the envelope of every job of a kind in
:data:`STORED_KINDS` is put under its job key as one
:data:`RESULT_KIND` entry, so a later server lifetime answers the job
from disk.  The scheduler reads that entry at submit
(:func:`stored_envelope`) and hands the key it took there to the worker
with the job, so a dispatched job is keyed and looked up once.  A caller
without a key (the CLI, a test, a benchmark) gets both done here.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.mc.store import MCStore, default_store
from repro.service.jobs import (
    job_key,
    resolve_program,
    result_digest,
    spec_from_dict,
)

#: the job kinds whose envelopes the store keeps: the model-checking
#: ones, where a repeat saves an exploration
STORED_KINDS = ("verify", "prove")

#: the store kind of a job's envelope, put under the job key
RESULT_KIND = "job-result"


def execute(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job; return its result envelope.

    The envelope is ``{"kind", "key", "digest", "result"}`` where
    ``digest`` is the content hash of ``result`` — what the byte-identity
    gates compare — and ``key`` is the cache address.

    ``spec_dict["key"]``, when present, is the job key the scheduler took
    at submit, where it also looked the job up in the store; it is
    trusted, and neither step is repeated.  Without it, the key is taken
    here and a stored envelope is returned as it is.  A computed envelope
    of a stored kind is put into the store, if one is enabled.
    """
    spec = spec_from_dict(spec_dict)
    store = default_store() if spec.kind in STORED_KINDS else None
    key = spec_dict.get("key")
    if key is None:
        key = job_key(spec)
        stored = None if store is None else stored_envelope(store, key, spec.kind)
        if stored is not None:
            return stored
    program = resolve_program(spec.design)
    result = _HANDLERS[spec.kind](program, dict(spec.params))
    envelope = {
        "kind": spec.kind,
        "key": key,
        "digest": result_digest(result),
        "result": result,
    }
    if store is not None:
        store.put(key, RESULT_KIND, envelope)
    return envelope


def stored_envelope(
    store: MCStore, key: str, kind: str
) -> Optional[Dict[str, Any]]:
    """The envelope ``store`` keeps for the job ``key`` of ``kind``, or
    ``None``.  An entry whose ``key`` or ``kind`` is not the job's, or
    whose ``digest`` is not its result's, is a miss too: the store drops
    it, and the job is computed and put again."""

    def intact(envelope: Any) -> bool:
        return (
            isinstance(envelope, dict)
            and envelope.get("key") == key
            and envelope.get("kind") == kind
            and envelope.get("digest") == result_digest(envelope.get("result"))
        )

    return store.get(key, kind=RESULT_KIND, accept=intact)


# -- stimulus specs -----------------------------------------------------------

def stimulus_factory(specs: Iterable[str]):
    """A zero-argument factory for the CLI-style stimulus grammar
    ``name:period[:phase[:value]]`` (value ``true``/``false``/int/
    ``count``); no specs means silence.

    Specs are parsed here, so a malformed one raises :class:`ValueError`
    naming it before any stimulus is built."""
    import itertools

    from repro.sim import stimuli

    parsed = []
    for spec in specs:
        fields = spec.split(":")
        value = fields[3] if len(fields) > 3 else None
        try:
            period = int(fields[1])
            phase = int(fields[2]) if len(fields) > 2 else 0
            if period < 1:
                raise ValueError
            if value in ("true", "false"):
                value = value == "true"
            elif value not in (None, "count"):
                value = int(value)
        except (IndexError, ValueError):
            raise ValueError(
                "bad stimulus {!r}: want name:period[:phase[:value]]".format(spec)
            ) from None
        parsed.append((fields[0], period, phase, value))

    def build():
        parts = []
        for name, period, phase, value in parsed:
            if value is None:
                values = None
            elif value == "count":
                values = stimuli.counter()
            else:
                values = itertools.repeat(value)
            parts.append(stimuli.periodic(name, period, values=values, phase=phase))
        if not parts:
            return stimuli.silence()
        return stimuli.merge(*parts)

    return build


# -- handlers -----------------------------------------------------------------

def _as_list(value) -> list:
    """Normalize list-shaped params: the CLI shorthand yields a bare
    scalar when only one item was given."""
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def _run_lint(program, params: Dict[str, Any]) -> Dict[str, Any]:
    """``lint``: the full SIG*/GALS* rule set.

    Params: ``rates`` (list of ``name:word`` presence assumptions),
    ``synchronous`` (treat shared signals as wires, not channels),
    ``select`` / ``ignore`` (rule-code prefixes).
    """
    import json

    from repro.lint import lint_program, parse_rates

    rates = parse_rates(_as_list(params.get("rates"))) or None
    report = lint_program(
        program,
        file=program.name,
        rates=rates,
        cut_channels=not params.get("synchronous", False),
        select=tuple(_as_list(params.get("select"))),
        ignore=tuple(_as_list(params.get("ignore"))),
    )
    payload = json.loads(report.to_json())
    return {
        "program": report.program,
        "diagnostics": payload["diagnostics"],
        "codes": report.codes(),
        "errors": len(report.errors),
        "clean": not report.diagnostics,
    }


def _run_estimate(program, params: Dict[str, Any]) -> Dict[str, Any]:
    """``estimate``: the Section 5.2 buffer-size loop.

    Params: ``stim`` (stimulus specs; default a steady ``p_act:1`` /
    ``x_rreq:2`` environment), ``horizon`` (default 8), ``initial``,
    ``kind`` (``direct``/``rreq``), ``max_iterations``, ``max_capacity``.
    """
    from repro.desync.estimator import estimate_buffer_sizes

    report = estimate_buffer_sizes(
        program,
        stimulus_factory(_as_list(params.get("stim")) or ["p_act:1", "x_rreq:2"]),
        horizon=int(params.get("horizon", 8)),
        initial=params.get("initial", 1),
        kind=params.get("kind", "direct"),
        max_iterations=int(params.get("max_iterations", 16)),
        max_capacity=params.get("max_capacity"),
    )
    return {
        "converged": report.converged,
        "iterations": report.iterations,
        "sizes": dict(sorted(report.sizes.items())),
        "history": [
            {
                "iteration": step.iteration,
                "sizes": dict(sorted(step.sizes.items())),
                "misses": dict(sorted(step.misses.items())),
                "alarms": dict(sorted(step.alarms.items())),
            }
            for step in report.history
        ],
    }


def _run_verify(program, params: Dict[str, Any]) -> Dict[str, Any]:
    """``verify``: a "``never`` is never present" obligation, answered by
    :func:`repro.mc.harness.never_present_verdicts`.

    Params: ``never`` (signal, default ``alarm``), ``backend``
    (``explicit``/``symbolic``/``bounded``/``compose``), ``int_values``,
    ``always`` / ``never_input`` (pinned inputs), ``max_states``
    (explicit and compose, default 20000), ``depth`` (bounded, default
    6), ``contracts`` (compose).

    The store, when enabled, is threaded into the backends, so
    exploration intermediates (compiled LTSs, symbolic fixpoints) persist
    even across *different* obligations on the same design; the verdict
    itself is stored by :func:`execute`, as the job's envelope.
    """
    from repro.mc.harness import never_present_verdicts

    never = params.get("never", "alarm")
    backend = params.get("backend", "explicit")
    verdict = next(never_present_verdicts(
        program,
        backend,
        [never],
        int_values=tuple(_as_list(params.get("int_values")) or (0, 1)),
        always_present=tuple(_as_list(params.get("always"))),
        never_present=tuple(_as_list(params.get("never_input"))),
        max_states=int(params.get("max_states", 20000)),
        depth=int(params.get("depth", 6)),
        contracts=params.get("contracts"),
        store=default_store(),
    ))
    ce = verdict.counterexample
    return {
        "backend": backend,
        "never": never,
        "verdict": verdict.verdict,
        **verdict.figures,
        "counterexample": None if ce is None else ce.render(),
    }


def _run_prove(program, params: Dict[str, Any]) -> Dict[str, Any]:
    """``prove``: the static flow-equivalence prover.

    Params: ``rates`` (list of ``name:word`` assumptions — enables the
    affine inductive path), ``capacities`` (int or ``{signal: n}``),
    ``backend`` (``auto``/``affine``/``explicit``/``symbolic``/
    ``compose``), ``fifo`` (``direct``/``boolean``), ``backpressure``
    (``{component: input}``), ``int_values`` / ``always`` /
    ``never_input`` / ``max_states`` (product alphabet and bounds).

    The certificate is also store-cached inside
    :func:`repro.prove.prove_flow_equivalence` (kind
    ``prove-certificate``, which the CLI reads as well), so a job whose
    envelope is not stored still reuses a certificate proved under the
    same assumptions.
    """
    from repro.lint import parse_rates
    from repro.prove import prove_flow_equivalence

    capacities = params.get("capacities", 1)
    if not isinstance(capacities, int):
        capacities = {k: int(v) for k, v in dict(capacities).items()}
    cert = prove_flow_equivalence(
        program,
        rates=parse_rates(_as_list(params.get("rates"))),
        capacities=capacities,
        backend=params.get("backend", "auto"),
        int_values=tuple(_as_list(params.get("int_values")) or (0, 1)),
        always=tuple(_as_list(params.get("always"))),
        never_input=tuple(_as_list(params.get("never_input"))),
        max_states=int(params.get("max_states", 20000)),
        read_requests=params.get("read_requests"),
        fifo=params.get("fifo", "direct"),
        backpressure=params.get("backpressure"),
        store=default_store(),
    )
    return cert.to_dict()


def _run_soak(program, params: Dict[str, Any]) -> Dict[str, Any]:
    """``soak``: seeded fault injection against the zero-fault reference.

    Params: fault rates (``drop``/``duplicate``/``reorder``/``window``/
    ``jitter``/``corrupt``/``stall``/``stall_period``), ``seed``,
    ``horizon`` (default 12), and the steady-workload periods
    ``period`` / ``reader_period``.
    """
    from repro.faults import soak, uniform_plan
    from repro.workloads import scenarios

    plan = uniform_plan(
        seed=int(params.get("seed", 0)),
        drop=float(params.get("drop", 0.0)),
        duplicate=float(params.get("duplicate", 0.0)),
        reorder=float(params.get("reorder", 0.0)),
        window=int(params.get("window", 2)),
        jitter=float(params.get("jitter", 0.0)),
        corrupt=float(params.get("corrupt", 0.0)),
        stall=float(params.get("stall", 0.0)),
        stall_period=float(params.get("stall_period", 1.0)),
    )
    workload = scenarios.steady(
        producer_period=int(params.get("period", 1)),
        reader_period=int(params.get("reader_period", 1)),
    )
    report = soak(program, workload, plan, horizon=float(params.get("horizon", 12.0)))
    return {
        "flow_equivalent": report.flow_equivalent,
        "classification": dict(sorted(report.classification.items())),
        "fault_counts": {
            k: v
            for k, v in sorted(report.fault_counts.items())
            if isinstance(v, (int, bool))
        },
    }


_HANDLERS = {
    "lint": _run_lint,
    "estimate": _run_estimate,
    "verify": _run_verify,
    "prove": _run_prove,
    "soak": _run_soak,
}
