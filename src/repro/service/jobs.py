"""Job specs, states and content-addressed keys for the verification service.

A job is ``(kind, design, params, priority)``:

- ``kind`` is one of :data:`JOB_KINDS` — ``lint`` (static desync-safety
  analysis), ``estimate`` (the Section 5.2 buffer-size loop), ``verify``
  (a "signal never present" obligation on the explicit, symbolic or
  bounded backend), ``prove`` (the static flow-equivalence prover of
  :mod:`repro.prove`, returning a ``prove-cert-v1`` certificate) and
  ``soak`` (seeded fault injection co-simulated against the zero-fault
  reference);
- ``design`` names what to check: a constructor in :mod:`repro.designs`
  (``"producer_consumer"``), a constructor with arguments
  (``{"name": "pipeline", "args": {"stages": 4}}``) or an inline program
  in the canonical serialized form of :mod:`repro.lang.serializer`
  (``{"program": {...}}``);
- ``params`` is a JSON dict of kind-specific knobs (see
  :mod:`repro.service.runner`);
- ``priority`` orders the queue — higher runs earlier, FIFO within a
  priority band.  It does **not** enter the job key: priority changes
  scheduling, never the result.

Content addressing: :func:`design_key` is
:func:`repro.lang.serializer.content_key` of the *resolved program* (its
canonical serialization, identity and source spans ignored), and
:func:`job_key` is :func:`repro.mc.store.store_key` of kind, design key
and params — one recipe for job results and store entries.  Two
submissions of structurally equal designs with equal parameters
therefore share one key, which is what makes serving repeats and
in-flight coalescing sound.  The key is taken once per job: the
scheduler keys a job at submit, looks it up in its job table and, for
the kinds whose envelopes the store keeps, in the store (a
``job-result`` entry under this same key), and hands the key to the
worker with the dispatched job.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional, Tuple

from repro.lang.serializer import canonical_json, content_key, digest

JOB_KINDS = ("lint", "estimate", "verify", "prove", "soak")

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

JOB_STATES = (PENDING, RUNNING, DONE, FAILED, CANCELLED)

#: states a job can never leave
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


class JobSpec(NamedTuple):
    """One verification job, as submitted."""

    kind: str
    design: Any
    params: Dict[str, Any]
    priority: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "design": self.design,
            "params": dict(self.params),
            "priority": self.priority,
        }


def spec_from_dict(d: Dict[str, Any]) -> JobSpec:
    """Validate and normalize a job dict into a :class:`JobSpec`."""
    if not isinstance(d, dict):
        raise ValueError("job spec must be a dict, not {!r}".format(type(d).__name__))
    kind = d.get("kind")
    if kind not in JOB_KINDS:
        raise ValueError(
            "unknown job kind {!r}: want one of {}".format(kind, "/".join(JOB_KINDS))
        )
    design = d.get("design")
    if design is None:
        raise ValueError("job spec needs a design")
    params = d.get("params") or {}
    if not isinstance(params, dict):
        raise ValueError("job params must be a dict")
    priority = int(d.get("priority", 0))
    return JobSpec(kind, design, params, priority)


# -- design resolution --------------------------------------------------------

# bounded per-process memo: resolving a design parses/constructs an AST,
# and the same corpus entries recur across thousands of jobs
_MEMO_CAPACITY = 256
_design_memo: Dict[str, Any] = {}


def resolve_program(design: Any):
    """Materialize a job's ``design`` field into a :class:`Program`."""
    from repro.lang.ast import Component, Program

    memo_key = canonical_json(design)
    cached = _design_memo.get(memo_key)
    if cached is not None:
        return cached

    if isinstance(design, str):
        name, args = design, {}
    elif isinstance(design, dict) and "program" in design:
        from repro.lang.serializer import program_from_dict

        program = program_from_dict(design["program"])
        return _memoize(memo_key, program)
    elif isinstance(design, dict) and "name" in design:
        name = design["name"]
        args = design.get("args") or {}
        if not isinstance(args, dict):
            raise ValueError("design args must be a dict")
    else:
        raise ValueError("bad design {!r}: want a corpus name, "
                         "{{'name':..., 'args':...}} or {{'program': ...}}"
                         .format(design))

    from repro import designs

    factory = getattr(designs, name, None)
    if factory is None or name.startswith("_") or not callable(factory):
        raise ValueError("unknown design {!r} (no such constructor in "
                         "repro.designs)".format(name))
    built = factory(**args)
    if isinstance(built, Component):
        built = Program(built.name, [built])
    if not isinstance(built, Program):
        raise ValueError("design {!r} did not build a Program".format(name))
    return _memoize(memo_key, built)


def _memoize(key: str, program):
    if len(_design_memo) >= _MEMO_CAPACITY:
        _design_memo.clear()
    _design_memo[key] = program
    return program


def design_key(design: Any) -> str:
    """Content hash of the resolved design: equal for structurally equal
    programs regardless of how the spec named them."""
    return content_key(resolve_program(design))


def job_key(spec: JobSpec) -> str:
    """The content address results are served under: the store key of
    kind, design content and parameters.  Priority is deliberately
    excluded."""
    from repro.mc.store import store_key

    return store_key(spec.kind, design_key(spec.design), spec.params)


def result_digest(result: Any) -> str:
    """Digest of a job's result payload; the byte-identity benchmarks and
    the smoke gate compare these across worker counts."""
    return digest(result)
