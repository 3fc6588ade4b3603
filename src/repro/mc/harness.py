"""One dispatch for the ``never <signal>`` obligation, and the
cross-backend self-check built on it.

The paper checks a desynchronized design with one model-checking
obligation: the instrumented FIFOs' alarm is never present (Section
5.2).  :func:`never_present_verdicts` is the only code that builds and
queries a backend for it; ``repro verify``, the service's ``verify``
jobs, the prover's model-checking path and the cross-check below all
call it, and so should any differential suite over the backends:

- ``"explicit"``: :func:`repro.mc.compile.compile_lts` +
  :func:`repro.mc.safety.check_never_present`, reachable-set enumeration;
- ``"symbolic"``: :class:`repro.mc.symbolic.SymbolicChecker`, BDD image
  computation over boolean designs;
- ``"bounded"``: :func:`repro.mc.bmc.bounded_never_present`, a pruned
  depth-limited search (agreement is exact whenever ``depth`` covers
  the shortest counterexample);
- ``"compose"``: :func:`repro.mc.compose.verify_composed`, the
  assume-guarantee decomposition, monolithic-identical by construction.

The signal must be an input or output of the flattened design.  The
backends observe different signal sets (the explicit LTS keeps only the
interface, the BDD encoding every signal), so any other name raises
:class:`~repro.errors.VerificationError` rather than get a different
answer from each.

:func:`cross_check_never_present` runs one obligation on several
backends.  Explicit and symbolic share no machinery, so identical
verdicts are a strong self-check: a bug would have to hit both the same
way to go unnoticed.  :attr:`CrossCheckReport.agree` is the gate CI and
the recovery soak assert on.
"""

from __future__ import annotations

from typing import (
    Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.errors import VerificationError
from repro.lang.analysis import flatten_program

#: the backends :func:`never_present_verdicts` dispatches to
BACKENDS = ("explicit", "symbolic", "bounded", "compose")

#: the figure each backend reports as its explored size
_SIZE = {
    "explicit": "states",
    "symbolic": "states",
    "bounded": "explored",
    "compose": "largest_check_states",
}


class BackendVerdict(NamedTuple):
    """One backend's answer to ``never <signal>``."""

    backend: str                 # one of BACKENDS
    signal: str
    verdict: str                 # "proven" | "refuted" | "safe_up_to_bound"
    counterexample: object       # Optional[CounterExample]
    # explicit: states, transitions; symbolic: states, iterations;
    # bounded: depth, explored; compose: method, checks, largest_check_states
    figures: Dict[str, Any]

    @property
    def holds(self) -> bool:
        return self.verdict != "refuted"

    @property
    def states(self) -> int:
        """States the backend visited: reactions explored for bounded,
        the largest local check for compose."""
        return self.figures[_SIZE[self.backend]]

    @property
    def ce_length(self) -> Optional[int]:
        if self.counterexample is None:
            return None
        return len(self.counterexample.inputs)


class CrossCheckReport(NamedTuple):
    """All backends' verdicts on one safety obligation."""

    signal: str
    verdicts: Tuple[BackendVerdict, ...]

    @property
    def agree(self) -> bool:
        return len({v.holds for v in self.verdicts}) == 1

    @property
    def holds(self) -> bool:
        """Property verified — and every backend concurs."""
        return self.agree and self.verdicts[0].holds

    def verdict(self, backend: str) -> BackendVerdict:
        for v in self.verdicts:
            if v.backend == backend:
                return v
        raise KeyError(backend)

    def require_agreement(self) -> "CrossCheckReport":
        if not self.agree:
            raise VerificationError(
                "backends disagree on never-{}: {}".format(
                    self.signal,
                    {v.backend: v.holds for v in self.verdicts},
                )
            )
        return self

    def render(self) -> str:
        lines = ["never {}:".format(self.signal)]
        for v in self.verdicts:
            status = "HOLDS" if v.holds else "refuted (CE length {})".format(
                v.ce_length
            )
            lines.append(
                "  {:<9} {} [{} states]".format(v.backend, status, v.states)
            )
        lines.append(
            "  agreement: {}".format("yes" if self.agree else "NO — INVESTIGATE")
        )
        return "\n".join(lines)


def never_present_verdicts(
    design,
    backend: str,
    signals: Sequence[str],
    alphabet: Optional[List[Dict[str, object]]] = None,
    int_values: Sequence[int] = (0, 1),
    always_present: Sequence[str] = (),
    never_present: Sequence[str] = (),
    max_states: int = 200000,
    depth: int = 12,
    contracts=None,
    store=None,
) -> Iterator[BackendVerdict]:
    """Answer ``never <signal>`` on one backend, for each of ``signals``.

    ``design`` is a :class:`~repro.lang.ast.Program` or a component;
    compose cuts a program along its channels and checks a component
    monolithically, and the other backends check the flattening that the
    program keeps.  ``alphabet`` is the input alphabet, prebuilt or
    derived from ``int_values``/``always_present``/``never_present`` as
    :func:`repro.mc.compile.input_alphabet` does; compose derives one
    per sub-check from those options and ignores ``alphabet``.
    ``max_states`` bounds explicit exploration (compose's
    sub-checks included), ``depth`` the bounded search, ``contracts``
    names compose's channel contracts, and ``store``
    (:mod:`repro.mc.store`) persists the explicit, symbolic and compose
    intermediates.

    The backend name, then the signals, are checked before anything
    runs: an unknown backend raises :class:`ValueError`, a signal that is
    not an input or output of the flattened design raises
    :class:`~repro.errors.VerificationError`.  The returned iterator does
    the work.  It builds the explicit LTS or the symbolic checker with
    the first verdict and queries it once per signal, so a caller may
    stop at its first violated obligation.  Each symbolic verdict folds
    the BDD manager's counts since the previous one into
    :data:`repro.perf.PERF` (:meth:`repro.mc.bdd.BDD.cache_stats`).
    """
    if backend not in BACKENDS:
        raise ValueError("unknown backend {!r}".format(backend))
    signals = list(signals)
    _require_interface(design, signals)

    def check_composed() -> Iterator[BackendVerdict]:
        from repro.mc.compose import verify_composed

        for signal in signals:
            cert = verify_composed(
                design, signal, contracts=contracts, int_values=int_values,
                always_present=always_present, never_present=never_present,
                max_states=max_states, store=store,
            )
            yield BackendVerdict(
                "compose", signal, cert.verdict, cert.counterexample,
                {
                    "method": cert.method,
                    "checks": cert.num_checks,
                    "largest_check_states": cert.largest_check_states,
                },
            )

    def check_flat(alphabet) -> Iterator[BackendVerdict]:
        from repro.mc.compile import input_alphabet

        flat = flatten_program(design)
        if alphabet is None:
            alphabet = input_alphabet(
                flat, int_values=int_values, always_present=always_present,
                never_present=never_present,
            )
        if backend == "bounded":
            from repro.mc.bmc import bounded_never_present

            for signal in signals:
                res = bounded_never_present(
                    flat, signal, depth=depth, alphabet=alphabet
                )
                yield BackendVerdict(
                    "bounded",
                    signal,
                    "safe_up_to_bound" if res.safe_up_to_bound else "refuted",
                    res.counterexample,
                    {"depth": depth, "explored": res.explored},
                )
            return
        if backend == "explicit":
            from repro.mc.compile import compile_lts
            from repro.mc.safety import check_never_present

            lts = compile_lts(
                flat, alphabet=alphabet, max_states=max_states, store=store
            )
            query = lambda signal: check_never_present(lts, signal)
            figures = lambda: {
                "states": lts.num_states(),
                "transitions": lts.num_transitions(),
            }
        else:
            from repro.mc.symbolic import SymbolicChecker

            chk = SymbolicChecker(flat, alphabet=alphabet, store=store)

            def query(signal):
                ce = chk.check_never_present(signal)
                chk.bdd.cache_stats()
                return ce

            figures = lambda: {
                "states": chk.state_count(),
                "iterations": chk.iterations,
            }
        counted = None
        for signal in signals:
            ce = query(signal)
            if counted is None:
                # taken once, after the first query has run the fixpoint
                counted = figures()
            yield BackendVerdict(
                backend, signal, "proven" if ce is None else "refuted", ce,
                counted,
            )

    if backend == "compose":
        return check_composed()
    return check_flat(alphabet)


def _require_interface(design, signals: List[str]) -> None:
    """Raise unless every signal is an input or output of the flattened
    design."""
    flat = flatten_program(design)
    stray = [s for s in signals if s not in flat.interface()]
    if stray:
        raise VerificationError(
            "never {}: not an input or output of design {!r}".format(
                ", ".join(repr(s) for s in stray), flat.name
            )
        )


def cross_check_never_present(
    design,
    signal: str,
    alphabet: Optional[List[Dict[str, object]]] = None,
    backends: Sequence[str] = ("explicit", "symbolic"),
    max_states: int = 200000,
    depth: int = 12,
    int_values: Sequence[int] = (0, 1),
    always_present: Sequence[str] = (),
    never_present: Sequence[str] = (),
    contracts=None,
    store=None,
) -> CrossCheckReport:
    """Check ``never <signal>`` on every backend; never short-circuits.

    The options mean what they mean for :func:`never_present_verdicts`.
    When ``"compose"`` takes part, pass the alphabet options and leave
    ``alphabet`` unset, so every backend sees the same environment.
    """
    options = dict(
        alphabet=alphabet, int_values=int_values,
        always_present=always_present, never_present=never_present,
        max_states=max_states, depth=depth, contracts=contracts, store=store,
    )
    return CrossCheckReport(signal, tuple(
        next(never_present_verdicts(design, backend, [signal], **options))
        for backend in backends
    ))
