"""Explicit-state model-checking backend.

The paper relies on the Polychrony/Sigali toolkit to verify that "no alarm
signal is raised" (Section 5.2).  This package rebuilds that capability:

- :mod:`repro.mc.lts` — labeled transition systems over reaction labels;
- :mod:`repro.mc.compile` — compilation of finite-state Signal components
  into an LTS by exhaustive reaction enumeration (state = the ``pre``
  registers, letters = input presence/value combinations);
- :mod:`repro.mc.safety` — invariant checking with counterexample input
  sequences, signal-reachability queries, deadlock detection;
- :mod:`repro.mc.equiv` — trace equivalence and bisimulation between
  compiled designs;
- :mod:`repro.mc.store` — persistent, content-addressed cache of
  compiled LTSs, symbolic fixpoints and verdicts (warm re-verification);
- :mod:`repro.mc.compose` — assume-guarantee decomposition along
  GALS/FIFO boundaries with per-channel contracts;
- :mod:`repro.mc.harness` — the one dispatch of ``never <signal>`` to
  any of the four backends, and the cross-backend self-check.
"""

from repro.mc.lts import LTS, Transition
from repro.mc.compile import boolean_alphabet, compile_lts, input_alphabet
from repro.mc.safety import (
    CounterExample,
    check_invariant,
    check_never_present,
    find_reaction_error,
    reachable_outputs,
)
from repro.mc.equiv import bisimulation_classes, trace_equivalent
from repro.mc.temporal import (
    Lasso,
    ResponseVerdict,
    check_response,
    find_lasso,
    inevitable,
)
from repro.mc.reduce import quotient
from repro.mc.bmc import BMCResult, bounded_check, bounded_never_present
from repro.mc.bdd import BDD
from repro.mc.harness import (
    BackendVerdict,
    CrossCheckReport,
    cross_check_never_present,
    never_present_verdicts,
)
from repro.mc.symbolic import SymbolicChecker
from repro.mc.store import MCStore, default_store, store_key
from repro.mc.compose import (
    AlternatingBitContract,
    ChannelContract,
    ComposeCertificate,
    FreeContract,
    LocalCheck,
    verify_composed,
)
from repro.mc.lts import lts_from_dict, lts_to_dict

__all__ = [
    "LTS",
    "Transition",
    "boolean_alphabet",
    "compile_lts",
    "input_alphabet",
    "CounterExample",
    "check_invariant",
    "check_never_present",
    "find_reaction_error",
    "reachable_outputs",
    "bisimulation_classes",
    "trace_equivalent",
    "Lasso",
    "ResponseVerdict",
    "check_response",
    "find_lasso",
    "inevitable",
    "quotient",
    "BMCResult",
    "bounded_check",
    "bounded_never_present",
    "BDD",
    "SymbolicChecker",
    "BackendVerdict",
    "CrossCheckReport",
    "cross_check_never_present",
    "never_present_verdicts",
    "MCStore",
    "default_store",
    "store_key",
    "AlternatingBitContract",
    "ChannelContract",
    "ComposeCertificate",
    "FreeContract",
    "LocalCheck",
    "verify_composed",
    "lts_from_dict",
    "lts_to_dict",
]
