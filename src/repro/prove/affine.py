"""The inductive flow-equivalence argument over affine clock words.

When every channel clock of a deployment is derivable from the assumed
input rates (the affine/endochronous case), flow equivalence reduces to
an occupancy induction per channel edge:

1. the clock calculus (:func:`repro.clocks.calculus.extract_constraints`)
   pins each signal's clock to a word of the rate assumptions
   (:func:`repro.lint.bounds.infer_clock_words`);
2. the channel's occupancy automaton — writes at the producer's word,
   reads at the request word, a read succeeding iff the count at the
   instant start is positive — is ultimately periodic, so iterating it
   until a hyperperiod boundary state repeats *is* the induction: the
   peak occupancy over base prefix plus one cycle bounds every instant
   (:func:`repro.lint.bounds.channel_bound`);
3. peak <= capacity implies the deployed FIFO
   (:func:`repro.desync.fifo.n_fifo_direct`) never rejects a write: its
   accept rule is ``count < n or read-this-instant``, so the first
   rejection would need the unrejecting occupancy to exceed ``n`` —
   impossible when the peak is within the capacity.  No rejected write
   plus FIFO order preservation gives per-signal flow equality.

Conversely, if the peak exceeds the capacity (or the writer's long-run
rate exceeds the reader's, so no finite capacity suffices), the *first*
instant the unrejecting occupancy would exceed the capacity is exactly
the first alarm of the deployment — :func:`overflow_instant` computes
it, and the prover turns it into a replayable witness stimulus.

:func:`channel_edge_words` also hosts the producer-to-consumer delivered
sweep shared with ``repro.lint``'s GALS003/004/005 rules: a node fed by
exactly one channel fires at that channel's *delivered* word, so
multi-hop pipelines propagate rates hop by hop.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import ReproError
from repro.clocks.calculus import extract_constraints
from repro.clocks.hierarchy import analyze_clocks
from repro.lang.analysis import flatten_program, shared_signals
from repro.lang.ast import Program
from repro.lint.bounds import (
    PeriodicWord,
    channel_bound,
    delivered_reads,
    infer_clock_words,
)

#: per-edge status values
BOUNDED = "bounded"
UNBOUNDED = "unbounded"
UNKNOWN = "unknown"


class EdgeWords(NamedTuple):
    """Clock words and occupancy bound of one channel edge."""

    signal: str
    producer: str
    consumer: str
    write: Optional[PeriodicWord]   # None when underivable
    read: Optional[PeriodicWord]
    bound: Optional[int]            # peak occupancy; None unless bounded
    status: str                     # BOUNDED / UNBOUNDED / UNKNOWN


def _read_word(
    rates: Mapping[str, PeriodicWord], signal: str, consumer: str
) -> PeriodicWord:
    read = rates.get("{}_rreq".format(signal))
    if read is None:
        read = rates.get("{}_{}_rreq".format(signal, consumer))
    if read is None:
        # data-driven consumer: reads whenever data can arrive
        read = PeriodicWord.always()
    return read


def channel_edge_words(
    program: Program, rates: Mapping[str, PeriodicWord]
) -> List[EdgeWords]:
    """Write/read words and occupancy bound for every channel edge.

    Performs the producer-to-consumer delivered sweep: a consumer fed by
    exactly one channel fires at that channel's delivered word; edges on
    consumption cycles (request/response) fall back to the synchronous
    clock word once the fixpoint stalls.
    """
    try:
        flat = flatten_program(program)
    except ReproError:
        return []
    words = infer_clock_words(flat, rates)
    shared = [s for s in shared_signals(program) if s.producers]
    edges = [(s, c) for s in shared for c in s.consumers]
    keys = {(s.name, c) for s, c in edges}
    consumed_by: Dict[str, List[Tuple[str, str]]] = {}
    for s, c in edges:
        consumed_by.setdefault(c, []).append((s.name, c))
    delivered: Dict[Tuple[str, str], PeriodicWord] = {}
    failed: set = set()
    results: Dict[Tuple[str, str], EdgeWords] = {}

    pending = list(edges)
    settled = False
    while pending:
        progress = False
        deferred = []
        for s, consumer in pending:
            producer = s.producers[0]
            upstream = [k for k in consumed_by.get(producer, ()) if k in keys]
            write = None
            if len(upstream) == 1 and not settled:
                (up,) = upstream
                if up in delivered:
                    write = delivered[up]
                elif up not in failed:
                    deferred.append((s, consumer))
                    continue
            if write is None:
                write = words.get(s.name)
            progress = True
            key = (s.name, consumer)
            if write is None:
                failed.add(key)
                results[key] = EdgeWords(
                    s.name, producer, consumer, None, None, None, UNKNOWN
                )
                continue
            read = _read_word(rates, s.name, consumer)
            bound = channel_bound(write, read)
            if bound is None:
                results[key] = EdgeWords(
                    s.name, producer, consumer, write, read, None, UNBOUNDED
                )
            else:
                delivered[key] = delivered_reads(write, read)
                results[key] = EdgeWords(
                    s.name, producer, consumer, write, read, bound, BOUNDED
                )
        pending = deferred
        if not progress:
            settled = True  # break consumption cycles: synchronous words
    return [results[(s.name, c)] for s, c in edges if (s.name, c) in results]


def overflow_instant(
    write: PeriodicWord, read: PeriodicWord, capacity: int, horizon: int = 4096
) -> Optional[int]:
    """First instant the deployed FIFO of ``capacity`` raises its alarm.

    Steps the exact accept rule of :func:`repro.desync.fifo.n_fifo_direct`
    (a write is accepted iff ``count < capacity`` at the instant start or
    a read succeeds this very instant); up to the first rejection the
    FIFO's occupancy equals the unrejecting automaton's, so the instant
    returned is exact.  ``None`` when no overflow occurs within
    ``horizon`` instants (which, past the hyperperiod induction of
    :func:`~repro.lint.bounds.channel_bound`, means never).
    """
    count = 0
    for t in range(horizon):
        rd = read.at(t) and count > 0
        wr = write.at(t)
        if wr and count >= capacity and not rd:
            return t
        count += int(wr) - int(rd)
        if count > capacity:  # accepted same-instant write into freed slot
            count = capacity
    return None


class AffineAnalysis(NamedTuple):
    """Outcome of the inductive path over one program."""

    edges: Tuple[EdgeWords, ...]
    constraints: int          # size of the clock-constraint base
    endochronous: bool        # clocks determined by inputs alone
    rated_inputs: Tuple[str, ...]

    @property
    def complete(self) -> bool:
        """Every edge's words were derivable (no UNKNOWN edges)."""
        return all(e.status != UNKNOWN for e in self.edges)

    def refuted_edges(self, capacities: Mapping[str, int]) -> List[EdgeWords]:
        """Edges whose occupancy provably exceeds the deployed capacity."""
        out = []
        for e in self.edges:
            if e.status == UNBOUNDED:
                out.append(e)
            elif e.status == BOUNDED:
                cap = capacities.get(e.signal)
                if cap is not None and e.bound > cap:
                    out.append(e)
        return out


def affine_flow_analysis(
    program: Program, rates: Mapping[str, PeriodicWord]
) -> AffineAnalysis:
    """Run the inductive path: constraints, endochrony, per-edge bounds."""
    try:
        flat = flatten_program(program)
        constraints = len(extract_constraints(flat))
        analysis = analyze_clocks(flat)
        free = set(analysis.free)
    except ReproError:
        constraints = 0
        free = None
    edges = tuple(channel_edge_words(program, rates))
    rated = tuple(sorted(rates))
    # endochronous *under the rate assumptions*: every clock the inputs
    # leave free is pinned by an assumed word
    endo = free is not None and all(name in rates for name in free)
    return AffineAnalysis(edges, constraints, endo, rated)
