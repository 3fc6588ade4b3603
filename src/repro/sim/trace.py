"""Recorded simulation runs, convertible to tagged behaviors."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.tags.behavior import Behavior
from repro.tags.trace import SignalTrace


class SimTrace:
    """An instant-by-instant record of a reactor run.

    Each entry holds the values of every signal *present* at that instant
    (inputs included); absent signals are missing from the entry.  The
    instant index is the tag when converting to a
    :class:`~repro.tags.behavior.Behavior`, so equivalence checks from
    :mod:`repro.tags` apply directly to simulation output.  A trace holds
    rows only: the work that produced it is counted in
    :data:`repro.perf.PERF`.
    """

    def __init__(self, instants: Optional[Iterable[Dict[str, object]]] = None):
        self.instants: List[Dict[str, object]] = [
            dict(row) for row in (instants or [])
        ]

    def append(self, row: Dict[str, object]) -> None:
        self.instants.append(dict(row))

    def __len__(self) -> int:
        return len(self.instants)

    def __getitem__(self, i: int) -> Dict[str, object]:
        return self.instants[i]

    def signals(self) -> List[str]:
        names = set()
        for row in self.instants:
            names.update(row)
        return sorted(names)

    def values(self, name: str) -> List[object]:
        """The flow of ``name``: its values at the instants it is present."""
        return [row[name] for row in self.instants if name in row]

    def presence_count(self, name: str) -> int:
        return sum(1 for row in self.instants if name in row)

    def trace_of(self, name: str) -> SignalTrace:
        return SignalTrace(
            (t, row[name]) for t, row in enumerate(self.instants) if name in row
        )

    def behavior(self, names: Optional[Sequence[str]] = None) -> Behavior:
        """Convert (a projection of) the run into a tagged behavior."""
        if names is None:
            names = self.signals()
        return Behavior({n: self.trace_of(n) for n in names})

    def render(self, columns: Optional[Sequence[str]] = None) -> str:
        """ASCII trace table in the style of Figure 2 of the paper."""
        return self.behavior(columns).render(columns)

    def __repr__(self) -> str:
        return "SimTrace({} instants, {} signals)".format(
            len(self.instants), len(self.signals())
        )
