"""Stimulus constructors.

A *stimulus* is an iterable of per-instant input maps ``{name: value}``;
signals missing from a map are absent that instant.  Constructors compose
with :func:`merge`, so each input's arrival pattern is described
independently::

    stim = merge(periodic("tick", 1), bursty("msgin", burst=3, gap=2,
                                             values=counter()))

:func:`stimulus_factory` parses the CLI's ``--stim`` grammar (also the
service's ``stim`` job parameter) into a factory of such stimuli.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, Iterator, Optional, Sequence


def counter(start: int = 0, step: int = 1) -> Iterator[int]:
    """0, 1, 2, ... — handy distinguishable payloads."""
    return itertools.count(start, step)


def rows(entries: Sequence[Dict[str, object]]) -> Iterator[Dict[str, object]]:
    """A finite stimulus given literally, one map per instant."""
    return iter([dict(e) for e in entries])


def silence() -> Iterator[Dict[str, object]]:
    """No input ever."""
    return itertools.repeat({})


def periodic(
    name: str,
    period: int,
    values: Optional[Iterable[object]] = None,
    phase: int = 0,
) -> Iterator[Dict[str, object]]:
    """``name`` present every ``period`` instants starting at ``phase``.

    ``values`` supplies payloads (default: ``True``, i.e. an event tick).
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    vals = iter(values) if values is not None else itertools.repeat(True)
    for t in itertools.count():
        if t >= phase and (t - phase) % period == 0:
            yield {name: next(vals)}
        else:
            yield {}


def bursty(
    name: str,
    burst: int,
    gap: int,
    values: Optional[Iterable[object]] = None,
    phase: int = 0,
) -> Iterator[Dict[str, object]]:
    """``burst`` consecutive arrivals then ``gap`` silent instants, repeating."""
    if burst < 1 or gap < 0:
        raise ValueError("burst must be >= 1 and gap >= 0")
    vals = iter(values) if values is not None else itertools.repeat(True)
    cycle = burst + gap
    for t in itertools.count():
        if t >= phase and (t - phase) % cycle < burst:
            yield {name: next(vals)}
        else:
            yield {}


def bernoulli(
    name: str,
    p: float,
    values: Optional[Iterable[object]] = None,
    seed: Optional[int] = None,
) -> Iterator[Dict[str, object]]:
    """``name`` present each instant independently with probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = random.Random(seed)
    vals = iter(values) if values is not None else itertools.repeat(True)
    while True:
        if rng.random() < p:
            yield {name: next(vals)}
        else:
            yield {}


def merge(*stimuli: Iterable[Dict[str, object]]) -> Iterator[Dict[str, object]]:
    """Superpose stimuli instant by instant (disjoint names per instant).

    Stops with the shortest finite constituent.
    """
    for maps in zip(*stimuli):
        row: Dict[str, object] = {}
        for m in maps:
            overlap = set(row) & set(m)
            if overlap:
                raise ValueError(
                    "stimuli collide on {} in one instant".format(sorted(overlap))
                )
            row.update(m)
        yield row


def take(stimulus: Iterable[Dict[str, object]], n: int):
    """The first ``n`` instants of a stimulus, as a list."""
    return list(itertools.islice(stimulus, n))


def stimulus_factory(specs: Iterable[str]):
    """A zero-argument factory for the CLI-style stimulus grammar
    ``name:period[:phase[:value]]`` (value ``true``/``false``/int/
    ``count``); no specs means silence.

    Specs are parsed here, so a malformed one raises :class:`ValueError`
    naming it before any stimulus is built."""
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
                values = counter()
            else:
                values = itertools.repeat(value)
            parts.append(periodic(name, period, values=values, phase=phase))
        if not parts:
            return silence()
        return merge(*parts)

    return build
