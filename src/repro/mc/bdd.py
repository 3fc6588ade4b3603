"""Reduced Ordered Binary Decision Diagrams.

A compact, dependency-free ROBDD package in the style of Bryant's
original: hash-consed nodes, memoized operations, existential
quantification, a fused AND-exists (the relational product at the heart
of partitioned image computation), variable renaming and
satisfying-assignment extraction — everything the Sigali-style symbolic
backend (:mod:`repro.mc.symbolic`) needs.

Nodes are integers: ``0`` (false), ``1`` (true), and internal ids
indexing a table of ``(level, low, high)`` triples.  Variable *levels*
are allocated through :meth:`BDD.variable`; lower level = nearer the
root.  All operations belong to a :class:`BDD` manager; mixing nodes from
different managers is undefined.

Engine notes
------------

- Every core operation (``ite``, ``exists``, ``and_exists``, ``rename``,
  ``restrict``, ``sat_count``) runs on an explicit stack, so formulas
  over thousands of variables never hit Python's recursion ceiling.
- The variable order is fixed at registration: :meth:`BDD.variable`
  appends each new name below every existing one, so a node's level
  never changes.  Callers choose the order by registration sequence
  (the symbolic backend registers in dataflow order).
- :meth:`gc` is a mark-and-sweep collector over *pinned roots*
  (:meth:`pin` / :meth:`unpin`).  Nothing is ever freed unless ``gc`` is
  called, so managers that never collect behave exactly like the
  classic append-only table.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.perf import PERF

FALSE = 0
TRUE = 1

#: bound on the operation cache; at ~100 bytes/entry this caps the cache
#: near 100 MB before a flush
APPLY_CACHE_LIMIT = 1 << 20

#: a level strictly below every real level (terminals sort last)
_NO_LEVEL = 1 << 30

_CALL, _JOIN, _QLOW, _FIX = 0, 1, 2, 3


class BDD:
    """A BDD manager (node table + caches + variable registry).

    The operation caches (memoized ``ite``/``exists``/``and_exists``
    results, one namespace per operation) are bounded *collectively*:
    once they hold :data:`APPLY_CACHE_LIMIT` entries they are flushed
    wholesale — the classic BDD-package policy; flushing only costs
    recomputation, never correctness, because the caches are pure memos
    over hash-consed nodes.  Hit/miss/flush counts are kept per manager;
    :meth:`cache_stats` reports them and folds them into
    :data:`repro.perf.PERF`.
    """

    def __init__(self):
        # node id -> (level, low, high); ids 0/1 are terminals; freed
        # slots hold None until _mk reuses them
        self._nodes: List[Optional[Tuple[int, int, int]]] = [(-1, 0, 0), (-1, 1, 1)]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._caches: Dict[str, Dict] = {}
        self._cache_entries = 0
        self._free: List[int] = []
        self._pins: Dict[int, int] = {}
        self._names: List[str] = []          # level -> name
        self._level_of: Dict[str, int] = {}
        self.apply_hits = 0
        self.apply_misses = 0
        self.cache_clears = 0
        self.gc_collections = 0
        self.gc_reclaimed = 0
        self._perf_base: Dict[str, int] = {}

    # -- operation caches ---------------------------------------------------

    def _cache(self, namespace: str) -> Dict:
        cache = self._caches.get(namespace)
        if cache is None:
            cache = self._caches[namespace] = {}
        return cache

    def _cache_store(self, cache: Dict, key, out: int) -> None:
        if self._cache_entries >= APPLY_CACHE_LIMIT:
            self.clear_apply_cache()
        cache[key] = out
        self._cache_entries += 1

    def clear_apply_cache(self) -> None:
        """Drop every memoized operation result (node table is kept)."""
        for cache in self._caches.values():
            cache.clear()
        self._cache_entries = 0
        self.cache_clears += 1

    def cache_stats(self) -> Dict[str, int]:
        """Engine statistics; also folds the counts accumulated since the
        previous call into :data:`repro.perf.PERF` (``bdd.`` prefix).

        Monotone counters (``apply_hits`` / ``apply_misses`` /
        ``cache_clears`` / ``gc_collections`` / ``gc_reclaimed``) are
        merged as deltas; gauges (``apply_cache_size``, ``node_count``)
        are reported here only.
        """
        stats = {
            "apply_hits": self.apply_hits,
            "apply_misses": self.apply_misses,
            "cache_clears": self.cache_clears,
            "apply_cache_size": sum(len(c) for c in self._caches.values()),
            "node_count": self.node_count(),
            "gc_collections": self.gc_collections,
            "gc_reclaimed": self.gc_reclaimed,
        }
        monotone = (
            "apply_hits", "apply_misses", "cache_clears",
            "gc_collections", "gc_reclaimed",
        )
        delta = {
            name: stats[name] - self._perf_base.get(name, 0)
            for name in monotone
        }
        PERF.merge(delta, prefix="bdd")
        self._perf_base = {name: stats[name] for name in monotone}
        return stats

    # -- variables ----------------------------------------------------------

    def variable(self, name: str) -> int:
        """The node testing ``name`` (registering it on first use)."""
        level = self._level_of.get(name)
        if level is None:
            level = len(self._names)
            self._names.append(name)
            self._level_of[name] = level
        return self._mk(level, FALSE, TRUE)

    def level(self, name: str) -> int:
        return self._level_of[name]

    def var_count(self) -> int:
        return len(self._names)

    def node_count(self) -> int:
        """Live nodes (terminals included, freed slots excluded)."""
        return len(self._nodes) - len(self._free)

    def order(self) -> List[str]:
        """The current variable order, root-most first."""
        return list(self._names)

    # -- structure ----------------------------------------------------------

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            free = self._free
            if free:
                node = free.pop()
                self._nodes[node] = key
            else:
                node = len(self._nodes)
                self._nodes.append(key)
            self._unique[key] = node
        return node

    # -- garbage collection --------------------------------------------------

    def pin(self, f: int) -> int:
        """Protect ``f`` (and its cone) from :meth:`gc`; returns ``f``."""
        if f > 1:
            self._pins[f] = self._pins.get(f, 0) + 1
        return f

    def unpin(self, f: int) -> None:
        """Drop one pin on ``f`` (pins nest)."""
        if f > 1:
            count = self._pins.get(f, 0) - 1
            if count <= 0:
                self._pins.pop(f, None)
            else:
                self._pins[f] = count

    def gc(self, roots: Iterable[int] = ()) -> int:
        """Mark-and-sweep over the pinned roots (plus ``roots``).

        Returns the number of reclaimed nodes.  Every node id not
        reachable from a pin or a passed root becomes invalid — callers
        holding nodes across a collection must pin them.  All operation
        caches are flushed (they may reference reclaimed ids).
        """
        nodes = self._nodes
        stack = [r for r in self._pins if r > 1]
        stack.extend(r for r in roots if r > 1)
        marked = set()
        while stack:
            n = stack.pop()
            if n <= 1 or n in marked:
                continue
            marked.add(n)
            triple = nodes[n]
            stack.append(triple[1])
            stack.append(triple[2])
        reclaimed = 0
        free = self._free
        unique = self._unique
        for nid in range(2, len(nodes)):
            triple = nodes[nid]
            if triple is None or nid in marked:
                continue
            del unique[triple]
            nodes[nid] = None
            free.append(nid)
            reclaimed += 1
        if reclaimed:
            self.clear_apply_cache()
        self.gc_collections += 1
        self.gc_reclaimed += reclaimed
        return reclaimed

    # -- core operations ----------------------------------------------------

    @staticmethod
    def _ite_terminal(f: int, g: int, h: int) -> Optional[int]:
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        return None

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f ? g : h`` — the universal connective."""
        out = self._ite_terminal(f, g, h)
        if out is not None:
            return out
        return self._ite(f, g, h)

    def _ite(self, f: int, g: int, h: int) -> int:
        nodes = self._nodes
        cache = self._cache("ite")
        terminal = self._ite_terminal
        vals: List[int] = []
        tasks: List[Tuple] = [(_CALL, f, g, h)]
        while tasks:
            frame = tasks.pop()
            if frame[0] == _CALL:
                _, f, g, h = frame
                out = terminal(f, g, h)
                if out is not None:
                    vals.append(out)
                    continue
                key = (f, g, h)
                hit = cache.get(key)
                if hit is not None:
                    self.apply_hits += 1
                    vals.append(hit)
                    continue
                self.apply_misses += 1
                lf = nodes[f][0]
                lg = nodes[g][0] if g > 1 else _NO_LEVEL
                lh = nodes[h][0] if h > 1 else _NO_LEVEL
                top = lf if lf < lg else lg
                if lh < top:
                    top = lh
                if lf == top:
                    _, f0, f1 = nodes[f]
                else:
                    f0 = f1 = f
                if lg == top:
                    _, g0, g1 = nodes[g]
                else:
                    g0 = g1 = g
                if lh == top:
                    _, h0, h1 = nodes[h]
                else:
                    h0 = h1 = h
                tasks.append((_JOIN, key, top))
                tasks.append((_CALL, f1, g1, h1))
                tasks.append((_CALL, f0, g0, h0))
            else:
                _, key, top = frame
                high = vals.pop()
                low = vals[-1]
                out = low if low == high else self._mk(top, low, high)
                self._cache_store(cache, key, out)
                vals[-1] = out
        return vals[0]

    def _and(self, f: int, g: int) -> int:
        out = self._ite_terminal(f, g, FALSE)
        return out if out is not None else self._ite(f, g, FALSE)

    def _or(self, f: int, g: int) -> int:
        out = self._ite_terminal(f, TRUE, g)
        return out if out is not None else self._ite(f, TRUE, g)

    def NOT(self, f: int) -> int:
        return self.ite(f, FALSE, TRUE)

    def AND(self, *fs: int) -> int:
        out = TRUE
        for f in fs:
            out = self.ite(out, f, FALSE)
            if out == FALSE:
                return FALSE
        return out

    def OR(self, *fs: int) -> int:
        out = FALSE
        for f in fs:
            out = self.ite(out, TRUE, f)
            if out == TRUE:
                return TRUE
        return out

    def XOR(self, f: int, g: int) -> int:
        return self.ite(f, self.NOT(g), g)

    def IFF(self, f: int, g: int) -> int:
        return self.ite(f, g, self.NOT(g))

    def IMPLIES(self, f: int, g: int) -> int:
        return self.ite(f, g, TRUE)

    # -- quantification / substitution -------------------------------------

    def exists(self, names: Sequence[str], f: int) -> int:
        """∃ names . f"""
        levels = tuple(sorted(self._level_of[n] for n in names))
        return self._exists(levels, f)

    def _exists(self, levels: Tuple[int, ...], f: int) -> int:
        if f <= 1 or not levels:
            return f
        nodes = self._nodes
        cache = self._cache("exists")
        vals: List[int] = []
        tasks: List[Tuple] = [(_CALL, levels, f)]
        while tasks:
            frame = tasks.pop()
            tag = frame[0]
            if tag == _CALL:
                _, levels, f = frame
                if f <= 1:
                    vals.append(f)
                    continue
                level = nodes[f][0]
                i = 0
                n_levels = len(levels)
                while i < n_levels and levels[i] < level:
                    i += 1
                remaining = levels[i:] if i else levels
                if not remaining:
                    vals.append(f)
                    continue
                key = (remaining, f)
                hit = cache.get(key)
                if hit is not None:
                    self.apply_hits += 1
                    vals.append(hit)
                    continue
                self.apply_misses += 1
                _, low, high = nodes[f]
                if level == remaining[0]:
                    rest = remaining[1:]
                    tasks.append((_QLOW, key, rest, high))
                    tasks.append((_CALL, rest, low))
                else:
                    tasks.append((_JOIN, key, level, False))
                    tasks.append((_CALL, remaining, high))
                    tasks.append((_CALL, remaining, low))
            elif tag == _QLOW:
                _, key, rest, high_node = frame
                low = vals.pop()
                if low == TRUE:
                    # early exit: the disjunction is already saturated
                    self._cache_store(cache, key, TRUE)
                    vals.append(TRUE)
                else:
                    tasks.append((_JOIN, key, low, True))
                    tasks.append((_CALL, rest, high_node))
            else:
                _, key, aux, quantified = frame
                high = vals.pop()
                if quantified:
                    out = self._or(aux, high)
                else:
                    low = vals.pop()
                    out = low if low == high else self._mk(aux, low, high)
                self._cache_store(cache, key, out)
                vals.append(out)
        return vals[0]

    def and_exists(self, names: Sequence[str], f: int, g: int) -> int:
        """``∃ names . (f ∧ g)`` without materializing ``f ∧ g``.

        The fused relational product: conjunction and quantification run
        in one recursion, so the intermediate peak that ``AND`` followed
        by ``exists`` would build never exists.  This is the primitive
        partitioned image computation reduces to.
        """
        levels = tuple(sorted(self._level_of[n] for n in names))
        return self._and_exists(levels, f, g)

    def _and_exists(self, levels: Tuple[int, ...], f: int, g: int) -> int:
        nodes = self._nodes
        cache = self._cache("and_exists")
        vals: List[int] = []
        tasks: List[Tuple] = [(_CALL, levels, f, g)]
        while tasks:
            frame = tasks.pop()
            tag = frame[0]
            if tag == _CALL:
                _, levels, f, g = frame
                if f == FALSE or g == FALSE:
                    vals.append(FALSE)
                    continue
                if f == TRUE:
                    vals.append(self._exists(levels, g))
                    continue
                if g == TRUE or f == g:
                    vals.append(self._exists(levels, f))
                    continue
                if not levels:
                    vals.append(self._and(f, g))
                    continue
                if g < f:
                    f, g = g, f
                lf = nodes[f][0]
                lg = nodes[g][0]
                top = lf if lf < lg else lg
                i = 0
                n_levels = len(levels)
                while i < n_levels and levels[i] < top:
                    i += 1
                remaining = levels[i:] if i else levels
                if not remaining:
                    vals.append(self._and(f, g))
                    continue
                key = (remaining, f, g)
                hit = cache.get(key)
                if hit is not None:
                    self.apply_hits += 1
                    vals.append(hit)
                    continue
                self.apply_misses += 1
                if lf == top:
                    _, f0, f1 = nodes[f]
                else:
                    f0 = f1 = f
                if lg == top:
                    _, g0, g1 = nodes[g]
                else:
                    g0 = g1 = g
                if top == remaining[0]:
                    rest = remaining[1:]
                    tasks.append((_QLOW, key, rest, f1, g1))
                    tasks.append((_CALL, rest, f0, g0))
                else:
                    tasks.append((_JOIN, key, top, False))
                    tasks.append((_CALL, remaining, f1, g1))
                    tasks.append((_CALL, remaining, f0, g0))
            elif tag == _QLOW:
                _, key, rest, f1, g1 = frame
                low = vals.pop()
                if low == TRUE:
                    self._cache_store(cache, key, TRUE)
                    vals.append(TRUE)
                else:
                    tasks.append((_JOIN, key, low, True))
                    tasks.append((_CALL, rest, f1, g1))
            else:
                _, key, aux, quantified = frame
                high = vals.pop()
                if quantified:
                    out = self._or(aux, high)
                else:
                    low = vals.pop()
                    out = low if low == high else self._mk(aux, low, high)
                self._cache_store(cache, key, out)
                vals.append(out)
        return vals[0]

    def rename(self, mapping: Dict[str, str], f: int) -> int:
        """Substitute variables by variables (e.g. next-state -> state).

        Implemented by compose-with-variable; the mapping must be a
        partial injection and may reorder levels arbitrarily.
        """
        if not mapping:
            return f
        pairs = {
            self._level_of[a]: self.variable(b) for a, b in mapping.items()
        }
        nodes = self._nodes
        cache: Dict[int, int] = {}
        vals: List[int] = []
        tasks: List[Tuple] = [(_CALL, f)]
        while tasks:
            frame = tasks.pop()
            if frame[0] == _CALL:
                n = frame[1]
                if n <= 1:
                    vals.append(n)
                    continue
                hit = cache.get(n)
                if hit is not None:
                    vals.append(hit)
                    continue
                level, low, high = nodes[n]
                tasks.append((_JOIN, n, level))
                tasks.append((_CALL, high))
                tasks.append((_CALL, low))
            else:
                _, n, level = frame
                high = vals.pop()
                low = vals.pop()
                var = pairs.get(level)
                if var is None:
                    var = self._mk(level, FALSE, TRUE)
                out = self._ite_terminal(var, high, low)
                if out is None:
                    out = self._ite(var, high, low)
                cache[n] = out
                vals.append(out)
        return vals[0]

    def restrict(self, assignment: Dict[str, bool], f: int) -> int:
        """Partial evaluation: fix some variables to constants."""
        fixed = {self._level_of[n]: v for n, v in assignment.items()}
        nodes = self._nodes
        cache: Dict[int, int] = {}
        vals: List[int] = []
        tasks: List[Tuple] = [(_CALL, f)]
        while tasks:
            frame = tasks.pop()
            tag = frame[0]
            if tag == _CALL:
                n = frame[1]
                if n <= 1:
                    vals.append(n)
                    continue
                hit = cache.get(n)
                if hit is not None:
                    vals.append(hit)
                    continue
                level, low, high = nodes[n]
                if level in fixed:
                    tasks.append((_FIX, n))
                    tasks.append((_CALL, high if fixed[level] else low))
                else:
                    tasks.append((_JOIN, n, level))
                    tasks.append((_CALL, high))
                    tasks.append((_CALL, low))
            elif tag == _FIX:
                cache[frame[1]] = vals[-1]
            else:
                _, n, level = frame
                high = vals.pop()
                low = vals.pop()
                out = low if low == high else self._mk(level, low, high)
                cache[n] = out
                vals.append(out)
        return vals[0]

    # -- serialization -------------------------------------------------------

    #: format stamp carried by every :meth:`dump` payload; :meth:`load`
    #: rejects anything else, so on-disk caches can never feed a newer
    #: engine a stale encoding
    DUMP_FORMAT = "bdd-v1"

    def dump(self, roots: Sequence[int]) -> Dict[str, object]:
        """Serialize the cones of ``roots`` to a JSON-safe dict.

        Nodes are keyed by *variable name*, not level: the loading
        manager may have registered its variables in another order, so
        names are the only stable identity.  The node list is in
        bottom-up topological order (children precede parents);
        references are ``0``/``1`` for the terminals and ``k + 2`` for
        the ``k``-th list entry.  The dumping manager's variable order
        rides along so a fresh manager can reproduce it.
        """
        nodes = self._nodes
        index: Dict[int, int] = {}
        entries: List[List[object]] = []
        # iterative post-order: children are emitted before their parent
        for root in roots:
            if root <= 1 or root in index:
                continue
            stack: List[Tuple[int, bool]] = [(root, False)]
            while stack:
                node, expanded = stack.pop()
                if node <= 1 or node in index:
                    continue
                level, low, high = nodes[node]
                if expanded:
                    lo = low if low <= 1 else index[low] + 2
                    hi = high if high <= 1 else index[high] + 2
                    index[node] = len(entries)
                    entries.append([self._names[level], lo, hi])
                else:
                    stack.append((node, True))
                    stack.append((high, False))
                    stack.append((low, False))
        refs = [r if r <= 1 else index[r] + 2 for r in roots]
        return {
            "format": self.DUMP_FORMAT,
            "order": list(self._names),
            "nodes": entries,
            "roots": refs,
        }

    def load(self, payload: Dict[str, object]) -> List[int]:
        """Rebuild a :meth:`dump` payload in *this* manager.

        Reconstruction goes bottom-up through :meth:`ite` on the named
        variables, so it is correct under any current variable order (the
        result is simply re-canonicalized).  Unregistered variables are
        registered in the dumped order first; a manager that already
        holds the same registration order — e.g. a fresh
        :class:`~repro.mc.symbolic.SymbolicChecker` on the same design —
        therefore reproduces the exact hash-consed structure.  Returned
        roots are **not** pinned; callers holding them across a
        :meth:`gc` must pin them.
        """
        if payload.get("format") != self.DUMP_FORMAT:
            raise ValueError(
                "unsupported BDD dump format {!r} (want {!r})".format(
                    payload.get("format"), self.DUMP_FORMAT
                )
            )
        for name in payload.get("order", ()):
            self.variable(name)
        built: List[int] = []

        def ref(r: int) -> int:
            return r if r <= 1 else built[r - 2]

        for name, lo, hi in payload["nodes"]:
            built.append(self.ite(self.variable(name), ref(hi), ref(lo)))
        return [ref(r) for r in payload["roots"]]

    # -- inspection ----------------------------------------------------------

    def any_sat(self, f: int) -> Optional[Dict[str, bool]]:
        """One satisfying assignment (variables not mentioned are free)."""
        if f == FALSE:
            return None
        out: Dict[str, bool] = {}
        node = f
        while node > 1:
            level, low, high = self._nodes[node]
            if high != FALSE:
                out[self._names[level]] = True
                node = high
            else:
                out[self._names[level]] = False
                node = low
        return out

    def sat_count(self, f: int, n_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``n_vars`` variables.

        ``n_vars=None`` counts over *every variable registered with the
        manager at call time* — a count taken before registering further
        variables halves relative to one taken after, so callers that
        compare counts should pass ``n_vars`` explicitly (``state_count``
        in the symbolic checker does).
        """
        if n_vars is None:
            n_vars = len(self._names)
        if f == FALSE:
            return 0
        if f == TRUE:
            return 1 << n_vars
        nodes = self._nodes
        # cache: node -> (count over vars below its level, level)
        cache: Dict[int, Tuple[int, int]] = {}
        stack = [f]
        while stack:
            n = stack.pop()
            if n <= 1 or n in cache:
                continue
            level, low, high = nodes[n]
            missing = False
            if low > 1 and low not in cache:
                if not missing:
                    stack.append(n)
                    missing = True
                stack.append(low)
            if high > 1 and high not in cache:
                if not missing:
                    stack.append(n)
                    missing = True
                stack.append(high)
            if missing:
                continue
            cl, ll = cache[low] if low > 1 else (low, n_vars)
            ch, lh = cache[high] if high > 1 else (high, n_vars)
            cache[n] = (
                cl * (1 << (ll - level - 1)) + ch * (1 << (lh - level - 1)),
                level,
            )
        count, level = cache[f]
        return count * (1 << level)

    def support(self, f: int) -> frozenset:
        """The variables ``f`` actually depends on."""
        seen = set()
        out = set()
        stack = [f]
        while stack:
            n = stack.pop()
            if n <= 1 or n in seen:
                continue
            seen.add(n)
            level, low, high = self._nodes[n]
            out.add(self._names[level])
            stack.append(low)
            stack.append(high)
        return frozenset(out)
