"""Persistent, content-addressed store for verification intermediates.

Every expensive model-checking artifact is a deterministic function of
(design content, obligation, backend, parameters).  This module gives
those artifacts a home on disk, so a warm re-verification — a CI rerun, a
second ``repro.service`` server lifetime, an estimator loop revisiting
the same design — pays a hash and a JSON read instead of a state-space
exploration:

- compiled LTSs from :func:`repro.mc.compile.compile_lts` (serialized by
  :func:`repro.mc.lts.lts_to_dict`);
- BDD transition partitions and reachable-set fixpoints from
  :class:`repro.mc.symbolic.SymbolicChecker` (serialized by
  :meth:`repro.mc.bdd.BDD.dump`);
- final ``verify`` verdicts from the service runner and the compose
  layer (:mod:`repro.mc.compose`).

Addressing reuses the exact canonical-JSON recipe of
:mod:`repro.service.jobs`: a key is the sha256 of
``{"kind", "design", "params"}`` where ``design`` is the content hash of
the resolved program.  A one-token design edit therefore changes the
key, and no stale artifact can ever be served (tested by the service
invalidation suite).

Layout and durability
---------------------

Entries live under ``<root>/<key[:2]>/<key>.json`` wrapped in an
envelope carrying a format stamp (:data:`STORE_FORMAT`) and the kind.
Writes go through a same-directory temp file plus :func:`os.replace`, so
concurrent readers (and a crash mid-write) only ever see complete
entries.  A byte-size cap is enforced LRU-by-mtime after each put
(reads refresh mtime); an entry that does not decode to an envelope of
the current format and the requested kind (truncated, garbage, stale)
is a miss and is unlinked.  Counters are exported through
:data:`repro.perf.PERF` as ``mc.store.hits`` / ``mc.store.misses`` /
``mc.store.puts`` / ``mc.store.evictions`` / ``mc.store.errors``.

Enablement: pass a root path explicitly, or set the ``REPRO_MC_STORE``
environment variable to a directory and call :func:`default_store`
(returns ``None`` when unset — every integration point treats a ``None``
store as "caching off").  ``REPRO_MC_STORE_LIMIT`` overrides the byte
cap (default 256 MiB).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from typing import Any, Dict, Optional

from repro.perf import PERF
from repro.service.jobs import canonical_json, _sha256

#: format stamp of the on-disk envelope; bumping it invalidates every
#: existing entry at once (they read back as misses and are dropped)
STORE_FORMAT = "mc-store-v1"

#: default LRU byte cap (override per store or via REPRO_MC_STORE_LIMIT)
DEFAULT_LIMIT_BYTES = 256 * 1024 * 1024

#: environment gate: path of the store root; unset means no store
STORE_ENV = "REPRO_MC_STORE"
LIMIT_ENV = "REPRO_MC_STORE_LIMIT"


def design_content_key(design) -> str:
    """Content hash of a Component/Program — identical for structurally
    equal designs, the same recipe :func:`repro.service.jobs.design_key`
    applies to resolved job designs."""
    from repro.lang.ast import Component, Program
    from repro.lang.serializer import component_to_dict, program_to_dict

    if isinstance(design, Program):
        payload = program_to_dict(design)
    elif isinstance(design, Component):
        payload = component_to_dict(design)
    else:
        raise TypeError("cannot key {!r}".format(type(design).__name__))
    return _sha256(canonical_json(payload))


def store_key(kind: str, design_key: str, params: Dict[str, Any]) -> str:
    """The content address of one artifact: kind + design content +
    every parameter that can change the result (and nothing else)."""
    return _sha256(
        canonical_json({"kind": kind, "design": design_key, "params": params})
    )


class MCStore:
    """Content-addressed on-disk cache of verification intermediates."""

    def __init__(self, root: str, limit_bytes: Optional[int] = None) -> None:
        self.root = os.path.abspath(root)
        if limit_bytes is None:
            limit_bytes = int(os.environ.get(LIMIT_ENV, DEFAULT_LIMIT_BYTES))
        if limit_bytes < 1:
            raise ValueError("store limit must be >= 1 byte")
        self.limit_bytes = limit_bytes
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.errors = 0
        os.makedirs(self.root, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    # -- core ----------------------------------------------------------------

    def get(self, key: str, kind: Optional[str] = None) -> Optional[Any]:
        """The stored payload for ``key``, or ``None`` (counted as a
        miss).  ``kind`` (when given) must match the entry's kind — a
        mismatch is a miss, never a wrong answer."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                envelope = json.load(fh)
        except OSError:
            self._miss()
            return None
        except ValueError:  # truncated or undecodable
            envelope = None
        if not (
            isinstance(envelope, dict)
            and envelope.get("format") == STORE_FORMAT
            and (kind is None or envelope.get("kind") == kind)
        ):
            # corrupt, stale format or kind collision: drop it and miss
            self._remove(path)
            self._miss()
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        with self._lock:
            self.hits += 1
        PERF.incr("mc.store.hits")
        return envelope.get("payload")

    def put(self, key: str, kind: str, payload: Any) -> None:
        """Atomically persist ``payload`` under ``key``; then enforce the
        byte cap by evicting least-recently-used entries."""
        path = self._path(key)
        envelope = {"format": STORE_FORMAT, "kind": kind, "payload": payload}
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(envelope, fh, sort_keys=True, separators=(",", ":"))
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            with self._lock:
                self.errors += 1
            PERF.incr("mc.store.errors")
            return
        with self._lock:
            self.puts += 1
        PERF.incr("mc.store.puts")
        self._enforce_limit()

    # -- maintenance ---------------------------------------------------------

    def _entries(self):
        """Every entry as ``(mtime, size, path)``, oldest first."""
        out = []
        try:
            shards = os.listdir(self.root)
        except OSError:
            return out
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            try:
                names = os.listdir(shard_dir)
            except OSError:
                continue
            for name in names:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                out.append((st.st_mtime, st.st_size, path))
        out.sort()
        return out

    def _enforce_limit(self) -> None:
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        for _, size, path in entries:
            if total <= self.limit_bytes:
                break
            if self._remove(path):
                total -= size
                with self._lock:
                    self.evictions += 1
                PERF.incr("mc.store.evictions")

    def prune(self, limit_bytes: Optional[int] = None) -> int:
        """Evict LRU entries down to ``limit_bytes`` (default: the
        store's cap); returns the number evicted."""
        before = self.evictions
        if limit_bytes is not None:
            old, self.limit_bytes = self.limit_bytes, max(1, int(limit_bytes))
            try:
                self._enforce_limit()
            finally:
                self.limit_bytes = old
        else:
            self._enforce_limit()
        return self.evictions - before

    def clear(self) -> int:
        """Drop every entry (statistics survive); returns count removed."""
        removed = 0
        for _, _, path in self._entries():
            if self._remove(path):
                removed += 1
        return removed

    def _remove(self, path: str) -> bool:
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    def _miss(self) -> None:
        with self._lock:
            self.misses += 1
        PERF.incr("mc.store.misses")

    # -- reporting -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        entries = self._entries()
        lookups = self.hits + self.misses
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "limit_bytes": self.limit_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "errors": self.errors,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }


# -- process-wide default -----------------------------------------------------

_default_lock = threading.Lock()
_default: Optional[MCStore] = None
_default_root: Optional[str] = None


def default_store() -> Optional[MCStore]:
    """The store named by ``REPRO_MC_STORE``, or ``None`` when unset.

    One instance per process per root, so counters accumulate across the
    service handlers, the CLI and the benches alike; changing the
    environment variable mid-process switches (and re-creates) it.
    """
    global _default, _default_root
    root = os.environ.get(STORE_ENV)
    if not root:
        return None
    with _default_lock:
        if _default is None or _default_root != root:
            _default = MCStore(root)
            _default_root = root
        return _default


def global_stats() -> Dict[str, Any]:
    """Process-wide ``mc.store.*`` counter snapshot (from the perf
    registry, so it covers every store instance this process touched),
    plus the default store's on-disk footprint when one is enabled."""
    out: Dict[str, Any] = {
        "enabled": bool(os.environ.get(STORE_ENV)),
        "hits": int(PERF.get("mc.store.hits")),
        "misses": int(PERF.get("mc.store.misses")),
        "puts": int(PERF.get("mc.store.puts")),
        "evictions": int(PERF.get("mc.store.evictions")),
        "errors": int(PERF.get("mc.store.errors")),
    }
    store = default_store()
    if store is not None:
        out["root"] = store.root
        out["entries"] = store.stats()["entries"]
    return out
