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
- flow-equivalence certificates from
  :func:`repro.prove.prove_flow_equivalence`;
- the result envelopes of the service's ``verify`` and ``prove`` jobs
  (kind ``job-result``, under the job key; :mod:`repro.service.runner`),
  which a new server lifetime serves at submit.

Addressing: a key (:func:`store_key`) is the
:func:`~repro.lang.serializer.digest` of ``{"kind", "design",
"params"}``, where ``design`` is the content hash of the design
(:func:`repro.lang.serializer.content_key`); the service keys its jobs
with the same two functions (:func:`repro.service.jobs.job_key`).  A
one-token design edit therefore changes the key, and no stale artifact
can ever be served (tested by the service invalidation suite).

Layout and durability
---------------------

Entries live under ``<root>/<key[:2]>/<key>.json`` wrapped in an
envelope carrying a format stamp (:data:`STORE_FORMAT`) and the kind,
encoded as one :func:`repro.lang.serializer.canonical_json` string.
Writes go through a same-directory temp file plus :func:`os.replace`, so
concurrent readers (and a crash mid-write) only ever see complete
entries.  An entry that does not decode to an envelope of the current
format and the requested kind (truncated, garbage, stale), or whose
payload the caller's check refuses, is a miss and is unlinked.

A byte-size cap is enforced LRU-by-mtime (reads refresh mtime).  The
byte total of the entries lives in a ledger file at the root
(:data:`LEDGER_NAME`), shared by every process and thread that opens
the store: each rename or unlink of an entry happens under an exclusive
``flock`` of the ledger, and the ledger is updated under the same lock,
so the cap holds across the worker processes of one service.  A put
therefore costs the same however many entries the store holds; the
store lists its entries only when the total passes the cap (then it
evicts down to the cap and rewrites the exact total), or to rebuild a
ledger that is missing or unreadable.

Counters live only in :data:`repro.perf.PERF`, as ``mc.store.hits`` /
``mc.store.misses`` / ``mc.store.puts`` / ``mc.store.evictions`` /
``mc.store.errors``, so they cover every instance and every job scope
alike; :meth:`MCStore.stats` reports the on-disk footprint, and a
caller that wants the counts of one call reads them from a
:meth:`~repro.perf.PerfCounters.scope` around it.

Enablement: pass a root path explicitly, or set the ``REPRO_MC_STORE``
environment variable to a directory and call :func:`default_store`
(returns ``None`` when unset — every integration point treats a ``None``
store as "caching off").  ``REPRO_MC_STORE_LIMIT`` overrides the byte
cap (default 256 MiB).
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import tempfile
import threading
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.lang.serializer import canonical_json, digest
from repro.perf import PERF

#: format stamp of the on-disk envelope; bumping it invalidates every
#: existing entry at once (they read back as misses and are dropped)
STORE_FORMAT = "mc-store-v1"

#: name of the byte ledger at the store root: the byte total of every
#: entry as one zero-padded decimal line of fixed width
LEDGER_NAME = "ledger"
_LEDGER_LINE = b"%020d\n"
_LEDGER_BYTES = len(_LEDGER_LINE % 0)

#: default LRU byte cap (override per store or via REPRO_MC_STORE_LIMIT)
DEFAULT_LIMIT_BYTES = 256 * 1024 * 1024

#: environment gate: path of the store root; unset means no store
STORE_ENV = "REPRO_MC_STORE"
LIMIT_ENV = "REPRO_MC_STORE_LIMIT"


def store_key(kind: str, design_key: str, params: Dict[str, Any]) -> str:
    """The content address of one artifact: kind + design content +
    every parameter that can change the result (and nothing else)."""
    return digest({"kind": kind, "design": design_key, "params": params})


class MCStore:
    """Content-addressed on-disk cache of verification intermediates."""

    def __init__(self, root: str, limit_bytes: Optional[int] = None) -> None:
        self.root = os.path.abspath(root)
        if limit_bytes is None:
            limit_bytes = int(os.environ.get(LIMIT_ENV, DEFAULT_LIMIT_BYTES))
        if limit_bytes < 1:
            raise ValueError("store limit must be >= 1 byte")
        self.limit_bytes = limit_bytes
        os.makedirs(self.root, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    # -- core ----------------------------------------------------------------

    def get(
        self,
        key: str,
        kind: Optional[str] = None,
        accept: Optional[Callable[[Any], bool]] = None,
    ) -> Optional[Any]:
        """The stored payload for ``key``, or ``None`` (counted as a
        miss).  ``kind`` (when given) must match the entry's kind, and
        ``accept`` (when given) must return true for the payload — a
        mismatch is a miss, never a wrong answer."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                envelope = json.load(fh)
        except OSError:
            PERF.incr("mc.store.misses")
            return None
        except ValueError:  # truncated or undecodable
            envelope = None
        if not (
            isinstance(envelope, dict)
            and envelope.get("format") == STORE_FORMAT
            and (kind is None or envelope.get("kind") == kind)
            and (accept is None or accept(envelope.get("payload")))
        ):
            # corrupt, stale format, kind collision or a payload the
            # caller refuses: drop it and miss
            self._drop(path)
            PERF.incr("mc.store.misses")
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        PERF.incr("mc.store.hits")
        return envelope.get("payload")

    def put(self, key: str, kind: str, payload: Any) -> None:
        """Atomically persist ``payload`` under ``key``, add its net size
        to the ledger and, when the total passes the byte cap, evict
        least-recently-used entries down to it."""
        path = self._path(key)
        # one C-encoder call; json.dump would stream the same bytes
        # through the pure-Python encoder
        data = canonical_json(
            {"format": STORE_FORMAT, "kind": kind, "payload": payload}
        ).encode("utf-8")
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                with self._ledger() as ledger:
                    try:
                        replaced = os.stat(path).st_size
                    except FileNotFoundError:
                        replaced = 0
                    os.replace(tmp, path)
                    ledger.total += len(data) - replaced
                    if ledger.total > self.limit_bytes:
                        ledger.total, _ = self._evict(self.limit_bytes)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            PERF.incr("mc.store.errors")
            return
        PERF.incr("mc.store.puts")

    # -- the byte ledger -----------------------------------------------------

    @contextlib.contextmanager
    def _ledger(self) -> Iterator[SimpleNamespace]:
        """Lock the ledger for one read-modify-write.

        Yields a namespace whose ``total`` is the recorded byte total,
        rebuilt by one scan when the file is missing or unreadable, and
        writes ``total`` back when the block completes.  Every change to
        the set of entries happens inside such a block.  The file is
        opened anew each time: an ``flock`` belongs to the open file
        description, which a forked child shares.  For the same reason
        the lock is released explicitly, not by closing: a child forked
        during the block holds a duplicate of the descriptor."""
        fd = os.open(
            os.path.join(self.root, LEDGER_NAME), os.O_RDWR | os.O_CREAT, 0o644
        )
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                raw = os.pread(fd, 2 * _LEDGER_BYTES, 0)
                if (len(raw) == _LEDGER_BYTES and raw.endswith(b"\n")
                        and raw[:-1].isdigit()):
                    ledger = SimpleNamespace(total=int(raw))
                else:
                    ledger = SimpleNamespace(
                        total=sum(size for _, size, _ in self._entries())
                    )
                yield ledger
                line = _LEDGER_LINE % ledger.total
                os.pwrite(fd, line, 0)
                os.ftruncate(fd, len(line))
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

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

    def _evict(self, limit: int) -> Tuple[int, int]:
        """Unlink least-recently-used entries until at most ``limit``
        bytes remain; returns the bytes left and the number evicted.
        Runs inside a ledger block, so the scan's sizes are current."""
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for _, size, path in entries:
            if total <= limit:
                break
            if self._remove(path):
                total -= size
                evicted += 1
        if evicted:
            PERF.incr("mc.store.evictions", evicted)
        return total, evicted

    def prune(self, limit_bytes: Optional[int] = None) -> int:
        """Evict LRU entries down to ``limit_bytes`` (default: the
        store's cap, which this never changes); returns the number
        evicted."""
        limit = self.limit_bytes
        if limit_bytes is not None:
            limit = max(1, int(limit_bytes))
        try:
            with self._ledger() as ledger:
                ledger.total, evicted = self._evict(limit)
        except OSError:
            PERF.incr("mc.store.errors")
            return 0
        return evicted

    def clear(self) -> int:
        """Drop every entry; returns the number removed."""
        removed = 0
        try:
            with self._ledger() as ledger:
                ledger.total = 0
                for _, size, path in self._entries():
                    if self._remove(path):
                        removed += 1
                    else:
                        ledger.total += size
        except OSError:
            PERF.incr("mc.store.errors")
        return removed

    def _drop(self, path: str) -> None:
        """Unlink a corrupt entry and take its size off the ledger; on a
        ledger error the entry stays until a put overwrites it."""
        try:
            with self._ledger() as ledger:
                size = os.stat(path).st_size
                if self._remove(path):
                    ledger.total -= size
        except OSError:
            pass

    def _remove(self, path: str) -> bool:
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    # -- reporting -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The on-disk footprint (the counts are ``mc.store.*`` in
        :data:`repro.perf.PERF`)."""
        entries = self._entries()
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "limit_bytes": self.limit_bytes,
        }


# -- process-wide default -----------------------------------------------------

_default_lock = threading.Lock()
_default: Optional[MCStore] = None
_default_root: Optional[str] = None


def default_store() -> Optional[MCStore]:
    """The store named by ``REPRO_MC_STORE``, or ``None`` when unset.

    One instance per process per root, shared by the service handlers,
    the CLI and the benches alike (its counts are ``mc.store.*`` in
    :data:`repro.perf.PERF`, whichever instance made them); changing the
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
