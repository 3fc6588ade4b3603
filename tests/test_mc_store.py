"""Tests for the persistent verification store (:mod:`repro.mc.store`):
content addressing, the on-disk envelope, LRU eviction, the shared byte
ledger (across instances, threads and forked processes), and warm-path
byte identity for the explicit and symbolic backends."""

import errno
import fcntl
import hashlib
import io
import json
import multiprocessing
import os
import random
import subprocess
import sys
import threading
import time

import pytest

from repro import designs
from repro.mc import (
    MCStore,
    SymbolicChecker,
    check_never_present,
    compile_lts,
    default_store,
    input_alphabet,
    lts_to_dict,
    store_key,
)
from repro.mc.store import LEDGER_NAME, STORE_ENV, STORE_FORMAT
from repro.lang.analysis import flatten_program
from repro.lang.serializer import canonical_json, content_key
from repro.perf import PERF


def key(i):
    """A well-spread 64-hex-digit store key."""
    return hashlib.sha256(str(i).encode()).hexdigest()


def disk_bytes(root):
    """Byte total of the entries under ``root``, by an independent walk."""
    total = 0
    for directory, _, names in os.walk(str(root)):
        for name in names:
            if name.endswith(".json"):
                total += os.path.getsize(os.path.join(directory, name))
    return total


def count(tables, name):
    """One ``mc.store.*`` count of the tables of a ``PERF.scope()``."""
    return tables.counts.get("mc.store." + name, 0)


def ledger_bytes(root):
    with open(os.path.join(str(root), LEDGER_NAME), "rb") as fh:
        return int(fh.read())


def count_scans(monkeypatch):
    """Record every listing of the store's entries from now on."""
    scans = []
    real = MCStore._entries

    def spy(self):
        scans.append(self.root)
        return real(self)

    monkeypatch.setattr(MCStore, "_entries", spy)
    return scans


class TestKeys:
    def test_structurally_equal_designs_share_a_key(self):
        assert content_key(designs.toggle_producer()) == \
            content_key(designs.toggle_producer())
        assert content_key(designs.gals_relay_chain(3)) == \
            content_key(designs.gals_relay_chain(3))

    def test_one_token_edit_changes_the_key(self):
        # same shape, one renamed signal / one changed default
        base = content_key(designs.toggle_producer(out="x"))
        assert base != content_key(designs.toggle_producer(out="y"))
        assert base != content_key(designs.toggle_producer(act="go"))

    def test_kind_and_params_discriminate(self):
        d = content_key(designs.toggle_producer())
        k = store_key("explicit-lts", d, {"alphabet": []})
        assert k != store_key("symbolic-reach", d, {"alphabet": []})
        assert k != store_key("explicit-lts", d, {"alphabet": [{"p_act": True}]})
        assert k == store_key("explicit-lts", d, {"alphabet": []})

    def test_importing_mc_loads_no_service(self):
        """The store keys with the serializer, so a fresh interpreter
        importing :mod:`repro.mc` loads nothing of :mod:`repro.service`."""
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("import sys, repro.mc; "
                "print(sorted(m for m in sys.modules if m.startswith('repro.service')))")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), check=True,
        ).stdout
        assert out.strip() == "[]"


class TestMCStore:
    def test_round_trip(self, tmp_path):
        store = MCStore(str(tmp_path))
        with PERF.scope() as counts:
            store.put("ab" * 32, "verdict", {"holds": True})
            assert store.get("ab" * 32, kind="verdict") == {"holds": True}
        assert count(counts, "hits") == 1 and count(counts, "puts") == 1

    def test_absent_key_is_a_miss(self, tmp_path):
        store = MCStore(str(tmp_path))
        with PERF.scope() as counts:
            assert store.get("cd" * 32) is None
        assert count(counts, "misses") == 1

    def test_kind_mismatch_is_a_miss_and_drops_the_entry(self, tmp_path):
        store = MCStore(str(tmp_path))
        with PERF.scope() as counts:
            store.put("ab" * 32, "verdict", 1)
            assert store.get("ab" * 32, kind="explicit-lts") is None
            # the colliding entry was dropped, not served later
            assert store.get("ab" * 32, kind="verdict") is None
        assert count(counts, "misses") == 2

    def test_stale_format_is_a_miss(self, tmp_path):
        store = MCStore(str(tmp_path))
        store.put("ab" * 32, "verdict", 1)
        path = store._path("ab" * 32)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"format": "mc-store-v0", "kind": "verdict",
                       "payload": 1}, fh)
        assert store.get("ab" * 32, kind="verdict") is None
        assert not os.path.exists(path)

    @pytest.mark.parametrize("raw", [
        b'{"format": "mc-store-v1", "kind": "verdict", "payl',
        b"\x00\xff\xfe\x80 garbage",
        b"[]",
        b"null",
        b'"x"',
        b'{"format": "mc-store-v0", "kind": "verdict", "payload": 1}',
        b'{"format": "mc-store-v1", "kind": "explicit-lts", "payload": 1}',
    ], ids=["truncated", "binary", "list", "null", "string", "format", "kind"])
    def test_corrupt_entry_misses_and_is_removed(self, tmp_path, raw):
        store = MCStore(str(tmp_path))
        key = "ab" * 32
        path = store._path(key)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as fh:
            fh.write(raw)
        with PERF.scope() as counts:
            assert store.get(key, kind="verdict") is None
        assert count(counts, "misses") == 1
        assert not os.path.exists(path)
        store.put(key, "verdict", {"holds": True})
        assert store.get(key, kind="verdict") == {"holds": True}

    def test_envelope_carries_format_stamp(self, tmp_path):
        store = MCStore(str(tmp_path))
        payload = {"x": 1, "b": [2.5, None, "\u00e9"], "a": {"z": True}}
        store.put("ab" * 32, "verdict", payload)
        with open(store._path("ab" * 32), "rb") as fh:
            raw = fh.read()
        envelope = json.loads(raw)
        assert envelope["format"] == STORE_FORMAT
        assert envelope["kind"] == "verdict"
        assert envelope["payload"] == payload
        # byte for byte the canonical JSON of the envelope, which is also
        # what the streaming json.dump of earlier versions wrote, so their
        # stores keep serving
        assert raw == canonical_json(envelope).encode("utf-8")
        streamed = io.StringIO()
        json.dump(envelope, streamed, sort_keys=True, separators=(",", ":"))
        assert raw == streamed.getvalue().encode("utf-8")

    def test_lru_eviction_under_byte_cap(self, tmp_path):
        store = MCStore(str(tmp_path), limit_bytes=1)
        with PERF.scope() as counts:
            store.put("aa" * 32, "verdict", 1)
            store.put("bb" * 32, "verdict", 2)
        # cap of one byte: each put evicts everything older
        assert count(counts, "evictions") >= 1
        assert store.stats()["entries"] <= 1

    def test_get_refreshes_recency(self, tmp_path):
        store = MCStore(str(tmp_path), limit_bytes=10 ** 9)
        store.put("aa" * 32, "verdict", 1)
        store.put("bb" * 32, "verdict", 2)
        entries = store._entries()
        os.utime(store._path("aa" * 32), (1, 1))  # force "aa" oldest
        assert store.get("aa" * 32) == 1          # ...then touch it
        newest = store._entries()[-1][2]
        assert newest == store._path("aa" * 32)
        assert len(entries) == 2

    def test_prune_and_clear(self, tmp_path):
        store = MCStore(str(tmp_path))
        for i in range(4):
            store.put(("%02x" % i) * 32, "verdict", i)
        assert store.prune(limit_bytes=1) >= 3
        store.put("ee" * 32, "verdict", 9)
        assert store.clear() >= 1
        assert store.stats()["entries"] == 0

    def test_stats_shape(self, tmp_path):
        store = MCStore(str(tmp_path))
        with PERF.scope() as counts:
            store.put("aa" * 32, "verdict", 1)
            store.get("aa" * 32)
            store.get("bb" * 32)
        st = store.stats()
        # the footprint on disk; the counts live only in PERF
        assert sorted(st) == ["bytes", "entries", "limit_bytes", "root"]
        assert st["entries"] == 1
        assert count(counts, "hits") == 1 and count(counts, "misses") == 1
        assert count(counts, "puts") == 1
        assert st["root"] == store.root


class TestLedger:
    def test_puts_below_the_cap_never_scan(self, tmp_path, monkeypatch):
        store = MCStore(str(tmp_path), limit_bytes=10 ** 9)
        with PERF.scope() as counts:
            store.put(key(0), "verdict", 0)  # writes the ledger
            scans = count_scans(monkeypatch)
            for i in range(1, 201):
                store.put(key(i), "verdict", {"i": i})
        assert scans == []
        assert count(counts, "puts") == 201
        assert count(counts, "evictions") == 0
        assert ledger_bytes(tmp_path) == disk_bytes(tmp_path)

    def test_ledger_equals_a_scan_after_every_change(self, tmp_path):
        store = MCStore(str(tmp_path))

        def exact():
            return ledger_bytes(tmp_path) == disk_bytes(tmp_path)

        for i in range(6):
            store.put(key(i), "verdict", {"i": i})
            assert exact()
        store.put(key(0), "verdict", "x" * 500)  # overwrite, larger
        assert exact()
        store.put(key(0), "verdict", "x")  # overwrite, smaller
        assert exact()
        # a kind collision and a stale format stamp of the same length
        # are corrupt entries: get drops them
        assert store.get(key(1), kind="explicit-lts") is None
        path = store._path(key(2))
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(raw.replace(STORE_FORMAT.encode(), b"mc-store-v0"))
        assert store.get(key(2), kind="verdict") is None
        assert not os.path.exists(store._path(key(1)))
        assert not os.path.exists(path)
        assert exact()
        assert store.prune(limit_bytes=disk_bytes(tmp_path) - 1) >= 1
        assert exact()
        assert store.clear() >= 1
        assert exact() and ledger_bytes(tmp_path) == 0

    @pytest.mark.parametrize("ledger", [
        None,
        b"",
        b"not a number",
        b"-0000000000000000005\n",
        b"00000000000000000012\ntrailing",
    ], ids=["missing", "empty", "garbage", "negative", "trailing"])
    def test_unreadable_ledger_is_rebuilt_by_one_scan(
        self, tmp_path, monkeypatch, ledger
    ):
        store = MCStore(str(tmp_path))
        for i in range(10):
            store.put(key(i), "verdict", {"i": i})
        path = os.path.join(str(tmp_path), LEDGER_NAME)
        if ledger is None:  # a store written before the ledger existed
            os.unlink(path)
        else:
            with open(path, "wb") as fh:
                fh.write(ledger)
        scans = count_scans(monkeypatch)
        store.put(key(10), "verdict", {"i": 10})
        assert len(scans) == 1
        assert ledger_bytes(tmp_path) == disk_bytes(tmp_path)
        for i in range(11):
            assert store.get(key(i), kind="verdict") == {"i": i}

    def test_cap_holds_across_instances_on_one_root(self, tmp_path):
        cap = 4000
        a = MCStore(str(tmp_path), limit_bytes=cap)
        b = MCStore(str(tmp_path), limit_bytes=cap)
        a.put(key(0), "verdict", "a" * 100)
        size = len(canonical_json(
            {"format": STORE_FORMAT, "kind": "verdict", "payload": "b" * 100}
        ))
        i = 1
        with PERF.scope() as by_b:
            while disk_bytes(tmp_path) + size <= cap:
                b.put(key(i), "verdict", "b" * 100)
                i += 1
        assert count(by_b, "evictions") == 0
        # A's own puts total two entries, far below the cap; only the
        # shared ledger knows that B filled the store
        with PERF.scope() as by_a:
            a.put(key(i), "verdict", "b" * 100)
        assert count(by_a, "evictions") >= 1
        assert disk_bytes(tmp_path) <= cap
        assert ledger_bytes(tmp_path) == disk_bytes(tmp_path)

    @pytest.mark.parametrize("where", ["open", "flock"])
    def test_ledger_os_error_is_a_store_error(
        self, tmp_path, monkeypatch, where
    ):
        store = MCStore(str(tmp_path))
        corrupt = store._path(key(1))
        os.makedirs(os.path.dirname(corrupt))
        with open(corrupt, "wb") as fh:
            fh.write(b"garbage")

        def fail(*args, **kwargs):
            raise OSError(errno.EIO, "injected ledger failure")

        if where == "open":
            real_open = os.open

            def ledger_open(path, *args, **kwargs):
                if os.path.basename(path) == LEDGER_NAME:
                    fail()
                return real_open(path, *args, **kwargs)

            monkeypatch.setattr(os, "open", ledger_open)
        else:
            monkeypatch.setattr(fcntl, "flock", fail)
        with PERF.scope() as counters:
            store.put(key(0), "verdict", 1)
            assert store.get(key(0), kind="verdict") is None
            assert store.get(key(1), kind="verdict") is None
            assert count(counters, "errors") == 1
            assert count(counters, "puts") == 0
            assert count(counters, "misses") == 2
            # the maintenance calls count the error too instead of raising
            assert store.prune(limit_bytes=1) == 0 and store.clear() == 0
        assert count(counters, "errors") == 3 and os.path.exists(corrupt)
        assert "mc.store.puts" not in counters.counts
        assert not [
            name for _, _, names in os.walk(str(tmp_path)) for name in names
            if name.endswith(".tmp")
        ]


class TestPruneKeepsTheCap:
    def test_overlapping_prunes_never_change_the_cap(
        self, tmp_path, monkeypatch
    ):
        cap = 10 ** 6
        store = MCStore(str(tmp_path), limit_bytes=cap)
        for i in range(4):
            store.put(key(i), "verdict", i)
        inside = {name: threading.Event() for name in ("A", "B")}
        go = {name: threading.Event() for name in ("A", "B")}
        real = MCStore._entries

        def gated(self):
            name = threading.current_thread().name
            if name in inside:  # hold each prune inside its eviction scan
                inside[name].set()
                go[name].wait(10)
            return real(self)

        monkeypatch.setattr(MCStore, "_entries", gated)
        a = threading.Thread(
            target=store.prune, kwargs={"limit_bytes": 1}, name="A")
        b = threading.Thread(
            target=store.prune, kwargs={"limit_bytes": 2}, name="B")
        seen = []
        a.start()
        assert inside["A"].wait(10)
        seen.append(store.limit_bytes)
        b.start()
        inside["B"].wait(0.5)  # B may instead wait for A's ledger lock
        seen.append(store.limit_bytes)
        go["A"].set()
        a.join(10)
        go["B"].set()
        b.join(10)
        assert not a.is_alive() and not b.is_alive()
        assert seen == [cap, cap]
        assert store.limit_bytes == cap
        with PERF.scope() as counts:
            store.put(key(9), "verdict", 9)
        assert count(counts, "evictions") == 0
        assert store.get(key(9), kind="verdict") == 9


#: the concurrency stress test: keys, cap, forked processes, threads per
#: process and operations per thread
STRESS_KEYS = 120
STRESS_CAP = 40_000
STRESS_PROCESSES = 4
STRESS_THREADS = 2
STRESS_OPS = 300


def stress_payload(k):
    """The one payload key ``k`` ever holds (150 to 1,480 characters, so
    the 120 entries hold about 2.4 times the cap)."""
    return {"key": k, "blob": "k{}.".format(k) * (50 + (k * 37) % 250)}


def root_counts():
    """The ``mc.store.*`` counts of the root tables (what this thread
    reads outside any scope, and where new threads count)."""
    snapshot = PERF.snapshot()
    return {name: snapshot.get("mc.store." + name, 0)
            for name in ("hits", "evictions", "errors")}


def _stress_process(root, seed, report):
    """One forked process: threads running mixed put/get/prune, with a
    short switch interval; writes its counts to ``report``."""
    # the fork copied the parent's counts: count from here
    start = root_counts()
    store = MCStore(root, limit_bytes=STRESS_CAP)
    failures = []

    def run(rng):
        try:
            for _ in range(STRESS_OPS):
                k = rng.randrange(STRESS_KEYS)
                roll = rng.random()
                if roll < 0.45:
                    store.put(key(k), "verdict", stress_payload(k))
                elif roll < 0.95:
                    got = store.get(key(k), kind="verdict")
                    if got is not None and got != stress_payload(k):
                        failures.append("wrong payload for key {}".format(k))
                else:
                    store.prune(rng.choice([None, STRESS_CAP // 2]))
        except Exception as exc:  # reported through the exit code
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=run, args=(random.Random(seed * 100 + t),))
            for t in range(STRESS_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            if t.is_alive():
                failures.append("thread did not finish")
    finally:
        sys.setswitchinterval(interval)
    counts = {name: n - start[name] for name, n in root_counts().items()}
    with open(report, "w") as fh:
        json.dump(dict(counts, failures=failures), fh)
    if failures or counts["errors"]:
        raise SystemExit(1)


def locked_ledger_and_scan(root):
    """The ledger and the entries' byte total, read together while
    holding the ledger's lock, so no entry can change in between."""
    fd = os.open(os.path.join(root, LEDGER_NAME), os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            return ledger_bytes(root), disk_bytes(root)
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


class TestConcurrentAccess:
    def test_put_get_prune_across_processes_and_threads(self, tmp_path):
        root = str(tmp_path / "store")
        MCStore(root).prune()  # writes the ledger
        fork = multiprocessing.get_context("fork")
        reports = [str(tmp_path / "p{}.json".format(i))
                   for i in range(STRESS_PROCESSES)]
        procs = [fork.Process(target=_stress_process, args=(root, i, r))
                 for i, r in enumerate(reports)]
        for p in procs:
            p.start()
        samples = []
        try:
            # while the workers run, the ledger must equal a scan whenever
            # its lock is held: every entry change happens under that lock
            deadline = time.monotonic() + 120
            while any(p.is_alive() for p in procs):
                assert time.monotonic() < deadline
                samples.append(locked_ledger_and_scan(root))
                time.sleep(0.01)
            for p in procs:
                p.join(10)
                assert not p.is_alive()
        finally:
            for p in procs:
                if p.is_alive():
                    p.kill()
                    p.join(10)
        stats = []
        for path in reports:
            with open(path) as fh:
                stats.append(json.load(fh))
        assert [s["failures"] for s in stats] == [[]] * STRESS_PROCESSES
        assert [p.exitcode for p in procs] == [0] * STRESS_PROCESSES
        # the cap was reached and entries were served meanwhile
        assert sum(s["evictions"] for s in stats) > 0
        assert sum(s["hits"] for s in stats) > 0
        assert samples and [(a, b) for a, b in samples if a != b] == []
        assert disk_bytes(root) <= STRESS_CAP
        assert ledger_bytes(root) == disk_bytes(root)


class TestDefaultStore:
    def test_unset_env_means_no_store(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV, raising=False)
        assert default_store() is None

    def test_env_gate_creates_and_switches(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "a"))
        store = default_store()
        assert store is not None and store.root == str(tmp_path / "a")
        assert default_store() is store  # one instance per root
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "b"))
        assert default_store().root == str(tmp_path / "b")


FREE = input_alphabet(designs.toggle_producer())


class TestExplicitWarmPath:
    def test_warm_lts_is_byte_identical(self, tmp_path):
        store = MCStore(str(tmp_path))
        comp = designs.toggle_producer()
        with PERF.scope() as cold_counts:
            cold = compile_lts(comp, alphabet=FREE, store=store)
        with PERF.scope() as warm_counts:
            warm = compile_lts(comp, alphabet=FREE, store=store)
        assert count(cold_counts, "misses") == 1 and count(cold_counts, "hits") == 0
        assert count(warm_counts, "hits") == 1 and count(warm_counts, "misses") == 0
        assert "mc.reactions" not in warm_counts.counts
        assert lts_to_dict(warm) == lts_to_dict(cold)
        assert check_never_present(warm, "x") == check_never_present(cold, "x")

    def test_one_token_edit_misses(self, tmp_path):
        store = MCStore(str(tmp_path))
        compile_lts(designs.toggle_producer(), alphabet=FREE, store=store)
        edited = designs.toggle_producer(out="x2")
        alphabet = input_alphabet(edited)
        with PERF.scope() as counts:
            compile_lts(edited, alphabet=alphabet, store=store)
        assert count(counts, "misses") == 1 and count(counts, "hits") == 0

    def test_entry_with_stats_field_loads(self, tmp_path):
        """Entries written with the ``stats`` field ``lts_to_dict`` once
        added load to the same LTS and the same verdict."""
        store = MCStore(str(tmp_path))
        comp = designs.toggle_producer()
        cold = compile_lts(comp, alphabet=FREE)
        entry = store_key(
            "explicit-lts", content_key(comp), {"alphabet": FREE}
        )
        store.put(entry, "explicit-lts",
                  dict(lts_to_dict(cold), stats={"reactions": 8}))
        with PERF.scope() as counts:
            warm = compile_lts(comp, alphabet=FREE, store=store)
        assert count(counts, "hits") == 1 and count(counts, "puts") == 0
        assert lts_to_dict(warm) == lts_to_dict(cold)
        assert "stats" not in lts_to_dict(warm)
        assert check_never_present(warm, "x") == check_never_present(cold, "x")


class TestSymbolicWarmPath:
    def test_warm_fixpoint_matches_cold(self, tmp_path):
        store = MCStore(str(tmp_path))
        flat = flatten_program(designs.boolean_producer_consumer())
        alphabet = input_alphabet(flat)
        with PERF.scope() as counts:
            cold = SymbolicChecker(flat, alphabet=alphabet, store=store)
            n = cold.state_count()
            ce_cold = cold.check_never_present("y")
            warm = SymbolicChecker(flat, alphabet=alphabet, store=store)
            assert warm.state_count() == n
            ce_warm = warm.check_never_present("y")
        if ce_cold is None:
            assert ce_warm is None
        else:
            assert ce_warm.inputs == ce_cold.inputs
        assert count(counts, "hits") >= 1 and count(counts, "puts") >= 1

    def test_monolithic_mode_keyed_separately(self, tmp_path):
        store = MCStore(str(tmp_path))
        comp = designs.toggle_producer()
        alphabet = input_alphabet(comp)
        with PERF.scope() as counts:
            SymbolicChecker(comp, alphabet=alphabet, store=store).state_count()
            chk = SymbolicChecker(
                comp, alphabet=alphabet, partitioned=False, store=store
            )
            assert chk.state_count() == 2
        # two distinct keys -> two puts, no cross-mode hit on first build
        assert count(counts, "puts") == 2
