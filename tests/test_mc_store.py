"""Tests for the persistent verification store (:mod:`repro.mc.store`):
content addressing, the on-disk envelope, LRU eviction, and warm-path
byte identity for the explicit and symbolic backends."""

import json
import os

import pytest

from repro import designs
from repro.mc import (
    MCStore,
    SymbolicChecker,
    check_never_present,
    compile_lts,
    default_store,
    design_content_key,
    input_alphabet,
    lts_to_dict,
    store_key,
)
from repro.mc.store import STORE_ENV, STORE_FORMAT
from repro.lang.analysis import flatten_program


class TestKeys:
    def test_structurally_equal_designs_share_a_key(self):
        assert design_content_key(designs.toggle_producer()) == \
            design_content_key(designs.toggle_producer())
        assert design_content_key(designs.gals_relay_chain(3)) == \
            design_content_key(designs.gals_relay_chain(3))

    def test_one_token_edit_changes_the_key(self):
        # same shape, one renamed signal / one changed default
        base = design_content_key(designs.toggle_producer(out="x"))
        assert base != design_content_key(designs.toggle_producer(out="y"))
        assert base != design_content_key(designs.toggle_producer(act="go"))

    def test_kind_and_params_discriminate(self):
        d = design_content_key(designs.toggle_producer())
        k = store_key("explicit-lts", d, {"alphabet": []})
        assert k != store_key("symbolic-reach", d, {"alphabet": []})
        assert k != store_key("explicit-lts", d, {"alphabet": [{"p_act": True}]})
        assert k == store_key("explicit-lts", d, {"alphabet": []})


class TestMCStore:
    def test_round_trip(self, tmp_path):
        store = MCStore(str(tmp_path))
        store.put("ab" * 32, "verdict", {"holds": True})
        assert store.get("ab" * 32, kind="verdict") == {"holds": True}
        assert store.hits == 1 and store.puts == 1

    def test_absent_key_is_a_miss(self, tmp_path):
        store = MCStore(str(tmp_path))
        assert store.get("cd" * 32) is None
        assert store.misses == 1

    def test_kind_mismatch_is_a_miss_and_drops_the_entry(self, tmp_path):
        store = MCStore(str(tmp_path))
        store.put("ab" * 32, "verdict", 1)
        assert store.get("ab" * 32, kind="explicit-lts") is None
        # the colliding entry was dropped, not served later
        assert store.get("ab" * 32, kind="verdict") is None
        assert store.misses == 2

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
        assert store.get(key, kind="verdict") is None
        assert store.misses == 1
        assert not os.path.exists(path)
        store.put(key, "verdict", {"holds": True})
        assert store.get(key, kind="verdict") == {"holds": True}

    def test_envelope_carries_format_stamp(self, tmp_path):
        store = MCStore(str(tmp_path))
        store.put("ab" * 32, "verdict", {"x": 1})
        with open(store._path("ab" * 32), encoding="utf-8") as fh:
            envelope = json.load(fh)
        assert envelope["format"] == STORE_FORMAT
        assert envelope["kind"] == "verdict"
        assert envelope["payload"] == {"x": 1}

    def test_lru_eviction_under_byte_cap(self, tmp_path):
        store = MCStore(str(tmp_path), limit_bytes=1)
        store.put("aa" * 32, "verdict", 1)
        store.put("bb" * 32, "verdict", 2)
        # cap of one byte: each put evicts everything older
        assert store.evictions >= 1
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
        store.put("aa" * 32, "verdict", 1)
        store.get("aa" * 32)
        store.get("bb" * 32)
        st = store.stats()
        assert st["entries"] == 1 and st["hits"] == 1 and st["misses"] == 1
        assert st["puts"] == 1 and 0.0 < st["hit_rate"] < 1.0
        assert st["root"] == store.root


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
        cold = compile_lts(comp, alphabet=FREE, store=store)
        warm = compile_lts(comp, alphabet=FREE, store=store)
        assert cold.stats["store"] == "miss"
        assert warm.stats["store"] == "hit"
        assert lts_to_dict(warm) == lts_to_dict(cold)
        assert check_never_present(warm, "x") == check_never_present(cold, "x")

    def test_one_token_edit_misses(self, tmp_path):
        store = MCStore(str(tmp_path))
        compile_lts(designs.toggle_producer(), alphabet=FREE, store=store)
        edited = designs.toggle_producer(out="x2")
        alphabet = input_alphabet(edited)
        lts = compile_lts(edited, alphabet=alphabet, store=store)
        assert lts.stats["store"] == "miss"


class TestSymbolicWarmPath:
    def test_warm_fixpoint_matches_cold(self, tmp_path):
        store = MCStore(str(tmp_path))
        flat = flatten_program(designs.boolean_producer_consumer())
        alphabet = input_alphabet(flat)
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
        assert store.hits >= 1 and store.puts >= 1

    def test_monolithic_mode_keyed_separately(self, tmp_path):
        store = MCStore(str(tmp_path))
        comp = designs.toggle_producer()
        alphabet = input_alphabet(comp)
        SymbolicChecker(comp, alphabet=alphabet, store=store).state_count()
        chk = SymbolicChecker(
            comp, alphabet=alphabet, partitioned=False, store=store
        )
        assert chk.state_count() == 2
        # two distinct keys -> two puts, no cross-mode hit on first build
        assert store.puts == 2
