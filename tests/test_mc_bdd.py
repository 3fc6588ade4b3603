"""Tests for the ROBDD package."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.mc.bdd import BDD, FALSE, TRUE


@pytest.fixture
def bdd():
    return BDD()


class TestBasics:
    def test_terminals(self, bdd):
        assert bdd.AND() == TRUE
        assert bdd.OR() == FALSE
        assert bdd.NOT(TRUE) == FALSE
        assert bdd.NOT(FALSE) == TRUE

    def test_variable_idempotent(self, bdd):
        a1 = bdd.variable("a")
        a2 = bdd.variable("a")
        assert a1 == a2

    def test_hash_consing(self, bdd):
        a, b = bdd.variable("a"), bdd.variable("b")
        f1 = bdd.AND(a, b)
        f2 = bdd.AND(b, a)
        assert f1 == f2  # canonical form

    def test_boolean_identities(self, bdd):
        a = bdd.variable("a")
        assert bdd.AND(a, bdd.NOT(a)) == FALSE
        assert bdd.OR(a, bdd.NOT(a)) == TRUE
        assert bdd.XOR(a, a) == FALSE
        assert bdd.IFF(a, a) == TRUE
        assert bdd.IMPLIES(FALSE, a) == TRUE
        assert bdd.NOT(bdd.NOT(a)) == a

    def test_ite(self, bdd):
        a, b, c = (bdd.variable(n) for n in "abc")
        f = bdd.ite(a, b, c)
        assert bdd.restrict({"a": True}, f) == b
        assert bdd.restrict({"a": False}, f) == c


def _truth_table(bdd, f, names):
    rows = {}
    for values in itertools.product([False, True], repeat=len(names)):
        assignment = dict(zip(names, values))
        rows[values] = bdd.restrict(assignment, f) == TRUE
    return rows


class TestSemantics:
    def test_matches_python_eval(self, bdd):
        a, b, c = (bdd.variable(n) for n in "abc")
        f = bdd.OR(bdd.AND(a, bdd.NOT(b)), bdd.XOR(b, c))
        table = _truth_table(bdd, f, ["a", "b", "c"])
        for (va, vb, vc), res in table.items():
            assert res == ((va and not vb) or (vb != vc))

    def test_exists(self, bdd):
        a, b = bdd.variable("a"), bdd.variable("b")
        f = bdd.AND(a, b)
        assert bdd.exists(["a"], f) == b
        assert bdd.exists(["a", "b"], f) == TRUE
        assert bdd.exists(["a"], FALSE) == FALSE

    def test_exists_or_decomposition(self, bdd):
        a, b, c = (bdd.variable(n) for n in "abc")
        f = bdd.ite(a, b, c)
        # ∃a. f = b | c
        assert bdd.exists(["a"], f) == bdd.OR(b, c)

    def test_rename(self, bdd):
        a, b = bdd.variable("a"), bdd.variable("b")
        nxt = bdd.variable("a'")
        f = bdd.AND(a, b)
        g = bdd.rename({"a": "a'"}, f)
        assert g == bdd.AND(nxt, b)

    def test_rename_swap_levels(self, bdd):
        a, b = bdd.variable("a"), bdd.variable("b")
        f = bdd.AND(a, bdd.NOT(b))
        g = bdd.rename({"a": "b", "b": "a"}, f)
        assert g == bdd.AND(b, bdd.NOT(a))

    def test_restrict(self, bdd):
        a, b = bdd.variable("a"), bdd.variable("b")
        f = bdd.XOR(a, b)
        assert bdd.restrict({"a": True}, f) == bdd.NOT(b)
        assert bdd.restrict({"a": True, "b": False}, f) == TRUE


class TestInspection:
    def test_any_sat(self, bdd):
        a, b = bdd.variable("a"), bdd.variable("b")
        f = bdd.AND(a, bdd.NOT(b))
        sat = bdd.any_sat(f)
        assert sat["a"] is True and sat["b"] is False
        assert bdd.any_sat(FALSE) is None
        assert bdd.any_sat(TRUE) == {}

    def test_sat_count(self, bdd):
        a, b, c = (bdd.variable(n) for n in "abc")
        assert bdd.sat_count(TRUE) == 8
        assert bdd.sat_count(FALSE) == 0
        assert bdd.sat_count(a) == 4
        assert bdd.sat_count(bdd.AND(a, b)) == 2
        assert bdd.sat_count(bdd.OR(a, b, c)) == 7

    def test_support(self, bdd):
        a, b = bdd.variable("a"), bdd.variable("b")
        bdd.variable("c")
        f = bdd.AND(a, b)
        assert bdd.support(f) == {"a", "b"}
        assert bdd.support(TRUE) == frozenset()


# -- property tests against a brute-force evaluator ---------------------------

NAMES = ["a", "b", "c", "d"]


@st.composite
def formulas(draw, depth=3):
    if depth == 0:
        return draw(st.sampled_from(NAMES + ["0", "1"]))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(formulas(depth=0))
    if kind == 1:
        return ("not", draw(formulas(depth=depth - 1)))
    op = draw(st.sampled_from(["and", "or", "xor"]))
    return (op, draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))


def build(bdd, f):
    if isinstance(f, str):
        if f == "0":
            return FALSE
        if f == "1":
            return TRUE
        return bdd.variable(f)
    if f[0] == "not":
        return bdd.NOT(build(bdd, f[1]))
    l, r = build(bdd, f[1]), build(bdd, f[2])
    return {"and": bdd.AND, "or": bdd.OR, "xor": bdd.XOR}[f[0]](l, r)


def brute(f, env):
    if isinstance(f, str):
        if f == "0":
            return False
        if f == "1":
            return True
        return env[f]
    if f[0] == "not":
        return not brute(f[1], env)
    l, r = brute(f[1], env), brute(f[2], env)
    return {"and": l and r, "or": l or r, "xor": l != r}[f[0]]


@settings(max_examples=120, deadline=None)
@given(formulas())
def test_prop_bdd_matches_brute_force(f):
    bdd = BDD()
    for n in NAMES:
        bdd.variable(n)
    node = build(bdd, f)
    for values in itertools.product([False, True], repeat=len(NAMES)):
        env = dict(zip(NAMES, values))
        assert (bdd.restrict(env, node) == TRUE) == brute(f, env)


@settings(max_examples=80, deadline=None)
@given(formulas(), st.sampled_from(NAMES))
def test_prop_exists_is_or_of_cofactors(f, var):
    bdd = BDD()
    for n in NAMES:
        bdd.variable(n)
    node = build(bdd, f)
    ex = bdd.exists([var], node)
    manual = bdd.OR(
        bdd.restrict({var: False}, node), bdd.restrict({var: True}, node)
    )
    assert ex == manual


@settings(max_examples=80, deadline=None)
@given(formulas())
def test_prop_sat_count_matches_enumeration(f):
    bdd = BDD()
    for n in NAMES:
        bdd.variable(n)
    node = build(bdd, f)
    expected = sum(
        brute(f, dict(zip(NAMES, values)))
        for values in itertools.product([False, True], repeat=len(NAMES))
    )
    assert bdd.sat_count(node, n_vars=len(NAMES)) == expected


@settings(max_examples=80, deadline=None)
@given(formulas(), formulas(), st.sets(st.sampled_from(NAMES)))
def test_prop_and_exists_is_fused_relational_product(f, g, names):
    bdd = BDD()
    for n in NAMES:
        bdd.variable(n)
    nf, ng = build(bdd, f), build(bdd, g)
    fused = bdd.and_exists(sorted(names), nf, ng)
    assert fused == bdd.exists(sorted(names), bdd.AND(nf, ng))


class TestSatCountDefault:
    def test_dont_care_variable_doubles_raw_count(self, bdd):
        # n_vars=None counts over every *registered* variable at call
        # time, so registering a don't-care variable doubles the count
        a = bdd.variable("a")
        before = bdd.sat_count(a)
        assert before == 1
        bdd.variable("unused")
        assert bdd.sat_count(a) == 2 * before
        # an explicit n_vars pins the answer regardless of registrations
        assert bdd.sat_count(a, n_vars=1) == before


class TestIterativeDepth:
    def test_deep_chain_needs_no_python_recursion(self):
        # a conjunction over thousands of variables is a chain one node
        # deep per level; the explicit-stack operations must not hit the
        # Python recursion ceiling (~1000 for the old recursive engine)
        bdd = BDD()
        n = 3000
        for i in range(n):
            bdd.variable("x{}".format(i))
        f = TRUE
        for i in reversed(range(n)):
            f = bdd.ite(bdd.variable("x{}".format(i)), f, FALSE)
        assert bdd.sat_count(f, n_vars=n) == 1
        assert bdd.exists(["x{}".format(i) for i in range(n)], f) == TRUE
        g = bdd.and_exists(
            ["x{}".format(i) for i in range(1, n)], f, bdd.variable("x0")
        )
        assert g == bdd.variable("x0")
        renamed = bdd.rename({"x0": "y"}, f)
        assert bdd.restrict({"y": True}, renamed) != FALSE


class TestGarbageCollection:
    def test_gc_reclaims_unpinned_nodes(self, bdd):
        a, b = bdd.variable("a"), bdd.variable("b")
        keep = bdd.pin(bdd.AND(a, b))
        bdd.XOR(a, b)  # garbage
        live_before = bdd.node_count()
        reclaimed = bdd.gc()
        assert reclaimed > 0
        assert bdd.node_count() < live_before
        # the pinned cone survives and still denotes the same function
        assert bdd.restrict({"a": True, "b": True}, keep) == TRUE
        assert bdd.restrict({"a": True, "b": False}, keep) == FALSE

    def test_gc_roots_argument_protects_unpinned(self, bdd):
        a, b = bdd.variable("a"), bdd.variable("b")
        f = bdd.OR(a, b)
        bdd.gc(roots=[f])
        assert bdd.restrict({"a": False, "b": True}, f) == TRUE

    def test_unpin_releases(self, bdd):
        a, b = bdd.variable("a"), bdd.variable("b")
        f = bdd.pin(bdd.AND(a, b))
        bdd.unpin(f)
        assert bdd.gc() > 0

    def test_freed_slots_are_reused(self, bdd):
        a, b = bdd.variable("a"), bdd.variable("b")
        bdd.AND(a, b)
        bdd.gc()  # reclaims everything, variable nodes included
        table_size = len(bdd._nodes)
        rebuilt = bdd.AND(bdd.variable("a"), bdd.variable("b"))
        assert len(bdd._nodes) == table_size  # came from the free list
        assert bdd.restrict({"a": True, "b": True}, rebuilt) == TRUE


class TestCacheStats:
    def test_stats_keys_and_perf_export(self):
        from repro.perf import PERF

        PERF.reset("bdd")
        bdd = BDD()
        a, b = bdd.variable("a"), bdd.variable("b")
        bdd.AND(a, b)
        bdd.gc()
        stats = bdd.cache_stats()
        for key in (
            "apply_hits", "apply_misses", "cache_clears", "apply_cache_size",
            "node_count", "gc_collections", "gc_reclaimed",
        ):
            assert key in stats
        assert stats["gc_collections"] == 1
        assert PERF.get("bdd.gc_collections") == 1
        # deltas, not absolutes: a second export adds nothing new
        bdd.cache_stats()
        assert PERF.get("bdd.gc_collections") == 1


def _cache_workload(bdd):
    """Formulas exercising every cached operation (ite, exists,
    and_exists), as name-keyed dumps so two managers compare."""
    xs = [bdd.variable("x{}".format(i)) for i in range(6)]
    f = bdd.OR(*[bdd.AND(xs[i], xs[i + 3]) for i in range(3)])
    g = bdd.XOR(xs[0], xs[5])
    return bdd.dump(
        [f, g, bdd.exists(["x1", "x4"], f), bdd.and_exists(["x0", "x3"], f, g)]
    )


class TestApplyCacheLimit:
    def test_overflow_flushes_without_changing_results(self, monkeypatch):
        reference = BDD()
        expected = _cache_workload(reference)
        assert reference.cache_clears == 0
        monkeypatch.setattr("repro.mc.bdd.APPLY_CACHE_LIMIT", 4)
        bdd = BDD()
        assert _cache_workload(bdd) == expected
        assert bdd.cache_clears > 0
        assert bdd.cache_stats()["apply_cache_size"] <= 4


# -- dump / load round trips (the persistent-store serialization path) --------


def _semantics(bdd, node):
    return tuple(
        bdd.restrict(dict(zip(NAMES, values)), node) == TRUE
        for values in itertools.product([False, True], repeat=len(NAMES))
    )


class TestDumpLoad:
    def test_round_trip_into_fresh_manager(self):
        bdd = BDD()
        for n in NAMES:
            bdd.variable(n)
        a, b = bdd.variable("a"), bdd.variable("b")
        f = bdd.XOR(a, bdd.NOT(b))
        payload = bdd.dump([f])
        other = BDD()
        (g,) = other.load(payload)
        assert _semantics(other, g) == _semantics(bdd, f)

    def test_dump_load_dump_is_a_fixed_point(self):
        # the payload is canonical: reloading and re-dumping in a fresh
        # manager reproduces it byte for byte
        one = BDD()
        for n in NAMES:
            one.variable(n)
        f = one.OR(one.AND(one.variable("a"), one.variable("b")),
                   one.variable("c"))
        payload = one.dump([f])
        two = BDD()
        roots = two.load(payload)
        assert two.dump(roots) == payload

    def test_terminal_roots_survive(self, bdd):
        assert bdd.load(bdd.dump([TRUE, FALSE])) == [TRUE, FALSE]

    def test_format_stamp_is_checked(self, bdd):
        payload = bdd.dump([TRUE])
        payload["format"] = "bdd-v0"
        with pytest.raises(ValueError):
            bdd.load(payload)


@settings(max_examples=60, deadline=None)
@given(formulas())
def test_prop_dump_gc_load_preserves_semantics(f):
    """The store's exact lifecycle: build, dump, then garbage-collect the
    manager and load the payload back — sat counts and verdicts must come
    through untouched, also in a manager whose variable order differs."""
    bdd = BDD()
    for n in NAMES:
        bdd.variable(n)
    node = build(bdd, f)
    expected_sat = bdd.sat_count(node, n_vars=len(NAMES))
    expected_sem = _semantics(bdd, node)
    payload = bdd.dump([node])

    # pinned-roots path: the node survives collection...
    bdd.pin(node)
    bdd.gc()
    assert bdd.sat_count(node, n_vars=len(NAMES)) == expected_sat

    # ...and the payload reloads identically into the collected manager
    (again,) = bdd.load(payload)
    assert again == node
    assert bdd.sat_count(again, n_vars=len(NAMES)) == expected_sat

    # a manager registering the names in reverse order rebuilds the
    # payload under its own order: the case name-keyed nodes exist for
    reversed_order = BDD()
    for n in reversed(NAMES):
        reversed_order.variable(n)
    (r,) = reversed_order.load(payload)
    assert reversed_order.order() == NAMES[::-1]
    assert reversed_order.sat_count(r, n_vars=len(NAMES)) == expected_sat
    assert _semantics(reversed_order, r) == expected_sem

    # a fresh manager (different life history) agrees on the semantics
    fresh = BDD()
    (g,) = fresh.load(payload)
    assert fresh.sat_count(g, n_vars=len(NAMES)) == expected_sat
    assert _semantics(fresh, g) == expected_sem
