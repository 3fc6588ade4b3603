"""Experiment A13 — scaling the checker: persistent store + composition.

The GALS relay chain (:func:`repro.designs.gals_relay_chain`) multiplies
its monolithic reachable set by two per stage (6 * 2**(k-1) states), so
it walks the Section 5.2 obligation past the state-space envelope of the
A3/A6 experiments (max 640 states) in a handful of stages.  This bench
verifies the chain's two obligations three ways at every co-run size —
monolithic explicit, monolithic symbolic, assume-guarantee composition
(:mod:`repro.mc.compose`) — asserting byte-identical verdicts and
counterexamples wherever both run, then pushes to a top size the
explicit backend has no business visiting (>= 100x the envelope, checked
symbolically).  The whole body runs twice against one persistent store
(:mod:`repro.mc.store`): the second pass must be >= 90% store-served.
A last table times one small ``verify-verdict`` put into fresh stores
already holding 1, 500 and 2,000 entries (minimum over 7 puts): the
store's byte ledger makes a put below the cap cost the same at every
size.

Expected shape: compositional wall time and largest-local-check size
stay flat as the chain grows (every local check is <= 6 states) while
the monolithic curves climb with 2**k; the warm pass collapses every
fixpoint/compilation to a disk read; the put cost stays flat (within
2x) from 1 to 2,000 entries.
"""

import hashlib
import os
import shutil
import tempfile
import time

from repro import designs
from repro.lang.analysis import flatten_program
from repro.mc import (
    MCStore,
    SymbolicChecker,
    check_never_present,
    compile_lts,
    default_store,
    input_alphabet,
    verify_composed,
)
from repro.perf import PERF

from _report import emit, quick, table

#: the largest reachable set any A3/A6 obligation visited
ENVELOPE_STATES = 640

CORUN_SIZES = (2, 4) if quick() else (2, 4, 6, 8)
TOP_SIZE = 10 if quick() else 15
OBLIGATIONS = ("f0_alarm", "dup")

#: store sizes (entries) of the put-cost table, and timed puts per size
PUT_SIZES = (1, 500, 2000)
PUT_REPEATS = 7
VERDICT = {"holds": True, "counterexample": None, "states": 12}


def chain_contracts(stages):
    c = {"x0": "alternating"}
    for i in range(stages):
        c["f{}_msgout".format(i)] = "alternating"
        c["x{}".format(i + 1)] = "alternating"
    return c


def chain_setup(stages):
    program = designs.gals_relay_chain(stages)
    rreqs = designs.gals_relay_chain_rreqs(stages)
    flat = flatten_program(program)
    alphabet = input_alphabet(flat, always_present=rreqs)
    return program, rreqs, flat, alphabet


def corun_size(stages, store):
    """All three backends on both obligations; verdicts must be
    byte-identical (here: all proven, no counterexamples)."""
    program, rreqs, flat, alphabet = chain_setup(stages)

    t0 = time.perf_counter()
    lts = compile_lts(flat, alphabet=alphabet, store=store)
    ce_explicit = {s: check_never_present(lts, s) for s in OBLIGATIONS}
    t_explicit = time.perf_counter() - t0

    t0 = time.perf_counter()
    chk = SymbolicChecker(flat, alphabet=alphabet, store=store)
    ce_symbolic = {s: chk.check_never_present(s) for s in OBLIGATIONS}
    t_symbolic = time.perf_counter() - t0

    t0 = time.perf_counter()
    certs = {
        s: verify_composed(
            program, s,
            contracts=chain_contracts(stages) if s == "dup" else None,
            always_present=rreqs, store=store,
        )
        for s in OBLIGATIONS
    }
    t_compose = time.perf_counter() - t0

    for s in OBLIGATIONS:
        assert ce_explicit[s] is None, (stages, s)
        assert ce_symbolic[s] is None, (stages, s)
        assert certs[s].holds and certs[s].method == "compositional", (
            stages, s)
    assert lts.num_states() == chk.state_count()

    return {
        "stages": stages,
        "states": lts.num_states(),
        "largest_local_check": max(
            c.largest_check_states for c in certs.values()),
        "local_checks": sum(c.num_checks for c in certs.values()),
        "t_explicit": t_explicit,
        "t_symbolic": t_symbolic,
        "t_compose": t_compose,
        "speedup_vs_explicit": t_explicit / t_compose,
        "byte_identical": True,
    }


def refuted_corun(store):
    """A refuted obligation (free read requests starve the FIFO): the
    compose backend falls back to the monolithic run, so explicit and
    compose counterexamples must match input row for input row."""
    stages = 2
    program = designs.gals_relay_chain(stages)
    flat = flatten_program(program)
    alphabet = input_alphabet(flat)  # rreq free -> writes can collide
    lts = compile_lts(flat, alphabet=alphabet, store=store)
    ce = check_never_present(lts, "f0_alarm")
    cert = verify_composed(program, "f0_alarm", store=store)
    assert ce is not None and not cert.holds
    assert cert.method == "monolithic"
    assert cert.counterexample.inputs == ce.inputs
    return {
        "stages": stages,
        "obligation": "f0_alarm (free reader)",
        "ce_length": len(ce.inputs),
        "byte_identical": True,
    }


def top_size(store):
    """The >= 100x jump: verified symbolically (exact reachable count)
    and compositionally; the explicit backend is not run here."""
    program, rreqs, flat, alphabet = chain_setup(TOP_SIZE)

    t0 = time.perf_counter()
    chk = SymbolicChecker(flat, alphabet=alphabet, store=store)
    states = chk.state_count()
    for s in OBLIGATIONS:
        assert chk.check_never_present(s) is None
    t_symbolic = time.perf_counter() - t0

    t0 = time.perf_counter()
    for s in OBLIGATIONS:
        cert = verify_composed(
            program, s,
            contracts=chain_contracts(TOP_SIZE) if s == "dup" else None,
            always_present=rreqs, store=store,
        )
        assert cert.holds and cert.method == "compositional"
    t_compose = time.perf_counter() - t0

    return {
        "stages": TOP_SIZE,
        "states": states,
        "envelope_states": ENVELOPE_STATES,
        "envelope_multiple": states / ENVELOPE_STATES,
        "t_symbolic": t_symbolic,
        "t_compose": t_compose,
        "speedup_vs_symbolic": t_symbolic / t_compose,
    }


def run_pass(store):
    t0 = time.perf_counter()
    body = {
        "corun": [corun_size(k, store) for k in CORUN_SIZES],
        "refuted": refuted_corun(store),
        "top": top_size(store),
    }
    body["wall_seconds"] = time.perf_counter() - t0
    return body


def _put_key(i):
    return hashlib.sha256(str(i).encode()).hexdigest()


def store_put_table():
    """Minimum milliseconds of one small verify-verdict put of a fresh key
    into fresh stores filled (by puts) to each of ``PUT_SIZES`` entries.
    Each round times one put per store, so a slow spell of the machine
    hits every size alike."""
    roots = [tempfile.mkdtemp(prefix="a13-put-") for _ in PUT_SIZES]
    try:
        stores = [MCStore(root) for root in roots]
        for n, store in zip(PUT_SIZES, stores):
            for i in range(n):
                store.put(_put_key(i), "verify-verdict", VERDICT)
        # flush the fill first: otherwise the timed puts into the largest
        # store wait on the kernel writing back its just-created files
        os.sync()
        best = [float("inf")] * len(PUT_SIZES)
        for r in range(PUT_REPEATS):
            for j, (n, store) in enumerate(zip(PUT_SIZES, stores)):
                key = _put_key(n + r)
                t0 = time.perf_counter()
                store.put(key, "verify-verdict", VERDICT)
                best[j] = min(best[j], time.perf_counter() - t0)
    finally:
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)
    rows = [{"entries": n, "put_ms": 1e3 * t} for n, t in zip(PUT_SIZES, best)]
    return {
        "repeats": PUT_REPEATS,
        "rows": rows,
        "ratio_2000_to_1": rows[-1]["put_ms"] / rows[0]["put_ms"],
    }


def store_hit_rate(tables):
    """The share of store lookups that hit, in one pass's counts."""
    hits = tables.counts.get("mc.store.hits", 0)
    return hits / (hits + tables.counts.get("mc.store.misses", 0))


def run_experiment():
    # honor REPRO_MC_STORE so a CI leg can run the bench twice against
    # one persistent root (the second invocation's "cold" pass is then
    # itself store-served); otherwise use a throwaway directory
    store = default_store()
    scratch = None
    if store is None:
        scratch = tempfile.mkdtemp(prefix="a13-store-")
        store = MCStore(scratch)
    try:
        # each pass counts its store hits and misses in a scope of its own
        with PERF.scope() as cold_counts:
            cold = run_pass(store)
        with PERF.scope() as warm_counts:
            warm = run_pass(store)
        footprint = store.stats()
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    return {
        "cold": cold,
        "warm": warm,
        "cold_hit_rate": store_hit_rate(cold_counts),
        "warm_hit_rate": store_hit_rate(warm_counts),
        "warm_speedup": cold["wall_seconds"] / warm["wall_seconds"],
        "store_root_persistent": scratch is None,
        "store_entries": footprint["entries"],
        "store_bytes": footprint["bytes"],
        "store_put": store_put_table(),
    }


def test_a13_mc_scaling(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    cold, warm, top = results["cold"], results["warm"], results["cold"]["top"]

    rows = [
        (r["stages"], r["states"], r["largest_local_check"],
         r["local_checks"],
         "{:.3f}".format(r["t_explicit"]),
         "{:.3f}".format(r["t_symbolic"]),
         "{:.3f}".format(r["t_compose"]),
         "{:.1f}x".format(r["speedup_vs_explicit"]))
        for r in cold["corun"]
    ]
    rows.append(
        (top["stages"], top["states"], "-", "-", "(not run)",
         "{:.3f}".format(top["t_symbolic"]),
         "{:.3f}".format(top["t_compose"]),
         "{:.1f}x vs symbolic".format(top["speedup_vs_symbolic"]))
    )
    text = table(
        ["stages", "monolithic states", "largest local check",
         "local checks", "explicit (s)", "symbolic (s)", "compose (s)",
         "compose speedup"],
        rows,
    )
    text += (
        "\n\ntop size: {} states = {:.1f}x the {}-state A3/A6 envelope"
        "\ncold pass {:.2f}s -> warm pass {:.2f}s ({:.1f}x, {:.1%} "
        "store-served)\nrefuted control: explicit and compose "
        "counterexamples identical ({} inputs)".format(
            top["states"], top["envelope_multiple"],
            top["envelope_states"], cold["wall_seconds"],
            warm["wall_seconds"], results["warm_speedup"],
            results["warm_hit_rate"], cold["refuted"]["ce_length"],
        )
    )
    puts = results["store_put"]
    text += "\n\none verify-verdict put (min of {}):\n".format(puts["repeats"])
    text += table(
        ["store entries", "put (ms)"],
        [(r["entries"], "{:.3f}".format(r["put_ms"])) for r in puts["rows"]],
    )
    text += "\nput at {} entries / put at {}: {:.2f}x".format(
        PUT_SIZES[-1], PUT_SIZES[0], puts["ratio_2000_to_1"])
    emit("A13_mc_scaling", text, data=results)

    # the headline acceptance claims
    if not quick():
        assert top["states"] >= 100 * ENVELOPE_STATES
        assert puts["ratio_2000_to_1"] <= 2.0
    assert results["warm_hit_rate"] >= 0.90
    for r in cold["corun"] + warm["corun"]:
        assert r["byte_identical"]
    assert cold["refuted"]["byte_identical"]
