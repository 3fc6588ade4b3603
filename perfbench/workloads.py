"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed yields the
same job specs (or campaign units) in the same order.  The program under
test only ever receives these generated inputs.

- :func:`verify_cold_jobs` — a few hundred execution-bound ``verify`` /
  ``prove`` jobs with pairwise-distinct job keys;
- :func:`ci_rerun_plan` — a per-commit rerun: the previous commit's
  ``verify`` / ``prove`` jobs (prepared into a store untimed) and a pass
  that repeats them, adds one-token edits (mostly lint) and duplicates;
- :func:`soak_campaign_units` — the fault-soak sweeps and jittered
  multi-environment buffer estimations a designer runs before sign-off.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, NamedTuple

from repro import designs
from repro.lang.analysis import flatten_program
from repro.service.jobs import job_key, resolve_program, spec_from_dict

DEFAULT_SEED = 0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random("{}:{}".format(workload, seed))


def _job(kind: str, design: Any, params: Dict[str, Any]) -> Dict[str, Any]:
    return {"kind": kind, "design": design, "params": params}


def key_of(spec: Dict[str, Any]) -> str:
    return job_key(spec_from_dict(spec))


def _named(name: str, **args) -> Any:
    return {"name": name, "args": args} if args else name


def _full_rates(design: Any) -> List[str]:
    """Every source input present every instant (the affine prover's
    all-present environment)."""
    flat = flatten_program(resolve_program(design))
    return ["{}:1".format(name) for name in sorted(flat.inputs)]


def _chain_contracts(stages: int) -> Dict[str, str]:
    contracts = {"x0": "alternating"}
    for i in range(stages):
        contracts["f{}_msgout".format(i)] = "alternating"
        contracts["x{}".format(i + 1)] = "alternating"
    return contracts


def _desync_inline(modulus: int, scale: int, capacity: int) -> Dict[str, Any]:
    from repro.desync import desynchronize
    from repro.lang.serializer import program_to_dict

    program = desynchronize(
        designs.modular_producer_consumer(modulus=modulus, scale=scale),
        capacities=capacity,
    ).program
    return {"program": program_to_dict(program)}


# -- verify-cold --------------------------------------------------------------

#: stages of the relay chain per verify backend (explicit stops where its
#: monolithic state space stops being a few-hundred-millisecond job)
RELAY_STAGES = {
    "explicit": range(2, 7),
    "symbolic": range(2, 7),
    "bounded": range(2, 10),
    "compose": range(2, 9),
}

#: give-up proofs per pass: request_response without rate assumptions
#: explores its product until ``max_states`` and answers ``unknown``
GIVE_UP_STATES = (350, 450, 550, 650)


def verify_cold_jobs(seed: int) -> List[Dict[str, Any]]:
    """Execution-bound jobs, no two with the same key, shuffled.

    The seed draws only what changes a job's key but not its work: the
    order of payload values, state caps the exploration stays below.  So
    every seed's pass does the same work, in the same order."""
    rng = _rng("verify-cold", seed)
    jobs: List[Dict[str, Any]] = []

    for backend, stages_range in RELAY_STAGES.items():
        for stages in stages_range:
            design = _named("gals_relay_chain", stages=stages)
            rreqs = designs.gals_relay_chain_rreqs(stages)
            for never in ("f0_alarm", "dup"):
                params: Dict[str, Any] = {
                    "backend": backend, "never": never, "always": rreqs,
                }
                if backend in ("explicit", "compose"):
                    params["max_states"] = rng.choice((20000, 40000))
                if backend == "compose" and never == "dup":
                    params["contracts"] = _chain_contracts(stages)
                if backend != "bounded":
                    jobs.append(_job("verify", design, params))
                    continue
                for depth in (3, 4, 5):
                    jobs.append(_job("verify", design, dict(params, depth=depth)))

    # (capacity 3, modulus 4) is left out: its explicit and compose jobs
    # take seconds each, and one of them landing last in a pass leaves the
    # other client idle long enough to swing the pass time by a seventh
    for capacity, modulus in (
        (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
    ):
        design = _desync_inline(modulus, 2, capacity)
        # the order of the two payload values changes the key, not
        # the state space (the values themselves change its size)
        int_values = rng.choice(([0, 1], [1, 0]))
        for backend in ("explicit", "bounded", "compose"):
            params = {
                "backend": backend, "never": "x_alarm",
                "int_values": int_values,
            }
            if backend == "bounded":
                params["depth"] = 5
            jobs.append(_job("verify", design, params))

    for stations in (2, 3, 4):
        for modulus in (2, 3):
            design = _named("token_ring", stations=stations, modulus=modulus)
            int_values = rng.choice(([0, 1], [1, 0]))
            jobs.append(_job("verify", design, {
                "backend": "explicit", "never": "tok1", "int_values": int_values,
            }))
            jobs.append(_job("verify", design, {
                "backend": "bounded", "never": "tok1", "depth": 5,
                "int_values": int_values,
            }))

    affine = [
        _named("producer_consumer", scale=2),
        _named("producer_consumer", scale=rng.choice((3, 4))),
        _named("producer_accumulator"),
        _named("modular_producer_consumer", modulus=4),
        _named("modular_producer_consumer", modulus=rng.choice((3, 5))),
        _named("boolean_producer_consumer"),
        _named("pipeline", stages=2),
        _named("pipeline", stages=rng.choice((3, 4))),
        _named("request_response"),
        _named("fan_out"),
    ]
    for design in affine:
        rates = _full_rates(design)
        for capacity in range(1, 8):
            jobs.append(_job("prove", design, {
                "rates": rates, "capacities": capacity,
            }))

    for capacity in (1, 2, 3):
        for backpressure in (False, True):
            extra = {"backpressure": {"P": "p_act"}} if backpressure else {}
            jobs.append(_job("prove", "boolean_producer_consumer", dict(
                backend="explicit", capacities=capacity, **extra)))
            jobs.append(_job("prove", "boolean_producer_consumer", dict(
                backend="symbolic", fifo="boolean", capacities=capacity,
                **extra)))

    for max_states in GIVE_UP_STATES:
        jobs.append(_job("prove", "request_response", {
            "backend": "explicit", "max_states": max_states,
            "int_values": rng.choice(([0, 1], [1, 0])),
        }))

    # shuffled in the same order for every seed, and the few-millisecond
    # jobs (affine proofs, bounded checks) close the pass: a long job
    # submitted last would leave the other client idle, and which jobs run
    # side by side would otherwise depend on the seed
    def is_light(job):
        return job["params"].get("backend") == "bounded" or "rates" in job["params"]

    heavy = [j for j in jobs if not is_light(j)]
    light = [j for j in jobs if is_light(j)]
    random.Random("verify-cold:heavy").shuffle(heavy)
    random.Random("verify-cold:light").shuffle(light)
    return heavy + light


# -- set-up of a service pass -------------------------------------------------

def setup_jobs(workers: int) -> List[Dict[str, Any]]:
    """The jobs that open every service pass; set-up ends when the last
    is answered.  Every kind and backend, ``workers`` times in a row, so
    that each worker has imported what the pass's jobs need: otherwise
    whichever jobs the seed puts first would pay for those imports.  Their
    keys occur in no workload, so they warm no cache the pass reads."""
    small = _named("producer_consumer", scale=1)

    def copy(c: int) -> List[Dict[str, Any]]:
        states = 20000 + c
        return [
            _job("lint", small, {"rates": ["p_act:1", "x_rreq:{}".format(c)]}),
            _job("verify", "boolean_producer_consumer", {
                "backend": "explicit", "never": "y", "max_states": states}),
            _job("verify", "boolean_producer_consumer", {
                "backend": "symbolic", "never": "y", "max_states": states}),
            _job("verify", "boolean_producer_consumer", {
                "backend": "compose", "never": "y", "max_states": states}),
            _job("verify", "boolean_producer_consumer", {
                "backend": "bounded", "never": "y", "depth": 1 + c}),
            _job("prove", small, {"rates": _full_rates(small), "capacities": c}),
            _job("prove", "boolean_producer_consumer", {
                "backend": "explicit", "capacities": 1, "max_states": states}),
            _job("prove", "boolean_producer_consumer", {
                "backend": "symbolic", "fifo": "boolean", "capacities": 1,
                "max_states": states}),
            _job("soak", small, {"seed": c, "horizon": 4.0}),
            _job("estimate", small, {"horizon": 3, "stim": ["p_act:1", "x_rreq:{}".format(c)]}),
        ]

    copies = [copy(c) for c in range(1, workers + 1)]
    return [job for same_kind in zip(*copies) for job in same_kind]


# -- ci-rerun -----------------------------------------------------------------

class CiPlan(NamedTuple):
    """The previous commit's store-backed jobs (prepared into the store,
    untimed) and the pass submitted against that store, with each pass
    job's origin: ``repeat`` (a key whose result the prepared store
    holds), ``edit`` (a one-token design edit of a job of the previous
    commit: a new, cold key) or ``dup`` (a key seen earlier in this pass,
    served by the result cache or coalesced onto its twin)."""

    base: List[Dict[str, Any]]
    jobs: List[Dict[str, Any]]
    origins: List[str]

    def shares(self) -> Dict[str, float]:
        n = len(self.origins)
        return {o: self.origins.count(o) / n for o in ("repeat", "edit", "dup")}


#: jobs per pass and their declared shares, measured back by the self-tests
CI_PASS = 250
CI_SHARES = {"repeat": 0.6, "edit": 0.2, "dup": 0.2}

#: kinds of the one-token edits, and again of the in-pass duplicates:
#: mostly lint, as in a per-commit run; fixed counts, so the cold work of
#: a pass is the same for every seed
CI_KIND_QUOTAS = {"lint": 36, "soak": 6, "verify": 4, "prove": 3, "estimate": 1}

#: jobs between an in-pass duplicate and its twin, unless they coalesce
CI_DUP_GAP = 10

#: design constructors whose integer argument a one-token edit bumps
_EDITABLE = {
    "producer_consumer": "scale",
    "modular_producer_consumer": "modulus",
    "pipeline": "stages",
    "token_ring": "stations",
    "gals_relay_chain": "stages",
}


def _ci_store_jobs() -> List[Dict[str, Any]]:
    """The previous commit's ``verify`` and ``prove`` jobs: the kinds
    whose results the MC store keeps (``verify-verdict`` and
    ``prove-certificate`` entries), so a new server answers a repeat of
    one from the store without exploring again."""
    jobs: List[Dict[str, Any]] = []
    for stages in (2, 3, 4):
        design = _named("gals_relay_chain", stages=stages)
        rreqs = designs.gals_relay_chain_rreqs(stages)
        for never in ("f0_alarm", "dup"):
            params: Dict[str, Any] = {"never": never, "always": rreqs}
            for backend in ("explicit", "symbolic"):
                jobs.append(_job("verify", design, dict(params, backend=backend)))
            compose = dict(params, backend="compose")
            if never == "dup":
                compose["contracts"] = _chain_contracts(stages)
            jobs.append(_job("verify", design, compose))
            for depth in (3, 4):
                jobs.append(_job("verify", design, dict(
                    params, backend="bounded", depth=depth)))
    for modulus in (2, 3, 4):
        design = _named("modular_producer_consumer", modulus=modulus)
        for int_values in ([0, 1], [1, 0]):
            params = {"never": "y", "int_values": int_values}
            jobs.append(_job("verify", design, dict(params, backend="explicit")))
            for depth in (3, 4):
                jobs.append(_job("verify", design, dict(
                    params, backend="bounded", depth=depth)))
    for stations in (2, 3):
        for modulus in (2, 3):
            design = _named("token_ring", stations=stations, modulus=modulus)
            for never in ("tok0", "tok1"):
                jobs.append(_job("verify", design, {"backend": "explicit", "never": never}))
                jobs.append(_job("verify", design, {
                    "backend": "bounded", "never": never, "depth": 4}))
    for never in ("x", "y"):
        for backend in ("explicit", "symbolic"):
            jobs.append(_job("verify", "boolean_producer_consumer", {
                "backend": backend, "never": never}))
        jobs.append(_job("verify", "boolean_producer_consumer", {
            "backend": "bounded", "never": never, "depth": 4}))

    for design in (
        _named("producer_consumer", scale=2),
        _named("producer_consumer", scale=3),
        _named("producer_accumulator"),
        _named("modular_producer_consumer", modulus=3),
        _named("modular_producer_consumer", modulus=4),
        _named("boolean_producer_consumer"),
        _named("pipeline", stages=2),
        _named("pipeline", stages=3),
        _named("fan_out"),
    ):
        rates = _full_rates(design)
        for capacity in range(1, 9):
            jobs.append(_job("prove", design, {"rates": rates, "capacities": capacity}))
    for capacity in (1, 2):
        for backpressure in (False, True):
            extra = {"backpressure": {"P": "p_act"}} if backpressure else {}
            jobs.append(_job("prove", "boolean_producer_consumer", dict(
                backend="explicit", capacities=capacity, **extra)))
            jobs.append(_job("prove", "boolean_producer_consumer", dict(
                backend="symbolic", fifo="boolean", capacities=capacity, **extra)))
    return jobs


def _ci_edit_sources(base: List[Dict[str, Any]],
                     rng: random.Random) -> List[Dict[str, Any]]:
    """The jobs of the previous commit that this commit's one-token edits
    change: lint on four editable designs, the soaks and the estimation
    (kinds the store does not keep), one verification per backend and
    three affine proofs.  The same jobs for every seed, so
    every pass does the same cold work; the seed draws the soak fault
    seeds."""
    sources: List[Dict[str, Any]] = []
    lint_designs = [
        _named("producer_consumer", scale=2),
        _named("modular_producer_consumer", modulus=4),
        _named("token_ring", stations=3),
        _named("pipeline", stages=3),
    ]
    lint_params = [
        {},
        {"synchronous": True},
        {"rates": ["p_act:1", "x_rreq:2"]},
        {"rates": ["p_act:2", "x_rreq:1"]},
        {"select": ["GALS"]},
        {"ignore": ["SIG"]},
        {"rates": ["p_act:1", "x_rreq:3"], "select": ["GALS003"]},
        {"synchronous": True, "select": ["SIG"]},
        {"select": ["GALS002", "GALS003"]},
    ]
    for design in lint_designs:
        for params in lint_params:
            sources.append(_job("lint", design, params))
    # the horizon sets a soak's cost: cycle it, draw only the fault seeds
    for i in range(CI_KIND_QUOTAS["soak"]):
        sources.append(_job("soak", _named("producer_consumer", scale=2), {
            "seed": rng.randrange(1000),
            "drop": (0.0, 0.08, 0.16)[i % 3],
            "duplicate": (0.0, 0.1)[i % 2],
            "horizon": (8.0, 10.0, 12.0)[i % 3],
        }))
    sources.append(_job("estimate", _named("producer_consumer", scale=2), {
        "horizon": 6, "stim": ["p_act:1", "x_rreq:3"],
    }))
    # one verification per backend, each on a design of its own: edited
    # checks of one design share its compiled model through the store,
    # and the order of the pass would decide which of them pays for it
    def verification(design, backend, **params):
        return next(s for s in base if s["kind"] == "verify" and s["design"] == design
                    and s["params"]["backend"] == backend
                    and all(s["params"].get(k) == v for k, v in params.items()))

    sources.extend([
        verification(_named("token_ring", stations=3, modulus=2), "explicit", never="tok0"),
        verification(_named("gals_relay_chain", stages=2), "symbolic", never="f0_alarm"),
        verification(_named("gals_relay_chain", stages=3), "compose", never="dup"),
        verification(_named("modular_producer_consumer", modulus=4), "bounded", depth=3),
    ])
    # proofs on the largest design of a family, so the edit is not stored
    for design in (
        _named("producer_consumer", scale=3),
        _named("modular_producer_consumer", modulus=4),
        _named("pipeline", stages=3),
    ):
        sources.append(next(s for s in base if s["kind"] == "prove"
                            and s["design"] == design and s["params"]["capacities"] == 2))
    return sources


def _edit(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Bump the design's integer argument by one: a one-token source edit,
    so the edited job's key is new."""
    design = spec["design"]
    arg = _EDITABLE[design["name"]]
    args = dict(design["args"])
    args[arg] = args[arg] + 1
    return _job(spec["kind"], {"name": design["name"], "args": args},
                dict(spec["params"]))


def ci_rerun_plan(seed: int) -> CiPlan:
    rng = _rng("ci-rerun", seed)
    base = _ci_store_jobs()
    edits = [_edit(spec) for spec in _ci_edit_sources(base, rng)]
    kinds = {kind: sum(1 for e in edits if e["kind"] == kind) for kind in CI_KIND_QUOTAS}
    if len(base) != round(CI_PASS * CI_SHARES["repeat"]) or kinds != CI_KIND_QUOTAS:
        raise ValueError("ci-rerun plan does not match its declared shares")
    if len({key_of(s) for s in base + edits}) != len(base) + len(edits):
        raise ValueError("a ci-rerun edit repeats a key")

    # every job of the previous commit once, and the edits, in the same
    # order for every seed: each class of jobs (repeated proofs, repeated
    # verifications, the edits of each kind, the slow edits) is spread
    # evenly over the pass, in an order fixed per class.  The order decides
    # which cheap jobs run beside the slow ones, where they are slower:
    # drawn from the seed (in a plain shuffle, or only within each class)
    # it moved the median latency of a seed's passes by a fifth.  The slow
    # edits (cold estimation and verifications of a few hundred ms) keep
    # to the first 70%: one near the end would leave the other client idle
    # behind it.
    classes: Dict[str, List[Any]] = {}
    for spec, origin in [(s, "repeat") for s in base] + [(s, "edit") for s in edits]:
        slow = origin == "edit" and spec["kind"] in ("estimate", "verify")
        name = "slow" if slow else "{}:{}".format(origin, spec["kind"])
        classes.setdefault(name, []).append((spec, origin))
    places = []
    for name in sorted(classes):
        members = classes[name]
        random.Random(name).shuffle(members)
        span = 0.7 if name == "slow" else 1.0
        for j, member in enumerate(members):
            places.append((span * (j + 0.5) / len(members), name, j, member))
    places.sort(key=lambda place: place[:3])
    body = [place[3] for place in places]

    # in-pass duplicates CI_DUP_GAP jobs behind their twin (the result
    # cache serves them), except the estimation's and half of the soaks',
    # right behind it: the other client submits them while the twin runs,
    # and they coalesce.  Verifications and proofs duplicate repeats, which
    # the store answers in milliseconds: a duplicate of a cold edited check
    # would coalesce or not depending on how near its twin it fell
    after: Dict[int, List[Dict[str, Any]]] = {}
    for kind, count in CI_KIND_QUOTAS.items():
        source = "repeat" if kind in ("verify", "prove") else "edit"
        twins = [i for i, (s, origin) in enumerate(body)
                 if s["kind"] == kind and origin == source]
        for n, i in enumerate(rng.sample(twins, count)):
            adjacent = kind == "estimate" or (kind == "soak" and n < count // 2)
            at = i if adjacent else min(i + CI_DUP_GAP, len(body) - 1)
            after.setdefault(at, []).append(body[i][0])
    jobs: List[Dict[str, Any]] = []
    origins: List[str] = []
    for i, (spec, origin) in enumerate(body):
        jobs.append(spec)
        origins.append(origin)
        for twin in after.get(i, ()):
            jobs.append(twin)
            origins.append("dup")
    return CiPlan(base, jobs, origins)


# -- soak-campaign ------------------------------------------------------------

class JitteredLane:
    """One estimator environment: the steady produce/consume handshake
    with read requests deferred at random (probability ``hold``).
    Module-level and stateless, so it pickles into sweep workers."""

    def __init__(self, hold: float, seed: int, instants: int) -> None:
        self.hold = hold
        self.seed = seed
        self.instants = instants

    def __call__(self):
        from repro.faults.soak import jittered_stimulus

        base = [
            {"p_act": True} if i % 2 == 0 else {"x_rreq": True}
            for i in range(self.instants)
        ]
        return jittered_stimulus(base, self.hold, self.seed)

    def __repr__(self) -> str:
        return "JitteredLane({}, {}, {})".format(self.hold, self.seed, self.instants)


class Unit(NamedTuple):
    """One library call of the campaign."""

    kind: str            # "soak" or "estimate"
    name: str
    args: Dict[str, Any]


SOAK_DESIGNS = (("producer_consumer", {}), ("pipeline", {"stages": 3}))
SOAK_HORIZON = 300.0
ESTIMATE_DESIGNS = ("producer_consumer", "modular_producer_consumer")
JITTERS = (0.0, 0.25)
LANES = 16
LANE_INSTANTS = 100
#: growth rounds per estimation: the jittered lanes converge in the
#: fifth, the jitter-0 lanes in the first
ESTIMATE_ROUNDS = 5


def soak_campaign_units(seed: int) -> List[Unit]:
    from repro.faults.spec import uniform_plan
    from repro.workloads.scenarios import FaultScenarioSpec

    rng = _rng("soak-campaign", seed)
    units: List[Unit] = []
    for name, args in SOAK_DESIGNS:
        specs = []
        for workload in ({"kind": "steady"}, {"kind": "bursty"}):
            # the fault rates are the same for every seed, which draws
            # only the fault seeds: the work of a pass does not depend on it
            for low in (True, False):
                s = rng.randrange(10000)
                rate = 0.1 if low else 0.2
                specs.extend([
                    FaultScenarioSpec("clean", workload, uniform_plan(seed=s)),
                    FaultScenarioSpec("drop", workload, uniform_plan(seed=s, drop=rate)),
                    FaultScenarioSpec("duplicate", workload, uniform_plan(
                        seed=s, duplicate=rate)),
                    FaultScenarioSpec("reorder", workload, uniform_plan(
                        seed=s, reorder=rate, window=3)),
                    FaultScenarioSpec("jitter", workload, uniform_plan(
                        seed=s, jitter=10 * rate)),
                ])
        units.append(Unit("soak", name, {"args": args, "specs": specs}))
    # the lanes are the same for every seed: how many rounds jittered
    # lanes need (3 to 7) and how much work they share depend on their
    # seeds, and swung the campaign time by a fifth between runs
    for name in ESTIMATE_DESIGNS:
        for hold in JITTERS:
            lanes = [JitteredLane(hold, k, LANE_INSTANTS) for k in range(LANES)]
            units.append(Unit("estimate", name, {"hold": hold, "lanes": lanes}))
    return units


def run_unit(unit: Unit, workers) -> Dict[str, Any]:
    """Execute one campaign unit through the library; return its
    deterministic output (what the golden digests cover)."""
    if unit.kind == "soak":
        from repro.workloads.scenarios import batched_soak_sweep

        program = getattr(designs, unit.name)(**unit.args["args"])
        return {"summaries": batched_soak_sweep(
            program, unit.args["specs"], horizon=SOAK_HORIZON, workers=workers,
        )}
    from repro.desync.estimator import estimate_buffer_sizes

    program = getattr(designs, unit.name)()
    report = estimate_buffer_sizes(
        program, unit.args["lanes"], horizon=LANE_INSTANTS,
        max_iterations=ESTIMATE_ROUNDS, workers=workers,
    )
    return {
        "converged": report.converged,
        "iterations": report.iterations,
        "sizes": dict(sorted(report.sizes.items())),
    }
