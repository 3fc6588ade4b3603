"""Compiled reaction plans: the engine's fast path.

The reference :class:`~repro.sim.engine.Interpreter` walks the AST anew
at every instant — per-instant status/value *dicts*, isinstance dispatch
per node, builtin lookup per application, and blind full sweeps over the
equations until the fixpoint stabilizes.  A :class:`ReactionPlan` compiles a
component **once** into a static evaluation schedule:

- every signal is mapped to an integer slot; per-instant presence
  statuses and values live in flat lists indexed by slot;
- every expression node is compiled to a closure over the slots of its
  operands, with builtin functions resolved to their callables ahead of
  time — executing a reaction never touches the AST again;
- the equations are pre-ordered by the strongly connected components of
  the data-flow graph (:func:`repro.lang.analysis.dependency_graph`,
  ``pre`` included), so the forward/backward fixpoint usually completes
  in a single near-linear sweep; equations that could not be settled
  feed a small residual worklist that re-sweeps until quiescence —
  exactly the interpreter's fixpoint, minus the wasted passes.

The plan executes the *same* monotone constraint propagation as the
interpreter (statuses only ever move from unknown to present/absent, all
derivable facts are derived before an instant completes), so results —
including raised :class:`~repro.errors.SimulationError` /
:class:`~repro.errors.NonDeterministicClockError` — are observationally
identical; ``tests/test_plan_equivalence.py`` checks this property on
random programs.  The interpreter answers the plans' one call,
:meth:`ReactionPlan.react_slots`, so it runs wherever a plan does: pass
it as ``plan=``.
"""

from __future__ import annotations

import heapq
import threading
from typing import Callable, Dict, List, Mapping, Tuple

from repro.errors import NonDeterministicClockError, SimulationError
from repro.lang.analysis import dependency_graph, strongly_connected_components
from repro.lang.ast import (
    App,
    ClockOf,
    Component,
    Const,
    Default,
    Equation,
    Expr,
    Pre,
    SyncConstraint,
    Var,
    When,
)
from repro.lang.types import BUILTIN_FUNCTIONS
from repro.sim.engine import pre_registers

# presence statuses as small ints (plan-internal; the interpreter uses
# one-letter strings — keep the rendering in sync for error messages)
_U, _P, _A, _C = 0, 1, 2, 3
_ST_NAME = "UPAC"


class _Pending:
    def __repr__(self) -> str:
        return "PENDING"


_PENDING = _Pending()


class _Ctx:
    """Mutable per-reaction solver state (slot-indexed).

    ``dirty`` collects the slots whose status or value changed since the
    propagation loop last looked; the loop turns them into the step
    indices that must re-run (the residual worklist).
    """

    __slots__ = ("status", "value", "state", "settled", "dirty", "queued")

    def __init__(self, status: List[int], value: List[object], state, n_steps: int):
        self.status = status
        self.value = value
        self.state = state
        self.settled = bytearray(n_steps)
        self.dirty: List[int] = []
        self.queued = bytearray(n_steps)


def _set_status(ctx: _Ctx, i: int, st: int, names) -> None:
    cur = ctx.status[i]
    if cur == st:
        return
    if cur != _U:
        raise SimulationError(
            "clock contradiction on {!r}: {} vs {}".format(
                names[i], _ST_NAME[cur], _ST_NAME[st]
            )
        )
    ctx.status[i] = st
    ctx.dirty.append(i)


def _set_value(ctx: _Ctx, i: int, v: object, names) -> None:
    cur = ctx.value[i]
    if cur is not _PENDING:
        if cur != v:
            raise SimulationError(
                "value contradiction on {!r}: {!r} vs {!r}".format(names[i], cur, v)
            )
        return
    ctx.value[i] = v
    ctx.dirty.append(i)


class ReactionPlan:
    """A component compiled to a static per-instant evaluation schedule."""

    #: counter-attribution tag: ``simulate`` and ``simulate_batch`` count
    #: the reactions they run on this plan under ``sim.<kind>.*`` /
    #: ``batch.<kind>.*`` (``plan`` here, ``plan.spec`` for
    #: :class:`repro.sim.specialize.SpecializedPlan`)
    kind = "plan"

    def __init__(self, component: Component):
        self.component = component
        self.names: List[str] = list(component.signals())
        self.slot: Dict[str, int] = {n: i for i, n in enumerate(self.names)}
        self.n_signals = len(self.names)
        self.input_slot: Dict[str, int] = {
            n: self.slot[n] for n in component.inputs
        }
        self._input_slots: Tuple[int, ...] = tuple(self.input_slot.values())
        equations = component.equations()
        self.pre_nodes, self.pre_slot_of = pre_registers(equations)
        self.init_state: Tuple[object, ...] = tuple(n.init for n in self.pre_nodes)

        # step schedule: equations in data-flow order, then
        # synchronization constraints (fixpoint results are order-independent;
        # the order only decides how much one sweep settles)
        ordered = self._topo_order(component, equations)
        # interleave each sync constraint right after the first point where
        # one of its members can be known (inputs: immediately), so its
        # status assignments flow forward through the sweep instead of
        # arriving after every equation already ran
        avail = {n: 0 for n in component.inputs}
        for pos, eq in enumerate(ordered):
            avail[eq.target] = pos + 1
        sync_at: List[List[SyncConstraint]] = [
            [] for _ in range(len(ordered) + 1)
        ]
        for sc in component.sync_constraints():
            pos = min(avail.get(n, len(ordered)) for n in sc.names)
            sync_at[pos].append(sc)
        schedule: List[Tuple[str, object]] = []
        for pos in range(len(ordered) + 1):
            for sc in sync_at[pos]:
                schedule.append(("sync", sc))
            if pos < len(ordered):
                schedule.append(("eq", ordered[pos]))
        # retained for the specializer, which regenerates each step from
        # its source statement (repro.sim.specialize)
        self.schedule: Tuple[Tuple[str, object], ...] = tuple(schedule)
        steps: List[Callable[[_Ctx], bool]] = []
        reads: List[frozenset] = []  # signals whose facts can re-trigger a step
        for kind, st in schedule:
            if kind == "eq":
                steps.append(self._compile_equation(st))
                reads.append(st.expr.free_vars() | {st.target})
            else:
                steps.append(self._compile_sync(st))
                reads.append(frozenset(st.names))
        self.steps: Tuple[Callable[[_Ctx], bool], ...] = tuple(steps)
        # reverse index: signal slot -> steps that consume its facts
        dependents: List[List[int]] = [[] for _ in self.names]
        for k, sigs in enumerate(reads):
            for n in sigs:
                dependents[self.slot[n]].append(k)
        self.dependents: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(d) for d in dependents
        )

        self.pre_updaters: Tuple[Tuple[int, Callable], ...] = tuple(
            (self.pre_slot_of[id(node)], self._compile_eval(node.expr), node)
            for node in self.pre_nodes
        )

        self._init_status: List[int] = [_U] * self.n_signals
        self._init_value: List[object] = [_PENDING] * self.n_signals

    # -- schedule construction ----------------------------------------------

    @staticmethod
    def _topo_order(component: Component, equations: List[Equation]) -> List[Equation]:
        """Equations sorted so dependencies come first.

        The order is over the strongly connected components of the *full*
        data-flow graph (``pre``/clock operands included: their presence —
        though not their value — is resolved instantaneously, so
        scheduling them early settles clocks in one pass).  A component
        comes after every component it depends on; among the ready ones,
        the earliest-declared comes first.  Only the members of one cycle
        (state feedback through ``pre``, legal presence loops) keep their
        declaration order among themselves.
        """
        deps = dependency_graph(component, instantaneous=False)
        sccs = strongly_connected_components(deps)
        scc_of = {name: c for c, members in enumerate(sccs) for name in members}
        members: List[List[Equation]] = [[] for _ in sccs]
        first: List[int] = [len(equations)] * len(sccs)
        for pos, eq in enumerate(equations):
            c = scc_of[eq.target]
            members[c].append(eq)
            first[c] = min(first[c], pos)
        preds: List[set] = [set() for _ in sccs]
        for target, sources in deps.items():
            preds[scc_of[target]].update(scc_of[n] for n in sources if n in scc_of)
        users: List[List[int]] = [[] for _ in sccs]
        for c, before in enumerate(preds):
            before.discard(c)
            for e in before:
                users[e].append(c)
        waiting = [len(before) for before in preds]
        ready = [(first[c], c) for c in range(len(sccs)) if not waiting[c]]
        heapq.heapify(ready)
        out: List[Equation] = []
        while ready:
            _, c = heapq.heappop(ready)
            out.extend(members[c])
            for u in users[c]:
                waiting[u] -= 1
                if not waiting[u]:
                    heapq.heappush(ready, (first[u], u))
        return out

    # -- expression compilation ---------------------------------------------

    def _compile_eval(self, expr: Expr) -> Callable[[_Ctx], Tuple[int, object]]:
        names = self.names
        if isinstance(expr, Var):
            i = self.slot[expr.name]

            def ev_var(ctx, _i=i):
                s = ctx.status[_i]
                if s == _P:
                    return _P, ctx.value[_i]
                return s, _PENDING

            return ev_var
        if isinstance(expr, Const):
            v = expr.value

            def ev_const(ctx, _v=v):
                return _C, _v

            return ev_const
        if isinstance(expr, Pre):
            sub = self._compile_eval(expr.expr)
            k = self.pre_slot_of[id(expr)]

            def ev_pre(ctx, _sub=sub, _k=k):
                s, _ = _sub(ctx)
                if s == _P or s == _C:
                    return s, ctx.state[_k]
                return s, _PENDING

            return ev_pre
        if isinstance(expr, ClockOf):
            sub = self._compile_eval(expr.expr)

            def ev_clock(ctx, _sub=sub):
                s, _ = _sub(ctx)
                if s == _P or s == _C:
                    return s, True
                return s, _PENDING

            return ev_clock
        if isinstance(expr, Default):
            left = self._compile_eval(expr.left)
            right = self._compile_eval(expr.right)

            def ev_default(ctx, _l=left, _r=right):
                sl, vl = _l(ctx)
                if sl == _P:
                    return _P, vl
                if sl == _C:
                    return _C, vl
                if sl == _A:
                    return _r(ctx)
                sr, _ = _r(ctx)
                if sr == _P:
                    return _P, _PENDING  # present for sure, value pends on left
                return _U, _PENDING

            return ev_default
        if isinstance(expr, When):
            cond = self._compile_eval(expr.cond)
            base = self._compile_eval(expr.expr)

            def ev_when(ctx, _c=cond, _e=base):
                sc, vc = _c(ctx)
                se, ve = _e(ctx)
                if sc == _A or se == _A:
                    return _A, _PENDING
                if sc == _P or sc == _C:
                    if vc is _PENDING:
                        return _U, _PENDING
                    if not vc:
                        return _A, _PENDING
                    if se == _C:
                        return (_C, ve) if sc == _C else (_P, ve)
                    return se, ve
                return _U, _PENDING

            return ev_when
        if isinstance(expr, App):
            fn = BUILTIN_FUNCTIONS[expr.op].fn
            op = expr.op
            subs = tuple(self._compile_eval(a) for a in expr.args)
            forcers = tuple(self._compile_force(a) for a in expr.args)
            if len(subs) == 1:
                a1, f1 = subs[0], forcers[0]

                # forcing an operand with the status it just evaluated to
                # derives nothing (the forcers bottom out in the guarded
                # _set_status), so those forces are skipped
                def ev_app1(ctx, _a1=a1, _fn=fn):
                    s1, v1 = _a1(ctx)
                    if s1 == _P:
                        if v1 is _PENDING:
                            return _P, _PENDING
                        return _P, _fn(v1)
                    if s1 == _A:
                        return _A, _PENDING
                    if s1 == _C:
                        if v1 is _PENDING:
                            return _C, _PENDING
                        return _C, _fn(v1)
                    return _U, _PENDING

                return ev_app1
            if len(subs) == 2:
                a1, a2 = subs
                f1, f2 = forcers

                def ev_app2(ctx, _a1=a1, _a2=a2, _f1=f1, _f2=f2, _fn=fn, _op=op):
                    s1, v1 = _a1(ctx)
                    s2, v2 = _a2(ctx)
                    if s1 == _P or s2 == _P:
                        if s1 == _A or s2 == _A:
                            raise SimulationError(
                                "operands of {!r} are not synchronous "
                                "this instant".format(_op)
                            )
                        if s1 == _U:
                            _f1(ctx, _P)
                        elif s2 == _U:
                            _f2(ctx, _P)
                        if v1 is _PENDING or v2 is _PENDING:
                            return _P, _PENDING
                        return _P, _fn(v1, v2)
                    if s1 == _A or s2 == _A:
                        # _C operands still need the absent force: a
                        # chameleon `default` can hide signals in its dead
                        # branch, and absence pierces both branches
                        if s1 != _A:
                            _f1(ctx, _A)
                        if s2 != _A:
                            _f2(ctx, _A)
                        return _A, _PENDING
                    if s1 == _C and s2 == _C:
                        if v1 is _PENDING or v2 is _PENDING:
                            return _C, _PENDING
                        return _C, _fn(v1, v2)
                    return _U, _PENDING

                return ev_app2

            def ev_app(ctx, _subs=subs, _forcers=forcers, _fn=fn, _op=op):
                results = [s(ctx) for s in _subs]
                has_p = has_a = False
                all_c = True
                for st, _ in results:
                    if st == _P:
                        has_p = True
                        all_c = False
                    elif st == _A:
                        has_a = True
                        all_c = False
                    elif st == _U:
                        all_c = False
                if has_p and has_a:
                    raise SimulationError(
                        "operands of {!r} are not synchronous this instant".format(_op)
                    )
                if has_a:
                    for (st, _), f in zip(results, _forcers):
                        if st != _A:
                            f(ctx, _A)
                    return _A, _PENDING
                if has_p:
                    for (st, _), f in zip(results, _forcers):
                        if st == _U:
                            f(ctx, _P)
                    for _, v in results:
                        if v is _PENDING:
                            return _P, _PENDING
                    return _P, _fn(*[v for _, v in results])
                if all_c:
                    for _, v in results:
                        if v is _PENDING:
                            return _C, _PENDING
                    return _C, _fn(*[v for _, v in results])
                return _U, _PENDING

            return ev_app
        raise SimulationError("cannot compile {!r}".format(expr))

    def _compile_force(self, expr: Expr) -> Callable[[_Ctx, int], None]:
        """Backward presence propagation, compiled (``Interpreter._force``)."""
        names = self.names
        if isinstance(expr, Var):
            i = self.slot[expr.name]

            def force_var(ctx, st, _i=i, _names=names):
                _set_status(ctx, _i, st, _names)

            return force_var
        if isinstance(expr, Const):
            def force_const(ctx, st):
                return None

            return force_const
        if isinstance(expr, (Pre, ClockOf)):
            return self._compile_force(expr.expr)
        if isinstance(expr, App):
            subs = tuple(self._compile_force(a) for a in expr.args)

            def force_app(ctx, st, _subs=subs):
                for f in _subs:
                    f(ctx, st)

            return force_app
        if isinstance(expr, When):
            fe = self._compile_force(expr.expr)
            fc = self._compile_force(expr.cond)

            def force_when(ctx, st, _fe=fe, _fc=fc):
                if st == _P:
                    _fe(ctx, _P)
                    _fc(ctx, _P)

            return force_when
        if isinstance(expr, Default):
            fl = self._compile_force(expr.left)
            fr = self._compile_force(expr.right)

            def force_default(ctx, st, _fl=fl, _fr=fr):
                if st == _A:
                    _fl(ctx, _A)
                    _fr(ctx, _A)

            return force_default
        raise SimulationError("cannot compile {!r}".format(expr))

    # -- step compilation ----------------------------------------------------

    def _compile_equation(self, eq: Equation) -> Callable[[_Ctx], bool]:
        ev = self._compile_eval(eq.expr)
        force = self._compile_force(eq.expr)
        ti = self.slot[eq.target]
        names = self.names

        def step(ctx, _ev=ev, _force=force, _ti=ti, _names=names):
            st, v = _ev(ctx)
            if st == _P:
                _set_status(ctx, _ti, _P, _names)
                if v is not _PENDING:
                    _set_value(ctx, _ti, v, _names)
                    return True
            elif st == _A:
                _set_status(ctx, _ti, _A, _names)
                return True
            elif st == _C:
                ts = ctx.status[_ti]
                if ts == _P and v is not _PENDING:
                    _set_value(ctx, _ti, v, _names)
                    return True
                if ts == _A:
                    return True
            else:
                ts = ctx.status[_ti]
                if ts == _P or ts == _A:
                    _force(ctx, ts)
            return False

        return step

    def _compile_sync(self, sc: SyncConstraint) -> Callable[[_Ctx], bool]:
        idxs = tuple(self.slot[n] for n in sc.names)
        names = self.names
        sc_names = sc.names

        def step(ctx, _idxs=idxs, _names=names, _sc=sc_names):
            has_p = has_a = False
            status = ctx.status
            for i in _idxs:
                s = status[i]
                if s == _P:
                    has_p = True
                elif s == _A:
                    has_a = True
            if has_p and has_a:
                raise SimulationError(
                    "synchronization constraint violated: {}".format(_sc)
                )
            if has_p:
                for i in _idxs:
                    _set_status(ctx, i, _P, _names)
                return True
            if has_a:
                for i in _idxs:
                    _set_status(ctx, i, _A, _names)
                return True
            return False

        return step

    # -- execution -----------------------------------------------------------

    def react_slots(
        self,
        inputs: Mapping[str, object],
        state,
        oracle,
        instant_index: int,
        absent_marker,
    ) -> Tuple[List[int], List[object], List[object]]:
        """One reaction from ``state``: the raw slot-indexed ``(statuses,
        values, new_state)`` in :attr:`names` order (statuses are the
        internal small ints, ``1`` present and ``2`` absent; values of
        non-present slots are unspecified)."""
        # every slot starts unknown and ``inputs`` names each input once,
        # so binding them cannot contradict: plain stores, no dirty facts
        # (the initial sweep sees every fact recorded before it)
        status = self._init_status[:]
        value = self._init_value[:]
        input_slot = self.input_slot
        for name, v in inputs.items():
            i = input_slot.get(name)
            if i is None:
                raise SimulationError("unknown input {!r}".format(name))
            if v is absent_marker:
                status[i] = _A
            else:
                status[i] = _P
                value[i] = v
        for i in self._input_slots:
            if status[i] == _U:
                status[i] = _A
        ctx = _Ctx(status, value, state, len(self.steps))
        self._solve(ctx, oracle, instant_index)
        return status, value, self._next_state(ctx, state)

    def _next_state(self, ctx: _Ctx, state) -> List[object]:
        new_state = list(state)
        for k, ev, node in self.pre_updaters:
            st, v = ev(ctx)
            if st == _P:
                if v is _PENDING:
                    raise SimulationError(
                        "pre operand present without a value: {!r}".format(node)
                    )
                new_state[k] = v
        return new_state

    def _solve(self, ctx: _Ctx, oracle, instant_index: int) -> None:
        names = self.names
        status = ctx.status
        self._propagate(ctx, initial=True)
        while _U in status:
            undetermined = tuple(
                name for name, st in zip(names, status) if st == _U
            )
            if oracle is not None:
                decisions = oracle(instant_index, undetermined)
                applied = False
                for name, present in dict(decisions).items():
                    if name in undetermined:
                        _set_status(
                            ctx, self.slot[name], _P if present else _A, names
                        )
                        applied = True
                if applied:
                    self._propagate(ctx)
                    continue
            # least-clock completion: everything unknown is absent
            for name in undetermined:
                i = self.slot[name]
                status[i] = _A
                ctx.dirty.append(i)
            try:
                self._propagate(ctx)
            except SimulationError as exc:
                raise NonDeterministicClockError(
                    "presence of {} not determined by inputs and the "
                    "least-clock completion is inconsistent ({}); "
                    "provide an oracle".format(sorted(undetermined), exc),
                    undetermined,
                )
            break
        missing = [
            name
            for name, st, v in zip(names, status, ctx.value)
            if v is _PENDING and st == _P
        ]
        if missing:
            raise SimulationError(
                "present signals without a value: {}".format(sorted(missing))
            )

    def _propagate(self, ctx: _Ctx, initial: bool = False) -> None:
        """One sweep (on the first call) plus the residual worklist.

        The sweep visits every unsettled step once in dependency order;
        afterwards only steps consuming a changed signal re-run, so the
        fixpoint closes in near-linear work for causal programs.
        """
        steps = self.steps
        settled = ctx.settled
        dependents = self.dependents
        dirty = ctx.dirty
        queued = ctx.queued
        nq = 0
        if initial:
            # facts recorded before the sweep (the inputs) are visible to
            # every step of the sweep; only changes made *during* it can
            # require re-runs — and only for steps that already ran
            # (dependents later in the order pick the fact up in-sweep)
            del dirty[:]
            for k, step in enumerate(steps):
                if not settled[k] and step(ctx):
                    settled[k] = 1
                if dirty:
                    while dirty:
                        i = dirty.pop()
                        for d in dependents[i]:
                            if d <= k and not queued[d] and not settled[d]:
                                queued[d] = 1
                                nq += 1
        self._residual(ctx, nq)

    def _residual(self, ctx: _Ctx, nq: int) -> None:
        """The residual worklist: re-run only fact-consumers, in schedule
        order, until quiescence (``nq`` steps are already queued)."""
        steps = self.steps
        n_steps = len(steps)
        settled = ctx.settled
        dependents = self.dependents
        dirty = ctx.dirty
        queued = ctx.queued
        while True:
            while dirty:
                i = dirty.pop()
                for d in dependents[i]:
                    if not queued[d] and not settled[d]:
                        queued[d] = 1
                        nq += 1
            if not nq:
                break
            for k in range(n_steps):
                if not queued[k]:
                    continue
                queued[k] = 0
                nq -= 1
                if settled[k]:
                    continue
                if steps[k](ctx):
                    settled[k] = 1
                while dirty:
                    i = dirty.pop()
                    for d in dependents[i]:
                        if not queued[d] and not settled[d]:
                            queued[d] = 1
                            nq += 1

    # -- introspection -------------------------------------------------------

    def __repr__(self) -> str:
        return "ReactionPlan({!r}: {} signals, {} steps, {} registers)".format(
            self.component.name, self.n_signals, len(self.steps), len(self.pre_nodes)
        )


# -- shared plan cache --------------------------------------------------------
#
# Compiling a plan walks the AST once per equation; specializing adds a
# codegen pass, and a compile() for each step shape not yet compiled in
# this process, on top.  Soaks, sweeps and the estimator build
# the *same* components over and over (one fresh AsyncNetwork per task), so
# plans are cached process-wide by component *content* — the canonical
# serialized form, which ignores identity and source spans — under a
# bounded LRU.  Hits, misses and evictions are counted in repro.perf as
# ``plan.cache_hits`` / ``plan.cache_misses`` / ``plan.cache_evictions``,
# which :func:`plan_cache_stats` reads back.
#
# The cache is shared state between whatever threads build reactors — in
# particular the verification service's scheduler thread and its socket
# request handlers — so every access happens under ``_plan_lock``.
# Compilation itself stays inside the lock: racing threads would otherwise
# duplicate the expensive AST walk only for one result to be discarded.

_PLAN_CACHE_CAPACITY = 128
_plan_cache: "OrderedDict[str, ReactionPlan]" = None  # type: ignore
_plan_lock = threading.RLock()


def component_key(component: Component) -> str:
    """A content hash of ``component``: equal for structurally equal
    components regardless of object identity or source locations."""
    import hashlib
    import json

    from repro.lang.serializer import component_to_dict

    payload = json.dumps(
        component_to_dict(component), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def shared_plan(component: Component) -> ReactionPlan:
    """The process-wide cached :class:`repro.sim.specialize.SpecializedPlan`
    for ``component``, one entry per :func:`component_key`.

    A closure plan costs a fraction of a specialized build and is never
    shared: build ``ReactionPlan(component)`` directly.  The cache can be
    emptied with :func:`clear_plan_cache` (useful around benchmarks)."""
    global _plan_cache
    from collections import OrderedDict

    from repro.perf import PERF
    from repro.sim.specialize import SpecializedPlan

    key = component_key(component)
    with _plan_lock:
        if _plan_cache is None:
            _plan_cache = OrderedDict()
        plan = _plan_cache.get(key)
        if plan is not None:
            _plan_cache.move_to_end(key)
            PERF.incr("plan.cache_hits")
            return plan
        PERF.incr("plan.cache_misses")
        plan = SpecializedPlan(component)
        _plan_cache[key] = plan
        while len(_plan_cache) > _PLAN_CACHE_CAPACITY:
            _plan_cache.popitem(last=False)
            PERF.incr("plan.cache_evictions")
        return plan


def clear_plan_cache() -> None:
    """Drop every cached plan, and every compiled step shape of
    :mod:`repro.sim.specialize` (benchmarks use this to time cold
    builds).

    Hit/miss/eviction statistics live in ``repro.perf`` and survive a
    clear."""
    global _plan_cache
    from repro.sim.specialize import clear_code_table

    with _plan_lock:
        _plan_cache = None
    clear_code_table()


def plan_cache_stats() -> Dict[str, int]:
    """This process's cache occupancy plus the ``plan.cache_*`` counts
    of :data:`repro.perf.PERF` — which, outside a task's counter scope,
    include every task folded back from a worker pool."""
    from repro.perf import PERF

    with _plan_lock:
        return {
            "size": 0 if _plan_cache is None else len(_plan_cache),
            "capacity": _PLAN_CACHE_CAPACITY,
            "hits": PERF.get("plan.cache_hits"),
            "misses": PERF.get("plan.cache_misses"),
            "evictions": PERF.get("plan.cache_evictions"),
        }
