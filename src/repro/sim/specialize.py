"""Plan specialization: compile reaction plans to generated Python source.

A :class:`~repro.sim.plan.ReactionPlan` already schedules a component
into slot-indexed steps, but executing one is still a *chain of
closures* — one Python call frame per AST node per evaluation, plus
guarded helper calls for every status/value assignment.
:class:`SpecializedPlan` flattens the plan's entire initial sweep into
one generated Python function: straight-line status/value slot code per
equation (statuses and values in local variables, slots as integer
literals, builtin functions bound to module globals), synchronization
constraints inlined, the topological order baked into the statement
order, and the contradiction guards expanded in place with their error
messages pre-formatted.  The source is compiled once per plan with
:func:`compile`/``exec`` and kept on the plan (``plan.source``) for
inspection.

The fixpoint driver above the sweep — the residual worklist, oracle
handling and least-clock completion — is inherited unchanged from
:class:`~repro.sim.plan.ReactionPlan` (residual re-runs go through the
plan's closure steps; they are rare by construction), so a specialized
plan is *observationally identical* to the plan — and hence to the
reference interpreter — including every raised
:class:`~repro.errors.SimulationError` message.

One escape hatch: any step whose generated body would exceed
:data:`MAX_STEP_LINES` falls back to calling its closure step from
inside the sweep (nested ``default`` chains duplicate their lazy right
branch, which can blow up combinatorially on pathological programs).
The closure plan stays one argument away: ``specialize=False`` on
:func:`repro.sim.plan.shared_plan` and
:func:`repro.sim.batch.simulate_batch` (a bare
:class:`~repro.sim.engine.Reactor` specializes only when asked).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
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
from repro.sim.plan import ReactionPlan, _PENDING

#: Per-step emitted-line budget; steps past it keep their closure form.
MAX_STEP_LINES = 4000

_ST_NAME = "UPAC"


class _Gen:
    """Emits the specialized module source for one plan."""

    def __init__(self, plan: ReactionPlan):
        self.plan = plan
        self.lines: List[str] = []
        self.n_tmp = 0
        self.fn_names: Dict[str, str] = {}
        # while emitting sweep step k, slot assignments requeue their
        # dependent steps with statically-expanded checks (the in-sweep
        # rule ``d <= k``); None = outside the sweep (dynamic dirty list)
        self.cur_step: Optional[int] = None
        self.namespace: Dict[str, object] = {
            "PENDING": _PENDING,
            "SimulationError": SimulationError,
            "DEPS": plan.dependents,
        }

    # -- low-level emission --------------------------------------------------

    def w(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def tmp(self) -> int:
        self.n_tmp += 1
        return self.n_tmp

    def fn_ref(self, op: str) -> str:
        name = self.fn_names.get(op)
        if name is None:
            name = "F{}".format(len(self.fn_names))
            self.fn_names[op] = name
            self.namespace[name] = BUILTIN_FUNCTIONS[op].fn
        return name

    @staticmethod
    def const_lit(value: object) -> str:
        if value is True or value is False or isinstance(value, int):
            return repr(value)
        raise SimulationError(
            "cannot embed constant {!r} in specialized source".format(value)
        )

    # -- monotone slot assignment (inlined _set_status/_set_value) -----------

    def emit_requeue(self, i: int, d: int, skip_self: bool) -> None:
        """The new-fact bookkeeping for slot ``i``.

        Inside the sweep the consumers that must re-run are known
        statically (dependent steps at or before the current one), so the
        dynamic dirty list is replaced by expanded queue checks; outside
        (the register update) facts go on the dirty list as usual.
        ``skip_self`` marks sets whose step settles in the same branch —
        the base sweep drains *after* settling, so the settling step never
        requeues itself on its own facts."""
        if self.cur_step is None:
            self.w(d, "dirty_append({})".format(i))
            return
        for dep in self.plan.dependents[i]:
            if dep <= self.cur_step and not (skip_self and dep == self.cur_step):
                self.w(d, "if not queued[{0}] and not settled[{0}]:".format(dep))
                self.w(d + 1, "queued[{}] = 1".format(dep))
                self.w(d + 1, "nq += 1")

    def emit_set_status(
        self, i: int, st: int, d: int, skip_self: bool = False
    ) -> None:
        w = self.w
        c = "c{}".format(self.tmp())
        head = "clock contradiction on {!r}: ".format(self.plan.names[i])
        tail = " vs {}".format(_ST_NAME[st])
        w(d, "{} = status[{}]".format(c, i))
        w(d, "if {} != {}:".format(c, st))
        w(d + 1, "if {} != 0:".format(c))
        w(d + 2, "raise SimulationError({!r} + {!r}[{}] + {!r})".format(
            head, _ST_NAME, c, tail
        ))
        w(d + 1, "status[{}] = {}".format(i, st))
        self.emit_requeue(i, d + 1, skip_self)

    def emit_set_value(
        self, i: int, v: str, d: int, skip_self: bool = False
    ) -> None:
        w = self.w
        c = "c{}".format(self.tmp())
        fmt = "value contradiction on {!r}: {{!r}} vs {{!r}}".format(
            self.plan.names[i]
        )
        w(d, "{} = value[{}]".format(c, i))
        w(d, "if {} is PENDING:".format(c))
        w(d + 1, "value[{}] = {}".format(i, v))
        self.emit_requeue(i, d + 1, skip_self)
        w(d, "elif {} != {}:".format(c, v))
        w(d + 1, "raise SimulationError({!r}.format({}, {}))".format(fmt, c, v))

    # -- expression evaluation (mirrors ReactionPlan._compile_eval) ----------

    def emit_eval(self, expr: Expr, d: int) -> Tuple[str, str]:
        """Emit statements computing ``expr``; returns the (status, value)
        local-variable names.  Statement order and branch structure mirror
        the closure evaluators exactly, side effects (backward forces,
        raised contradictions) included."""
        w = self.w
        k = self.tmp()
        s, v = "s{}".format(k), "v{}".format(k)
        if isinstance(expr, Var):
            i = self.plan.slot[expr.name]
            w(d, "{} = status[{}]".format(s, i))
            w(d, "if {} == 1:".format(s))
            w(d + 1, "{} = value[{}]".format(v, i))
            w(d, "else:")
            w(d + 1, "{} = PENDING".format(v))
            return s, v
        if isinstance(expr, Const):
            w(d, "{} = 3".format(s))
            w(d, "{} = {}".format(v, self.const_lit(expr.value)))
            return s, v
        if isinstance(expr, Pre):
            ss, _ = self.emit_eval(expr.expr, d)
            m = self.plan.pre_slot_of[id(expr)]
            w(d, "{} = {}".format(s, ss))
            w(d, "if {0} == 1 or {0} == 3:".format(ss))
            w(d + 1, "{} = state[{}]".format(v, m))
            w(d, "else:")
            w(d + 1, "{} = PENDING".format(v))
            return s, v
        if isinstance(expr, ClockOf):
            ss, _ = self.emit_eval(expr.expr, d)
            w(d, "{} = {}".format(s, ss))
            w(d, "if {0} == 1 or {0} == 3:".format(ss))
            w(d + 1, "{} = True".format(v))
            w(d, "else:")
            w(d + 1, "{} = PENDING".format(v))
            return s, v
        if isinstance(expr, Default):
            ls, lv = self.emit_eval(expr.left, d)
            w(d, "if {0} == 1 or {0} == 3:".format(ls))
            w(d + 1, "{} = {}".format(s, ls))
            w(d + 1, "{} = {}".format(v, lv))
            w(d, "elif {} == 2:".format(ls))
            rs, rv = self.emit_eval(expr.right, d + 1)
            w(d + 1, "{} = {}".format(s, rs))
            w(d + 1, "{} = {}".format(v, rv))
            w(d, "else:")
            # left unknown: the merge is present iff the right branch is
            rs2, _ = self.emit_eval(expr.right, d + 1)
            w(d + 1, "{} = 1 if {} == 1 else 0".format(s, rs2))
            w(d + 1, "{} = PENDING".format(v))
            return s, v
        if isinstance(expr, When):
            cs, cv = self.emit_eval(expr.cond, d)
            es, ev = self.emit_eval(expr.expr, d)
            w(d, "if {} == 2 or {} == 2:".format(cs, es))
            w(d + 1, "{} = 2".format(s))
            w(d + 1, "{} = PENDING".format(v))
            w(d, "elif {0} == 1 or {0} == 3:".format(cs))
            w(d + 1, "if {} is PENDING:".format(cv))
            w(d + 2, "{} = 0".format(s))
            w(d + 2, "{} = PENDING".format(v))
            w(d + 1, "elif not {}:".format(cv))
            w(d + 2, "{} = 2".format(s))
            w(d + 2, "{} = PENDING".format(v))
            w(d + 1, "elif {} == 3:".format(es))
            w(d + 2, "{} = 3 if {} == 3 else 1".format(s, cs))
            w(d + 2, "{} = {}".format(v, ev))
            w(d + 1, "else:")
            w(d + 2, "{} = {}".format(s, es))
            w(d + 2, "{} = {}".format(v, ev))
            w(d, "else:")
            w(d + 1, "{} = 0".format(s))
            w(d + 1, "{} = PENDING".format(v))
            return s, v
        if isinstance(expr, App):
            return self.emit_app(expr, d, s, v)
        raise SimulationError("cannot compile {!r}".format(expr))

    def emit_app(self, expr: App, d: int, s: str, v: str) -> Tuple[str, str]:
        w = self.w
        fn = self.fn_ref(expr.op)
        msg = repr(
            "operands of {!r} are not synchronous this instant".format(expr.op)
        )
        pairs = [self.emit_eval(a, d) for a in expr.args]
        if len(pairs) == 1:
            (s1, v1), = pairs
            w(d, "if {} == 1:".format(s1))
            w(d + 1, "if {} is PENDING:".format(v1))
            w(d + 2, "{} = 1".format(s))
            w(d + 2, "{} = PENDING".format(v))
            w(d + 1, "else:")
            w(d + 2, "{} = 1".format(s))
            w(d + 2, "{} = {}({})".format(v, fn, v1))
            w(d, "elif {} == 2:".format(s1))
            w(d + 1, "{} = 2".format(s))
            w(d + 1, "{} = PENDING".format(v))
            w(d, "elif {} == 3:".format(s1))
            w(d + 1, "if {} is PENDING:".format(v1))
            w(d + 2, "{} = 3".format(s))
            w(d + 2, "{} = PENDING".format(v))
            w(d + 1, "else:")
            w(d + 2, "{} = 3".format(s))
            w(d + 2, "{} = {}({})".format(v, fn, v1))
            w(d, "else:")
            w(d + 1, "{} = 0".format(s))
            w(d + 1, "{} = PENDING".format(v))
            return s, v
        if len(pairs) == 2:
            (s1, v1), (s2, v2) = pairs
            a1, a2 = expr.args
            w(d, "if {} == 1 or {} == 1:".format(s1, s2))
            w(d + 1, "if {} == 2 or {} == 2:".format(s1, s2))
            w(d + 2, "raise SimulationError({})".format(msg))
            # one unresolved operand inherits presence (elif, as in ev_app2)
            w(d + 1, "if {} == 0:".format(s1))
            self.emit_force_body(a1, 1, d + 2)
            w(d + 1, "elif {} == 0:".format(s2))
            self.emit_force_body(a2, 1, d + 2)
            w(d + 1, "if {} is PENDING or {} is PENDING:".format(v1, v2))
            w(d + 2, "{} = 1".format(s))
            w(d + 2, "{} = PENDING".format(v))
            w(d + 1, "else:")
            w(d + 2, "{} = 1".format(s))
            w(d + 2, "{} = {}({}, {})".format(v, fn, v1, v2))
            w(d, "elif {} == 2 or {} == 2:".format(s1, s2))
            # absence pierces chameleon defaults: force non-absent operands
            w(d + 1, "if {} != 2:".format(s1))
            self.emit_force_body(a1, 2, d + 2)
            w(d + 1, "if {} != 2:".format(s2))
            self.emit_force_body(a2, 2, d + 2)
            w(d + 1, "{} = 2".format(s))
            w(d + 1, "{} = PENDING".format(v))
            w(d, "elif {} == 3 and {} == 3:".format(s1, s2))
            w(d + 1, "if {} is PENDING or {} is PENDING:".format(v1, v2))
            w(d + 2, "{} = 3".format(s))
            w(d + 2, "{} = PENDING".format(v))
            w(d + 1, "else:")
            w(d + 2, "{} = 3".format(s))
            w(d + 2, "{} = {}({}, {})".format(v, fn, v1, v2))
            w(d, "else:")
            w(d + 1, "{} = 0".format(s))
            w(d + 1, "{} = PENDING".format(v))
            return s, v
        # general arity (mirrors ev_app)
        svars = [p[0] for p in pairs]
        vvars = [p[1] for p in pairs]
        hp = "hp{}".format(self.tmp())
        ha = "ha{}".format(self.tmp())
        w(d, "{} = {}".format(hp, " or ".join("{} == 1".format(x) for x in svars)))
        w(d, "{} = {}".format(ha, " or ".join("{} == 2".format(x) for x in svars)))
        w(d, "if {} and {}:".format(hp, ha))
        w(d + 1, "raise SimulationError({})".format(msg))
        w(d, "if {}:".format(ha))
        for sv, arg in zip(svars, expr.args):
            w(d + 1, "if {} != 2:".format(sv))
            self.emit_force_body(arg, 2, d + 2)
        w(d + 1, "{} = 2".format(s))
        w(d + 1, "{} = PENDING".format(v))
        w(d, "elif {}:".format(hp))
        for sv, arg in zip(svars, expr.args):
            w(d + 1, "if {} == 0:".format(sv))
            self.emit_force_body(arg, 1, d + 2)
        w(d + 1, "if {}:".format(" or ".join("{} is PENDING".format(x) for x in vvars)))
        w(d + 2, "{} = 1".format(s))
        w(d + 2, "{} = PENDING".format(v))
        w(d + 1, "else:")
        w(d + 2, "{} = 1".format(s))
        w(d + 2, "{} = {}({})".format(v, fn, ", ".join(vvars)))
        w(d, "elif {}:".format(" and ".join("{} == 3".format(x) for x in svars)))
        w(d + 1, "if {}:".format(" or ".join("{} is PENDING".format(x) for x in vvars)))
        w(d + 2, "{} = 3".format(s))
        w(d + 2, "{} = PENDING".format(v))
        w(d + 1, "else:")
        w(d + 2, "{} = 3".format(s))
        w(d + 2, "{} = {}({})".format(v, fn, ", ".join(vvars)))
        w(d, "else:")
        w(d + 1, "{} = 0".format(s))
        w(d + 1, "{} = PENDING".format(v))
        return s, v

    # -- backward presence propagation (mirrors _compile_force) --------------

    def emit_force(self, expr: Expr, st: int, d: int) -> bool:
        """Emit the force of ``expr`` to literal status ``st`` (1/2);
        returns whether anything was emitted."""
        if isinstance(expr, Var):
            self.emit_set_status(self.plan.slot[expr.name], st, d)
            return True
        if isinstance(expr, Const):
            return False
        if isinstance(expr, (Pre, ClockOf)):
            return self.emit_force(expr.expr, st, d)
        if isinstance(expr, App):
            emitted = False
            for a in expr.args:
                emitted = self.emit_force(a, st, d) or emitted
            return emitted
        if isinstance(expr, When):
            if st == 1:
                e = self.emit_force(expr.expr, 1, d)
                c = self.emit_force(expr.cond, 1, d)
                return e or c
            return False
        if isinstance(expr, Default):
            if st == 2:
                l = self.emit_force(expr.left, 2, d)
                r = self.emit_force(expr.right, 2, d)
                return l or r
            return False
        raise SimulationError("cannot compile {!r}".format(expr))

    def emit_force_body(self, expr: Expr, st: int, d: int) -> None:
        """Like :meth:`emit_force` but always a valid suite (``pass``)."""
        if not self.emit_force(expr, st, d):
            self.w(d, "pass")

    # -- step bodies (inline style: the step's result lands in ``ok``) -------

    def emit_equation_body(self, eq: Equation, d: int) -> None:
        w = self.w
        ti = self.plan.slot[eq.target]
        s, v = self.emit_eval(eq.expr, d)
        w(d, "ok = False")
        w(d, "if {} == 1:".format(s))
        # testing the value first is pure, so the contradiction order is
        # unchanged; it lets the settling branch skip the self-requeue
        w(d + 1, "if {} is not PENDING:".format(v))
        self.emit_set_status(ti, 1, d + 2, skip_self=True)
        self.emit_set_value(ti, v, d + 2, skip_self=True)
        w(d + 2, "ok = True")
        w(d + 1, "else:")
        self.emit_set_status(ti, 1, d + 2)
        w(d, "elif {} == 2:".format(s))
        self.emit_set_status(ti, 2, d + 1, skip_self=True)
        w(d + 1, "ok = True")
        w(d, "elif {} == 3:".format(s))
        w(d + 1, "ts = status[{}]".format(ti))
        w(d + 1, "if ts == 1 and {} is not PENDING:".format(v))
        self.emit_set_value(ti, v, d + 2, skip_self=True)
        w(d + 2, "ok = True")
        w(d + 1, "elif ts == 2:")
        w(d + 2, "ok = True")
        w(d, "else:")
        w(d + 1, "ts = status[{}]".format(ti))
        w(d + 1, "if ts == 1:")
        self.emit_force_body(eq.expr, 1, d + 2)
        w(d + 1, "elif ts == 2:")
        self.emit_force_body(eq.expr, 2, d + 2)

    def emit_sync_body(self, sc: SyncConstraint, d: int) -> None:
        w = self.w
        idxs = [self.plan.slot[n] for n in sc.names]
        msg = repr("synchronization constraint violated: {}".format(sc.names))
        w(d, "has_p = False")
        w(d, "has_a = False")
        for i in idxs:
            w(d, "ts = status[{}]".format(i))
            w(d, "if ts == 1:")
            w(d + 1, "has_p = True")
            w(d, "elif ts == 2:")
            w(d + 1, "has_a = True")
        w(d, "if has_p and has_a:")
        w(d + 1, "raise SimulationError({})".format(msg))
        w(d, "ok = False")
        w(d, "if has_p:")
        for i in idxs:
            self.emit_set_status(i, 1, d + 1, skip_self=True)
        w(d + 1, "ok = True")
        w(d, "elif has_a:")
        for i in idxs:
            self.emit_set_status(i, 2, d + 1, skip_self=True)
        w(d + 1, "ok = True")

    # -- the generated sweep -------------------------------------------------

    def emit_sweep(self) -> int:
        """The whole initial sweep of :meth:`ReactionPlan._propagate` as
        one function: every step body inlined in schedule order, with the
        in-sweep requeue rule (``d <= k``) after each.  Returns the number
        of inlined (non-fallback) steps."""
        w = self.w
        plan = self.plan
        w(0, "def _sweep(ctx):")
        w(1, "status = ctx.status")
        w(1, "value = ctx.value")
        w(1, "state = ctx.state")
        w(1, "settled = ctx.settled")
        w(1, "queued = ctx.queued")
        w(1, "dirty = ctx.dirty")
        w(1, "del dirty[:]")
        w(1, "nq = 0")
        inlined = 0
        for k, (kind, st) in enumerate(plan.schedule):
            mark = len(self.lines)
            label = st.target if kind == "eq" else "sync {}".format(st.names)
            w(1, "# step {}: {}".format(k, label))
            self.cur_step = k
            try:
                if kind == "eq":
                    self.emit_equation_body(st, 1)
                else:
                    self.emit_sync_body(st, 1)
                too_big = len(self.lines) - mark > MAX_STEP_LINES
            except SimulationError:
                too_big = True  # unembeddable constant: keep the closure
            finally:
                self.cur_step = None
            if too_big:
                # the closure records facts on the dirty list; drain it
                # with the in-sweep requeue rule, as the base sweep does
                del self.lines[mark + 1:]
                fb = "_fb_{}".format(k)
                self.namespace[fb] = plan.steps[k]
                w(1, "ok = {}(ctx)".format(fb))
                w(1, "if ok:")
                w(2, "settled[{}] = 1".format(k))
                w(1, "while dirty:")
                w(2, "i = dirty.pop()")
                w(2, "for d in DEPS[i]:")
                w(3, "if d <= {} and not queued[d] and not settled[d]:".format(k))
                w(4, "queued[d] = 1")
                w(4, "nq += 1")
            else:
                inlined += 1
                w(1, "if ok:")
                w(2, "settled[{}] = 1".format(k))
        w(1, "return nq")
        w(0, "")
        return inlined

    def emit_advance(self) -> bool:
        """The ``pre``-register update (mirrors ReactionPlan._next_state);
        returns False (and rolls back) when over budget or unembeddable."""
        w = self.w
        mark = len(self.lines)
        w(0, "def _advance(ctx, old):")
        w(1, "status = ctx.status")
        w(1, "value = ctx.value")
        w(1, "state = ctx.state")
        w(1, "dirty_append = ctx.dirty.append")
        w(1, "new = list(old)")
        try:
            for k, _, node in self.plan.pre_updaters:
                msg = repr(
                    "pre operand present without a value: {!r}".format(node)
                )
                s, v = self.emit_eval(node.expr, 1)
                w(1, "if {} == 1:".format(s))
                w(2, "if {} is PENDING:".format(v))
                w(3, "raise SimulationError({})".format(msg))
                w(2, "new[{}] = {}".format(k, v))
        except SimulationError:
            del self.lines[mark:]
            return False
        if len(self.lines) - mark > MAX_STEP_LINES:
            del self.lines[mark:]
            return False
        w(1, "return new")
        w(0, "")
        return True


def generate(plan: ReactionPlan):
    """Generate and compile the specialized module for ``plan``.

    Returns ``(source, sweep_fn, advance_fn, n_inlined)``."""
    gen = _Gen(plan)
    n_inlined = gen.emit_sweep()
    has_advance = bool(plan.pre_updaters) and gen.emit_advance()
    header = "# specialized reaction plan for component {!r}\n".format(
        plan.component.name
    )
    source = header + "\n".join(gen.lines) + "\n"
    namespace = gen.namespace
    code = compile(source, "<specialized:{}>".format(plan.component.name), "exec")
    exec(code, namespace)
    return (
        source,
        namespace["_sweep"],
        namespace["_advance"] if has_advance else None,
        n_inlined,
    )


class SpecializedPlan(ReactionPlan):
    """A :class:`~repro.sim.plan.ReactionPlan` whose initial sweep is
    generated straight-line Python instead of closure chains.

    Construction compiles the plan normally first (the closure steps
    serve the residual worklist and any over-budget step), then installs
    the generated sweep.  Execution, counters and introspection are
    inherited; :attr:`kind` marks the counters for attribution
    (``sim.plan.spec.*`` vs ``sim.plan.*``)."""

    kind = "plan.spec"

    def __init__(self, component: Component):
        super().__init__(component)
        source, sweep_fn, advance_fn, n_inlined = generate(self)
        self.source = source
        self._sweep_fn = sweep_fn
        self._advance_fn = advance_fn
        self.specialized_steps = n_inlined
        self.fallback_steps = len(self.steps) - n_inlined

    def _propagate(self, ctx, initial: bool = False) -> None:
        if initial:
            nq = self._sweep_fn(ctx)
            self.counters["sweeps"] += 1
            if nq or ctx.dirty:
                self._residual(ctx, nq)
        else:
            super()._propagate(ctx, initial)

    def _next_state(self, ctx, state):
        fn = self._advance_fn
        if fn is not None:
            return fn(ctx, state)
        return super()._next_state(ctx, state)

    def __repr__(self) -> str:
        return (
            "SpecializedPlan({!r}: {} signals, {} steps "
            "[{} inlined], {} registers)".format(
                self.component.name,
                self.n_signals,
                len(self.steps),
                self.specialized_steps,
                len(self.pre_nodes),
            )
        )


def specialize(design) -> SpecializedPlan:
    """Specialize a component or an existing plan.

    Accepts a :class:`~repro.lang.ast.Component` or a
    :class:`~repro.sim.plan.ReactionPlan`; returns a
    :class:`SpecializedPlan` compiled for (the component of) it, outside
    the process-wide cache of :func:`repro.sim.plan.shared_plan`."""
    comp = design.component if isinstance(design, ReactionPlan) else design
    return SpecializedPlan(comp)
