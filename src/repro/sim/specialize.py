"""Plan specialization: compile reaction plans to generated Python source.

A :class:`~repro.sim.plan.ReactionPlan` already schedules a component
into slot-indexed steps, but executing one is still a *chain of
closures* — one Python call frame per AST node per evaluation, plus
guarded helper calls for every status/value assignment.
:class:`SpecializedPlan` generates each schedule step as one function of
straight-line status/value slot code, ``_s<k>(ctx, status, value, state,
settled, queued, dirty)``, which returns how many steps it requeued:
statuses and values in local variables, slots as integer literals,
builtin functions bound to module globals, synchronization constraints
inlined, and the contradiction guards of the settling path expanded in
place with their error messages pre-formatted.  A generated ``_sweep``
loads the slot lists once and calls the steps in schedule order, so the
topological order is baked into the call order.  Backward presence
forces, the cold branches, are one call each to a per-plan helper that
takes the slots to force and, per slot, the precomputed tuple of steps
to requeue.  Each function is compiled on its own (one small
:func:`compile` at a time keeps a build's memory transient a fraction
of one compile of the whole module), and the module source is kept on
the plan (``plan.source``) for inspection.

The fixpoint driver above the sweep — the residual worklist, oracle
handling and least-clock completion — is inherited unchanged from
:class:`~repro.sim.plan.ReactionPlan` (residual re-runs go through the
plan's closure steps), so a specialized plan is *observationally
identical* to the plan — and hence to the reference interpreter —
including every raised :class:`~repro.errors.SimulationError` message.

The source is linear in the size of each expression: every operand is
emitted once (``default`` evaluates its right branch under one ``else``
and only then branches on the left status) and an application computes
its value once, after its status chain.  One escape hatch remains: a
step whose generated body would exceed :data:`MAX_STEP_LINES` lines, or
nest deeper than :data:`MAX_STEP_DEPTH` blocks (each right-nested
``default`` adds one, and CPython rejects source indented 100 levels
deep), calls its closure step instead, as does a step holding a
constant the source cannot embed.  No step of the designs corpus or of
its instrumented networks comes near either bound.

A plan pickles as its component and is rebuilt where it is loaded (a
spawn or forkserver sweep worker builds it again); a forked worker
inherits the built plan.

:func:`repro.sim.plan.shared_plan` caches this plan, and
:func:`repro.sim.batch.simulate_batch` runs it by default; a bare
:class:`~repro.sim.engine.Reactor` (what :class:`~repro.sim.cosim.Cosim`
and the checkers build) runs the closure plan, and runs this one given
``plan=SpecializedPlan(comp)``.
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
from repro.sim.plan import ReactionPlan, _PENDING, _ST_NAME, _set_status

#: Per-step emitted-line budget; steps past it keep their closure form.
MAX_STEP_LINES = 4000

#: Per-step nesting budget, in indentation levels below the step's body.
MAX_STEP_DEPTH = 90

#: The parameters of every generated step function.
_STEP_ARGS = "ctx, status, value, state, settled, queued, dirty"


def _make_force(names):
    """The in-sweep backward force of one plan.

    ``force(ctx, st, targets)`` sets each slot of ``targets`` — ``(slot,
    requeue)`` pairs in force order — to status ``st`` as
    :func:`repro.sim.plan._set_status` would, but instead of recording a
    dirty fact it queues the slot's consumers that already ran this sweep
    (``requeue``, computed when the source is generated).  Returns how
    many steps it queued."""

    def force(ctx, st, targets):
        status = ctx.status
        queued = ctx.queued
        settled = ctx.settled
        nq = 0
        for i, requeue in targets:
            cur = status[i]
            if cur == st:
                continue
            if cur != 0:
                raise SimulationError(
                    "clock contradiction on {!r}: {} vs {}".format(
                        names[i], _ST_NAME[cur], _ST_NAME[st]
                    )
                )
            status[i] = st
            for d in requeue:
                if not queued[d] and not settled[d]:
                    queued[d] = 1
                    nq += 1
        return nq

    return force


class _Gen:
    """Emits the specialized module source for one plan, one function
    (a *chunk*) at a time."""

    def __init__(self, plan: ReactionPlan):
        self.plan = plan
        self.lines: List[str] = []
        # the finished functions' sources, in module order
        self.chunks: List[str] = []
        # deepest indentation emitted since the last reset (per step)
        self.depth = 0
        self.n_tmp = 0
        self.fn_names: Dict[str, str] = {}
        # while emitting sweep step k, new facts requeue their dependent
        # steps by the in-sweep rule ``d <= k``, expanded statically; None =
        # the register update, which runs after the fixpoint
        self.cur_step: Optional[int] = None
        self.namespace: Dict[str, object] = {
            "PENDING": _PENDING,
            "SimulationError": SimulationError,
            "DEPS": plan.dependents,
            "NAMES": plan.names,
            "force": _make_force(plan.names),
            "set_status": _set_status,
        }

    # -- low-level emission --------------------------------------------------

    def w(self, depth: int, text: str) -> None:
        if depth > self.depth:
            self.depth = depth
        self.lines.append("    " * depth + text)

    def fits(self, mark: int) -> bool:
        """Whether the code emitted since line ``mark`` is within budget."""
        return (
            len(self.lines) - mark <= MAX_STEP_LINES
            and self.depth <= MAX_STEP_DEPTH
        )

    def end_chunk(self) -> None:
        """Close the function emitted since the last chunk."""
        self.chunks.append("\n".join(self.lines) + "\n")
        self.lines = []

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

    # -- monotone sets of the step's target (inlined _set_status/_set_value) -

    def requeue(self, i: int, skip_self: bool = False) -> Tuple[int, ...]:
        """The steps a new fact on slot ``i`` requeues during the current
        sweep step ``k``: its consumers at or before ``k`` (later ones pick
        the fact up in-sweep).  ``skip_self`` drops ``k`` itself, for sets
        whose step settles in the same branch — the base sweep drains
        *after* settling, so the settling step never requeues itself on
        its own facts."""
        k = self.cur_step
        return tuple(
            d
            for d in self.plan.dependents[i]
            if d <= k and not (skip_self and d == k)
        )

    def emit_requeue(self, i: int, d: int) -> None:
        """Requeue for a new fact of a settling step (so never itself)."""
        for dep in self.requeue(i, skip_self=True):
            self.w(d, "if not queued[{0}] and not settled[{0}]:".format(dep))
            self.w(d + 1, "queued[{}] = 1".format(dep))
            self.w(d + 1, "nq += 1")

    def emit_set_status(self, i: int, st: int, d: int) -> None:
        """Set the settling step's target (slot ``i``, status read into
        ``ts``)."""
        w = self.w
        head = "clock contradiction on {!r}: ".format(self.plan.names[i])
        tail = " vs {}".format(_ST_NAME[st])
        w(d, "if ts != {}:".format(st))
        w(d + 1, "if ts != 0:")
        w(d + 2, "raise SimulationError({!r} + {!r}[ts] + {!r})".format(
            head, _ST_NAME, tail
        ))
        w(d + 1, "status[{}] = {}".format(i, st))
        self.emit_requeue(i, d + 1)

    def emit_set_value(self, i: int, v: str, d: int) -> None:
        w = self.w
        c = "c{}".format(self.tmp())
        fmt = "value contradiction on {!r}: {{!r}} vs {{!r}}".format(
            self.plan.names[i]
        )
        w(d, "{} = value[{}]".format(c, i))
        w(d, "if {} is PENDING:".format(c))
        w(d + 1, "value[{}] = {}".format(i, v))
        self.emit_requeue(i, d + 1)
        w(d, "elif {} != {}:".format(c, v))
        w(d + 1, "raise SimulationError({!r}.format({}, {}))".format(fmt, c, v))

    # -- expression evaluation (mirrors ReactionPlan._compile_eval) ----------

    def emit_eval(self, expr: Expr, d: int) -> Tuple[str, str]:
        """Emit statements computing ``expr``; returns the names of the
        locals holding its (status, value).  Statement order and branch
        structure mirror the closure evaluators, side effects (backward
        forces, raised contradictions) included.  Two facts of those
        evaluators keep the code short: an absent or unknown status (2 or
        0) always comes with a ``PENDING`` value, and no local is assigned
        again after its node, so a node may pass an operand's status
        through by name."""
        w = self.w
        k = self.tmp()
        s, v = "s{}".format(k), "v{}".format(k)
        if isinstance(expr, Var):
            i = self.plan.slot[expr.name]
            w(d, "{} = status[{}]".format(s, i))
            w(d, "{} = value[{}] if {} == 1 else PENDING".format(v, i, s))
            return s, v
        if isinstance(expr, Const):
            w(d, "{} = 3".format(s))
            w(d, "{} = {}".format(v, self.const_lit(expr.value)))
            return s, v
        if isinstance(expr, (Pre, ClockOf)):
            ss, _ = self.emit_eval(expr.expr, d)
            if isinstance(expr, Pre):
                got = "state[{}]".format(self.plan.pre_slot_of[id(expr)])
            else:
                got = "True"
            w(d, "{0} = {1} if {2} == 1 or {2} == 3 else PENDING".format(
                v, got, ss
            ))
            return ss, v
        if isinstance(expr, Default):
            ls, lv = self.emit_eval(expr.left, d)
            w(d, "if {0} == 1 or {0} == 3:".format(ls))
            w(d + 1, "{} = {}".format(s, ls))
            w(d + 1, "{} = {}".format(v, lv))
            w(d, "else:")
            # the right branch runs once, for an absent or unknown left
            rs, rv = self.emit_eval(expr.right, d + 1)
            w(d + 1, "if {} == 2:".format(ls))
            w(d + 2, "{} = {}".format(s, rs))
            w(d + 2, "{} = {}".format(v, rv))
            w(d + 1, "else:")
            # left unknown: the merge is present iff the right branch is
            w(d + 2, "{} = 1 if {} == 1 else 0".format(s, rs))
            w(d + 2, "{} = PENDING".format(v))
            return s, v
        if isinstance(expr, When):
            cs, cv = self.emit_eval(expr.cond, d)
            es, ev = self.emit_eval(expr.expr, d)
            w(d, "{} = PENDING".format(v))
            w(d, "if {} == 2 or {} == 2:".format(cs, es))
            w(d + 1, "{} = 2".format(s))
            # an unknown condition has a PENDING value too
            w(d, "elif {} is PENDING:".format(cv))
            w(d + 1, "{} = 0".format(s))
            w(d, "elif not {}:".format(cv))
            w(d + 1, "{} = 2".format(s))
            w(d, "else:")
            # the condition is present or constant here: a constant base
            # takes its clock
            w(d + 1, "{} = {} if {} == 3 else {}".format(s, cs, es, es))
            w(d + 1, "{} = {}".format(v, ev))
            return s, v
        if isinstance(expr, App):
            return self.emit_app(expr, d, s, v)
        raise SimulationError("cannot compile {!r}".format(expr))

    def emit_app(self, expr: App, d: int, s: str, v: str) -> Tuple[str, str]:
        w = self.w
        args = expr.args
        fn = self.fn_ref(expr.op)
        if len(args) == 2 and isinstance(args[0], Const) != isinstance(
            args[1], Const
        ):
            # a constant operand is constant at every clock and forces
            # nothing, so ev_app2 reduces to a unary application of the
            # other operand: its status, and a value once that one has one
            k = 1 if isinstance(args[0], Const) else 0
            s, vk = self.emit_eval(args[k], d)
            values = [vk, vk]
            values[1 - k] = self.const_lit(args[1 - k].value)
            pending = [vk]
        else:
            pairs = [self.emit_eval(a, d) for a in args]
            pending = values = [p[1] for p in pairs]
            if len(pairs) == 1:
                s = pairs[0][0]  # a unary application has its operand's status
            else:
                self.emit_app_status(expr, [p[0] for p in pairs], d, s)
        # the value, once: a result that is neither present nor constant
        # has an absent or unknown operand, whose value is PENDING
        w(d, "{} = PENDING if {} else {}({})".format(
            v,
            " or ".join("{} is PENDING".format(x) for x in pending),
            fn,
            ", ".join(values),
        ))
        return s, v

    def emit_app_status(self, expr: App, svars: List[str], d: int, s: str) -> None:
        """The status chain of an application of two or more operands,
        with its raised contradiction and backward forces (mirrors
        ev_app2 and ev_app)."""
        w = self.w
        msg = repr(
            "operands of {!r} are not synchronous this instant".format(expr.op)
        )
        if len(svars) == 2:
            (s1, s2), (a1, a2) = svars, expr.args
            w(d, "if {} == 1 or {} == 1:".format(s1, s2))
            w(d + 1, "if {} == 2 or {} == 2:".format(s1, s2))
            w(d + 2, "raise SimulationError({})".format(msg))
            # one unresolved operand inherits presence (elif, as in ev_app2)
            f1, f2 = self.force_lines(a1, 1), self.force_lines(a2, 1)
            if f1 or f2:
                w(d + 1, "if {} == 0:".format(s1))
                for line in f1 or ["pass"]:
                    w(d + 2, line)
                if f2:
                    w(d + 1, "elif {} == 0:".format(s2))
                    for line in f2:
                        w(d + 2, line)
            w(d + 1, "{} = 1".format(s))
            w(d, "elif {} == 2 or {} == 2:".format(s1, s2))
            # absence pierces chameleon defaults: force non-absent operands
            self.emit_forces(zip(svars, expr.args), "{} != 2", 2, d + 1)
            w(d + 1, "{} = 2".format(s))
            w(d, "elif {} == 3 and {} == 3:".format(s1, s2))
        else:
            hp = " or ".join("{} == 1".format(x) for x in svars)
            ha = " or ".join("{} == 2".format(x) for x in svars)
            w(d, "if ({}) and ({}):".format(hp, ha))
            w(d + 1, "raise SimulationError({})".format(msg))
            w(d, "if {}:".format(ha))
            self.emit_forces(zip(svars, expr.args), "{} != 2", 2, d + 1)
            w(d + 1, "{} = 2".format(s))
            w(d, "elif {}:".format(hp))
            self.emit_forces(zip(svars, expr.args), "{} == 0", 1, d + 1)
            w(d + 1, "{} = 1".format(s))
            w(d, "elif {}:".format(" and ".join("{} == 3".format(x) for x in svars)))
        w(d + 1, "{} = 3".format(s))
        w(d, "else:")
        w(d + 1, "{} = 0".format(s))

    # -- backward presence propagation (mirrors _compile_force) --------------

    def force_slots(self, expr: Expr, st: int) -> List[int]:
        """The slots a force of ``expr`` to status ``st`` sets, in order."""
        if isinstance(expr, Var):
            return [self.plan.slot[expr.name]]
        if isinstance(expr, Const):
            return []
        if isinstance(expr, (Pre, ClockOf)):
            return self.force_slots(expr.expr, st)
        if isinstance(expr, App):
            return [i for a in expr.args for i in self.force_slots(a, st)]
        if isinstance(expr, When):
            if st == 1:
                return self.force_slots(expr.expr, 1) + self.force_slots(
                    expr.cond, 1
                )
            return []
        if isinstance(expr, Default):
            if st == 2:
                return self.force_slots(expr.left, 2) + self.force_slots(
                    expr.right, 2
                )
            return []
        raise SimulationError("cannot compile {!r}".format(expr))

    def force_lines(self, expr: Expr, st: int) -> List[str]:
        """The statements forcing ``expr`` to literal status ``st`` (1/2);
        empty when the force cannot set anything.  A slot met twice is
        forced once: the second set is a no-op."""
        slots = list(dict.fromkeys(self.force_slots(expr, st)))
        if not slots:
            return []
        if self.cur_step is None:
            return [
                "set_status(ctx, {}, {}, NAMES)".format(i, st) for i in slots
            ]
        targets = tuple((i, self.requeue(i)) for i in slots)
        return ["nq += force(ctx, {}, {!r})".format(st, targets)]

    def emit_forces(self, operands, cond: str, st: int, d: int) -> None:
        """``if <cond>: <force>`` for each ``(status, expr)`` operand with
        anything to force (``cond`` formats the operand's status)."""
        for sv, expr in operands:
            lines = self.force_lines(expr, st)
            if lines:
                self.w(d, "if {}:".format(cond.format(sv)))
                for line in lines:
                    self.w(d + 1, line)

    # -- step bodies ---------------------------------------------------------

    def emit_equation_body(self, eq: Equation, d: int) -> None:
        w = self.w
        ti = self.plan.slot[eq.target]
        settle = "settled[{}] = 1".format(self.cur_step)
        s, v = self.emit_eval(eq.expr, d)
        # every guard below tests the target's status as read here: no
        # statement in between writes it
        w(d, "ts = status[{}]".format(ti))
        w(d, "if {} == 1:".format(s))
        # testing the value first is pure, so the contradiction order is
        # unchanged; it lets the settling branch skip the self-requeue
        w(d + 1, "if {} is not PENDING:".format(v))
        self.emit_set_status(ti, 1, d + 2)
        self.emit_set_value(ti, v, d + 2)
        w(d + 2, settle)
        # present without a value yet: the step stays unsettled, and the
        # set, a cold branch, goes through the force helper
        w(d + 1, "else:")
        w(d + 2, "nq += force(ctx, 1, {!r})".format(((ti, self.requeue(ti)),)))
        w(d, "elif {} == 2:".format(s))
        self.emit_set_status(ti, 2, d + 1)
        w(d + 1, settle)
        w(d, "elif {} == 3:".format(s))
        w(d + 1, "if ts == 1 and {} is not PENDING:".format(v))
        self.emit_set_value(ti, v, d + 2)
        w(d + 2, settle)
        w(d + 1, "elif ts == 2:")
        w(d + 2, settle)
        # unknown expression, known target: force the target's status back
        for st in (1, 2):
            lines = self.force_lines(eq.expr, st)
            if lines:
                w(d, "elif ts == {}:".format(st))
                for line in lines:
                    w(d + 1, line)

    def emit_sync_body(self, sc: SyncConstraint, d: int) -> None:
        w = self.w
        settle = "settled[{}] = 1".format(self.cur_step)
        msg = repr("synchronization constraint violated: {}".format(sc.names))
        # a name listed twice is set once: the second set is a no-op
        idxs = list(dict.fromkeys(self.plan.slot[n] for n in sc.names))
        reads = []
        for i in idxs:
            t = "t{}".format(self.tmp())
            w(d, "{} = status[{}]".format(t, i))
            reads.append(t)
        present = " or ".join("{} == 1".format(t) for t in reads)
        absent = " or ".join("{} == 2".format(t) for t in reads)
        w(d, "if {}:".format(present))
        w(d + 1, "if {}:".format(absent))
        w(d + 2, "raise SimulationError({})".format(msg))
        self.emit_sync_sets(idxs, reads, 1, d + 1)
        w(d + 1, settle)
        w(d, "elif {}:".format(absent))
        self.emit_sync_sets(idxs, reads, 2, d + 1)
        w(d + 1, settle)

    def emit_sync_sets(self, idxs, reads, st: int, d: int) -> None:
        """Set every member to ``st``.  No member holds the opposite
        status here, so only the unknown ones change and none of the sets
        can raise a contradiction."""
        for i, t in zip(idxs, reads):
            self.w(d, "if {} == 0:".format(t))
            self.w(d + 1, "status[{}] = {}".format(i, st))
            self.emit_requeue(i, d + 1)

    # -- the generated sweep -------------------------------------------------

    def emit_step(self, k: int) -> bool:
        """Schedule step ``k`` as the function ``_s<k>``: the step's body
        with the in-sweep requeue rule (``d <= k``) expanded after each
        new fact, returning how many steps it queued.  A step over budget,
        or holding an unembeddable constant, calls its closure step and
        drains the dirty list by the same rule, as the base sweep does.
        Returns whether the step was inlined."""
        w = self.w
        kind, st = self.plan.schedule[k]
        label = st.target if kind == "eq" else "sync {}".format(st.names)
        w(0, "# step {}: {}".format(k, label))
        w(0, "def _s{}({}):".format(k, _STEP_ARGS))
        mark = len(self.lines)
        w(1, "nq = 0")
        self.cur_step = k
        self.depth = 0
        try:
            if kind == "eq":
                self.emit_equation_body(st, 1)
            else:
                self.emit_sync_body(st, 1)
            fits = self.fits(mark)
        except SimulationError:
            fits = False  # unembeddable constant: keep the closure
        finally:
            self.cur_step = None
        if not fits:
            del self.lines[mark + 1:]
            fb = "_fb_{}".format(k)
            self.namespace[fb] = self.plan.steps[k]
            w(1, "if {}(ctx):".format(fb))
            w(2, "settled[{}] = 1".format(k))
            w(1, "while dirty:")
            w(2, "i = dirty.pop()")
            w(2, "for d in DEPS[i]:")
            w(3, "if d <= {} and not queued[d] and not settled[d]:".format(k))
            w(4, "queued[d] = 1")
            w(4, "nq += 1")
        w(1, "return nq")
        self.end_chunk()
        return fits

    def emit_sweep(self) -> int:
        """The initial sweep of :meth:`ReactionPlan._propagate`: every
        step function, called once in schedule order.  Returns the number
        of inlined (non-fallback) steps."""
        w = self.w
        inlined = 0
        for k in range(len(self.plan.schedule)):
            inlined += self.emit_step(k)
        w(0, "def _sweep(ctx):")
        w(1, "status = ctx.status")
        w(1, "value = ctx.value")
        w(1, "state = ctx.state")
        w(1, "settled = ctx.settled")
        w(1, "queued = ctx.queued")
        w(1, "dirty = ctx.dirty")
        w(1, "del dirty[:]")
        w(1, "nq = 0")
        for k in range(len(self.plan.schedule)):
            w(1, "nq += _s{}({})".format(k, _STEP_ARGS))
        w(1, "return nq")
        self.end_chunk()
        return inlined

    def emit_advance(self) -> bool:
        """The ``pre``-register update (mirrors ReactionPlan._next_state);
        returns False (and rolls back) when over budget or unembeddable."""
        w = self.w
        mark = len(self.lines)
        self.depth = 0
        w(0, "def _advance(ctx, old):")
        w(1, "status = ctx.status")
        w(1, "value = ctx.value")
        w(1, "state = ctx.state")
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
            fits = self.fits(mark)
        except SimulationError:
            fits = False
        if not fits:
            del self.lines[mark:]
            return False
        w(1, "return new")
        self.end_chunk()
        return True


def generate(plan: ReactionPlan):
    """Generate and compile the specialized module for ``plan``, one
    function at a time.

    Returns ``(source, sweep_fn, advance_fn, n_inlined)``."""
    gen = _Gen(plan)
    n_inlined = gen.emit_sweep()
    has_advance = bool(plan.pre_updaters) and gen.emit_advance()
    filename = "<specialized:{}>".format(plan.component.name)
    namespace = gen.namespace
    for chunk in gen.chunks:
        exec(compile(chunk, filename, "exec"), namespace)
    source = "# specialized reaction plan for component {!r}\n".format(
        plan.component.name
    ) + "\n".join(gen.chunks)
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
    the generated sweep.  Execution and introspection are inherited;
    :attr:`kind` names the reaction counts of ``simulate`` and
    ``simulate_batch`` (``sim.plan.spec.reactions`` vs
    ``sim.plan.reactions``).  A plan pickles as its component, and
    loading one runs this constructor again."""

    kind = "plan.spec"

    def __init__(self, component: Component):
        super().__init__(component)
        source, sweep_fn, advance_fn, n_inlined = generate(self)
        self.source = source
        self._sweep_fn = sweep_fn
        self._advance_fn = advance_fn
        self.specialized_steps = n_inlined
        self.fallback_steps = len(self.steps) - n_inlined

    def __reduce__(self):
        return (SpecializedPlan, (self.component,))

    def _propagate(self, ctx, initial: bool = False) -> None:
        if initial:
            nq = self._sweep_fn(ctx)
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
