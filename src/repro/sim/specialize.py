"""Specialized reaction plans: a component compiled to generated Python.

The reference :class:`~repro.sim.engine.Interpreter` walks the AST anew
at every instant and re-sweeps every equation until nothing changes.
A :class:`SpecializedPlan` compiles a component **once**:

- every signal is mapped to an integer slot; per-instant presence
  statuses and values live in flat lists indexed by slot;
- the equations are ordered by the strongly connected components of the
  full data-flow graph (:func:`repro.lang.analysis.dependency_graph`,
  ``pre`` included), and each synchronization constraint is interleaved
  right after the first point where one of its members can be known;
- each step of that schedule becomes one generated function of
  straight-line status/value slot code, ``_s<k>(ctx, status, value,
  state, settled, queued)``, which returns how many steps it requeued:
  statuses and values in local variables, slots and steps as constants,
  synchronization constraints inlined, and the contradiction guards of
  the settling path expanded in place with their error messages
  pre-formatted.  Backward presence forces, the cold branches, are one
  call each to a per-plan helper that takes the slots to force and, per
  slot, the precomputed tuple of steps to requeue.

A generated ``_sweep`` loads the slot lists once and calls every step in
schedule order, so the forward/backward fixpoint usually completes in
that one pass.  A new fact requeues only the unsettled consumers at or
before the running step ``k`` (every later one runs later in the pass).
The residual is a re-sweep over the same functions: while a step is
queued, every unsettled step from the first queued one to the end of the
schedule runs again.  An unsettled step none of whose reads changed
derives nothing and raises nothing (every set is guarded), so the
effective re-runs, and their order, are those of a worklist that re-runs
exactly the consumers of each new fact.  Oracle decisions and the
least-clock completion queue the consumers of the statuses they set.

The plan executes the *same* monotone constraint propagation as the
interpreter (statuses only ever move from unknown to present/absent, all
derivable facts are derived before an instant completes), so outputs,
state trajectories and rejections — the exception type at the same
instant — are identical; the message of a rejection can differ, since
the plan may meet a conflict from another side first.  The interpreter
answers the plan's one call, :meth:`SpecializedPlan.react_slots`, so it
runs wherever a plan does: pass it as ``plan=``.

Steps of different plans, and of one plan, often differ only in their
slots, steps, requeue tuples, embedded constants, builtin operators and
error messages.  So the generator emits each function as a *shape*: its
source with every one of those as a placeholder (a constant, or a
global name for a builtin), while the status codes 0–3 stay literals.  A
process-wide code table compiles each distinct shape once
(:data:`_CODE_TABLE_CAPACITY` shapes, least recently used out first),
and each plan's functions are that code with the plan's values put back
into its constants and names (``code.replace``), bound by
:class:`types.FunctionType` to the plan's globals.  A bound step runs the
same bytecode as one compiled from its own literal source.  The source
itself is not kept: ``plan.source`` renders it again, literals in place,
for inspection.

The source is linear in the size of each expression: every operand is
emitted once (``default`` evaluates its right branch under one ``else``
and only then branches on the left status) and an application computes
its value once, after its status chain.  A function whose body would
exceed :data:`MAX_STEP_LINES` lines, or nest deeper than
:data:`MAX_STEP_DEPTH` blocks (each right-nested ``default`` adds one,
and CPython rejects source indented 100 levels deep), makes the build
raise :class:`PlanBudgetError`; :func:`repro.sim.plan.shared_plan` then
runs the component on the interpreter.  No component of the designs
corpus or of its instrumented networks comes near either bound.

A plan pickles as its component and loads through the loading
process's plan cache (:func:`repro.sim.plan.shared_plan`): a sweep
worker builds it on its first load and answers every later one from
its cache.

:func:`repro.sim.plan.shared_plan` caches this plan, and every
:class:`~repro.sim.engine.Reactor` built without ``plan=`` (``simulate``,
:class:`~repro.sim.cosim.Cosim`, the GALS network, the explicit-state
compiler and the bounded checker) and
:func:`repro.sim.batch.simulate_batch` run the cached one.
"""

from __future__ import annotations

import heapq
import threading
import types
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import NonDeterministicClockError, ReproError, SimulationError
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
from repro.lang.typecheck import check_component
from repro.lang.types import BUILTIN_FUNCTIONS
from repro.perf import PERF
from repro.sim.engine import ABSENT, pre_registers

#: Per-function emitted-line budget; a plan past it is not built.
MAX_STEP_LINES = 4000

#: Per-function nesting budget, in indentation levels below its body.
MAX_STEP_DEPTH = 90

#: The parameters of every generated step function.
_STEP_ARGS = "ctx, status, value, state, settled, queued"

# presence statuses as small ints: 0 unknown, 1 present, 2 absent, 3
# constant (the interpreter uses one-letter strings; error messages render
# these by their letter)
_ST_NAME = "UPAC"


class _Pending:
    def __repr__(self) -> str:
        return "PENDING"


_PENDING = _Pending()


class PlanBudgetError(ReproError):
    """A generated function of the component would exceed
    :data:`MAX_STEP_LINES` or :data:`MAX_STEP_DEPTH`."""


class _Ctx:
    """Mutable per-reaction solver state (slot-indexed)."""

    __slots__ = ("status", "value", "state", "settled", "queued")

    def __init__(self, status: List[int], value: List[object], state, n_steps: int):
        self.status = status
        self.value = value
        self.state = state
        self.settled = bytearray(n_steps)
        self.queued = bytearray(n_steps)


#: Constant ``j`` of a shape is the literal ``_HOLE + j``: an int no
#: generated source holds otherwise, and too large for an instruction's
#: own argument, so each one has its own entry in ``co_consts``.
_HOLE = 1 << 40

#: Global name ``j`` of a shape (a builtin).
_NAME = "G{}"

#: Shapes the code table keeps; the least recently used goes first.
_CODE_TABLE_CAPACITY = 1024

# shape source -> (code, the co_consts index of each constant, the
# co_names index of each global name); shared by every thread that builds
# a plan, so every access holds _code_lock
_code_table: "OrderedDict[str, Tuple[types.CodeType, tuple, tuple]]" = OrderedDict()
_code_lock = threading.Lock()


def clear_code_table() -> None:
    """Drop every compiled shape (:func:`repro.sim.plan.clear_plan_cache`
    calls this)."""
    with _code_lock:
        _code_table.clear()


def _shape_code(text: str, n_consts: int, n_names: int, counts: Dict[str, int]):
    """The table entry of shape ``text``, compiled on its first use."""
    with _code_lock:
        entry = _code_table.get(text)
        if entry is not None:
            _code_table.move_to_end(text)
            counts["shape_hits"] += 1
            return entry
        counts["shape_misses"] += 1
        module = compile(text, "<specialized>", "exec")
        code = next(c for c in module.co_consts if isinstance(c, types.CodeType))
        consts = {
            c: i for i, c in enumerate(code.co_consts)
            if type(c) is int and c >= _HOLE
        }
        names = {n: i for i, n in enumerate(code.co_names)}
        entry = (
            code,
            tuple(consts[_HOLE + j] for j in range(n_consts)),
            tuple(names[_NAME.format(j)] for j in range(n_names)),
        )
        _code_table[text] = entry
        while len(_code_table) > _CODE_TABLE_CAPACITY:
            _code_table.popitem(last=False)
            counts["shape_evictions"] += 1
        return entry


def _bind(text, consts, names, name, namespace, counts) -> types.FunctionType:
    """The function ``name`` of shape ``text`` with its ``consts`` and
    global ``names`` put back, over the plan's ``namespace``."""
    code, const_at, name_at = _shape_code(text, len(consts), len(names), counts)
    co_consts = list(code.co_consts)
    for i, v in zip(const_at, consts):
        co_consts[i] = v
    co_names = list(code.co_names)
    for i, g in zip(name_at, names):
        co_names[i] = g
    code = code.replace(
        co_consts=tuple(co_consts), co_names=tuple(co_names), co_name=name
    )
    return types.FunctionType(code, namespace, name)


def _make_force(names):
    """The backward force of one plan's steps.

    ``force(ctx, st, targets)`` sets each slot of ``targets`` — ``(slot,
    requeue)`` pairs in force order — to status ``st``: a slot already at
    ``st`` is left alone, one at the opposite status is a clock
    contradiction, and an unknown one is set, which queues the slot's
    unsettled consumers that already ran this pass (``requeue``, computed
    when the source is generated).  Returns how many steps it queued."""

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
    """Emits the specialized functions of one plan, one at a time.

    Each function is emitted as its shape and bound at once (see the
    module docstring), or, with ``render``, as literal source appended to
    :attr:`chunks`."""

    def __init__(self, plan: "SpecializedPlan", render: bool = False):
        self.plan = plan
        self.render = render
        self.lines: List[str] = []
        # the rendered functions' sources, in module order
        self.chunks: List[str] = []
        # the current function's constants and global names, by placeholder
        self.consts: List[object] = []
        self.names: List[str] = []
        self.counts = {"shape_hits": 0, "shape_misses": 0, "shape_evictions": 0}
        # deepest indentation emitted since the last reset (per step)
        self.depth = 0
        self.n_tmp = 0
        self.fn_names: Dict[str, str] = {}
        # while emitting step k, new facts requeue their dependent steps by
        # the in-pass rule ``d <= k``, expanded statically; None = the
        # register update, which runs after the fixpoint
        self.cur_step: Optional[int] = None
        self.namespace: Dict[str, object] = {
            "PENDING": _PENDING,
            "SimulationError": SimulationError,
            "force": _make_force(plan.names),
        }

    # -- low-level emission --------------------------------------------------

    def w(self, depth: int, text: str) -> None:
        if depth > self.depth:
            self.depth = depth
        self.lines.append("    " * depth + text)

    def check_budget(self, what: str) -> None:
        """Raise :class:`PlanBudgetError` when the function emitted since
        the last chunk is past :data:`MAX_STEP_LINES` lines or
        :data:`MAX_STEP_DEPTH` levels."""
        if len(self.lines) > MAX_STEP_LINES or self.depth > MAX_STEP_DEPTH:
            raise PlanBudgetError(
                "{} of {!r} needs {} lines at depth {}".format(
                    what, self.plan.component.name, len(self.lines), self.depth
                )
            )

    def const(self, value: object) -> str:
        """``value`` as an expression of the current function: its literal
        when rendering, else a new constant placeholder of the shape (one
        per use, so equal values never make two shapes of one)."""
        if self.render:
            return repr(value)
        self.consts.append(value)
        return str(_HOLE + len(self.consts) - 1)

    def name(self, name: str) -> str:
        """The plan global ``name`` as a name of the current function: a
        new name placeholder of the shape unless rendering."""
        if self.render:
            return name
        self.names.append(name)
        return _NAME.format(len(self.names) - 1)

    def end_chunk(self, name: str, args: str, comment: str = "") -> None:
        """Close the function ``name(args)`` whose body was emitted since
        the last chunk: bind it into the plan's namespace, or render it."""
        body = "\n".join(self.lines) + "\n"
        self.lines = []
        self.n_tmp = 0
        if self.render:
            self.chunks.append("{}def {}({}):\n{}".format(
                "# {}\n".format(comment) if comment else "", name, args, body
            ))
            return
        text = "def _f({}):\n{}".format(args, body)
        self.namespace[name] = _bind(
            text, self.consts, self.names, name, self.namespace, self.counts
        )
        self.consts = []
        self.names = []

    def tmp(self) -> int:
        self.n_tmp += 1
        return self.n_tmp

    def fn_ref(self, op: str) -> str:
        name = self.fn_names.get(op)
        if name is None:
            name = "F{}".format(len(self.fn_names))
            self.fn_names[op] = name
            self.namespace[name] = BUILTIN_FUNCTIONS[op].fn
        return self.name(name)

    # -- monotone sets of the step's target ----------------------------------

    def requeue(self, i: int, skip_self: bool = False) -> Tuple[int, ...]:
        """The steps a new fact on slot ``i`` requeues while step ``k``
        runs: its consumers at or before ``k`` (every later unsettled step
        runs later in the same pass and picks the fact up).  ``skip_self``
        drops ``k`` itself, for sets whose step settles in the same branch:
        a settled step never runs again."""
        k = self.cur_step
        return tuple(
            d
            for d in self.plan.dependents[i]
            if d <= k and not (skip_self and d == k)
        )

    def emit_requeue(self, i: int, d: int) -> None:
        """Requeue for a new fact of a settling step (so never itself)."""
        for dep in self.requeue(i, skip_self=True):
            dep = self.const(dep)
            self.w(d, "if not queued[{0}] and not settled[{0}]:".format(dep))
            self.w(d + 1, "queued[{}] = 1".format(dep))
            self.w(d + 1, "nq += 1")

    def emit_status_set(self, i: int, st: int, d: int) -> None:
        """Set the settling step's target (slot ``i``, status read into
        ``ts``)."""
        w = self.w
        head = "clock contradiction on {!r}: ".format(self.plan.names[i])
        tail = " vs {}".format(_ST_NAME[st])
        w(d, "if ts != {}:".format(st))
        w(d + 1, "if ts != 0:")
        w(d + 2, "raise SimulationError({} + {!r}[ts] + {})".format(
            self.const(head), _ST_NAME, self.const(tail)
        ))
        w(d + 1, "status[{}] = {}".format(self.const(i), st))
        self.emit_requeue(i, d + 1)

    def emit_value_set(self, i: int, v: str, d: int) -> None:
        w = self.w
        c = "c{}".format(self.tmp())
        fmt = "value contradiction on {!r}: {{!r}} vs {{!r}}".format(
            self.plan.names[i]
        )
        slot = self.const(i)
        w(d, "{} = value[{}]".format(c, slot))
        w(d, "if {} is PENDING:".format(c))
        w(d + 1, "value[{}] = {}".format(slot, v))
        self.emit_requeue(i, d + 1)
        w(d, "elif {} != {}:".format(c, v))
        w(d + 1, "raise SimulationError(({}).format({}, {}))".format(
            self.const(fmt), c, v
        ))

    # -- expression evaluation (as Interpreter._eval) ------------------------

    def emit_eval(self, expr: Expr, d: int) -> Tuple[str, str]:
        """Emit statements computing ``expr``; returns the names of the
        locals holding its (status, value).  The statuses, values, raised
        contradictions and backward forces are those of
        :meth:`repro.sim.engine.Interpreter._eval`, except that a force
        that cannot set anything (its operand's status is already known)
        is left out.  Two facts keep the code short: an absent or unknown
        status (2 or 0) always comes with a ``PENDING`` value, and no local
        is assigned again after its node, so a node may pass an operand's
        status through by name."""
        w = self.w
        k = self.tmp()
        s, v = "s{}".format(k), "v{}".format(k)
        if isinstance(expr, Var):
            i = self.const(self.plan.slot[expr.name])
            w(d, "{} = status[{}]".format(s, i))
            w(d, "{} = value[{}] if {} == 1 else PENDING".format(v, i, s))
            return s, v
        if isinstance(expr, Const):
            w(d, "{} = 3".format(s))
            w(d, "{} = {}".format(v, self.const(expr.value)))
            return s, v
        if isinstance(expr, (Pre, ClockOf)):
            ss, _ = self.emit_eval(expr.expr, d)
            if isinstance(expr, Pre):
                got = "state[{}]".format(
                    self.const(self.plan.pre_slot_of[id(expr)])
                )
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
            # nothing, so the application reduces to a unary one of the
            # other operand: its status, and a value once that one has one
            k = 1 if isinstance(args[0], Const) else 0
            s, vk = self.emit_eval(args[k], d)
            values = [vk, vk]
            values[1 - k] = self.const(args[1 - k].value)
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
        with its raised contradiction and backward forces."""
        w = self.w
        msg = self.const(
            "operands of {!r} are not synchronous this instant".format(expr.op)
        )
        if len(svars) == 2:
            (s1, s2), (a1, a2) = svars, expr.args
            w(d, "if {} == 1 or {} == 1:".format(s1, s2))
            w(d + 1, "if {} == 2 or {} == 2:".format(s1, s2))
            w(d + 2, "raise SimulationError({})".format(msg))
            # with one operand present and none absent, at most one is
            # unknown, and it inherits presence
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

    # -- backward presence propagation (as Interpreter._force) ---------------

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
        forced once: the second set is a no-op.  The register update runs
        after the fixpoint, when no status is unknown, so its forces only
        check and requeue nothing."""
        slots = list(dict.fromkeys(self.force_slots(expr, st)))
        if not slots:
            return []
        if self.cur_step is None:
            targets = tuple((i, ()) for i in slots)
            return ["force(ctx, {}, {})".format(st, self.const(targets))]
        targets = tuple((i, self.requeue(i)) for i in slots)
        return ["nq += force(ctx, {}, {})".format(st, self.const(targets))]

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
        settle = "settled[{}] = 1".format(self.const(self.cur_step))
        s, v = self.emit_eval(eq.expr, d)
        # every guard below tests the target's status as read here: no
        # statement in between writes it
        w(d, "ts = status[{}]".format(self.const(ti)))
        w(d, "if {} == 1:".format(s))
        # testing the value first is pure, so the contradiction order is
        # unchanged; it lets the settling branch skip the self-requeue
        w(d + 1, "if {} is not PENDING:".format(v))
        self.emit_status_set(ti, 1, d + 2)
        self.emit_value_set(ti, v, d + 2)
        w(d + 2, settle)
        # present without a value yet: the step stays unsettled, and the
        # set, a cold branch, goes through the force helper
        w(d + 1, "else:")
        w(d + 2, "nq += force(ctx, 1, {})".format(
            self.const(((ti, self.requeue(ti)),))
        ))
        w(d, "elif {} == 2:".format(s))
        self.emit_status_set(ti, 2, d + 1)
        w(d + 1, settle)
        w(d, "elif {} == 3:".format(s))
        w(d + 1, "if ts == 1 and {} is not PENDING:".format(v))
        self.emit_value_set(ti, v, d + 2)
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
        settle = "settled[{}] = 1".format(self.const(self.cur_step))
        msg = self.const("synchronization constraint violated: {}".format(sc.names))
        # a name listed twice is set once: the second set is a no-op
        idxs = list(dict.fromkeys(self.plan.slot[n] for n in sc.names))
        reads = []
        for i in idxs:
            t = "t{}".format(self.tmp())
            w(d, "{} = status[{}]".format(t, self.const(i)))
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
            self.w(d + 1, "status[{}] = {}".format(self.const(i), st))
            self.emit_requeue(i, d + 1)

    # -- the generated functions ---------------------------------------------

    def emit_step(self, k: int) -> None:
        """Schedule step ``k`` as the function ``_s<k>``: the step's body
        with the in-pass requeue rule (``d <= k``) expanded after each new
        fact, returning how many steps it queued."""
        w = self.w
        kind, st = self.plan.schedule[k]
        w(1, "nq = 0")
        self.cur_step = k
        self.depth = 0
        if kind == "eq":
            self.emit_equation_body(st, 1)
        else:
            self.emit_sync_body(st, 1)
        self.cur_step = None
        label = st.target if kind == "eq" else "sync {}".format(st.names)
        self.check_budget("step {} ({})".format(k, label))
        w(1, "return nq")
        self.end_chunk(
            "_s{}".format(k), _STEP_ARGS, "step {}: {}".format(k, label)
        )

    def emit_sweep(self) -> None:
        """Every step function, then ``_sweep``, the initial pass: each
        step called once in schedule order."""
        w = self.w
        for k in range(len(self.plan.schedule)):
            self.emit_step(k)
        w(1, "status = ctx.status")
        w(1, "value = ctx.value")
        w(1, "state = ctx.state")
        w(1, "settled = ctx.settled")
        w(1, "queued = ctx.queued")
        w(1, "nq = 0")
        for k in range(len(self.plan.schedule)):
            w(1, "nq += _s{}({})".format(k, _STEP_ARGS))
        w(1, "return nq")
        self.end_chunk("_sweep", "ctx")

    def emit_advance(self) -> None:
        """The ``pre``-register update, ``_advance(ctx, old)``: the new
        state, from each register operand as the fixpoint left it."""
        w = self.w
        self.depth = 0
        w(1, "status = ctx.status")
        w(1, "value = ctx.value")
        w(1, "state = ctx.state")
        w(1, "new = list(old)")
        for k, node in enumerate(self.plan.pre_nodes):
            msg = self.const(
                "pre operand present without a value: {!r}".format(node)
            )
            s, v = self.emit_eval(node.expr, 1)
            w(1, "if {} == 1:".format(s))
            w(2, "if {} is PENDING:".format(v))
            w(3, "raise SimulationError({})".format(msg))
            w(2, "new[{}] = {}".format(self.const(k), v))
        self.check_budget("the register update")
        w(1, "return new")
        self.end_chunk("_advance", "ctx, old")

    def emit_module(self) -> None:
        """Every function of the plan: ``_s<k>`` and ``_sweep``, then
        ``_advance`` when the plan has registers."""
        self.emit_sweep()
        if self.plan.pre_nodes:
            self.emit_advance()


class SpecializedPlan:
    """A component compiled to a static schedule of generated step
    functions (see the module docstring).

    :attr:`kind` names the reaction counts of ``simulate`` and
    ``simulate_batch`` (``sim.plan.spec.reactions``, against
    ``sim.interp.reactions`` for the interpreter).  The constructor
    type-checks the component first.  A plan pickles as its component,
    and loading one takes it from the loading process's plan cache,
    which runs this constructor only on a miss.  Raises
    :class:`PlanBudgetError` when a generated function would be over
    budget."""

    kind = "plan.spec"

    def __init__(self, component: Component):
        check_component(component)
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
        self.schedule: Tuple[Tuple[str, object], ...] = self._schedule(
            component, equations
        )
        # reverse index: signal slot -> steps that consume its facts
        dependents: List[List[int]] = [[] for _ in self.names]
        for k, (kind, st) in enumerate(self.schedule):
            reads = (
                st.expr.free_vars() | {st.target} if kind == "eq"
                else frozenset(st.names)
            )
            for n in reads:
                dependents[self.slot[n]].append(k)
        self.dependents: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(d) for d in dependents
        )
        self._init_status: List[int] = [0] * self.n_signals
        self._init_value: List[object] = [_PENDING] * self.n_signals

        gen = _Gen(self)
        try:
            gen.emit_module()
        finally:
            PERF.merge(gen.counts, "plan")
        namespace = gen.namespace
        # the residual re-sweep calls the steps through this tuple; the
        # generated _sweep calls them by name
        self.steps = tuple(
            namespace["_s{}".format(k)] for k in range(len(self.schedule))
        )
        self._sweep_fn = namespace["_sweep"]
        self._advance_fn = namespace.get("_advance")

    # -- schedule construction -----------------------------------------------

    @classmethod
    def _schedule(cls, component: Component, equations: List[Equation]):
        """The steps: equations in data-flow order, each synchronization
        constraint right after the first point where one of its members
        can be known (inputs: immediately), so its status assignments
        flow forward through the sweep instead of arriving after every
        equation already ran.  Fixpoint results are order-independent;
        the order only decides how much one sweep settles."""
        ordered = cls._topo_order(component, equations)
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
        return tuple(schedule)

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

    # -- execution -----------------------------------------------------------

    def react_slots(
        self,
        inputs: Mapping[str, object],
        state,
        oracle,
        instant_index: int,
    ) -> Tuple[List[int], List[object], List[object]]:
        """One reaction from ``state``: the raw slot-indexed ``(statuses,
        values, new_state)`` in :attr:`names` order (statuses are the
        internal small ints, ``1`` present and ``2`` absent; values of
        non-present slots are unspecified).  An input mapped to
        :data:`~repro.sim.engine.ABSENT` is absent, as is one left out."""
        # every slot starts unknown and ``inputs`` names each input once,
        # so binding them cannot contradict: plain stores, visible to
        # every step of the initial sweep
        status = self._init_status[:]
        value = self._init_value[:]
        input_slot = self.input_slot
        for name, v in inputs.items():
            i = input_slot.get(name)
            if i is None:
                raise SimulationError("unknown input {!r}".format(name))
            if v is ABSENT:
                status[i] = 2
            else:
                status[i] = 1
                value[i] = v
        for i in self._input_slots:
            if status[i] == 0:
                status[i] = 2
        ctx = _Ctx(status, value, state, len(self.steps))
        self._solve(ctx, oracle, instant_index)
        advance = self._advance_fn
        return status, value, list(state) if advance is None else advance(ctx, state)

    def _solve(self, ctx: _Ctx, oracle, instant_index: int) -> None:
        names = self.names
        status = ctx.status
        if self._sweep_fn(ctx):
            self._resweep(ctx)
        while 0 in status:
            undetermined = tuple(
                name for name, st in zip(names, status) if st == 0
            )
            if oracle is not None:
                decisions = oracle(instant_index, undetermined)
                applied = [
                    (self.slot[name], 1 if present else 2)
                    for name, present in dict(decisions).items()
                    if name in undetermined
                ]
                if applied:
                    for i, st in applied:
                        status[i] = st
                    self._requeue_consumers(ctx, [i for i, _ in applied])
                    self._resweep(ctx)
                    continue
            # least-clock completion: everything unknown is absent
            slots = [self.slot[name] for name in undetermined]
            for i in slots:
                status[i] = 2
            self._requeue_consumers(ctx, slots)
            try:
                self._resweep(ctx)
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
            if v is _PENDING and st == 1
        ]
        if missing:
            raise SimulationError(
                "present signals without a value: {}".format(sorted(missing))
            )

    def _requeue_consumers(self, ctx: _Ctx, slots) -> None:
        """Queue every unsettled consumer of ``slots``, whose statuses
        were just set outside any step."""
        dependents = self.dependents
        settled = ctx.settled
        queued = ctx.queued
        for i in slots:
            for d in dependents[i]:
                if not settled[d]:
                    queued[d] = 1

    def _resweep(self, ctx: _Ctx) -> None:
        """The residual: while a step is queued, re-run every unsettled
        step from the first queued one to the end of the schedule,
        clearing the queued flags the pass meets (a step queues only
        consumers at or before itself, so flags set during a pass wait
        for the next one)."""
        steps = self.steps
        n_steps = len(steps)
        status, value, state = ctx.status, ctx.value, ctx.state
        settled = ctx.settled
        queued = ctx.queued
        first = queued.find(1)
        while first >= 0:
            for k in range(first, n_steps):
                queued[k] = 0
                if not settled[k]:
                    steps[k](ctx, status, value, state, settled, queued)
            first = queued.find(1)

    # -- introspection -------------------------------------------------------

    @property
    def source(self) -> str:
        """The generated module, rendered on each read with its literals
        in place (a plan keeps only its bound functions)."""
        gen = _Gen(self, render=True)
        gen.emit_module()
        return "# specialized reaction plan for component {!r}\n".format(
            self.component.name
        ) + "\n".join(gen.chunks)

    def __reduce__(self):
        from repro.sim.plan import shared_plan

        return (shared_plan, (self.component,))

    def __repr__(self) -> str:
        return "SpecializedPlan({!r}: {} signals, {} steps, {} registers)".format(
            self.component.name, self.n_signals, len(self.steps), len(self.pre_nodes)
        )
