"""The reaction engine: constructive solving of one synchronous instant.

Presence domain
---------------

Per instant every signal is *unknown* (``U``), *present* (``P``) or
*absent* (``A``); constants evaluate to the chameleon status ``C`` ("as
present as the context needs").  Propagation is monotone: a signal moves
from ``U`` to ``P`` or ``A`` exactly once; conflicting conclusions raise
:class:`~repro.errors.SimulationError` (the reaction is inconsistent —
a clock-constraint violation).

Two propagation directions are used, as in Signal's clock calculus:

- *forward*: evaluating an equation's right-hand side yields the target's
  presence and value;
- *backward*: synchronous operators constrain their operands — if any
  operand of ``f(...)`` is present all operands are, if the result of a
  ``when`` must be present both operands are, if a ``default`` is absent
  both branches are, etc.

When the fixpoint still leaves signals unknown, an *oracle* may decide the
free clocks (that is how non-endochronous programs — e.g. a memory cell
with an autonomous read clock — are driven); without an oracle the engine
tries the least clock (everything unknown becomes absent) and verifies
consistency, raising :class:`~repro.errors.NonDeterministicClockError`
when that fails.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import (
    NonDeterministicClockError,
    SimulationError,
)
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
from repro.lang.typecheck import check_component


class _Absent:
    """Marker for 'this input is absent this instant' in stimulus maps."""

    def __repr__(self) -> str:
        return "ABSENT"


ABSENT = _Absent()

# presence statuses
_U, _P, _A, _C = "U", "P", "A", "C"


class _Pending:
    def __repr__(self) -> str:
        return "PENDING"


_PENDING = _Pending()

Oracle = Callable[[int, Tuple[str, ...]], Mapping[str, bool]]


class _Instant:
    """Mutable solver state for one reaction."""

    __slots__ = ("status", "value", "changed", "settled")

    def __init__(self, names):
        self.status: Dict[str, str] = {n: _U for n in names}
        self.value: Dict[str, object] = {}
        self.changed = False
        # indices of equations/constraints that can yield nothing more this
        # instant (fully resolved) — skipped by later propagation sweeps
        self.settled = set()

    def set_status(self, name: str, st: str) -> None:
        cur = self.status[name]
        if cur == st:
            return
        if cur != _U:
            raise SimulationError(
                "clock contradiction on {!r}: {} vs {}".format(name, cur, st)
            )
        self.status[name] = st
        self.changed = True

    def set_value(self, name: str, v: object) -> None:
        if name in self.value:
            if self.value[name] != v:
                raise SimulationError(
                    "value contradiction on {!r}: {!r} vs {!r}".format(
                        name, self.value[name], v
                    )
                )
            return
        self.value[name] = v
        self.changed = True


class Reactor:
    """A compiled Signal component, executable one reaction at a time.

    Parameters
    ----------
    component:
        The component to execute.  It is type-checked on construction.
    oracle:
        Optional presence oracle for free clocks, called as
        ``oracle(instant_index, undetermined_names)`` and returning a
        mapping ``name -> bool`` (present/absent) for (a subset of) the
        undetermined signals.
    check:
        Set to ``False`` to skip the static type check (e.g. for
        generated components already checked).
    compiled:
        When ``True`` (the default) reactions execute through a
        :class:`~repro.sim.plan.ReactionPlan` — a slot-indexed schedule
        compiled once from the component — instead of re-interpreting the
        AST per instant.  Results are observationally identical; pass
        ``False`` to force the reference interpreter.
    plan:
        A pre-compiled :class:`~repro.sim.plan.ReactionPlan` for this
        component (or a structurally equal one, e.g. from
        :func:`repro.sim.plan.shared_plan`), to share compilation across
        reactors.
    specialize:
        When ``True``, compile the plan to generated straight-line Python
        (:class:`repro.sim.specialize.SpecializedPlan`) — observationally
        identical, several times faster.  Ignored when an explicit
        ``plan`` is passed or ``compiled`` is ``False``.
    """

    def __init__(
        self,
        component: Component,
        oracle: Optional[Oracle] = None,
        check: bool = True,
        compiled: bool = True,
        plan=None,
        specialize: bool = False,
    ):
        if check:
            check_component(component)
        self.component = component
        self.oracle = oracle
        self._equations: List[Equation] = component.equations()
        self._sync: List[SyncConstraint] = component.sync_constraints()
        self._names = list(component.signals())
        self._inputs = set(component.inputs)
        self._plan = None
        if plan is not None:
            pc = plan.component
            if pc is not component and not (
                pc.inputs == component.inputs
                and pc.outputs == component.outputs
                and pc.locals == component.locals
                and pc.statements == component.statements
            ):
                raise SimulationError("plan was compiled for another component")
            self._plan = plan
        elif compiled:
            from repro.sim.plan import ReactionPlan

            if specialize:
                from repro.sim.specialize import SpecializedPlan

                self._plan = SpecializedPlan(component)
            else:
                self._plan = ReactionPlan(component)
        if self._plan is not None:
            # the plan discovers pre registers with the same traversal, so
            # state slots line up with the interpreter's
            self._pre_nodes = self._plan.pre_nodes
            self._slot_of = self._plan.pre_slot_of
        else:
            # one state slot per pre occurrence (keyed by object identity)
            self._pre_nodes = []
            self._slot_of = {}
            for eq in self._equations:
                for node in eq.expr.walk():
                    if isinstance(node, Pre) and id(node) not in self._slot_of:
                        if isinstance(node.expr, Const):
                            raise SimulationError(
                                "pre of a constant has no clock: {!r}".format(node)
                            )
                        if node.init is None:
                            raise SimulationError(
                                "uninitialized pre cannot be simulated: "
                                "{!r}".format(node)
                            )
                        self._slot_of[id(node)] = len(self._pre_nodes)
                        self._pre_nodes.append(node)
        self._state: List[object] = [n.init for n in self._pre_nodes]
        self.instant_index = 0

    @property
    def plan(self):
        """The compiled :class:`~repro.sim.plan.ReactionPlan` (or ``None``)."""
        return self._plan

    # -- public API --------------------------------------------------------

    def reset(self) -> None:
        """Return to the initial state."""
        self._state = [n.init for n in self._pre_nodes]
        self.instant_index = 0

    def state(self) -> Tuple[object, ...]:
        """The memory contents (one entry per ``pre`` occurrence)."""
        return tuple(self._state)

    def set_state(self, state) -> None:
        state = list(state)
        if len(state) != len(self._state):
            raise ValueError("state size mismatch")
        self._state = state

    def react(self, inputs: Mapping[str, object]) -> Dict[str, object]:
        """Execute one reaction.

        ``inputs`` maps input names to values (or :data:`ABSENT`); missing
        names are absent.  Event inputs are present with value ``True``
        (any non-absent entry counts as a tick).  Returns a dict with the
        values of every *present* signal this instant (absent signals are
        simply missing from the dict).
        """
        if self._plan is not None:
            outputs, new_state = self._plan.react(
                inputs, self._state, self.oracle, self.instant_index, ABSENT
            )
            self._state = new_state
            self.instant_index += 1
            return outputs
        inst = _Instant(self._names)
        for name, v in inputs.items():
            if name not in self._inputs:
                raise SimulationError("unknown input {!r}".format(name))
            if v is ABSENT:
                inst.set_status(name, _A)
            else:
                inst.set_status(name, _P)
                inst.set_value(name, v)
        for name in self._inputs:
            if inst.status[name] == _U:
                inst.set_status(name, _A)

        self._solve(inst)
        outputs = {
            name: inst.value[name]
            for name in self._names
            if inst.status[name] == _P
        }
        self._advance_state(inst)
        self.instant_index += 1
        return outputs

    # -- solving ------------------------------------------------------------

    def _solve(self, inst: _Instant) -> None:
        self._propagate(inst)
        while True:
            undetermined = tuple(
                n for n in self._names if inst.status[n] == _U
            )
            if not undetermined:
                break
            if self.oracle is not None:
                decisions = self.oracle(self.instant_index, undetermined)
                applied = False
                for name, present in dict(decisions).items():
                    if name in undetermined:
                        inst.set_status(name, _P if present else _A)
                        applied = True
                if applied:
                    self._propagate(inst)
                    continue
            # least-clock completion: everything unknown is absent
            for name in undetermined:
                inst.status[name] = _A
            try:
                self._propagate(inst)
            except SimulationError as exc:
                raise NonDeterministicClockError(
                    "presence of {} not determined by inputs and the "
                    "least-clock completion is inconsistent ({}); "
                    "provide an oracle".format(sorted(undetermined), exc),
                    undetermined,
                )
            break
        missing = [
            n
            for n in self._names
            if inst.status[n] == _P and n not in inst.value
        ]
        if missing:
            raise SimulationError(
                "present signals without a value: {}".format(sorted(missing))
            )

    def _propagate(self, inst: _Instant) -> None:
        n_eq = len(self._equations)
        while True:
            inst.changed = False
            for i, eq in enumerate(self._equations):
                if i in inst.settled:
                    continue
                self._step_equation(i, eq, inst)
            for j, sc in enumerate(self._sync):
                if n_eq + j in inst.settled:
                    continue
                self._step_sync(n_eq + j, sc, inst)
            if not inst.changed:
                return

    def _step_sync(self, key: int, sc: SyncConstraint, inst: _Instant) -> None:
        statuses = {inst.status[n] for n in sc.names}
        if _P in statuses and _A in statuses:
            raise SimulationError(
                "synchronization constraint violated: {}".format(sc.names)
            )
        if _P in statuses:
            for n in sc.names:
                inst.set_status(n, _P)
            inst.settled.add(key)
        elif _A in statuses:
            for n in sc.names:
                inst.set_status(n, _A)
            inst.settled.add(key)

    def _step_equation(self, key: int, eq: Equation, inst: _Instant) -> None:
        st, v = self._eval(eq.expr, inst)
        target_st = inst.status[eq.target]
        if st == _P:
            inst.set_status(eq.target, _P)
            if v is not _PENDING:
                inst.set_value(eq.target, v)
                inst.settled.add(key)
        elif st == _A:
            inst.set_status(eq.target, _A)
            inst.settled.add(key)
        elif st == _C:
            # RHS is available at any clock: the target's clock must be
            # constrained elsewhere; supply the value once it is present.
            if target_st == _P and v is not _PENDING:
                inst.set_value(eq.target, v)
                inst.settled.add(key)
            elif target_st == _A:
                inst.settled.add(key)
        else:  # U: push the target's known presence into the expression
            if target_st in (_P, _A):
                self._force(eq.expr, target_st, inst)

    # expression evaluation --------------------------------------------------

    def _eval(self, expr: Expr, inst: _Instant) -> Tuple[str, object]:
        if isinstance(expr, Var):
            st = inst.status[expr.name]
            if st == _P:
                return _P, inst.value.get(expr.name, _PENDING)
            return st, _PENDING
        if isinstance(expr, Const):
            return _C, expr.value
        if isinstance(expr, Pre):
            st, _ = self._eval(expr.expr, inst)
            if st in (_P, _C):
                # the memorized value is available as soon as the operand's
                # presence is (even for a context-clocked operand)
                return st, self._state[self._slot_of[id(expr)]]
            return st, _PENDING
        if isinstance(expr, ClockOf):
            st, _ = self._eval(expr.expr, inst)
            if st in (_P, _C):
                return st, True
            return st, _PENDING
        if isinstance(expr, Default):
            sl, vl = self._eval(expr.left, inst)
            if sl == _P:
                return _P, vl
            if sl == _C:
                return _C, vl
            if sl == _A:
                return self._eval(expr.right, inst)
            # left unknown
            sr, _ = self._eval(expr.right, inst)
            if sr == _P:
                return _P, _PENDING  # present for sure, value pends on left
            return _U, _PENDING
        if isinstance(expr, When):
            sc, vc = self._eval(expr.cond, inst)
            se, ve = self._eval(expr.expr, inst)
            if sc == _A:
                return _A, _PENDING
            if se == _A:
                return _A, _PENDING
            if sc in (_P, _C):
                if vc is _PENDING:
                    return _U, _PENDING
                if not vc:
                    return _A, _PENDING
                # condition holds: result follows the sampled expression
                if se == _C and sc == _C:
                    return _C, ve
                if se == _C:
                    return _P, ve
                return se, ve
            return _U, _PENDING
        if isinstance(expr, App):
            spec = BUILTIN_FUNCTIONS[expr.op]
            results = [self._eval(a, inst) for a in expr.args]
            statuses = [st for st, _ in results]
            if _P in statuses and _A in statuses:
                raise SimulationError(
                    "operands of {!r} are not synchronous this instant".format(
                        expr.op
                    )
                )
            if _A in statuses:
                for a in expr.args:
                    self._force(a, _A, inst)
                return _A, _PENDING
            if _P in statuses:
                for a in expr.args:
                    self._force(a, _P, inst)
                vals = [v for _, v in results]
                if any(v is _PENDING for v in vals):
                    return _P, _PENDING
                return _P, spec.fn(*vals)
            if all(st == _C for st in statuses):
                vals = [v for _, v in results]
                if any(v is _PENDING for v in vals):
                    return _C, _PENDING
                return _C, spec.fn(*vals)
            return _U, _PENDING
        raise SimulationError("cannot evaluate {!r}".format(expr))

    # backward presence propagation -----------------------------------------

    def _force(self, expr: Expr, st: str, inst: _Instant) -> None:
        """Conclude that ``expr`` is present/absent and push the
        consequences into its operands where unambiguous."""
        if isinstance(expr, Var):
            inst.set_status(expr.name, st)
            return
        if isinstance(expr, Const):
            return
        if isinstance(expr, (Pre, ClockOf)):
            self._force(expr.expr, st, inst)
            return
        if isinstance(expr, App):
            for a in expr.args:
                self._force(a, st, inst)
            return
        if isinstance(expr, When):
            if st == _P:
                # x = y when z present => y and z present (z moreover true,
                # which value propagation will confirm or refute).
                self._force(expr.expr, _P, inst)
                self._force(expr.cond, _P, inst)
            return
        if isinstance(expr, Default):
            if st == _A:
                # absent merge => both branches absent
                self._force(expr.left, _A, inst)
                self._force(expr.right, _A, inst)
            return

    # state update ---------------------------------------------------------

    def _advance_state(self, inst: _Instant) -> None:
        new_state = list(self._state)
        for node in self._pre_nodes:
            st, v = self._eval(node.expr, inst)
            if st == _P:
                if v is _PENDING:
                    raise SimulationError(
                        "pre operand present without a value: {!r}".format(node)
                    )
                new_state[self._slot_of[id(node)]] = v
        self._state = new_state
