"""Abstract syntax of the Signal dialect (Figure 1 of the paper).

Core expression forms::

    x := pre init y          delay            (Pre)
    x := y when z            sampling         (When)
    x := y default z         priority merge   (Default)
    x := f(y, z, ...)        pointwise func   (App)

plus the paper's shorthand ``^x`` ("clock of x", i.e. ``true when
(x == x)``) as an explicit :class:`ClockOf` node, and synchronization
constraints ``x ^= y ^= ...`` as :class:`SyncConstraint` statements.

Expressions overload Python operators so components read like Signal
source::

    full = (wr | (fullp & ~rd))
    data = msgin.when(wr).default(pre(0, var("data")))

All nodes are immutable and hashable.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.lang.types import Type


class Span(NamedTuple):
    """A source region (1-based, inclusive start / exclusive end column).

    Statements parsed from text carry a span; statements built
    programmatically (e.g. via :class:`~repro.lang.builder.ComponentBuilder`)
    have ``span=None``.  Spans are carried for diagnostics only: they do not
    participate in structural equality or hashing.
    """

    line: int
    column: int
    end_line: int
    end_column: int


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def as_expr(value) -> "Expr":
    """Coerce a Python value to an expression (constants auto-wrap)."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (bool, int)):
        return Const(value)
    raise TypeError("cannot use {!r} as a signal expression".format(value))


class Expr:
    """Base class of signal expressions."""

    __slots__ = ()

    # -- structure -----------------------------------------------------------

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def map_children(self, fn) -> "Expr":
        """Rebuild this node with ``fn`` applied to each child."""
        return self

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            for node in child.walk():
                yield node

    def free_vars(self) -> frozenset:
        return frozenset(
            node.name for node in self.walk() if isinstance(node, Var)
        )

    def rename(self, mapping: Mapping[str, str]) -> "Expr":
        """Substitute variable names according to ``{old: new}``."""
        if isinstance(self, Var):
            return Var(mapping.get(self.name, self.name))
        return self.map_children(lambda e: e.rename(mapping))

    # -- Signal operators ------------------------------------------------------

    def when(self, cond) -> "When":
        return When(self, as_expr(cond))

    def default(self, other) -> "Default":
        return Default(self, as_expr(other))

    def clock(self) -> "ClockOf":
        """``^e``: the pure event marking the instants where ``e`` is present."""
        return ClockOf(self)

    # -- arithmetic / logic sugar ---------------------------------------------

    def __add__(self, other):
        return App("+", (self, as_expr(other)))

    def __radd__(self, other):
        return App("+", (as_expr(other), self))

    def __sub__(self, other):
        return App("-", (self, as_expr(other)))

    def __rsub__(self, other):
        return App("-", (as_expr(other), self))

    def __mul__(self, other):
        return App("*", (self, as_expr(other)))

    def __rmul__(self, other):
        return App("*", (as_expr(other), self))

    def __truediv__(self, other):
        return App("/", (self, as_expr(other)))

    def __mod__(self, other):
        return App("mod", (self, as_expr(other)))

    def __neg__(self):
        return App("neg", (self,))

    def __and__(self, other):
        return App("and", (self, as_expr(other)))

    def __rand__(self, other):
        return App("and", (as_expr(other), self))

    def __or__(self, other):
        return App("or", (self, as_expr(other)))

    def __ror__(self, other):
        return App("or", (as_expr(other), self))

    def __xor__(self, other):
        return App("xor", (self, as_expr(other)))

    def __invert__(self):
        return App("not", (self,))

    def eq(self, other) -> "App":
        return App("==", (self, as_expr(other)))

    def ne(self, other) -> "App":
        return App("/=", (self, as_expr(other)))

    def __lt__(self, other):
        return App("<", (self, as_expr(other)))

    def __le__(self, other):
        return App("<=", (self, as_expr(other)))

    def __gt__(self, other):
        return App(">", (self, as_expr(other)))

    def __ge__(self, other):
        return App(">=", (self, as_expr(other)))

    # NB: __eq__ stays structural equality on nodes; use .eq() for the
    # Signal comparison operator.


class Var(Expr):
    """A signal occurrence."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise ValueError("signal name must be a nonempty string")
        self.name = name

    def __repr__(self) -> str:
        return "Var({!r})".format(self.name)

    def __eq__(self, other):
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self):
        return hash(("Var", self.name))


class Const(Expr):
    """A constant; its clock is supplied by the enclosing context."""

    __slots__ = ("value",)

    def __init__(self, value):
        if not isinstance(value, (bool, int)):
            raise ValueError("unsupported constant: {!r}".format(value))
        self.value = value

    def __repr__(self) -> str:
        return "Const({!r})".format(self.value)

    def __eq__(self, other):
        return (
            isinstance(other, Const)
            and other.value == self.value
            and type(other.value) is type(self.value)
        )

    def __hash__(self):
        return hash(("Const", type(self.value).__name__, self.value))


class Pre(Expr):
    """``pre init e``: previous value of ``e``, synchronous with ``e``.

    ``init=None`` denotes an *uninitialized* delay (``pre e`` in source).
    The form parses — so the linter can point at it (rule ``SIG004``) and
    ``repro lint --fix`` can repair it — but it is rejected by the type
    checker and by the simulator.
    """

    __slots__ = ("init", "expr")

    def __init__(self, init, expr: Expr):
        if init is not None and not isinstance(init, (bool, int)):
            raise ValueError("pre initial value must be a constant")
        self.init = init
        self.expr = as_expr(expr)

    def children(self):
        return (self.expr,)

    def map_children(self, fn):
        return Pre(self.init, fn(self.expr))

    def __repr__(self):
        return "Pre({!r}, {!r})".format(self.init, self.expr)

    def __eq__(self, other):
        return (
            isinstance(other, Pre)
            and other.init == self.init
            and type(other.init) is type(self.init)
            and other.expr == self.expr
        )

    def __hash__(self):
        return hash(("Pre", type(self.init).__name__, self.init, self.expr))


class When(Expr):
    """``e when c``: ``e`` sampled where ``c`` is present and true."""

    __slots__ = ("expr", "cond")

    def __init__(self, expr: Expr, cond: Expr):
        self.expr = as_expr(expr)
        self.cond = as_expr(cond)

    def children(self):
        return (self.expr, self.cond)

    def map_children(self, fn):
        return When(fn(self.expr), fn(self.cond))

    def __repr__(self):
        return "When({!r}, {!r})".format(self.expr, self.cond)

    def __eq__(self, other):
        return (
            isinstance(other, When)
            and other.expr == self.expr
            and other.cond == self.cond
        )

    def __hash__(self):
        return hash(("When", self.expr, self.cond))


class Default(Expr):
    """``l default r``: ``l`` where present, else ``r``."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = as_expr(left)
        self.right = as_expr(right)

    def children(self):
        return (self.left, self.right)

    def map_children(self, fn):
        return Default(fn(self.left), fn(self.right))

    def __repr__(self):
        return "Default({!r}, {!r})".format(self.left, self.right)

    def __eq__(self, other):
        return (
            isinstance(other, Default)
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self):
        return hash(("Default", self.left, self.right))


class App(Expr):
    """``f(e1, ..., en)``: pointwise function on synchronous operands."""

    __slots__ = ("op", "args")

    def __init__(self, op: str, args: Sequence[Expr]):
        self.op = op
        self.args = tuple(as_expr(a) for a in args)

    def children(self):
        return self.args

    def map_children(self, fn):
        return App(self.op, tuple(fn(a) for a in self.args))

    def __repr__(self):
        return "App({!r}, {!r})".format(self.op, list(self.args))

    def __eq__(self, other):
        return (
            isinstance(other, App)
            and other.op == self.op
            and other.args == self.args
        )

    def __hash__(self):
        return hash(("App", self.op, self.args))


class ClockOf(Expr):
    """``^e``: a pure event present exactly when ``e`` is present.

    The paper treats this as shorthand for ``true when (e == e)``;
    :func:`repro.lang.analysis.normalize_component` performs that lowering.
    """

    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        self.expr = as_expr(expr)

    def children(self):
        return (self.expr,)

    def map_children(self, fn):
        return ClockOf(fn(self.expr))

    def __repr__(self):
        return "ClockOf({!r})".format(self.expr)

    def __eq__(self, other):
        return isinstance(other, ClockOf) and other.expr == self.expr

    def __hash__(self):
        return hash(("ClockOf", self.expr))


def var(name: str) -> Var:
    return Var(name)


def const(value) -> Const:
    return Const(value)


def pre(init, expr) -> Pre:
    return Pre(init, expr)


# ---------------------------------------------------------------------------
# Statements, components, programs
# ---------------------------------------------------------------------------


class Statement:
    """Base class of component statements."""

    __slots__ = ()


class Equation(Statement):
    """``target := expr``."""

    __slots__ = ("target", "expr", "span")

    def __init__(self, target: str, expr: Expr, span: Optional[Span] = None):
        self.target = target
        self.expr = as_expr(expr)
        self.span = span

    def free_vars(self) -> frozenset:
        return self.expr.free_vars()

    def rename(self, mapping: Mapping[str, str]) -> "Equation":
        return Equation(
            mapping.get(self.target, self.target),
            self.expr.rename(mapping),
            span=self.span,
        )

    def __repr__(self):
        return "Equation({!r}, {!r})".format(self.target, self.expr)

    def __eq__(self, other):
        return (
            isinstance(other, Equation)
            and other.target == self.target
            and other.expr == self.expr
        )

    def __hash__(self):
        return hash(("Equation", self.target, self.expr))


class SyncConstraint(Statement):
    """``x ^= y ^= ...``: the listed signals share one clock."""

    __slots__ = ("names", "span")

    def __init__(self, names: Iterable[str], span: Optional[Span] = None):
        names = tuple(names)
        if len(names) < 2:
            raise ValueError("a synchronization constraint needs >= 2 signals")
        self.names = names
        self.span = span

    def free_vars(self) -> frozenset:
        return frozenset(self.names)

    def rename(self, mapping: Mapping[str, str]) -> "SyncConstraint":
        return SyncConstraint(
            tuple(mapping.get(n, n) for n in self.names), span=self.span
        )

    def __repr__(self):
        return "SyncConstraint({!r})".format(list(self.names))

    def __eq__(self, other):
        return isinstance(other, SyncConstraint) and other.names == self.names

    def __hash__(self):
        return hash(("SyncConstraint", self.names))


class Component:
    """A Signal component: a typed interface plus a set of statements.

    ``inputs``/``outputs``/``locals`` map signal names to value types.
    Interface sets must be pairwise disjoint; every name appearing in a
    statement must be declared.  Deeper well-formedness (single assignment,
    every non-input defined, type agreement) is checked by
    :func:`repro.lang.typecheck.check_component`.

    A component is never changed in place, so it keeps its content key
    (:func:`repro.lang.serializer.content_key`) in ``_key`` once taken.
    """

    __slots__ = ("name", "inputs", "outputs", "locals", "statements", "_key")

    def __init__(
        self,
        name: str,
        inputs: Mapping[str, Type],
        outputs: Mapping[str, Type],
        locals: Mapping[str, Type],
        statements: Sequence[Statement],
    ):
        self.name = name
        self.inputs: Dict[str, Type] = dict(inputs)
        self.outputs: Dict[str, Type] = dict(outputs)
        self.locals: Dict[str, Type] = dict(locals)
        self.statements: Tuple[Statement, ...] = tuple(statements)
        self._key: Optional[str] = None
        self._validate()

    def _validate(self) -> None:
        groups = [set(self.inputs), set(self.outputs), set(self.locals)]
        for i in range(3):
            for j in range(i + 1, 3):
                clash = groups[i] & groups[j]
                if clash:
                    raise ValueError(
                        "signals declared twice in {}: {}".format(
                            self.name, sorted(clash)
                        )
                    )
        declared = self.signals()
        for st in self.statements:
            used = set(st.free_vars())
            if isinstance(st, Equation):
                used.add(st.target)
            undeclared = used - set(declared)
            if undeclared:
                raise ValueError(
                    "undeclared signals in {}: {}".format(
                        self.name, sorted(undeclared)
                    )
                )

    # -- access ------------------------------------------------------------

    def signals(self) -> Dict[str, Type]:
        """All declared signals with their types."""
        out = dict(self.inputs)
        out.update(self.outputs)
        out.update(self.locals)
        return out

    def equations(self) -> List[Equation]:
        return [st for st in self.statements if isinstance(st, Equation)]

    def sync_constraints(self) -> List[SyncConstraint]:
        return [st for st in self.statements if isinstance(st, SyncConstraint)]

    def defined_names(self) -> frozenset:
        return frozenset(eq.target for eq in self.equations())

    def interface(self) -> frozenset:
        return frozenset(self.inputs) | frozenset(self.outputs)

    # -- transformation ------------------------------------------------------

    def rename(self, mapping: Mapping[str, str], name: Optional[str] = None) -> "Component":
        """``C[y/x]`` (Definition 5): rename signals throughout.

        Used to instantiate library components, e.g.
        ``1Fifo[full_1, in_1, out_1 / full, in, out]`` in Section 5.1.
        """

        def ren(names: Mapping[str, Type]) -> Dict[str, Type]:
            out = {}
            for old, ty in names.items():
                new = mapping.get(old, old)
                if new in out:
                    raise ValueError("renaming collides on {!r}".format(new))
                out[new] = ty
            return out

        return Component(
            name if name is not None else self.name,
            ren(self.inputs),
            ren(self.outputs),
            ren(self.locals),
            [st.rename(mapping) for st in self.statements],
        )

    def prefixed(self, prefix: str, keep: Iterable[str] = ()) -> "Component":
        """Namespace every signal except ``keep`` with ``prefix``."""
        keep = set(keep)
        mapping = {
            n: "{}{}".format(prefix, n) for n in self.signals() if n not in keep
        }
        return self.rename(mapping)

    def with_statements(self, statements: Sequence[Statement]) -> "Component":
        return Component(self.name, self.inputs, self.outputs, self.locals, statements)

    def __repr__(self):
        return "Component({!r}: {} in, {} out, {} local, {} stmts)".format(
            self.name,
            len(self.inputs),
            len(self.outputs),
            len(self.locals),
            len(self.statements),
        )


class Program:
    """A Signal program: named components composed synchronously.

    Components communicate through equal signal names; the composition's
    denotation is the synchronous parallel composition (Definition 3) of
    the components' denotations.  It keeps its flattening
    (:func:`repro.lang.analysis.flatten_program`) in ``_flat`` once built.
    """

    __slots__ = ("name", "components", "_flat")

    def __init__(self, name: str, components: Sequence[Component]):
        self.name = name
        self.components: Tuple[Component, ...] = tuple(components)
        self._flat: Optional[Component] = None
        seen = set()
        for comp in self.components:
            if comp.name in seen:
                raise ValueError("duplicate component name {!r}".format(comp.name))
            seen.add(comp.name)

    def component(self, name: str) -> Component:
        for comp in self.components:
            if comp.name == name:
                return comp
        raise KeyError(name)

    def __repr__(self):
        return "Program({!r}, {} components)".format(
            self.name, len(self.components)
        )
