"""Static analyses over Signal components and programs.

- signal classification and definition accounting;
- instantaneous-dependency graphs and causality-cycle detection;
- inter-component data-dependency extraction (who produces what — the
  ``P ->x Q`` orientation of Definition 7);
- program flattening (synchronous composition by name fusion);
- normalization to core form (Figure 1): lowering ``^e`` and splitting
  nested expressions into three-address equations.
"""

from __future__ import annotations

from typing import (
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import CausalityError, SignalTypeError
from repro.lang.ast import (
    App,
    ClockOf,
    Component,
    Const,
    Default,
    Equation,
    Expr,
    Pre,
    Program,
    Statement,
    SyncConstraint,
    Var,
    When,
)
from repro.lang.types import BOOL, EVENT, Type


def free_vars(expr: Expr) -> FrozenSet[str]:
    """The signals read by ``expr`` (including under ``pre``)."""
    return expr.free_vars()


class SignalClasses(NamedTuple):
    inputs: FrozenSet[str]
    outputs: FrozenSet[str]
    locals: FrozenSet[str]
    defined: FrozenSet[str]
    undefined: FrozenSet[str]  # non-inputs lacking a defining equation


def classify_signals(comp: Component) -> SignalClasses:
    defined = comp.defined_names()
    non_inputs = frozenset(comp.outputs) | frozenset(comp.locals)
    return SignalClasses(
        inputs=frozenset(comp.inputs),
        outputs=frozenset(comp.outputs),
        locals=frozenset(comp.locals),
        defined=defined,
        undefined=non_inputs - defined,
    )


def _instantaneous_deps(expr: Expr) -> FrozenSet[str]:
    """Signals whose *current value* feeds ``expr``.

    Two operators are cut:

    - ``pre``: its value is delayed (the rule that makes ``x := x + 1``
      cyclic but ``x := pre 0 x + 1`` well-founded);
    - ``^e``: its value is the constant ``true``; only the *presence* of
      ``e`` flows through, and presence resolution is a monotone fixpoint
      that cannot produce a value-computation cycle (rings of components
      legitimately close presence loops through their channel clocks).
    """
    if isinstance(expr, (Pre, ClockOf)):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset([expr.name])
    out: Set[str] = set()
    for child in expr.children():
        out |= _instantaneous_deps(child)
    return frozenset(out)


def dependency_graph(comp: Component, instantaneous: bool = True) -> Dict[str, FrozenSet[str]]:
    """``target -> signals it depends on``, per equation.

    With ``instantaneous=False``, delayed (``pre``) dependencies are
    included as well — the full data-flow graph.
    """
    graph: Dict[str, FrozenSet[str]] = {}
    for eq in comp.equations():
        if instantaneous:
            deps = _instantaneous_deps(eq.expr)
        else:
            deps = eq.expr.free_vars()
        graph[eq.target] = graph.get(eq.target, frozenset()) | deps
    return graph


def _canonical_cycle(scc: List[str], graph: Mapping[str, FrozenSet[str]]) -> List[str]:
    """One concrete dependency cycle through ``scc``, rotation-canonical.

    Walks from the smallest member, always taking the smallest in-SCC
    successor, until a node repeats; the cycle found is rotated so its
    lexicographically smallest member comes first.  Fully deterministic:
    the same component always yields the same cycle witness.
    """
    members = set(scc)
    if len(scc) == 1:
        return [scc[0]]
    path: List[str] = []
    seen_at: Dict[str, int] = {}
    v = min(scc)
    while v not in seen_at:
        seen_at[v] = len(path)
        path.append(v)
        v = min(w for w in graph.get(v, ()) if w in members)
    cycle = path[seen_at[v]:]
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]


def strongly_connected_components(
    graph: Mapping[str, Iterable[str]]
) -> List[List[str]]:
    """The strongly connected components of ``graph`` (``node ->
    successors``), by Tarjan's algorithm, iteratively, so a long
    dependency chain cannot exhaust the recursion limit.

    Roots and successors are visited in sorted order; a successor that is
    not a key of ``graph`` (an input) ends its path.  Each component comes
    out after every component it reaches, so on a dependency graph a
    component follows everything it depends on.  Members are listed in
    the order they leave the Tarjan stack.
    """
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    out: List[List[str]] = []

    def enter(v: str):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        return v, iter(sorted(w for w in graph[v] if w in graph))

    for root in sorted(graph):
        if root in index:
            continue
        work = [enter(root)]
        while work:
            v, successors = work[-1]
            for w in successors:
                if w not in index:
                    work.append(enter(w))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == v:
                            break
                    out.append(scc)
    return out


def dependency_cycles(graph: Mapping[str, Collection[str]]) -> List[List[str]]:
    """The cycles of ``graph``: one per strongly connected component of
    more than one node, or of one node with a self-loop.

    Each cycle is reported as a concrete dependency path in rotation-
    canonical form (smallest member first, following dependency edges), and
    the list of cycles is sorted — the output is byte-stable across runs,
    which diagnostics (``repro lint``) rely on.
    """
    return sorted(
        _canonical_cycle(sorted(scc), graph)
        for scc in strongly_connected_components(graph)
        if len(scc) > 1 or scc[0] in graph[scc[0]]
    )


def instantaneous_cycles(comp: Component) -> List[List[str]]:
    """Cycles of instantaneous dependencies (:func:`dependency_cycles` of
    the instantaneous :func:`dependency_graph`).  A nonempty result means
    no reaction order exists."""
    return dependency_cycles(dependency_graph(comp, instantaneous=True))


def check_causality(comp: Component) -> None:
    """Raise :class:`CausalityError` when instantaneous cycles exist."""
    cycles = instantaneous_cycles(comp)
    if cycles:
        raise CausalityError(
            "{}: instantaneous dependency cycles: {}".format(comp.name, cycles)
        )


class SharedSignal(NamedTuple):
    name: str
    producer: str  # first producing component, or "" (environment-produced)
    consumers: Tuple[str, ...]
    # every component writing the signal, in program order.  Well-formed
    # programs have at most one; len > 1 is a multi-driver race (the lint
    # rule SIG002 reports it; the type checker rejects it outright).
    producers: Tuple[str, ...] = ()


def shared_signals(program: Program) -> List[SharedSignal]:
    """Signals visible to more than one component, with the ``P ->x Q``
    orientation of Definition 7 (producer vs consumers).

    Only *interface* signals participate: component locals — including the
    ``<component>__``-namespaced locals minted by :func:`flatten_program`
    — are private and never reported, so a local renamed apart from a
    same-named sibling cannot show up as shared.

    When several components write one signal, all writers are listed in
    ``producers`` (program order) and none of them appears in
    ``consumers``; ``producer`` stays the first writer for compatibility.
    """
    producers: Dict[str, List[str]] = {}
    users: Dict[str, List[str]] = {}
    for comp in program.components:
        visible = set(comp.inputs) | set(comp.outputs)
        for eq in comp.equations():
            if eq.target in visible:
                plist = producers.setdefault(eq.target, [])
                if comp.name not in plist:
                    plist.append(comp.name)
        for name in visible:
            users.setdefault(name, []).append(comp.name)
    out = []
    for name, comps in sorted(users.items()):
        if len(comps) < 2:
            continue
        plist = tuple(producers.get(name, ()))
        producer = plist[0] if plist else ""
        consumers = tuple(c for c in comps if c not in plist)
        out.append(SharedSignal(name, producer, consumers, plist))
    return out


def flatten_program(design: Union[Program, Component]) -> Component:
    """Fuse all components into one (synchronous composition by names).

    Locals are prefixed ``<component>__`` so same-named private state in
    different components cannot collide; two namespaced names that still
    meet (``P``'s ``_m`` and ``P_``'s ``m``) raise.  The flat component's
    inputs are the signals nobody defines; its outputs are every defined
    interface signal (so traces of the composition remain observable);
    locals of members stay local.

    A component is its own flattening and comes back unchanged.  A
    program keeps its flattening in ``_flat``, so later calls on the same
    program return the same component object.  Threads racing on a new
    program may each build one; the copies are equal in content, and no
    caller depends on more than content.
    """
    if isinstance(design, Component):
        return design
    if design._flat is not None:
        return design._flat
    inputs: Dict[str, Type] = {}
    outputs: Dict[str, Type] = {}
    locals_: Dict[str, Type] = {}
    statements: List[Statement] = []
    defined: Set[str] = set()
    iface_types: Dict[str, Type] = {}

    for comp in design.components:
        comp = comp.rename({n: "{}__{}".format(comp.name, n) for n in comp.locals})
        for name, ty in comp.locals.items():
            if name in locals_:
                raise SignalTypeError(
                    "local {!r} defined in two components".format(name)
                )
            locals_[name] = ty
        for name, ty in list(comp.inputs.items()) + list(comp.outputs.items()):
            if name in iface_types and iface_types[name] is not ty:
                raise SignalTypeError(
                    "shared signal {!r} declared with two types".format(name)
                )
            iface_types[name] = ty
        defined |= comp.defined_names()
        statements.extend(comp.statements)

    for name, ty in iface_types.items():
        if name in defined:
            outputs[name] = ty
        else:
            inputs[name] = ty
    # locals defined nowhere would be free: surface them as inputs
    for name in list(locals_):
        if name not in defined:
            inputs[name] = locals_.pop(name)

    design._flat = Component(design.name, inputs, outputs, locals_, statements)
    return design._flat


# -- normalization to core form ------------------------------------------------


class _FreshNames:
    def __init__(self, taken):
        self._taken = set(taken)
        self._counter = 0

    def fresh(self, hint: str = "t") -> str:
        while True:
            name = "_{}{}".format(hint, self._counter)
            self._counter += 1
            if name not in self._taken:
                self._taken.add(name)
                return name


def _lower_clockof(expr: Expr) -> Expr:
    """``^e`` -> ``true when (e == e)`` (the paper's shorthand, Section 3)."""
    if isinstance(expr, ClockOf):
        inner = _lower_clockof(expr.expr)
        return When(Const(True), App("==", (inner, inner)))
    return expr.map_children(_lower_clockof)


def _is_core_operand(expr: Expr) -> bool:
    return isinstance(expr, (Var, Const))


def normalize_component(
    comp: Component, lower_clocks: bool = True, to_core: bool = False
) -> Component:
    """Rewrite a component toward the core syntax of Figure 1.

    ``lower_clocks`` replaces ``^e`` by ``true when (e == e)``.
    ``to_core`` additionally introduces fresh locals so every equation has
    exactly one operator over variables/constants (three-address form).
    Fresh locals are typed ``boolean`` when the sub-expression is a
    condition position, else they inherit no declaration-level type and are
    given ``boolean``/``integer`` by a tiny local inference; to keep this
    pass independent of full typing, fresh locals are declared with the
    type inferred by :func:`repro.lang.typecheck.infer_type`.
    """
    statements: List[Statement] = list(comp.statements)
    if lower_clocks:
        statements = [
            Equation(st.target, _lower_clockof(st.expr))
            if isinstance(st, Equation)
            else st
            for st in statements
        ]
    if not to_core:
        return comp.with_statements(statements)

    from repro.lang.typecheck import infer_type  # local import to avoid a cycle

    env = dict(comp.signals())
    fresh = _FreshNames(env)
    new_locals: Dict[str, Type] = {}
    out_statements: List[Statement] = []

    def hoist(expr: Expr) -> Expr:
        """Return a Var/Const for ``expr``, emitting defining equations."""
        if _is_core_operand(expr):
            return expr
        flat = expr.map_children(hoist)
        name = fresh.fresh()
        ty = infer_type(flat, env)
        env[name] = ty
        new_locals[name] = ty
        out_statements.append(Equation(name, flat))
        return Var(name)

    for st in statements:
        if isinstance(st, SyncConstraint):
            out_statements.append(st)
            continue
        flat = st.expr.map_children(hoist)
        out_statements.append(Equation(st.target, flat))

    locals_ = dict(comp.locals)
    locals_.update(new_locals)
    return Component(comp.name, comp.inputs, comp.outputs, locals_, out_statements)
