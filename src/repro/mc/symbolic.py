"""Symbolic (BDD-based) verification of boolean Signal programs.

The Polychrony toolset's checker, Sigali, works symbolically on the
polynomial encoding of a Signal program; this module rebuilds that idea
with BDDs.  Each signal ``s`` of a *boolean* program (types ``event`` /
``boolean`` only) becomes two BDD variables — presence ``p:s`` and value
``v:s`` — and each core equation becomes a relation tying them per the
Table 1 semantics:

=====================  ==================================================
``x := pre v0 y``      ``p_x <-> p_y``;  ``p_x -> (v_x <-> m)``;
                       ``m' <-> ite(p_y, v_y, m)``
``x := y when z``      ``p_x <-> (p_y & p_z & v_z)``; ``p_x -> (v_x <-> v_y)``
``x := y default z``   ``p_x <-> (p_y | p_z)``;
                       ``p_x -> (v_x <-> ite(p_y, v_y, v_z))``
``x := f(y, ...)``     presences pairwise equal; pointwise ``f`` on values
``x ^= y``             ``p_x <-> p_y``
=====================  ==================================================

The conjunction ``R`` of those relations *is* the program's reaction
relation; reachability is the usual symbolic fixpoint with ``R`` as the
transition relation over the ``pre`` memories.  Environments are the
same input alphabets the explicit backend uses (encoded as a disjunction
of letters), so the two backends are directly comparable — tested.

Partitioned image computation
-----------------------------

By default ``R`` is *never* conjoined into one monolithic BDD.  The
per-equation conjuncts are kept as a partitioned transition relation,
ordered by support, and the image ``∃ m, signals . (frontier ∧ R)`` is
computed as a chain of fused :meth:`repro.mc.bdd.BDD.and_exists`
relational products with an *early quantification* schedule: each
variable is quantified out at the conjunct where its support dies, so
the intermediate products stay small and the monolithic peak never
materializes.  ``partitioned=False`` restores the monolithic path (the
two provably compute the identical reachable-set BDD — hash consing
makes that checkable by node-id equality, and the test suite does).

Semantic note: a constant operand is context-clocked ("chameleon"), so
the relation for e.g. ``y default 0`` leaves the result's presence free
above ``p_y``.  The symbolic backend therefore explores *every*
denotationally consistent resolution of free clocks, whereas the
simulator commits to the least one; on input-deterministic programs (the
:attr:`repro.clocks.ClockAnalysis` ``free`` set empty) both coincide.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import VerificationError
from repro.lang.analysis import flatten_program, normalize_component
from repro.lang.ast import (
    App,
    ClockOf,
    Component,
    Const,
    Default,
    Equation,
    Pre,
    Program,
    SyncConstraint,
    Var,
    When,
)
from repro.lang.types import BOOL, EVENT
from repro.mc.bdd import BDD, FALSE, TRUE
from repro.mc.safety import CounterExample


class SymbolicChecker:
    """Reaction relation + symbolic reachability for one boolean design.

    ``alphabet`` (optional) restricts the environment exactly like the
    explicit backend's input alphabets: a list of input maps, each map
    naming the present inputs (events/booleans) and their values.
    Without it, inputs are free.

    ``partitioned`` selects the image strategy (see module docstring).
    The variable order is the dataflow registration order below, fixed
    for the checker's life.  Every BDD the checker retains (relation
    parts, reachability rings, cached fixpoints) is pinned, so callers
    may invoke :meth:`repro.mc.bdd.BDD.gc` between queries.

    ``store`` (an :class:`repro.mc.store.MCStore`) persists the ordered
    transition partition and the reachable-set fixpoint — rings included,
    so warm counterexample reconstruction replays the exact cold-run walk
    — keyed by the normalized component content, the alphabet and the
    image strategy.  A fresh checker on the same design registers the
    same variables in the same order, so the loaded BDDs hash-cons onto
    identical node ids and every downstream answer is byte-identical.
    """

    def __init__(
        self,
        design,
        alphabet: Optional[Sequence[Dict[str, object]]] = None,
        partitioned: bool = True,
        store=None,
    ):
        comp = flatten_program(design) if isinstance(design, Program) else design
        for name, ty in comp.signals().items():
            if ty not in (BOOL, EVENT):
                raise VerificationError(
                    "symbolic backend handles boolean programs only; "
                    "{!r} has type {}".format(name, ty)
                )
        comp = normalize_component(comp, lower_clocks=False, to_core=True)
        self.component = comp
        self.bdd = BDD()
        self.partitioned = partitioned
        self._store = store
        self._alphabet = (
            [dict(letter) for letter in alphabet] if alphabet is not None else None
        )
        self._reach_key: Optional[str] = None
        self._types = comp.signals()

        # Variable order drives BDD size.  Register variables in *dataflow
        # order*: inputs first, then each equation's operands/target as the
        # statements mention them, with every `pre` memory (current and
        # next) right next to the signals it couples.  This keeps related
        # tests adjacent and tames the relation's size dramatically.
        self._signals = list(self._types)
        self._pre_slots: List[Tuple[Pre, str]] = []

        def reg_signal(name: str) -> None:
            self.bdd.variable("p:" + name)
            if self._types.get(name) is BOOL:
                self.bdd.variable("v:" + name)

        for s in comp.inputs:
            reg_signal(s)
        for st in comp.statements:
            if isinstance(st, SyncConstraint):
                for n in st.names:
                    reg_signal(n)
                continue
            for node in st.expr.walk():
                if isinstance(node, Var):
                    reg_signal(node.name)
                elif isinstance(node, Pre):
                    slot = "m:{}".format(len(self._pre_slots))
                    self._pre_slots.append((node, slot))
                    self.bdd.variable(slot)
                    self.bdd.variable(slot + "'")
            reg_signal(st.target)

        self.parts = self._build_parts()
        if alphabet is not None:
            self.parts.append(self._encode_alphabet(alphabet))
        for part in self.parts:
            self.bdd.pin(part)
        self._non_state = [
            v
            for s in self._signals
            for v in (("p:" + s,) if self._types.get(s) is EVENT else ("p:" + s, "v:" + s))
        ]
        self._state_vars = [slot for _, slot in self._pre_slots]
        self._rename_back = {slot + "'": slot for slot in self._state_vars}
        self.iterations = 0
        self.peak_nodes = 0
        self._rings: List[int] = []
        self._reached: Optional[int] = None
        self._transition: Optional[int] = None
        self._relation: Optional[int] = None
        self._ordered: Optional[List[int]] = None
        self._plans: Dict[Tuple[str, ...], List[Tuple[int, Tuple[str, ...]]]] = {}

    # -- encoding -------------------------------------------------------------

    def _pv(self, name: str) -> Tuple[int, int]:
        p = self.bdd.variable("p:" + name)
        if self._types.get(name) is BOOL:
            v = self.bdd.variable("v:" + name)
        else:
            v = TRUE  # events carry `true`
        return p, v

    def _operand(self, expr) -> Tuple[Optional[int], int]:
        """(presence, value) of a core operand; presence None = chameleon."""
        if isinstance(expr, Var):
            return self._pv(expr.name)
        if isinstance(expr, Const):
            return None, TRUE if expr.value else FALSE
        raise VerificationError("not in core form: {!r}".format(expr))

    def _build_parts(self) -> List[int]:
        """The reaction relation as per-equation conjuncts (not conjoined)."""
        bdd = self.bdd
        slot_of = {id(node): slot for node, slot in self._pre_slots}
        parts: List[int] = []
        for st in self.component.statements:
            if isinstance(st, SyncConstraint):
                first = bdd.variable("p:" + st.names[0])
                for other in st.names[1:]:
                    parts.append(bdd.IFF(first, bdd.variable("p:" + other)))
                continue
            assert isinstance(st, Equation)
            p_x, v_x = self._pv(st.target)
            rhs = st.expr
            if isinstance(rhs, (Var, Const)):
                p_y, v_y = self._operand(rhs)
                if p_y is None:
                    parts.append(bdd.IMPLIES(p_x, bdd.IFF(v_x, v_y)))
                else:
                    parts.append(bdd.IFF(p_x, p_y))
                    parts.append(bdd.IMPLIES(p_x, bdd.IFF(v_x, v_y)))
                continue
            if isinstance(rhs, Pre):
                slot = slot_of[id(rhs)]
                m = bdd.variable(slot)
                m_next = bdd.variable(slot + "'")
                p_y, v_y = self._operand(rhs.expr)
                if p_y is None:
                    raise VerificationError("pre of a constant has no clock")
                parts.append(bdd.IFF(p_x, p_y))
                parts.append(bdd.IMPLIES(p_x, bdd.IFF(v_x, m)))
                parts.append(bdd.IFF(m_next, bdd.ite(p_y, v_y, m)))
                continue
            if isinstance(rhs, ClockOf):
                p_y, _ = self._operand(rhs.expr)
                if p_y is None:
                    raise VerificationError("clock of a constant is free")
                parts.append(bdd.IFF(p_x, p_y))
                parts.append(bdd.IMPLIES(p_x, v_x))
                continue
            if isinstance(rhs, When):
                p_y, v_y = self._operand(rhs.expr)
                p_z, v_z = self._operand(rhs.cond)
                cond = v_z if p_z is None else bdd.AND(p_z, v_z)
                base = TRUE if p_y is None else p_y
                parts.append(bdd.IFF(p_x, bdd.AND(base, cond)))
                parts.append(bdd.IMPLIES(p_x, bdd.IFF(v_x, v_y)))
                continue
            if isinstance(rhs, Default):
                p_y, v_y = self._operand(rhs.left)
                p_z, v_z = self._operand(rhs.right)
                if p_y is None:
                    # chameleon left shadows the right entirely
                    parts.append(bdd.IMPLIES(p_x, bdd.IFF(v_x, v_y)))
                    continue
                if p_z is None:
                    # context-clocked right: clock free above p_y
                    parts.append(bdd.IMPLIES(p_y, p_x))
                    parts.append(
                        bdd.IMPLIES(p_x, bdd.IFF(v_x, bdd.ite(p_y, v_y, v_z)))
                    )
                    continue
                parts.append(bdd.IFF(p_x, bdd.OR(p_y, p_z)))
                parts.append(
                    bdd.IMPLIES(p_x, bdd.IFF(v_x, bdd.ite(p_y, v_y, v_z)))
                )
                continue
            if isinstance(rhs, App):
                ops = [self._operand(a) for a in rhs.args]
                concrete = [p for p, _ in ops if p is not None]
                for p in concrete:
                    parts.append(bdd.IFF(p_x, p))
                if not concrete:
                    raise VerificationError(
                        "all-constant application has a free clock"
                    )
                value = self._apply_op(rhs.op, [v for _, v in ops])
                parts.append(bdd.IMPLIES(p_x, bdd.IFF(v_x, value)))
                continue
            raise VerificationError("cannot encode {!r}".format(rhs))
        return parts

    def _apply_op(self, op: str, values: List[int]) -> int:
        bdd = self.bdd
        if op == "not":
            return bdd.NOT(values[0])
        if op == "and":
            return bdd.AND(*values)
        if op == "or":
            return bdd.OR(*values)
        if op == "xor":
            return bdd.XOR(values[0], values[1])
        if op == "==":
            return bdd.IFF(values[0], values[1])
        if op == "/=":
            return bdd.XOR(values[0], values[1])
        raise VerificationError(
            "operator {!r} is not boolean; the symbolic backend handles "
            "boolean programs only".format(op)
        )

    def _encode_alphabet(self, alphabet: Sequence[Dict[str, object]]) -> int:
        bdd = self.bdd
        letters = []
        for letter in alphabet:
            conj = []
            for name in self.component.inputs:
                p = bdd.variable("p:" + name)
                if name in letter:
                    conj.append(p)
                    if self._types[name] is BOOL:
                        v = bdd.variable("v:" + name)
                        conj.append(v if letter[name] else bdd.NOT(v))
                else:
                    conj.append(bdd.NOT(p))
            letters.append(bdd.AND(*conj))
        return bdd.OR(*letters)

    # -- partitioned relation ---------------------------------------------------

    @property
    def relation(self) -> int:
        """The monolithic reaction relation ``R`` (conjoined on demand).

        Partitioned operation never needs this; it exists for the
        monolithic path and for external inspection, and is cached."""
        if self._relation is None:
            self._relation = self.bdd.pin(self.bdd.AND(*self.parts))
        return self._relation

    #: greedy clustering bound: adjacent conjuncts are merged while their
    #: product stays under this many BDD nodes (classic partitioned-TR
    #: clustering — shorter chains, earlier deaths; swept empirically on
    #: the A6/A8 chain-FIFO family, where 250 beats 1000 by ~2x)
    CLUSTER_LIMIT = 250

    def _ordered_parts(self) -> List[int]:
        """The partition as ordered clusters of conjuncts.

        Per-equation conjuncts are sorted by support (top-most variable
        first, i.e. dataflow order) and then greedily merged while the
        merged product stays small (:data:`CLUSTER_LIMIT` nodes).  This
        is the conjunction schedule early quantification is planned
        over; it is computed once, against the registration-order
        levels, and every cluster is pinned."""
        if self._ordered is None:
            bdd = self.bdd

            def key(item):
                index, part = item
                levels = sorted(bdd.level(n) for n in bdd.support(part))
                return (levels or [len(self._signals) * 2], index)

            ordered = [
                part
                for _, part in sorted(enumerate(self.parts), key=key)
            ]
            clusters: List[int] = []
            for part in ordered:
                if clusters:
                    merged = bdd.AND(clusters[-1], part)
                    if self._bdd_size(merged) <= self.CLUSTER_LIMIT:
                        bdd.unpin(clusters[-1])
                        clusters[-1] = bdd.pin(merged)
                        continue
                clusters.append(bdd.pin(part))
            self._ordered = clusters
        return self._ordered

    def _bdd_size(self, f: int) -> int:
        """Node count of one BDD's cone (for the clustering bound)."""
        seen = set()
        stack = [f]
        nodes = self.bdd._nodes
        while stack:
            n = stack.pop()
            if n <= 1 or n in seen:
                continue
            seen.add(n)
            _, low, high = nodes[n]
            stack.append(low)
            stack.append(high)
        return len(seen)

    def _product_plan(
        self, quantify: Sequence[str]
    ) -> List[Tuple[int, Tuple[str, ...]]]:
        """Early-quantification schedule for ``∃ quantify . (seed ∧ ΠR_i)``.

        Pairs each ordered conjunct with the quantified variables whose
        support *dies* there — the variables mentioned by no later
        conjunct, which the fused ``and_exists`` can therefore remove as
        soon as that conjunct is multiplied in."""
        cache_key = tuple(quantify)
        plan = self._plans.get(cache_key)
        if plan is not None:
            return plan
        parts = self._ordered_parts()
        supports = [self.bdd.support(p) for p in parts]
        last_mention: Dict[str, int] = {}
        for i, support in enumerate(supports):
            for name in support:
                last_mention[name] = i
        dying: List[List[str]] = [[] for _ in parts]
        for name in quantify:
            i = last_mention.get(name)
            if i is not None:
                dying[i].append(name)
        plan = [(part, tuple(d)) for part, d in zip(parts, dying)]
        self._plans[cache_key] = plan
        return plan

    def _note_peak(self) -> None:
        nodes = self.bdd.node_count()
        if nodes > self.peak_nodes:
            self.peak_nodes = nodes

    def _fold(self, seed: int, quantify: Sequence[str]) -> int:
        """``∃ quantify . (seed ∧ R)`` as a chain of fused relational
        products over the ordered partition (early quantification)."""
        bdd = self.bdd
        cur = seed
        scheduled = set()
        for part, dying in self._product_plan(quantify):
            scheduled.update(dying)
            cur = bdd.and_exists(dying, cur, part)
            self._note_peak()
            if cur == FALSE:
                return FALSE
        leftover = [n for n in quantify if n not in scheduled]
        if leftover:
            cur = bdd.exists(leftover, cur)
        return cur

    def _image(self, frontier: int) -> int:
        """``∃ m, signals . (frontier ∧ R)`` renamed back to ``m`` vars."""
        img = self._fold(frontier, self._non_state + self._state_vars)
        return self.bdd.rename(self._rename_back, img)

    def _relation_product(self, seed: int, quantify: Sequence[str] = ()) -> int:
        """``∃ quantify . (seed ∧ R)`` without materializing ``R`` in
        partitioned mode; ``quantify`` must not intersect the support of
        any later use of the result."""
        bdd = self.bdd
        if not self.partitioned:
            out = bdd.AND(self.relation, seed)
            return bdd.exists(quantify, out) if quantify else out
        return self._fold(seed, quantify)

    # -- reachability ----------------------------------------------------------

    def initial_states(self) -> int:
        bdd = self.bdd
        conj = []
        for node, slot in self._pre_slots:
            m = bdd.variable(slot)
            conj.append(m if node.init else bdd.NOT(m))
        return bdd.AND(*conj)

    def transition(self) -> int:
        """``T(m, m') = ∃ signals . R`` — computed once and cached.

        In partitioned mode the quantification is folded through the
        conjunct chain (early quantification); monolithic mode quantifies
        the one-piece relation."""
        if self._transition is None:
            bdd = self.bdd
            if self.partitioned:
                self._transition = self._fold(TRUE, self._non_state)
            else:
                self._transition = bdd.exists(self._non_state, self.relation)
            bdd.pin(self._transition)
        return self._transition

    def reachable_states(self) -> int:
        """Fixpoint of the image computation; cached (in memory, and in
        the persistent store when one was given — rings included, so the
        warm path reconstructs the identical counterexamples)."""
        if self._reached is not None:
            return self._reached
        if self._store is not None:
            payload = self._store.get(self._store_key(), kind="symbolic-reach")
            if payload is not None and self._load_reach(payload):
                return self._reached
        bdd = self.bdd
        trans = None if self.partitioned else self.transition()
        frontier = self.initial_states()
        reached = frontier
        self._rings = [bdd.pin(frontier)]
        while frontier != FALSE:
            self.iterations += 1
            if self.partitioned:
                img = self._image(frontier)
            else:
                step = bdd.AND(trans, frontier)
                self._note_peak()
                img = bdd.exists(self._state_vars, step)
                img = bdd.rename(self._rename_back, img)
                self._note_peak()
            new = bdd.AND(img, bdd.NOT(reached))
            if new == FALSE:
                break
            reached = bdd.OR(reached, new)
            frontier = new
            self._rings.append(bdd.pin(new))
        self._reached = bdd.pin(reached)
        if self._store is not None:
            self._store.put(
                self._store_key(), "symbolic-reach", self._dump_reach()
            )
        return reached

    # -- persistence ------------------------------------------------------------

    def _store_key(self) -> str:
        """Content address of this checker's fixpoint: normalized
        component + alphabet + image strategy."""
        if self._reach_key is None:
            from repro.mc.store import design_content_key, store_key

            self._reach_key = store_key(
                "symbolic-reach",
                design_content_key(self.component),
                {"alphabet": self._alphabet, "partitioned": self.partitioned},
            )
        return self._reach_key

    def _dump_reach(self) -> Dict[str, object]:
        clusters = self._ordered_parts() if self.partitioned else []
        roots = list(clusters) + list(self._rings) + [self._reached]
        return {
            "clusters": len(clusters),
            "rings": len(self._rings),
            "iterations": self.iterations,
            "peak_nodes": self.peak_nodes,
            "bdd": self.bdd.dump(roots),
        }

    def _load_reach(self, payload) -> bool:
        """Adopt a stored fixpoint; False (a miss) on any malformed
        payload rather than an exception — the store is advisory."""
        try:
            n_clusters = int(payload["clusters"])
            n_rings = int(payload["rings"])
            iterations = int(payload["iterations"])
            peak_nodes = int(payload["peak_nodes"])
            roots = self.bdd.load(payload["bdd"])
        except (KeyError, TypeError, ValueError):
            return False
        if len(roots) != n_clusters + n_rings + 1 or n_rings < 1:
            return False
        for root in roots:
            self.bdd.pin(root)
        if self.partitioned:
            self._ordered = list(roots[:n_clusters])
        self._rings = list(roots[n_clusters : n_clusters + n_rings])
        self._reached = roots[-1]
        self.iterations = iterations
        self.peak_nodes = peak_nodes
        return True

    def state_count(self) -> int:
        """Number of reachable memory valuations."""
        if not self._state_vars:
            return 1
        total = self.bdd.var_count()
        count = self.bdd.sat_count(self.reachable_states(), n_vars=total)
        # the reachable set depends on state variables only; every other
        # variable is a don't-care doubling the raw count
        return count >> (total - len(self._state_vars))

    # -- queries -----------------------------------------------------------------

    def reachable(self, condition: int) -> bool:
        """Is some reaction satisfying ``condition`` (a BDD over p:/v:
        variables) enabled from a reachable state?"""
        every = (
            self._non_state
            + self._state_vars
            + [s + "'" for s in self._state_vars]
        )
        hit = self._relation_product(
            self.bdd.AND(self.reachable_states(), condition), every
        )
        return hit != FALSE

    def presence(self, signal: str) -> int:
        return self.bdd.variable("p:" + signal)

    def check_never_present(self, signal: str) -> Optional[CounterExample]:
        """The Section 5.2 obligation, symbolically, with a counterexample
        input sequence reconstructed from the reachability rings."""
        bad = self.presence(signal)
        self.reachable_states()
        bdd = self.bdd
        # The reconstruction only reads input presences/values and the
        # current memory out of each satisfying assignment, so everything
        # else (internal signals, next-state slots) is quantified inside
        # the fused product — the constraints still apply, the
        # intermediate BDDs stay small.
        keep = set()
        for name in self.component.inputs:
            keep.add("p:" + name)
            if self._types[name] is BOOL:
                keep.add("v:" + name)
        hidden = [v for v in self._non_state if v not in keep]
        hidden += [s + "'" for s in self._state_vars]
        # find the earliest ring from which a bad reaction fires
        hit_ring = None
        final = FALSE
        for k, ring in enumerate(self._rings):
            final = self._relation_product(bdd.AND(ring, bad), hidden)
            if final != FALSE:
                hit_ring = k
                break
        if hit_ring is None:
            return None
        # walk backward: pick a bad state in ring k, then predecessors
        inputs: List[Dict[str, object]] = []
        # choose the final (bad) reaction
        assignment = bdd.any_sat(final)
        state = self._state_of(assignment)
        inputs.append(self._letter_of(assignment))
        # reconstruct the stem
        for k in range(hit_ring, 0, -1):
            prev = self._relation_product(
                bdd.AND(self._rings[k - 1], self._next_state_bdd(state)),
                hidden,
            )
            assignment = bdd.any_sat(prev)
            if assignment is None:
                break  # should not happen; defensive
            inputs.append(self._letter_of(assignment))
            state = self._state_of(assignment)
        inputs.reverse()
        return CounterExample(
            inputs=inputs,
            outputs=[{} for _ in inputs],
            violation="never {} violated (symbolic)".format(signal),
        )

    # -- assignment plumbing -----------------------------------------------------

    def _letter_of(self, assignment: Dict[str, bool]) -> Dict[str, object]:
        letter: Dict[str, object] = {}
        for name in self.component.inputs:
            if assignment.get("p:" + name, False):
                if self._types[name] is BOOL:
                    letter[name] = assignment.get("v:" + name, False)
                else:
                    letter[name] = True
        return letter

    def _state_of(self, assignment: Dict[str, bool]) -> Dict[str, bool]:
        return {
            slot: assignment.get(slot, False) for slot in self._state_vars
        }

    def _next_state_bdd(self, state: Dict[str, bool]) -> int:
        bdd = self.bdd
        return bdd.AND(
            *[
                bdd.variable(s + "'") if v else bdd.NOT(bdd.variable(s + "'"))
                for s, v in state.items()
            ]
        )
