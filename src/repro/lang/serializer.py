"""JSON (de)serialization of Signal programs.

A stable interchange format so designs survive outside Python: every AST
node maps to a tagged JSON object, components and programs to plain
dictionaries.  ``loads(dumps(x)) == x`` on every well-formed design (a
tested property).

Schema (informal)::

    expr      := {"op": "var", "name": str}
               | {"op": "const", "value": bool|int, "type": "boolean"|"integer"}
               | {"op": "pre", "init": ..., "expr": expr}
               | {"op": "when", "expr": expr, "cond": expr}
               | {"op": "default", "left": expr, "right": expr}
               | {"op": "clock", "expr": expr}
               | {"op": "app", "fn": str, "args": [expr]}
    statement := {"eq": str, "expr": expr} | {"sync": [str]}
    component := {"name": str, "inputs": {str: type}, "outputs": ...,
                  "locals": ..., "statements": [statement]}
    program   := {"name": str, "components": [component]}
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

from repro.errors import ReproError
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
from repro.lang.types import TYPES_BY_NAME, Type


class SerializationError(ReproError):
    """Malformed document given to :func:`loads` / :func:`expr_from_dict`."""


def _const_value_to_dict(value):
    return {
        "value": value,
        "type": "boolean" if isinstance(value, bool) else "integer",
    }


def _const_value_from_dict(d):
    value = d["value"]
    ty = d.get("type", "integer")
    if ty == "boolean":
        return bool(value)
    if ty == "integer":
        return int(value)
    raise SerializationError("unknown constant type {!r}".format(ty))


def expr_to_dict(expr: Expr) -> Dict:
    if isinstance(expr, Var):
        return {"op": "var", "name": expr.name}
    if isinstance(expr, Const):
        out = {"op": "const"}
        out.update(_const_value_to_dict(expr.value))
        return out
    if isinstance(expr, Pre):
        return {
            "op": "pre",
            "init": None if expr.init is None else _const_value_to_dict(expr.init),
            "expr": expr_to_dict(expr.expr),
        }
    if isinstance(expr, When):
        return {
            "op": "when",
            "expr": expr_to_dict(expr.expr),
            "cond": expr_to_dict(expr.cond),
        }
    if isinstance(expr, Default):
        return {
            "op": "default",
            "left": expr_to_dict(expr.left),
            "right": expr_to_dict(expr.right),
        }
    if isinstance(expr, ClockOf):
        return {"op": "clock", "expr": expr_to_dict(expr.expr)}
    if isinstance(expr, App):
        return {
            "op": "app",
            "fn": expr.op,
            "args": [expr_to_dict(a) for a in expr.args],
        }
    raise SerializationError("cannot serialize {!r}".format(expr))


def expr_from_dict(d: Dict) -> Expr:
    try:
        op = d["op"]
    except (TypeError, KeyError):
        raise SerializationError("expression object needs an 'op': {!r}".format(d))
    if op == "var":
        return Var(d["name"])
    if op == "const":
        return Const(_const_value_from_dict(d))
    if op == "pre":
        init = d.get("init")
        return Pre(
            None if init is None else _const_value_from_dict(init),
            expr_from_dict(d["expr"]),
        )
    if op == "when":
        return When(expr_from_dict(d["expr"]), expr_from_dict(d["cond"]))
    if op == "default":
        return Default(expr_from_dict(d["left"]), expr_from_dict(d["right"]))
    if op == "clock":
        return ClockOf(expr_from_dict(d["expr"]))
    if op == "app":
        return App(d["fn"], tuple(expr_from_dict(a) for a in d["args"]))
    raise SerializationError("unknown expression op {!r}".format(op))


def _statement_to_dict(st: Statement) -> Dict:
    if isinstance(st, Equation):
        return {"eq": st.target, "expr": expr_to_dict(st.expr)}
    if isinstance(st, SyncConstraint):
        return {"sync": list(st.names)}
    raise SerializationError("cannot serialize {!r}".format(st))


def _statement_from_dict(d: Dict) -> Statement:
    if "eq" in d:
        return Equation(d["eq"], expr_from_dict(d["expr"]))
    if "sync" in d:
        return SyncConstraint(d["sync"])
    raise SerializationError("unknown statement {!r}".format(d))


def _types_to_dict(table: Dict[str, Type]) -> Dict[str, str]:
    return {name: ty.name for name, ty in table.items()}


def _types_from_dict(d: Dict[str, str]) -> Dict[str, Type]:
    out = {}
    for name, tyname in d.items():
        try:
            out[name] = TYPES_BY_NAME[tyname]
        except KeyError:
            raise SerializationError("unknown type {!r}".format(tyname))
    return out


def component_to_dict(comp: Component) -> Dict:
    return {
        "name": comp.name,
        "inputs": _types_to_dict(comp.inputs),
        "outputs": _types_to_dict(comp.outputs),
        "locals": _types_to_dict(comp.locals),
        "statements": [_statement_to_dict(st) for st in comp.statements],
    }


def component_from_dict(d: Dict) -> Component:
    try:
        return Component(
            d["name"],
            _types_from_dict(d.get("inputs", {})),
            _types_from_dict(d.get("outputs", {})),
            _types_from_dict(d.get("locals", {})),
            [_statement_from_dict(st) for st in d.get("statements", [])],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError("malformed component: {}".format(exc))


def program_to_dict(program: Program) -> Dict:
    return {
        "name": program.name,
        "components": [component_to_dict(c) for c in program.components],
    }


def program_from_dict(d: Dict) -> Program:
    try:
        return Program(
            d["name"], [component_from_dict(c) for c in d.get("components", [])]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError("malformed program: {}".format(exc))


def canonical_json(obj: Any) -> str:
    """The one serialization everything content-addressed hashes and
    digests: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    """The sha256 hex digest of :func:`canonical_json` of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def content_key(design) -> str:
    """The content hash of a Component or Program: :func:`digest` of its
    dictionary form.  A component keeps its key in ``_key`` after the
    first call (components are never changed in place; ``rename`` and
    ``with_statements`` build new ones).  A program is keyed afresh on
    every call, since one resolved program serves every job on a design
    (see "Design identity" in docs/performance.md)."""
    if isinstance(design, Component):
        if design._key is None:
            design._key = digest(component_to_dict(design))
        return design._key
    if isinstance(design, Program):
        return digest(program_to_dict(design))
    raise TypeError("cannot key {!r}".format(type(design).__name__))


def dumps(design, indent=2) -> str:
    """Serialize a Component or Program to JSON text."""
    if isinstance(design, Program):
        doc = {"kind": "program", **program_to_dict(design)}
    elif isinstance(design, Component):
        doc = {"kind": "component", **component_to_dict(design)}
    else:
        raise SerializationError("cannot serialize {!r}".format(design))
    return json.dumps(doc, indent=indent, sort_keys=True)


def loads(text: str):
    """Parse JSON text back to a Component or Program."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError("invalid JSON: {}".format(exc))
    kind = doc.get("kind")
    if kind == "program":
        return program_from_dict(doc)
    if kind == "component":
        return component_from_dict(doc)
    raise SerializationError("document kind must be 'program' or 'component'")
