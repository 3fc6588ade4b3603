"""Tests for JSON serialization of Signal designs, and the content key
taken from it."""

import hashlib
import inspect
import json
import pickle

import pytest
from hypothesis import given, settings

from repro import designs
from repro.designs import producer_consumer, request_response, token_ring
from repro.desync import desynchronize
from repro.lang import Component, Program, flatten_program, parse_component
from repro.lang import serializer
from repro.lang.serializer import (
    SerializationError,
    component_from_dict,
    component_to_dict,
    content_key,
    dumps,
    expr_from_dict,
    expr_to_dict,
    loads,
    program_to_dict,
)

from tests.test_property_random_programs import random_component


CELL = parse_component(
    "process Cell = (? integer msgin; ? event rq; ! integer msgout;)"
    "(| tick := (^msgin) default rq"
    " | data := msgin default (pre 0 data)"
    " | data ^= tick"
    " | msgout := data when rq |)"
    " where event tick; integer data; end"
)


class TestRoundTrip:
    def test_component_roundtrip(self):
        again = loads(dumps(CELL))
        assert again.name == CELL.name
        assert again.inputs == CELL.inputs
        assert again.outputs == CELL.outputs
        assert again.locals == CELL.locals
        assert list(again.statements) == list(CELL.statements)

    @pytest.mark.parametrize(
        "prog", [producer_consumer(), request_response(), token_ring(2)],
        ids=lambda p: p.name,
    )
    def test_program_roundtrip(self, prog):
        again = loads(dumps(prog))
        assert again.name == prog.name
        for c1, c2 in zip(prog.components, again.components):
            assert list(c1.statements) == list(c2.statements)
            assert c1.signals() == c2.signals()

    def test_bool_int_constants_distinguished(self):
        e = parse_component(
            "process C = (? boolean c; ! boolean x; ! integer y;)"
            "(| x := true when c | y := 1 when c |) end"
        )
        again = loads(dumps(e))
        assert list(again.statements) == list(e.statements)

    def test_output_is_stable_json(self):
        doc = json.loads(dumps(CELL))
        assert doc["kind"] == "component"
        assert doc["name"] == "Cell"
        assert "statements" in doc


class TestErrors:
    def test_invalid_json(self):
        with pytest.raises(SerializationError):
            loads("{nope")

    def test_unknown_kind(self):
        with pytest.raises(SerializationError):
            loads(json.dumps({"kind": "schematic"}))

    def test_unknown_expr_op(self):
        with pytest.raises(SerializationError):
            expr_from_dict({"op": "teleport"})

    def test_missing_op(self):
        with pytest.raises(SerializationError):
            expr_from_dict({"name": "x"})

    def test_unknown_type(self):
        with pytest.raises(SerializationError):
            component_from_dict(
                {"name": "C", "inputs": {"a": "quaternion"}, "outputs": {},
                 "locals": {}, "statements": []}
            )

    def test_malformed_component(self):
        with pytest.raises(SerializationError):
            component_from_dict({"inputs": {}})


@settings(max_examples=50, deadline=None)
@given(random_component())
def test_prop_serializer_roundtrip(comp):
    again = loads(dumps(comp))
    assert list(again.statements) == list(comp.statements)
    assert again.signals() == comp.signals()


@settings(max_examples=50, deadline=None)
@given(random_component())
def test_prop_expr_dict_roundtrip(comp):
    for eq in comp.equations():
        assert expr_from_dict(expr_to_dict(eq.expr)) == eq.expr


# -- content keys ----------------------------------------------------------------


def recipe(design):
    """The content key, spelled out: sha256 of the sorted, whitespace-free
    JSON of the design's dictionary form."""
    doc = (
        program_to_dict(design) if isinstance(design, Program)
        else component_to_dict(design)
    )
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def corpus():
    """Every design constructor of :mod:`repro.designs` that needs no
    argument, with the program it builds (a component is wrapped)."""
    out = []
    for name in sorted(dir(designs)):
        fn = getattr(designs, name)
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        params = inspect.signature(fn).parameters.values()
        if any(p.default is inspect.Parameter.empty for p in params):
            continue
        built = fn()
        if isinstance(built, Component):
            built = Program(built.name, [built])
        if isinstance(built, Program):
            out.append((name, built))
    return out


CORPUS = corpus()


class TestContentKey:
    @pytest.mark.parametrize("name,program", CORPUS, ids=[n for n, _ in CORPUS])
    def test_corpus_keys_follow_the_recipe(self, name, program):
        network = desynchronize(program, capacities=2, instrument=True).program
        keyed = [program, flatten_program(program), network,
                 flatten_program(network)]
        keyed.extend(program.components)
        for design in keyed:
            assert content_key(design) == recipe(design), design.name

    def test_pickled_component_keeps_its_key(self):
        comp = flatten_program(producer_consumer())
        key = content_key(comp)
        again = pickle.loads(pickle.dumps(comp))
        assert again._key == key
        assert content_key(again) == key

    def test_copies_are_keyed_afresh(self):
        comp = CELL
        content_key(comp)
        renamed = comp.rename({"msgout": "out"})
        shortened = comp.with_statements(comp.statements[:2])
        for copy in (renamed, shortened):
            assert copy._key is None
            assert content_key(copy) == recipe(copy) != content_key(comp)

    def test_keying_twice_serializes_once(self, monkeypatch):
        calls = []

        def counting(comp):
            calls.append(comp)
            return component_to_dict(comp)

        monkeypatch.setattr(serializer, "component_to_dict", counting)
        comp = flatten_program(request_response())
        assert content_key(comp) == content_key(comp)
        assert calls == [comp]

    def test_other_objects_are_refused(self):
        with pytest.raises(TypeError):
            content_key({"name": "C"})


@settings(max_examples=50, deadline=None)
@given(random_component())
def test_prop_content_key_is_the_recipe(comp):
    """The key is the recipe, and two separately built equal components
    (one of them through JSON) share it."""
    assert content_key(comp) == recipe(comp)
    assert content_key(loads(dumps(comp))) == content_key(comp)
