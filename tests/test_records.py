"""The package's records are immutable, and the four that check their input
or define their own equality keep it.

A plain record is a ``typing.NamedTuple``; a record that checks its input at
construction (``ReducedWord``, ``UnipotentWord``) or compares on part of its
fields (``Subexpression``, ``CellDescriptor``) is a ``__slots__`` class whose
``__setattr__`` raises.
"""

import importlib

import pytest

from deodhar import chevalley, search
from deodhar.cells import (
    CLOSURE_OBSTRUCTION,
    DISJOINTNESS,
    CellDescriptor,
    Subexpression,
    catalog,
    cell,
    subexpression,
)
from deodhar.laurent import LaurentPoly, Monomial
from deodhar.roots import root_system
from deodhar.weyl import ReducedWord, context

MODULES = ["laurent", "roots", "weyl", "cells", "chevalley", "search"]
SLOTS_RECORDS = {"ReducedWord", "UnipotentWord", "Subexpression", "CellDescriptor"}


def records() -> list:
    """One instance of every record class, each from the code that makes it."""
    entry = catalog(DISJOINTNESS, 3)
    word = entry.first.word
    pair = search.scan_disjointness(word, entry.first.endpoint)[0]
    obstruction = search.find_obstructions(catalog(CLOSURE_OBSTRUCTION, 3).first.word)[0]
    report = chevalley.verify_closure_witness(3)
    system = root_system("B", 3)
    a, b = system.simple(1), system.simple(2)
    term = system.commutator_terms(-a, -b)[0]
    factor = chevalley.Factor(-a, LaurentPoly.variable("x"))
    return [
        Monomial.of(x=1), term, factor, chevalley.UnipotentWord((factor,)),
        report.checks[0], report, word, entry.first, cell(entry.first),
        cell(entry.first).phi[0], entry, obstruction, pair.certificate, pair,
    ]


def record_classes() -> set[str]:
    """The NamedTuple classes of the package and the slots records."""
    found = set(SLOTS_RECORDS)
    for name in MODULES:
        module = importlib.import_module(f"deodhar.{name}")
        found.update(
            cls.__name__
            for cls in vars(module).values()
            if isinstance(cls, type) and issubclass(cls, tuple)
            and cls.__module__ == module.__name__
        )
    return found


def fields(record) -> list[str]:
    cls = type(record)
    if issubclass(cls, tuple):
        return list(cls._fields)
    return [name for klass in reversed(cls.__mro__) for name in vars(klass).get("__slots__", ())]


def test_every_record_class_is_covered():
    assert {type(r).__name__ for r in records()} == record_classes()


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_record_rejects_attribute_assignment(record):
    before = {name: getattr(record, name) for name in fields(record)}
    assert before
    for name in [*before, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert all(getattr(record, name) is value for name, value in before.items())
    assert not hasattr(record, "extra")


def test_slots_records_keep_their_equality():
    b3, a3 = context("B", 3), context("A", 3)
    word = ReducedWord(b3, (1, 2))
    # a word compares by context identity and letters, keyword or positional
    assert word == ReducedWord(ctx=b3, letters=(1, 2)) and hash(word) == hash((1, 2))
    assert word != ReducedWord(a3, (1, 2))
    with pytest.raises(ValueError, match="not reduced"):
        ReducedWord(b3, (1, 1))
    # partials take no part in equality or the hash
    sub = subexpression(word, "01")
    other = Subexpression(word=word, mask=sub.mask, partials=())
    assert sub == other and hash(sub) == hash(other) == hash((word, sub.mask))
    # a descriptor equals descriptors only, on word, mask and phi
    desc = cell(sub)
    assert desc != sub and sub != desc
    assert desc == CellDescriptor(word, sub.mask, (), desc.phi)
    assert desc != CellDescriptor(word, sub.mask, sub.partials, ())
    assert hash(desc) == hash((word, sub.mask, desc.phi))
    # a unipotent word drops zero factors and compares by the rest
    root = -b3.system.simple(1)
    x = chevalley.Factor(root, LaurentPoly.variable("x"))
    zero = chevalley.Factor(root, LaurentPoly.zero())
    assert chevalley.UnipotentWord((zero, x, zero)) == chevalley.UnipotentWord(factors=(x,))
    with pytest.raises(ValueError, match="not negative"):
        chevalley.UnipotentWord((chevalley.Factor(-root, LaurentPoly.one()),))
