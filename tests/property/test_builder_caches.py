"""Property: a long-lived builder's caches never change a saturation.

A :class:`~repro.castor.castor.CastorCoverageEngine` keeps one
:class:`~repro.castor.bottom_clause.CastorBottomClauseBuilder` for its whole
life, and the builder keeps its frontier neighbours, IND-chase joins and
ground literals across calls.  ``apply_delta`` evicts what a delta can
change; a construction that finds the instance's data token moved (a write
that bypassed the delta path) drops everything.  The oracle is a fresh
engine, or a fresh builder, on the same instance.

The stream runs on UW-CSE ``4nf`` and changes every relation, including the
ones Castor chases (``taughtBy``, ``courseLevel``, ``professor``, ``ta``).
Rows are drawn from the current rows, with one column swapped for a value
of a pool that holds distinct values Python calls equal (``1``, ``1.0``,
``True``) and an equal-looking one that is not (``"1"``); a "retype" op
removes a row and adds it back with such a value respelled, so a cached
literal printed from the old spelling would show.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.castor.bottom_clause import CastorBottomClauseBuilder, CastorBottomClauseConfig
from repro.castor.castor import CastorCoverageEngine
from repro.database import Delta
from repro.datasets import uwcse
from repro.learning.examples import Example

VARIANT = "4nf"
CONFIG = CastorBottomClauseConfig(max_depth=3, max_distinct_variables=15)
NUMERIC = (1, 1.0, True)
POOL = (*NUMERIC, "1", "course0", "prof0", "student0", "spring")


@lru_cache(maxsize=1)
def _bundle():
    return uwcse.load(
        uwcse.UwCseConfig(num_students=6, num_professors=3, num_courses=4), seed=3
    )


def _examples() -> List[Example]:
    # Two extra heads put the pool values on the frontier directly.
    return [
        *_bundle().examples.all_examples(),
        Example("advisedBy", (1, "1"), True),
        Example("advisedBy", ("student0", True), False),
    ]


def _spelling(value: object) -> Optional[int]:
    """Which of ``NUMERIC`` spells ``value``, if one does."""
    for index, numeric in enumerate(NUMERIC):
        if type(value) is type(numeric) and value == numeric:
            return index
    return None


def _respelled(value: object) -> object:
    """The next spelling of a value of ``NUMERIC`` (equal, printed apart)."""
    return NUMERIC[(_spelling(value) + 1) % len(NUMERIC)]


@st.composite
def _delta(draw, instance) -> Delta:
    """One delta over the instance's current rows."""
    names = [relation.schema.name for relation in instance.relations()]
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["add", "remove", "retype"]))
        if kind == "retype":
            spelled_rows = [
                (name, row)
                for name in names
                for row in sorted(instance.relation(name).rows, key=repr)
                if any(_spelling(value) is not None for value in row)
            ]
            if spelled_rows:
                name, row = draw(st.sampled_from(spelled_rows))
                respelled = tuple(
                    value if _spelling(value) is None else _respelled(value)
                    for value in row
                )
                ops.append(("remove", name, (row,)))
                ops.append(("add", name, (respelled,)))
                continue
            kind = "add"
        name = draw(st.sampled_from(names))
        rows = sorted(instance.relation(name).rows, key=repr)
        if not rows:
            continue
        row = draw(st.sampled_from(rows))
        if kind == "add" or draw(st.booleans()):
            position = draw(st.integers(min_value=0, max_value=len(row) - 1))
            row = (*row[:position], draw(st.sampled_from(POOL)), *row[position + 1:])
        ops.append((kind, name, (row,)))
    return Delta(ops)


@st.composite
def _row(draw, instance) -> Tuple[str, tuple]:
    """One current row of the instance."""
    rows = [
        (relation.schema.name, row)
        for relation in instance.relations()
        for row in sorted(relation.rows, key=repr)
    ]
    return draw(st.sampled_from(rows))


def _assert_same(got, want) -> None:
    """Atom for atom, in order, and as printed."""
    assert got.head == want.head
    assert got.body == want.body
    assert str(got) == str(want)


@pytest.mark.parametrize("backend", ["memory", "sqlite", "sqlite-pooled"])
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_long_lived_engine_saturates_like_a_fresh_one(backend, data):
    bundle = _bundle()
    schema = bundle.schema(VARIANT)
    instance = bundle.instance(VARIANT).with_backend(backend)
    # One row per relation whose last value is 1, 1.0 or True, on the
    # frontier of the example headed by 1 from the start.
    for index, relation in enumerate(instance.relations()):
        row = min(relation.rows, key=repr)
        relation.add((*row[:-1], NUMERIC[index % len(NUMERIC)]))
    examples = _examples()
    engine = CastorCoverageEngine(instance, schema, CONFIG)
    engine.prepare(examples)

    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        delta = data.draw(_delta(instance))
        instance.apply_delta(delta)
        engine.apply_delta(delta)
        engine.prepare(examples)
        fresh = CastorCoverageEngine(instance, schema, CONFIG)
        fresh.prepare(examples)
        for example in examples:
            _assert_same(engine.saturation(example), fresh.saturation(example))

        if data.draw(st.booleans()):
            # A write that bypasses the delta path, between two
            # constructions of the same builder.
            name, row = data.draw(_row(instance))
            instance.relation(name).remove(row)
            got = engine.builder.build_ground_many(examples)
            want = CastorBottomClauseBuilder(instance, schema, CONFIG).build_ground_many(
                examples
            )
            for mine, theirs in zip(got, want):
                _assert_same(mine, theirs)
            # Tell the engine, as a session would after the fact.
            engine.apply_delta(Delta.remove(name, [row]))
