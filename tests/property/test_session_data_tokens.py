"""Property: a session serves the source's current data, whichever way it changed.

``LearningSession.update`` is the one route for a change; a write that goes
around it, to the source or to the session's converted copy, is caught by
the two data tokens the session keeps per source.  A random sequence of
four steps (an ``update``, a direct add or remove on the source, one on
the last prepared copy, and a ``prepare``) must leave, after every step,

* ``session.prepare(source)`` holding exactly the source's rows, and
* the session's saturation store, topped up with a fixed example set,
  holding exactly what a cold store built on a fresh conversion holds.

Saturations are built with a fresh builder and filed only when missing
from the store (what a coverage engine's materialization does), so a store
that kept saturations of data the session no longer serves shows up on
every backend, ``memory`` included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Delta, LearningSession, SessionConfig
from repro.database.instance import DatabaseInstance
from repro.database.schema import RelationSchema, Schema
from repro.database.sqlite_backend import SaturationStore
from repro.learning.bottom_clause import BottomClauseBuilder, BottomClauseConfig
from repro.learning.examples import Example

RELATIONS = ("r", "s")
VALUES = st.sampled_from(["u", "v", "w", 0, 1])
ROW = st.tuples(VALUES, VALUES)
WRITE = st.tuples(st.sampled_from(["add", "remove"]), st.sampled_from(RELATIONS), ROW)
DELTA_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.sampled_from(RELATIONS),
        st.lists(ROW, min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=3,
)
STEP = st.one_of(
    st.tuples(st.just("update"), DELTA_OPS),
    st.tuples(st.just("source"), WRITE),
    st.tuples(st.just("prepared"), WRITE),
    st.tuples(st.just("prepare"), st.none()),
)
EXAMPLES = [Example("q", (value,), True) for value in ["u", "v", "w", 0, 1]]
CONFIG = BottomClauseConfig(max_depth=2)


def _schema() -> Schema:
    return Schema(
        [RelationSchema(name, ["a", "b"]) for name in RELATIONS],
        name="session-tokens",
    )


def _write(instance: DatabaseInstance, write) -> None:
    op, relation, row = write
    if op == "add":
        instance.add_tuple(relation, row)
    else:
        instance.remove_tuple(relation, row, missing_ok=True)


def _materialize(instance: DatabaseInstance, store: SaturationStore) -> None:
    missing = [e for e in EXAMPLES if store.existing_id(e.target, e.values) is None]
    builder = BottomClauseBuilder(instance, CONFIG)
    for example in missing:
        store.add_example(
            example.target, example.values, builder.build_ground(example).body
        )


def _rows(instance: DatabaseInstance):
    return {name: set(instance.relation(name).rows) for name in RELATIONS}


@pytest.mark.parametrize("backend", ["memory", "sqlite", "sqlite-pooled"])
@settings(max_examples=40, deadline=None)
@given(
    initial=st.lists(st.tuples(st.sampled_from(RELATIONS), ROW), max_size=6),
    steps=st.lists(STEP, min_size=1, max_size=6),
)
def test_session_serves_the_source_after_every_step(backend, initial, steps):
    source = DatabaseInstance(_schema())
    for relation, row in initial:
        source.add_tuple(relation, row)
    with LearningSession(SessionConfig(backend=backend)) as session:
        prepared = session.prepare(source)
        _materialize(prepared, session.saturation_store_for(prepared))
        for kind, argument in steps:
            if kind == "update":
                session.update(source, Delta(argument))
            elif kind == "source":
                _write(source, argument)
            elif kind == "prepared":
                _write(prepared, argument)
            else:
                session.prepare(source)

            prepared = session.prepare(source)
            assert _rows(prepared) == _rows(source)
            store = session.saturation_store_for(prepared)
            _materialize(prepared, store)
            cold_store = SaturationStore()
            _materialize(source.with_backend(backend), cold_store)
            assert store.contents() == cold_store.contents()
