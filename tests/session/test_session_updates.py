"""session.update()/session.feed(): streaming updates keep session caches warm.

Before the update API, any mutation between runs moved the source's data
token and the next prepare() threw away the converted instance and every
saturation store keyed on it.  These tests pin the new
contract: updates routed through the session patch all of that in place.
"""

from __future__ import annotations

import pytest

from repro import Delta, LearningSession, SessionConfig
from repro.database.instance import DatabaseInstance
from repro.database.schema import RelationSchema, Schema
from repro.learning.bottom_clause import BottomClauseConfig
from repro.learning.coverage import SubsumptionCoverageEngine
from repro.learning.examples import Example


def tiny_schema() -> Schema:
    return Schema(
        [RelationSchema("r", ["a", "b"]), RelationSchema("s", ["a", "c"])],
        name="session-update-tests",
    )


def tiny_source() -> DatabaseInstance:
    instance = DatabaseInstance(tiny_schema())
    with instance.transaction():
        instance.add_tuples("r", [("x1", "b1")])
        instance.add_tuples("s", [("x2", "c2")])
    return instance


def test_update_keeps_the_prepared_cache_warm():
    """The headline fix: update() advances the cached data token, so the
    next prepare() is a cache hit — same converted instance, not a
    re-conversion."""
    source = tiny_source()
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        prepared = session.prepare(source)
        session.update(source, Delta.add("r", [("x9", "b9")]))
        assert session.prepare(source) is prepared
        # Both the source and the conversion saw the delta.
        assert ("x9", "b9") in source.relation("r").rows
        assert ("x9", "b9") in prepared.relation("r").rows


def test_direct_mutation_still_invalidates_wholesale():
    """The legacy path keeps its semantics: bypassing update() moves the
    token and prepare() re-converts (correct, just cold)."""
    source = tiny_source()
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        prepared = session.prepare(source)
        source.add_tuple("r", ("x9", "b9"))
        again = session.prepare(source)
        assert again is not prepared
        assert ("x9", "b9") in again.relation("r").rows


def test_update_patches_stores_instead_of_dropping_them():
    """A delta touching only e1's footprint leaves e2's saturation warm in
    the session-shared store — and the store object itself survives."""
    source = tiny_source()
    e1 = Example("q", ("x1",), True)
    e2 = Example("q", ("x2",), True)
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        prepared = session.prepare(source)
        store = session.saturation_store_for(prepared)
        engine = SubsumptionCoverageEngine(
            prepared,
            BottomClauseConfig(max_depth=2),
            compiled=True,
            saturation_store=store,
        )
        engine.materialize([e1, e2])
        warm_e2 = store.existing_id("q", e2.values)
        assert warm_e2 is not None

        session.update(source, Delta.add("r", [("x1", "b9")]))

        assert session.saturation_store_for(prepared) is store
        assert store.existing_id("q", e2.values) == warm_e2
        assert store.existing_id("q", e1.values) is None


def test_feed_builds_one_coalesced_delta():
    source = tiny_source()
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        session.prepare(source)
        delta = session.feed(
            source,
            add={"r": [("x9", "b9"), ("x9", "b9")]},
            remove={"s": [("x2", "c2")]},
        )
    assert delta == Delta(
        [("add", "r", (("x9", "b9"),)), ("remove", "s", (("x2", "c2"),))]
    )
    assert ("x9", "b9") in source.relation("r").rows
    assert ("x2", "c2") not in source.relation("s").rows


def test_update_on_unprepared_instance_just_replays():
    source = tiny_source()
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        session.update(source, Delta.add("r", [("x9", "b9")]))
    assert ("x9", "b9") in source.relation("r").rows


def test_update_rejects_non_delta():
    source = tiny_source()
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        with pytest.raises(TypeError, match="session.feed"):
            session.update(source, [("add", "r", (("x9", "b9"),))])


def test_prepared_instance_direct_mutation_warns():
    """prepare() marks the conversion managed: bare add/remove on it points
    (once) at the transaction/update API."""
    from repro.database import backend as backend_module

    source = tiny_source()
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        prepared = session.prepare(source)
        backend_module._WARNED = {
            m for m in backend_module._WARNED if "prepared instance" not in m
        }
        with pytest.warns(RuntimeWarning, match="transaction"):
            prepared.add_tuple("r", ("warned", "row"))


def test_update_reaches_the_pooled_read_snapshots():
    """Batched coverage fanned over the snapshot read pool sees the update
    right away: the pool refreshes its snapshots instead of serving
    pre-update data."""
    from repro.logic.parser import parse_clause

    source = tiny_source()
    clauses = [parse_clause("q(x) :- r(x, y)."), parse_clause("q(x) :- s(x, y).")]
    candidates = [("x1",), ("x2",), ("x9",)]
    with LearningSession(
        SessionConfig(backend="sqlite-pooled", parallelism=2)
    ) as session:
        backend = session.prepare(source).backend
        assert backend.covered_head_tuples_batch(
            clauses, candidates, parallelism=2
        ) == [{("x1",)}, {("x2",)}]
        session.update(source, Delta.add("r", [("x9", "b9")]))
        assert backend.covered_head_tuples_batch(
            clauses, candidates, parallelism=2
        ) == [{("x1",), ("x9",)}, {("x2",)}]
