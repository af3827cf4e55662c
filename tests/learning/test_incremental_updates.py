"""Incremental updates: Delta semantics, delta application, and
delta-maintained saturation/coverage state vs a cold rebuild.

The contract under test (docs/updates.md):

* a :class:`Delta` replayed onto warm engines/stores leaves them in a state
  **indistinguishable** from throwing everything away and rebuilding from
  the post-update data — ``SaturationStore.contents()`` and coverage
  bitsets are compared exactly;
* invalidation is *targeted*: a delta only drops saturations whose
  footprint (head values + body constants) intersects the delta's touched
  values, so warm state for untouched examples survives;
* ``DatabaseInstance.apply_delta`` replays with set semantics: adds are
  idempotent, removes of absent rows are no-ops.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LearningSession, SessionConfig
from repro.database import Delta
from repro.database.instance import DatabaseInstance
from repro.database.schema import RelationSchema, Schema
from repro.database.sqlite_backend import SaturationStore
from repro.learning.bottom_clause import BottomClauseConfig
from repro.learning.coverage import SubsumptionCoverageEngine
from repro.learning.examples import Example
from repro.logic.parser import parse_clause


def tiny_schema() -> Schema:
    return Schema(
        [RelationSchema("r", ["a", "b"]), RelationSchema("s", ["a", "c"])],
        name="delta-tests",
    )


# --------------------------------------------------------------------- #
# Delta: the value type
# --------------------------------------------------------------------- #
class TestDelta:
    def test_normalization_and_accessors(self):
        delta = Delta([("add", "r", [("x", 1)]), ("remove", "s", [["y", 2]])])
        assert delta.ops == (
            ("add", "r", (("x", 1),)),
            ("remove", "s", (("y", 2),)),
        )
        assert delta.row_count == 2
        assert delta.touched_values() == frozenset({"x", 1, "y", 2})
        assert bool(delta)
        assert not Delta()
        assert not Delta([("add", "r", [])])  # empty-row ops are dropped

    def test_invalid_ops_rejected(self):
        with pytest.raises(ValueError):
            Delta([("upsert", "r", [("x",)])])
        with pytest.raises(ValueError):
            Delta([("add", "", [("x",)])])
        with pytest.raises(ValueError):
            Delta([42])  # not an (op, relation, rows) triple

    def test_classmethods_and_coalesced(self):
        delta = Delta(
            Delta.add("r", [("x",), ("x",), ("y",)]).ops
            + Delta.add("r", [("z",)]).ops
            + Delta.remove("r", [("x",)]).ops
        )
        coalesced = delta.coalesced()
        # Adjacent same-op/same-relation runs merge, duplicate rows dedup.
        assert coalesced.ops == (
            ("add", "r", (("x",), ("y",), ("z",))),
            ("remove", "r", (("x",),)),
        )

    def test_equality_hash_pickle(self):
        import pickle  # repro: noqa[REP001] -- Delta is a value type; this asserts a pickle round-trip of bytes the test itself wrote yields an equal delta

        a = Delta.add("r", [("x", 1)])
        b = Delta([("add", "r", (("x", 1),))])
        assert a == b and hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a


# --------------------------------------------------------------------- #
# Applying deltas to DatabaseInstance
# --------------------------------------------------------------------- #
class TestApplyDelta:
    """Runs on every registered backend (the conftest ``backend`` fixture)."""

    def _instance(self, backend):
        return DatabaseInstance(tiny_schema(), backend=backend)

    def test_apply_delta_replays_with_set_semantics(self, backend):
        instance = self._instance(backend)
        instance.add_tuple("r", ("x", 1))
        delta = Delta(
            [
                ("add", "r", (("x", 1), ("y", 2))),  # ("x", 1) already present
                ("remove", "r", (("ghost", 9),)),  # absent: ignored
            ]
        )
        assert instance.apply_delta(delta) is delta
        assert instance.relation("r").rows == {("x", 1), ("y", 2)}
        with pytest.raises(TypeError):
            instance.apply_delta([("add", "r", (("x", 1),))])

    def test_remove_tuple_missing_ok(self, backend):
        instance = self._instance(backend)
        with pytest.raises(KeyError):
            instance.remove_tuple("r", ("nope", 0))
        instance.remove_tuple("r", ("nope", 0), missing_ok=True)

    def test_apply_delta_applies_ops_in_order(self, backend):
        instance = self._instance(backend)
        instance.add_tuple("r", ("x", 1))
        instance.apply_delta(
            Delta(
                [
                    ("remove", "r", (("x", 1),)),
                    ("add", "r", (("x", 1), ("z", 3))),
                    ("remove", "r", (("z", 3),)),
                ]
            )
        )
        assert instance.relation("r").rows == {("x", 1)}

    def test_apply_delta_keeps_the_ops_before_a_failing_one(self, backend):
        """apply_delta is not a rollback scope: ops applied before a
        failing one stay, and the data token moves, so a session that
        caches a copy re-converts instead of serving the old data."""
        instance = self._instance(backend)
        before = instance.data_token()
        with pytest.raises(KeyError):
            instance.apply_delta(
                Delta([("add", "r", (("x", 1),)), ("add", "nope", (("y",),))])
            )
        assert instance.relation("r").rows == {("x", 1)}
        assert instance.data_token() != before

    def test_apply_delta_records_the_tokens_around_it(self, backend):
        """``delta_tokens`` holds the data token each side of the last
        delta, so a cache can tell whether a write slipped in before it."""
        instance = self._instance(backend)
        assert instance.delta_tokens == (None, None)
        instance.add_tuple("r", ("x", 1))
        start = instance.data_token()
        instance.apply_delta(Delta.add("s", [("y", 2)]))
        assert instance.delta_tokens == (start, instance.data_token())
        assert start != instance.data_token()

        synced = instance.data_token()
        instance.relation("r").add(("z", 3))  # bypasses the delta path
        instance.apply_delta(Delta.remove("s", [("y", 2)]))
        before, after = instance.delta_tokens
        assert before != synced
        assert after == instance.data_token()


# --------------------------------------------------------------------- #
# Targeted invalidation: warm state survives unrelated deltas
# --------------------------------------------------------------------- #
class TestWarmStoreSurvival:
    def _engine(self, instance, store):
        return SubsumptionCoverageEngine(
            instance,
            BottomClauseConfig(max_depth=2),
            saturation_store=store,
        )

    def test_delta_keeps_untouched_examples_warm(self):
        """Regression (the PR's acceptance property): a delta to relation r
        touching only example e1's footprint must NOT evict e2's stored
        saturation — before this API a mutation invalidated wholesale."""
        instance = DatabaseInstance(tiny_schema(), backend="sqlite")
        instance.add_tuples("r", [("x1", "b1")])
        instance.add_tuples("s", [("x2", "c2")])
        e1 = Example("q", ("x1",), True)
        e2 = Example("q", ("x2",), True)

        store = SaturationStore()
        engine = self._engine(instance, store)
        engine.materialize([e1, e2])
        warm_id_e2 = store.existing_id("q", e2.values)
        assert warm_id_e2 is not None

        delta = Delta.add("r", [("x1", "b9")])
        instance.apply_delta(delta)
        invalidated = engine.apply_delta(delta)
        assert invalidated == {e1}
        # e2's materialization survived untouched — same stored row id.
        assert store.existing_id("q", e2.values) == warm_id_e2
        assert store.existing_id("q", e1.values) is None

        # Rebuilding only the dropped example converges on the cold state.
        engine.materialize([e1, e2])
        cold_store = SaturationStore()
        cold = self._engine(instance, cold_store)
        cold.materialize([e1, e2])
        assert store.contents() == cold_store.contents()

    def test_unrelated_delta_invalidates_nothing(self):
        instance = DatabaseInstance(tiny_schema(), backend="sqlite")
        instance.add_tuples("r", [("x1", "b1")])
        e1 = Example("q", ("x1",), True)
        store = SaturationStore()
        engine = self._engine(instance, store)
        engine.materialize([e1])
        warm_id = store.existing_id("q", e1.values)

        delta = Delta.add("s", [("z8", "z9")])
        instance.apply_delta(delta)
        assert engine.apply_delta(delta) == set()
        assert store.existing_id("q", e1.values) == warm_id

    def test_a_bypassing_write_empties_the_store(self):
        """A write that bypassed the delta path reaches the store too: the
        engine empties it, and what it stores next is the cold state."""
        instance = DatabaseInstance(tiny_schema(), backend="sqlite")
        instance.add_tuples("r", [("x1", "b1")])
        instance.add_tuples("s", [("x2", "c2")])
        e1 = Example("q", ("x1",), True)
        e2 = Example("q", ("x2",), True)
        store = SaturationStore()
        engine = self._engine(instance, store)
        engine.materialize([e1, e2])
        assert len(store) == 2

        instance.relation("s").add(("x2", "c3"))
        delta = Delta.add("r", [("z8", "z9")])
        instance.apply_delta(delta)
        assert engine.apply_delta(delta) == {e1, e2}
        assert len(store) == 0
        assert store.existing_id("q", e2.values) is None

        engine.materialize([e1, e2])
        cold_store = SaturationStore()
        self._engine(instance, cold_store).materialize([e1, e2])
        assert store.contents() == cold_store.contents()


# --------------------------------------------------------------------- #
# A write that bypassed the delta path, then a delta
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["memory", "sqlite", "sqlite-pooled"])
def test_a_direct_write_before_a_delta_reaches_a_long_lived_engine(backend):
    """The delta touches an unrelated relation only, but the engine it
    reaches must not keep what the earlier direct write made stale."""
    schema = Schema(
        [
            RelationSchema("r", ["a", "b"]),
            RelationSchema("s", ["a", "c"]),
            RelationSchema("u", ["d"]),
        ]
    )
    instance = DatabaseInstance(schema, backend=backend)
    instance.add_tuples("r", [("x", "b1")])
    instance.add_tuples("s", [("x", "c1")])
    examples = [Example("q", ("x",), True), Example("q", ("y",), True)]
    clause = parse_clause("q(v) :- r(v, 'b2').")
    config = BottomClauseConfig(max_depth=2)
    engine = SubsumptionCoverageEngine(instance, config)
    assert engine.covered_examples(clause, examples) == []
    assert str(engine.saturation(examples[0])) == "q(x) :- r(x, b1), s(x, c1)."

    instance.relation("r").add(("x", "b2"))
    delta = Delta.add("u", [("z",)])
    instance.apply_delta(delta)
    engine.apply_delta(delta)

    fresh = SubsumptionCoverageEngine(instance, config)
    want = "q(x) :- r(x, b1), r(x, b2), s(x, c1)."
    assert str(fresh.saturation(examples[0])) == want
    assert str(engine.saturation(examples[0])) == want
    assert str(engine.builder.build_ground(examples[0])) == want
    assert engine.covered_examples(clause, examples) == [examples[0]]
    assert fresh.covered_examples(clause, examples) == [examples[0]]


def _bypass_instance(backend):
    """``r(x, b1)``, ``r(y, b2)`` and ``s(x, c1)``, plus an unrelated ``u``."""
    schema = Schema(
        [
            RelationSchema("r", ["a", "b"]),
            RelationSchema("s", ["a", "c"]),
            RelationSchema("u", ["d"]),
        ]
    )
    instance = DatabaseInstance(schema, backend=backend)
    instance.add_tuples("r", [("x", "b1"), ("y", "b2")])
    instance.add_tuples("s", [("x", "c1")])
    return instance


BYPASS_EXAMPLES = [Example("q", ("x",), True), Example("q", ("y",), True)]
BYPASS_CONFIG = BottomClauseConfig(max_depth=2)


@pytest.mark.parametrize("backend", ["memory", "sqlite", "sqlite-pooled"])
def test_a_direct_removal_before_a_delta_reaches_a_long_lived_engine(backend):
    """A removed row must leave the saturation, and every coverage
    decision made from it, even though the delta never names it."""
    instance = _bypass_instance(backend)
    x = BYPASS_EXAMPLES[0]
    clause = parse_clause("q(v) :- s(v, w).")
    engine = SubsumptionCoverageEngine(instance, BYPASS_CONFIG)
    assert engine.covers(clause, x)
    assert engine.covered_examples(clause, BYPASS_EXAMPLES) == [x]

    instance.relation("s").remove(("x", "c1"))
    delta = Delta.add("u", [("z",)])
    instance.apply_delta(delta)
    assert engine.apply_delta(delta) == set(BYPASS_EXAMPLES)

    assert str(engine.saturation(x)) == "q(x) :- r(x, b1)."
    assert not engine.covers(clause, x)
    assert engine.covered_examples(clause, BYPASS_EXAMPLES) == []


@pytest.mark.parametrize("backend", ["memory", "sqlite", "sqlite-pooled"])
def test_an_engine_that_missed_a_delta_answers_as_a_fresh_one(backend):
    """Of two engines over one instance, the one not told of the first
    delta drops everything on the second, whatever that one touches."""
    instance = _bypass_instance(backend)
    x = BYPASS_EXAMPLES[0]
    clause = parse_clause("q(v) :- r(v, 'b9').")
    told = SubsumptionCoverageEngine(instance, BYPASS_CONFIG)
    missed = SubsumptionCoverageEngine(instance, BYPASS_CONFIG)
    for engine in (told, missed):
        assert engine.covered_examples(clause, BYPASS_EXAMPLES) == []

    first = Delta.add("r", [("x", "b9")])
    instance.apply_delta(first)
    assert told.apply_delta(first) == {x}
    second = Delta.add("u", [("z",)])
    instance.apply_delta(second)
    assert told.apply_delta(second) == set()
    assert missed.apply_delta(second) == set(BYPASS_EXAMPLES)

    want = "q(x) :- r(x, b1), r(x, b9), s(x, c1)."
    for engine in (told, missed):
        assert str(engine.saturation(x)) == want
        assert engine.covered_examples(clause, BYPASS_EXAMPLES) == [x]


@pytest.mark.parametrize("backend", ["memory", "sqlite", "sqlite-pooled"])
def test_after_a_resync_deltas_evict_only_what_they_touch(backend):
    """Dropping everything once, for a bypassing write, resyncs the
    engine: the deltas after it are targeted again."""
    instance = _bypass_instance(backend)
    x, y = BYPASS_EXAMPLES
    engine = SubsumptionCoverageEngine(instance, BYPASS_CONFIG)
    engine.prepare(BYPASS_EXAMPLES)

    instance.relation("u").add(("w",))
    delta = Delta.add("u", [("z",)])
    instance.apply_delta(delta)
    assert engine.apply_delta(delta) == {x, y}

    engine.prepare(BYPASS_EXAMPLES)
    warm_y = engine.saturation(y)
    for delta, touched in [
        (Delta.add("r", [("x", "b3")]), {x}),
        (Delta.add("u", [("v",)]), set()),
        (Delta.remove("r", [("x", "b3")]), {x}),
    ]:
        instance.apply_delta(delta)
        assert engine.apply_delta(delta) == touched
        engine.prepare(BYPASS_EXAMPLES)
        assert engine.saturation(y) is warm_y
    assert str(engine.saturation(x)) == "q(x) :- r(x, b1), s(x, c1)."


# --------------------------------------------------------------------- #
# Cost: a delta that drops nothing runs no SQL on the store
# --------------------------------------------------------------------- #
def _record_statements(store):
    """The SQL statements ``store`` executes from now on, as a growing list."""
    executed = []
    store._connection.set_trace_callback(executed.append)
    return executed


class TestInvalidationLooksUpInsteadOfScanning:
    def test_disjoint_values_run_no_statement(self):
        instance = DatabaseInstance(tiny_schema(), backend="sqlite")
        instance.add_tuples("r", [(f"x{i}", f"b{i}") for i in range(12)])
        instance.add_tuples("s", [(f"x{i}", i) for i in range(12)])
        examples = [Example("q", (f"x{i}",), True) for i in range(12)]
        store = SaturationStore()
        SubsumptionCoverageEngine(
            instance,
            BottomClauseConfig(max_depth=2),
            saturation_store=store,
        ).materialize(examples)
        assert len(store) == 12

        executed = _record_statements(store)
        assert store.invalidate_touching(["z", "1", b"x1", 12, 3.5]) == []
        assert executed == []
        assert len(store) == 12

    def test_engine_after_session_update_runs_no_statement(self):
        """The session already dropped what the delta touched, so the
        engine's own pass over the shared store only resyncs its ids."""
        source = DatabaseInstance(tiny_schema())
        source.add_tuples("r", [("x1", "b1")])
        source.add_tuples("s", [("x2", "c2")])
        e1 = Example("q", ("x1",), True)
        e2 = Example("q", ("x2",), True)
        with LearningSession(SessionConfig(backend="sqlite")) as session:
            prepared = session.prepare(source)
            store = session.saturation_store_for(prepared)
            engine = SubsumptionCoverageEngine(
                prepared,
                BottomClauseConfig(max_depth=2),
                saturation_store=store,
            )
            engine.materialize([e1, e2])
            delta = Delta.add("r", [("x1", "b9")])
            session.update(source, delta)
            assert store.existing_id("q", e1.values) is None

            executed = _record_statements(store)
            assert engine.apply_delta(delta) == {e1}
            assert executed == []


# --------------------------------------------------------------------- #
# Property: delta maintenance == cold rebuild (the parity invariant)
# --------------------------------------------------------------------- #
VALUES = st.sampled_from(["u", "v", "w", 0, 1])
ROW_R = st.tuples(VALUES, VALUES)
ROW_S = st.tuples(VALUES, VALUES)
RELATION_ROWS = {"r": ROW_R, "s": ROW_S}
OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.sampled_from(["r", "s"]),
        st.lists(ROW_R, min_size=1, max_size=3),
    ),
    max_size=6,
)
EXAMPLES = [Example("q", (value,), True) for value in ["u", "v", "w", 0, 1]]
CLAUSES = [
    parse_clause("q(x) :- r(x, y)."),
    parse_clause("q(x) :- r(x, y), s(x, z)."),
    parse_clause("q(x) :- s(x, z)."),
]


def _coverage_bits(engine):
    return [
        frozenset(engine.covered_examples(clause, EXAMPLES)) for clause in CLAUSES
    ]


@pytest.mark.parametrize("backend", ["memory", "sqlite", "sqlite-pooled"])
@settings(max_examples=25, deadline=None)
@given(
    initial_r=st.lists(ROW_R, max_size=5),
    initial_s=st.lists(ROW_S, max_size=5),
    rounds=st.lists(OPS, min_size=1, max_size=3),
)
def test_delta_maintenance_matches_cold_rebuild(backend, initial_r, initial_s, rounds):
    """Random insert/retract interleavings applied as deltas leave store
    contents and coverage bitsets byte-identical to a cold rebuild."""
    warm = DatabaseInstance(tiny_schema(), backend=backend)
    warm.add_tuples("r", initial_r)
    warm.add_tuples("s", initial_s)
    warm_store = SaturationStore()
    warm_engine = SubsumptionCoverageEngine(
        warm,
        BottomClauseConfig(max_depth=2),
        saturation_store=warm_store,
    )
    warm_engine.materialize(EXAMPLES)
    _coverage_bits(warm_engine)  # populate coverage caches, then patch them

    for ops in rounds:
        delta = Delta(ops).coalesced()
        warm.apply_delta(delta)
        warm_engine.apply_delta(delta)
        warm_engine.materialize(EXAMPLES)

        cold = DatabaseInstance(tiny_schema(), backend=backend)
        for name in ("r", "s"):
            cold.add_tuples(name, sorted(warm.relation(name).rows, key=repr))
        cold_store = SaturationStore()
        cold_engine = SubsumptionCoverageEngine(
            cold,
            BottomClauseConfig(max_depth=2),
            saturation_store=cold_store,
        )
        cold_engine.materialize(EXAMPLES)

        assert warm.relation("r").rows == cold.relation("r").rows
        assert warm_store.contents() == cold_store.contents()
        assert _coverage_bits(warm_engine) == _coverage_bits(cold_engine)
