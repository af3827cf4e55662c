"""Incremental updates: Delta semantics, transactions, and delta-maintained
saturation/coverage state vs a cold rebuild.

The contract under test (docs/updates.md):

* a :class:`Delta` replayed onto warm engines/stores leaves them in a state
  **indistinguishable** from throwing everything away and rebuilding from
  the post-update data — ``SaturationStore.contents()`` and coverage
  bitsets are compared exactly;
* invalidation is *targeted*: a delta only drops saturations whose
  footprint (head values + body constants) intersects the delta's touched
  values, so warm state for untouched examples survives;
* ``DatabaseInstance.transaction()`` coalesces mutations into one delta
  (one change notification), and replay semantics are set-based: adds are
  idempotent, removes of absent rows are no-ops.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert delta.touched_relations() == frozenset({"r", "s"})
        assert delta.touched_values() == frozenset({"x", 1, "y", 2})
        assert bool(delta) and not delta.is_empty
        assert not Delta()
        assert Delta([("add", "r", [])]).is_empty  # empty-row ops are dropped

    def test_invalid_ops_rejected(self):
        with pytest.raises(ValueError):
            Delta([("upsert", "r", [("x",)])])
        with pytest.raises(ValueError):
            Delta([("add", "", [("x",)])])
        with pytest.raises(ValueError):
            Delta([42])  # not an (op, relation, rows) triple

    def test_classmethods_then_and_coalesced(self):
        delta = Delta.add("r", [("x",), ("x",), ("y",)]).then(
            Delta.add("r", [("z",)])
        ) + Delta.remove("r", [("x",)])
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
# Transactions on DatabaseInstance
# --------------------------------------------------------------------- #
class TestTransaction:
    """Runs on every registered backend (the conftest ``backend`` fixture)."""

    def _instance(self, backend):
        return DatabaseInstance(tiny_schema(), backend=backend)

    def test_transaction_coalesces_into_one_delta(self, backend):
        instance = self._instance(backend)
        seen = []
        instance.subscribe_deltas(seen.append)
        with instance.transaction():
            instance.add_tuple("r", ("x", 1))
            instance.add_tuples("r", [("y", 2), ("y", 2)])
            instance.remove_tuple("r", ("x", 1))
        assert len(seen) == 1
        assert seen[0] == Delta(
            [("add", "r", (("x", 1), ("y", 2))), ("remove", "r", (("x", 1),))]
        )
        # Standalone mutations notify per-op.
        instance.add_tuple("s", ("x", "c"))
        assert seen[1] == Delta.add("s", [("x", "c")])

    def test_nested_transactions_fire_once_at_the_outermost(self, backend):
        instance = self._instance(backend)
        seen = []
        instance.subscribe_deltas(seen.append)
        with instance.transaction():
            instance.add_tuple("r", ("x", 1))
            with instance.transaction():
                instance.add_tuple("r", ("y", 2))
            assert seen == []
        assert len(seen) == 1 and seen[0].row_count == 2

    def test_partial_transaction_still_commits(self, backend):
        """transaction() is a coalescing scope, NOT rollback: on exception
        the already-applied mutations stay and their delta still fires —
        anything else would silently diverge caches from the data."""
        instance = self._instance(backend)
        seen = []
        instance.subscribe_deltas(seen.append)
        with pytest.raises(RuntimeError):
            with instance.transaction():
                instance.add_tuple("r", ("x", 1))
                raise RuntimeError("boom")
        assert ("x", 1) in instance.relation("r")
        assert seen == [Delta.add("r", [("x", 1)])]

    def test_apply_delta_replays_with_set_semantics(self, backend):
        instance = self._instance(backend)
        instance.add_tuple("r", ("x", 1))
        delta = Delta(
            [
                ("add", "r", (("x", 1), ("y", 2))),  # ("x", 1) already present
                ("remove", "r", (("ghost", 9),)),  # absent: ignored
            ]
        )
        instance.apply_delta(delta)
        assert instance.relation("r").rows == {("x", 1), ("y", 2)}
        with pytest.raises(TypeError):
            instance.apply_delta([("add", "r", (("x", 1),))])

    def test_remove_tuple_missing_ok(self, backend):
        instance = self._instance(backend)
        with pytest.raises(KeyError):
            instance.remove_tuple("r", ("nope", 0))
        instance.remove_tuple("r", ("nope", 0), missing_ok=True)

    def test_unsubscribe(self, backend):
        instance = self._instance(backend)
        seen = []
        unsubscribe = instance.subscribe_deltas(seen.append)
        instance.add_tuple("r", ("x", 1))
        unsubscribe()
        instance.add_tuple("r", ("y", 2))
        assert len(seen) == 1

    def test_direct_mutation_on_managed_instance_warns_once(self, backend):
        from repro.database import backend as backend_module

        instance = self._instance(backend)
        instance.mark_managed()
        backend_module._WARNED = {
            m for m in backend_module._WARNED if "prepared instance" not in m
        }
        with pytest.warns(RuntimeWarning, match="transaction"):
            instance.add_tuple("r", ("x", 1))
        # Transactional mutations are the blessed path: no warning.
        with instance.transaction():
            instance.add_tuple("r", ("y", 2))


# --------------------------------------------------------------------- #
# Targeted invalidation: warm state survives unrelated deltas
# --------------------------------------------------------------------- #
class TestWarmStoreSurvival:
    def _engine(self, instance, store):
        return SubsumptionCoverageEngine(
            instance,
            BottomClauseConfig(max_depth=2),
            compiled=True,
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
    with warm.transaction():
        warm.add_tuples("r", initial_r)
        warm.add_tuples("s", initial_s)
    warm_store = SaturationStore()
    warm_engine = SubsumptionCoverageEngine(
        warm,
        BottomClauseConfig(max_depth=2),
        compiled=True,
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
        with cold.transaction():
            for name in ("r", "s"):
                cold.add_tuples(name, sorted(warm.relation(name).rows, key=repr))
        cold_store = SaturationStore()
        cold_engine = SubsumptionCoverageEngine(
            cold,
            BottomClauseConfig(max_depth=2),
            compiled=True,
            saturation_store=cold_store,
        )
        cold_engine.materialize(EXAMPLES)

        assert warm.relation("r").rows == cold.relation("r").rows
        assert warm_store.contents() == cold_store.contents()
        assert _coverage_bits(warm_engine) == _coverage_bits(cold_engine)
