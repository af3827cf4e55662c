"""Tests for repro.database.instance."""

import gc
import weakref

import pytest

from repro.database.instance import DatabaseInstance, RelationInstance
from repro.database.schema import RelationSchema


class TestRelationInstance:
    """Relation-store interface tests, run against every backend via
    ``relation_factory`` (memory's ``RelationInstance`` and the SQLite
    relation must behave identically)."""

    def test_add_and_len(self, relation_factory):
        relation = relation_factory(RelationSchema("r", ["a", "b"]))
        relation.add(("x", "y"))
        relation.add(("x", "y"))  # duplicate ignored
        relation.add(("x", "z"))
        assert len(relation) == 2
        assert ("x", "y") in relation

    def test_arity_mismatch_rejected(self, relation_factory):
        relation = relation_factory(RelationSchema("r", ["a", "b"]))
        with pytest.raises(ValueError):
            relation.add(("only-one",))

    def test_remove(self, relation_factory):
        relation = relation_factory(RelationSchema("r", ["a"]), [("x",)])
        relation.remove(("x",))
        assert len(relation) == 0
        assert relation.tuples_containing("x") == set()
        with pytest.raises(KeyError):
            relation.remove(("x",))

    def test_tuples_containing_any_column(self, relation_factory):
        relation = relation_factory(
            RelationSchema("r", ["a", "b"]), [("x", "y"), ("y", "z")]
        )
        assert relation.tuples_containing("y") == {("x", "y"), ("y", "z")}

    def test_tuples_with_position(self, relation_factory):
        relation = relation_factory(
            RelationSchema("r", ["a", "b"]), [("x", "y"), ("y", "z")]
        )
        assert relation.tuples_with(0, "y") == {("y", "z")}
        assert relation.tuples_with(1, "y") == {("x", "y")}

    def test_tuples_matching_multiple_bindings(self, relation_factory):
        relation = relation_factory(
            RelationSchema("r", ["a", "b", "c"]),
            [("x", "y", "1"), ("x", "y", "2"), ("x", "z", "1")],
        )
        assert relation.tuples_matching({0: "x", 1: "y"}) == {
            ("x", "y", "1"),
            ("x", "y", "2"),
        }
        assert relation.tuples_matching({}) == relation.rows
        assert relation.tuples_matching({0: "nope"}) == set()

    def test_project_and_distinct_values(self, relation_factory):
        relation = relation_factory(
            RelationSchema("r", ["a", "b"]), [("x", "y"), ("x", "z")]
        )
        assert relation.project(["a"]) == {("x",)}
        assert relation.distinct_values("b") == {"y", "z"}

    def test_cross_backend_equality(self, relation_factory):
        rows = [("x", "y"), ("y", "z")]
        relation = relation_factory(RelationSchema("r", ["a", "b"]), rows)
        memory_twin = RelationInstance(RelationSchema("r", ["a", "b"]), rows)
        assert relation == memory_twin
        assert memory_twin == relation


class TestDatabaseInstance:
    def test_add_and_total_tuples(self, simple_schema):
        instance = DatabaseInstance(simple_schema)
        instance.add_tuple("r1", ("a1", "b1"))
        instance.add_tuples("r2", [("a1", "c1"), ("a1", "c2")])
        assert instance.total_tuples() == 3
        assert len(instance.relation("r1")) == 1

    def test_unknown_relation_raises(self, simple_schema):
        instance = DatabaseInstance(simple_schema)
        with pytest.raises(KeyError):
            instance.relation("nope")

    def test_tuples_containing_across_relations(self, simple_instance):
        found = simple_instance.tuples_containing("a1")
        relations = {name for name, _ in found}
        assert relations == {"r1", "r2"}

    def test_fd_satisfaction(self, simple_instance, simple_schema):
        fd = simple_schema.functional_dependencies[0]
        assert simple_instance.satisfies_fd(fd)
        simple_instance.add_tuple("r1", ("a1", "different"))
        assert not simple_instance.satisfies_fd(fd)

    def test_ind_satisfaction(self, simple_instance, simple_schema):
        ind = simple_schema.inclusion_dependencies[0]
        assert simple_instance.satisfies_ind(ind)
        simple_instance.add_tuple("r1", ("a_unmatched", "b9"))
        assert not simple_instance.satisfies_ind(ind)

    def test_subset_ind_only_checks_one_direction(self, simple_schema):
        schema = simple_schema.with_subset_inds_only()
        instance = DatabaseInstance(schema)
        instance.add_tuple("r1", ("a1", "b1"))
        instance.add_tuples("r2", [("a1", "c1"), ("a2", "c2")])
        ind = schema.inclusion_dependencies[0]
        assert instance.satisfies_ind(ind)
        assert not instance.ind_holds_with_equality(ind)

    def test_satisfies_all_constraints_and_violations(self, simple_instance):
        assert simple_instance.satisfies_all_constraints()
        assert simple_instance.violated_constraints() == []
        simple_instance.add_tuple("r2", ("a_extra", "c9"))
        assert not simple_instance.satisfies_all_constraints()
        assert len(simple_instance.violated_constraints()) == 1

    def test_copy_and_same_contents(self, simple_instance):
        duplicate = simple_instance.copy()
        assert duplicate.same_contents(simple_instance)
        duplicate.add_tuple("r1", ("a9", "b9"))
        assert not duplicate.same_contents(simple_instance)

    def test_dropped_memory_instance_is_freed_without_the_cyclic_gc(
        self, simple_schema
    ):
        """The memory backend and its relation stores form no reference
        cycle, so dropping an instance (a transformation's intermediate, a
        ``with_backend`` copy) frees it at once rather than at the next
        cyclic collection."""
        instance = DatabaseInstance(simple_schema, backend="memory")
        instance.add_tuple("r1", ("a1", "b1"))
        backend = weakref.ref(instance.backend)
        store = weakref.ref(instance.relation("r1"))
        gc.disable()
        try:
            del instance
            assert backend() is None
            assert store() is None
        finally:
            gc.enable()
