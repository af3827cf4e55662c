"""Tests for repro.database.schema and repro.database.constraints."""

import pytest

from repro.database.constraints import (
    FunctionalDependency,
    InclusionDependency,
    compute_inclusion_classes,
    inds_are_cyclic,
)
from repro.database.schema import RelationSchema, Schema


class TestRelationSchema:
    def test_arity_and_positions(self):
        relation = RelationSchema("r", ["a", "b", "c"])
        assert relation.arity == 3
        assert relation.position_of("b") == 1
        assert relation.positions_of(["c", "a"]) == (2, 0)

    def test_unknown_attribute_raises(self):
        relation = RelationSchema("r", ["a"])
        with pytest.raises(KeyError):
            relation.position_of("zzz")

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(ValueError):
            RelationSchema("r", ["a", "a"])

    def test_shared_attributes(self):
        left = RelationSchema("r", ["a", "b"])
        right = RelationSchema("s", ["b", "c"])
        assert left.shares_attributes_with(right) == ("b",)
        assert right.shares_attributes_with(RelationSchema("t", ["x"])) == ()


class TestInclusionDependency:
    def test_requires_equal_length_attribute_lists(self):
        with pytest.raises(ValueError):
            InclusionDependency("r", ["a", "b"], "s", ["a"])

    def test_other_side(self):
        ind = InclusionDependency("r", ["a"], "s", ["x"])
        assert ind.other_side("r") == ("s", ("a",), ("x",))
        assert ind.other_side("s") == ("r", ("x",), ("a",))
        with pytest.raises(ValueError):
            ind.other_side("zzz")

    def test_reversed_and_subset_form(self):
        ind = InclusionDependency("r", ["a"], "s", ["x"], with_equality=True)
        assert ind.reversed().left == "s"
        assert ind.reversed().with_equality
        assert not ind.as_subset().with_equality

    def test_involves(self):
        ind = InclusionDependency("r", ["a"], "s", ["x"])
        assert ind.involves("r") and ind.involves("s") and not ind.involves("t")


class TestInclusionClasses:
    def test_equality_inds_group_relations(self):
        inds = [
            InclusionDependency("s1", ["a"], "s2", ["a"], with_equality=True),
            InclusionDependency("s2", ["b"], "s3", ["b"], with_equality=True),
        ]
        classes = compute_inclusion_classes(["s1", "s2", "s3", "s4"], inds)
        sizes = sorted(len(c) for c in classes)
        assert sizes == [1, 3]

    def test_subset_inds_do_not_group_by_default(self):
        inds = [InclusionDependency("s1", ["a"], "s2", ["a"])]
        classes = compute_inclusion_classes(["s1", "s2"], inds)
        assert all(len(c) == 1 for c in classes)

    def test_subset_inds_group_when_enabled(self):
        inds = [InclusionDependency("s1", ["a"], "s2", ["a"])]
        classes = compute_inclusion_classes(["s1", "s2"], inds, include_subset_inds=True)
        assert any(len(c) == 2 for c in classes)

    def test_inds_for_member(self):
        ind = InclusionDependency("s1", ["a"], "s2", ["a"], with_equality=True)
        classes = compute_inclusion_classes(["s1", "s2"], [ind])
        multi = next(c for c in classes if len(c) == 2)
        assert multi.inds_for("s1") == [ind]
        assert multi.inds_for("s2") == [ind]

    def test_acyclic_inds_detected(self):
        inds = [
            InclusionDependency("s1", ["a"], "s2", ["a"], with_equality=True),
            InclusionDependency("s2", ["b"], "s3", ["b"], with_equality=True),
        ]
        assert not inds_are_cyclic(inds)

    def test_cyclic_inds_detected(self):
        # The Section 7.1 example: S1(A,B), S2(B,C), S3(C,A) joined in a cycle
        # over different attributes.
        inds = [
            InclusionDependency("s1", ["b"], "s2", ["b"], with_equality=True),
            InclusionDependency("s2", ["c"], "s3", ["c"], with_equality=True),
            InclusionDependency("s3", ["a"], "s1", ["a"], with_equality=True),
        ]
        assert inds_are_cyclic(inds)


class TestSchema:
    def test_relation_lookup(self, simple_schema):
        assert simple_schema.relation("r1").arity == 2
        assert simple_schema.has_relation("r2")
        assert "r1" in simple_schema
        with pytest.raises(KeyError):
            simple_schema.relation("nope")

    def test_duplicate_relation_rejected(self):
        with pytest.raises(ValueError):
            Schema([RelationSchema("r", ["a"]), RelationSchema("r", ["b"])])

    def test_constraint_validation(self):
        with pytest.raises(KeyError):
            Schema(
                [RelationSchema("r", ["a"])],
                [FunctionalDependency("r", ["zzz"], ["a"])],
            )

    def test_inds_involving(self, simple_schema):
        assert len(simple_schema.inds_involving("r1")) == 1
        assert len(simple_schema.inds_involving("r2")) == 1

    def test_equality_and_subset_ind_partition(self, simple_schema):
        assert len(simple_schema.equality_inds()) == 1
        assert [ind for ind in simple_schema.inclusion_dependencies if not ind.with_equality] == []

    def test_inclusion_classes_cached_and_correct(self, simple_schema):
        classes_first = simple_schema.inclusion_classes()
        classes_second = simple_schema.inclusion_classes()
        assert classes_first is classes_second
        assert simple_schema.inclusion_class_of("r1") is not None
        assert simple_schema.inclusion_class_of("r1").members == {"r1", "r2"}

    def test_with_subset_inds_only(self, simple_schema):
        weakened = simple_schema.with_subset_inds_only()
        assert weakened.equality_inds() == []
        assert [ind.with_equality for ind in weakened.inclusion_dependencies] == [False]
        # The original schema is unchanged.
        assert len(simple_schema.equality_inds()) == 1

    def test_with_constraints_copy(self, simple_schema):
        copy = simple_schema.with_constraints(inclusion_dependencies=[], name="bare")
        assert copy.name == "bare"
        assert copy.inclusion_dependencies == []
        assert len(copy) == len(simple_schema)
