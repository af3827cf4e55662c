"""Tests for standard (depth-limited) bottom-clause construction."""

import pytest

from repro.database.instance import DatabaseInstance
from repro.database.schema import RelationSchema, Schema
from repro.learning.bottom_clause import (
    BottomClauseBuilder,
    BottomClauseConfig,
    build_bottom_clause,
    build_saturation,
)
from repro.learning.examples import Example


@pytest.fixture
def department() -> DatabaseInstance:
    schema = Schema(
        [
            RelationSchema("student", ["stud"]),
            RelationSchema("inPhase", ["stud", "phase"]),
            RelationSchema("publication", ["title", "person"]),
        ],
        name="department",
    )
    instance = DatabaseInstance(schema)
    instance.add_tuple("student", ("s1",))
    instance.add_tuple("inPhase", ("s1", "post_quals"))
    instance.add_tuples("publication", [("t1", "s1"), ("t1", "p1"), ("t2", "p1")])
    return instance


class TestBottomClause:
    def test_head_uses_variables_for_example_values(self, department):
        example = Example("advisedBy", ("s1", "p1"), True)
        clause = build_bottom_clause(department, example)
        assert clause.head.predicate == "advisedBy"
        assert not clause.head.is_ground()

    def test_body_contains_tuples_mentioning_example_constants(self, department):
        example = Example("advisedBy", ("s1", "p1"), True)
        clause = build_bottom_clause(department, example, BottomClauseConfig(max_depth=1))
        predicates = {atom.predicate for atom in clause.body}
        assert predicates == {"student", "inPhase", "publication"}

    def test_constant_variable_mapping_is_consistent(self, department):
        example = Example("advisedBy", ("s1", "p1"), True)
        clause = build_bottom_clause(department, example, BottomClauseConfig(max_depth=2))
        # The variable standing for s1 in the head must be reused in student/inPhase.
        head_var_s1 = clause.head.terms[0]
        student_literals = [a for a in clause.body if a.predicate == "student"]
        assert student_literals and student_literals[0].terms[0] == head_var_s1

    def test_depth_limit_controls_expansion(self, department):
        example = Example("advisedBy", ("s1", "p1"), True)
        shallow = build_bottom_clause(department, example, BottomClauseConfig(max_depth=1))
        deep = build_bottom_clause(department, example, BottomClauseConfig(max_depth=3))
        assert len(deep.body) >= len(shallow.body)
        # Depth 1 must not contain the t2 publication (reached only through t1/p1 chain).
        shallow_titles = {
            atom.terms
            for atom in shallow.body
            if atom.predicate == "publication"
        }
        assert len(shallow_titles) <= 3

    def test_saturation_is_ground(self, department):
        example = Example("advisedBy", ("s1", "p1"), True)
        saturation = build_saturation(department, example)
        assert saturation.head.is_ground()
        assert all(atom.is_ground() for atom in saturation.body)

    def test_max_total_literals_cap(self, department):
        example = Example("advisedBy", ("s1", "p1"), True)
        clause = build_bottom_clause(
            department, example, BottomClauseConfig(max_depth=3, max_total_literals=2)
        )
        assert len(clause.body) <= 2

    def test_variable_budget_stops_expansion(self, department):
        example = Example("advisedBy", ("s1", "p1"), True)
        config = BottomClauseConfig(max_depth=None, max_distinct_variables=2)
        clause = build_bottom_clause(department, example, config)
        # The budget is checked between iterations, so the clause may exceed it
        # slightly but must stop long before exhausting the database.
        assert len(clause.variables()) >= 2

    def test_unknown_example_constant_gives_empty_body(self, department):
        example = Example("advisedBy", ("ghost", "nobody"), True)
        clause = build_bottom_clause(department, example)
        assert clause.body == ()

    def test_builder_reusable_across_examples(self, department):
        builder = BottomClauseBuilder(department)
        first = builder.build(Example("advisedBy", ("s1", "p1"), True))
        second = builder.build(Example("advisedBy", ("s1", "p1"), True))
        assert first == second


class TestDeclaredConstants:
    """Only values under a declared constant attribute stay constants."""

    @staticmethod
    def phases(**declaration):
        schema = Schema(
            [RelationSchema("inPhase", ["stud", "phase"])], name="phases", **declaration
        )
        instance = DatabaseInstance(schema)
        instance.add_tuples(
            "inPhase",
            [("s1", "pre_quals"), ("s2", "pre_quals"), ("s3", "post_quals"), ("s4", "post_quals")],
        )
        return instance

    def test_undeclared_small_domain_column_gives_no_constant(self):
        clause = build_bottom_clause(
            self.phases(), Example("t", ("s1",), True), BottomClauseConfig(max_depth=1)
        )
        assert str(clause) == "t(v0) :- inPhase(v0, v1)."

    def test_declared_column_keeps_its_values(self):
        clause = build_bottom_clause(
            self.phases(constant_attributes=["phase"]),
            Example("t", ("s1",), True),
            BottomClauseConfig(max_depth=1),
        )
        assert str(clause) == "t(v0) :- inPhase(v0, pre_quals)."
