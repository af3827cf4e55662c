"""Tests for relational algebra helpers and conjunctive-query evaluation."""

import pytest

from repro.database.algebra import (
    join_is_globally_consistent,
    join_is_pairwise_consistent,
    named_rows,
    natural_join_many,
    natural_join_rows,
    project_rows,
    rows_to_tuples,
    select_rows,
)
from repro.database.instance import DatabaseInstance, RelationInstance
from repro.database.query import QueryEvaluator, evaluate_clause, evaluate_definition
from repro.database.schema import RelationSchema, Schema
from repro.logic.clauses import HornDefinition
from repro.logic.parser import parse_clause


class TestAlgebra:
    def test_named_rows(self):
        relation = RelationInstance(RelationSchema("r", ["a", "b"]), [("x", "y")])
        assert named_rows(relation) == [{"a": "x", "b": "y"}]

    def test_project_rows_deduplicates(self):
        rows = [{"a": "x", "b": "y"}, {"a": "x", "b": "z"}]
        assert project_rows(rows, ["a"]) == [{"a": "x"}]

    def test_select_rows(self):
        rows = [{"a": "x"}, {"a": "y"}]
        assert select_rows(rows, {"a": "y"}) == [{"a": "y"}]

    def test_natural_join_on_shared_attribute(self):
        left = [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]
        right = [{"a": "1", "c": "p"}, {"a": "3", "c": "q"}]
        joined = natural_join_rows(left, right)
        assert joined == [{"a": "1", "b": "x", "c": "p"}]

    def test_natural_join_many(self):
        first = [{"a": "1", "b": "x"}]
        second = [{"a": "1", "c": "y"}]
        third = [{"c": "y", "d": "z"}]
        joined = natural_join_many([first, second, third])
        assert joined == [{"a": "1", "b": "x", "c": "y", "d": "z"}]

    def test_rows_to_tuples_order(self):
        schema = RelationSchema("r", ["b", "a"])
        assert rows_to_tuples([{"a": "1", "b": "2"}], schema) == [("2", "1")]

    def test_global_and_pairwise_consistency(self):
        left = RelationInstance(RelationSchema("l", ["a", "b"]), [("1", "x"), ("2", "y")])
        right = RelationInstance(RelationSchema("r", ["a", "c"]), [("1", "p"), ("2", "q")])
        assert join_is_pairwise_consistent([left, right])
        assert join_is_globally_consistent([left, right])
        # Add a dangling tuple on the right: consistency breaks.
        right.add(("3", "z"))
        assert not join_is_pairwise_consistent([left, right])
        assert not join_is_globally_consistent([left, right])


@pytest.fixture
def family_instance() -> DatabaseInstance:
    schema = Schema(
        [
            RelationSchema("parent", ["parent", "child"]),
            RelationSchema("female", ["person"]),
        ],
        name="family",
    )
    instance = DatabaseInstance(schema)
    instance.add_tuples(
        "parent",
        [("ann", "bob"), ("ann", "carol"), ("bob", "dave"), ("carol", "eve")],
    )
    instance.add_tuples("female", [("ann",), ("carol",), ("eve",)])
    return instance


class TestQueryEvaluator:
    def test_evaluate_simple_clause(self, family_instance):
        clause = parse_clause("mother(x, y) :- parent(x, y), female(x).")
        results = evaluate_clause(family_instance, clause)
        assert results == {("ann", "bob"), ("ann", "carol"), ("carol", "eve")}

    def test_evaluate_join_clause(self, family_instance):
        clause = parse_clause("grandparent(x, z) :- parent(x, y), parent(y, z).")
        results = evaluate_clause(family_instance, clause)
        assert results == {("ann", "dave"), ("ann", "eve")}

    def test_constants_in_body(self, family_instance):
        clause = parse_clause("childOfAnn(x) :- parent(ann, x).")
        assert evaluate_clause(family_instance, clause) == {("bob",), ("carol",)}

    def test_unsafe_clause_rejected(self, family_instance):
        clause = parse_clause("weird(x, y) :- female(x).")
        with pytest.raises(ValueError):
            evaluate_clause(family_instance, clause)

    def test_unknown_predicate_yields_empty(self, family_instance):
        clause = parse_clause("q(x) :- nothere(x).")
        assert evaluate_clause(family_instance, clause) == set()

    def test_evaluate_definition_unions_clauses(self, family_instance):
        definition = HornDefinition(
            "interesting",
            [
                parse_clause("interesting(x) :- parent(x, y), female(x)."),
                parse_clause("interesting(x) :- parent(y, x), parent(x, z)."),
            ],
        )
        results = evaluate_definition(family_instance, definition)
        assert ("ann", ) in results and ("carol",) in results and ("bob",) in results

    def test_clause_covers_tuple(self, family_instance):
        evaluator = QueryEvaluator(family_instance)
        clause = parse_clause("mother(x, y) :- parent(x, y), female(x).")
        assert evaluator.clause_covers_tuple(clause, ("ann", "bob"))
        assert not evaluator.clause_covers_tuple(clause, ("bob", "dave"))
        assert not evaluator.clause_covers_tuple(clause, ("ann",))

    def test_repeated_variable_in_body(self, family_instance):
        clause = parse_clause("selfparent(x) :- parent(x, x).")
        assert evaluate_clause(family_instance, clause) == set()
