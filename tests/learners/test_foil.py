"""Tests for the FOIL learner and its refinement/gain machinery."""

import math

import pytest

from repro.foil.foil import FoilLearner, FoilParameters
from repro.foil.gain import coverage_score, foil_gain, information_content, laplace_accuracy, precision
from repro.foil.refinement import RefinementConfig, RefinementOperator, initial_clause
from repro.learning.evaluation import evaluate_definition


class TestGain:
    def test_information_content_decreases_with_purity(self):
        assert information_content(10, 0) < information_content(5, 5)

    def test_information_content_of_empty_coverage_is_infinite(self):
        assert math.isinf(information_content(0, 10))

    def test_gain_positive_for_purifying_refinement(self):
        assert foil_gain(10, 10, 8, 1) > 0

    def test_gain_negative_infinity_when_no_positives_remain(self):
        assert foil_gain(10, 10, 0, 5) == float("-inf")

    def test_gain_zero_for_no_change(self):
        assert foil_gain(10, 5, 10, 5) == pytest.approx(0.0)

    def test_precision_and_laplace(self):
        assert precision(3, 1) == pytest.approx(0.75)
        assert precision(0, 0) == 0.0
        assert 0.5 < laplace_accuracy(3, 1) < precision(3, 1) + 0.01

    def test_coverage_score(self):
        assert coverage_score(5, 2, 1) == 2


class TestRefinementOperator:
    def test_initial_clause_is_most_general(self):
        clause = initial_clause("advised", 2)
        assert clause.length == 0
        assert len(clause.head_variables()) == 2

    def test_candidates_are_linked_to_existing_variables(self, tiny_schema, tiny_instance):
        operator = RefinementOperator(tiny_schema, tiny_instance)
        clause = initial_clause("advised", 2)
        candidates = operator.candidate_literals(clause)
        assert candidates
        existing = set(clause.variables())
        for literal in candidates:
            assert any(v in existing for v in literal.variables())

    def test_candidate_cap_respected(self, tiny_schema, tiny_instance):
        operator = RefinementOperator(
            tiny_schema, tiny_instance, RefinementConfig(max_candidates_per_relation=5)
        )
        clause = initial_clause("advised", 2)
        by_predicate = {}
        for literal in operator.candidate_literals(clause):
            by_predicate.setdefault(literal.predicate, 0)
            by_predicate[literal.predicate] += 1
        assert all(count <= 5 for count in by_predicate.values())

    def test_constant_candidates_from_small_domains(self, tiny_schema, tiny_instance):
        operator = RefinementOperator(tiny_schema, tiny_instance)
        clause = initial_clause("advised", 2)
        constants = {
            term.value
            for literal in operator.candidate_literals(clause)
            if literal.predicate == "professor"
            for term in literal.terms
            if term.is_constant()
        }
        assert "faculty" in constants


class TestFoilLearner:
    def test_learns_consistent_definition(self, tiny_schema, tiny_instance, tiny_examples):
        learner = FoilLearner(tiny_schema, FoilParameters(max_clause_length=4))
        definition = learner.learn(tiny_instance, tiny_examples)
        assert len(definition) >= 1
        evaluation = evaluate_definition(definition, tiny_instance, tiny_examples)
        assert evaluation.precision >= 0.67
        assert evaluation.recall >= 0.5

    def test_learned_clauses_are_safe(self, tiny_schema, tiny_instance, tiny_examples):
        learner = FoilLearner(tiny_schema, FoilParameters(max_clause_length=4))
        definition = learner.learn(tiny_instance, tiny_examples)
        assert definition.is_safe()

    def test_clause_length_bound_is_respected(self, tiny_schema, tiny_instance, tiny_examples):
        learner = FoilLearner(tiny_schema, FoilParameters(max_clause_length=2))
        definition = learner.learn(tiny_instance, tiny_examples)
        assert all(clause.length <= 2 for clause in definition)

    def test_empty_examples_give_empty_definition(self, tiny_schema, tiny_instance):
        from repro.learning.examples import ExampleSet

        learner = FoilLearner(tiny_schema)
        definition = learner.learn(tiny_instance, ExampleSet("advised"))
        assert len(definition) == 0
