"""Tests for SchemaTransformation: instance maps τ, inverses, definition maps δτ."""

import pytest

from repro.database.instance import DatabaseInstance
from repro.database.schema import RelationSchema, Schema
from repro.logic.clauses import HornDefinition
from repro.logic.parser import parse_clause
from repro.transform.decomposition import (
    ComposeOperation,
    DecomposeOperation,
    apply_compose_to_schema,
    apply_decompose_to_schema,
)
from repro.transform.equivalence import definition_results
from repro.transform.transformation import SchemaTransformation, identity_transformation


class TestInstanceTransformation:
    def test_decomposition_projects_instance(self, composed_instance, wide_decomposition):
        transformed = wide_decomposition.apply(composed_instance)
        assert set(transformed.schema.relation_names) == {"left", "right"}
        assert transformed.relation("left").rows == {
            ("a1", "b1"),
            ("a2", "b2"),
            ("a3", "b3"),
        }

    def test_decomposition_target_schema_has_equality_inds(self, wide_decomposition):
        assert len(wide_decomposition.target_schema.equality_inds()) == 1

    def test_round_trip_identity(self, composed_instance, wide_decomposition):
        assert wide_decomposition.is_invertible_on(composed_instance)

    def test_inverse_of_inverse_round_trips(self, composed_instance, wide_decomposition):
        inverse = wide_decomposition.invert()
        decomposed = wide_decomposition.apply(composed_instance)
        recovered = inverse.apply(decomposed)
        assert recovered.same_contents(composed_instance)
        # And going forward again gives the decomposed instance.
        assert inverse.invert().apply(recovered).same_contents(decomposed)

    def test_identity_transformation(self, composed_instance, composed_schema):
        identity = identity_transformation(composed_schema)
        assert identity.apply(composed_instance).same_contents(composed_instance)

    def test_missing_relation_rejected(self, wide_decomposition, composed_schema):
        other_schema = Schema([RelationSchema("unrelated", ["x"])], name="other")
        other_instance = DatabaseInstance(other_schema)
        with pytest.raises(ValueError):
            wide_decomposition.apply(other_instance)

    def test_multi_step_transformation(self, composed_schema, composed_instance):
        transformation = SchemaTransformation(
            composed_schema,
            [
                DecomposeOperation("wide", [("l", ["a", "b"]), ("r", ["a", "c"])]),
                ComposeOperation(["l", "r"], "wide", attribute_order=["a", "b", "c"]),
            ],
        )
        round_tripped = transformation.apply(composed_instance)
        assert round_tripped.relation("wide").rows == composed_instance.relation("wide").rows


class TestDefinitionMapping:
    def test_composed_literal_expands_to_parts(self, wide_decomposition):
        definition = HornDefinition(
            "t", [parse_clause("t(x) :- wide(x, y, z).")]
        )
        mapped = wide_decomposition.map_definition(definition)
        clause = mapped.clauses[0]
        assert {atom.predicate for atom in clause.body} == {"left", "right"}
        assert clause.length == 2

    def test_mapping_preserves_results_on_instances(
        self, composed_instance, wide_decomposition
    ):
        definition = HornDefinition(
            "t", [parse_clause("t(x, y) :- wide(x, y, z).")]
        )
        mapped = wide_decomposition.map_definition(definition)
        source_results = definition_results(definition, composed_instance)
        target_results = definition_results(
            mapped, wide_decomposition.apply(composed_instance)
        )
        assert source_results == target_results

    def test_part_literal_maps_to_composed_with_fresh_variables(
        self, composed_schema, composed_instance, wide_decomposition
    ):
        # Map a definition over the decomposed schema back to the composed one.
        inverse = wide_decomposition.invert()
        definition = HornDefinition("t", [parse_clause("t(x) :- left(x, y).")])
        mapped = inverse.map_definition(definition)
        clause = mapped.clauses[0]
        assert clause.body[0].predicate == "wide"
        assert clause.body[0].arity == 3
        decomposed_instance = wide_decomposition.apply(composed_instance)
        assert definition_results(definition, decomposed_instance) == definition_results(
            mapped, composed_instance
        )

    def test_untouched_relations_pass_through(self):
        schema = Schema(
            [RelationSchema("wide", ["a", "b", "c"]), RelationSchema("other", ["a"])],
            name="mixed",
        )
        transformation = SchemaTransformation(
            schema, [DecomposeOperation("wide", [("l", ["a", "b"]), ("r", ["a", "c"])])]
        )
        definition = HornDefinition(
            "t", [parse_clause("t(x) :- wide(x, y, z), other(x).")]
        )
        mapped = transformation.map_definition(definition)
        predicates = {atom.predicate for atom in mapped.clauses[0].body}
        assert predicates == {"l", "r", "other"}


class TestConstantAttributes:
    def test_every_schema_producing_path_keeps_the_declaration(self):
        schema = Schema(
            [RelationSchema("wide", ["a", "b", "c"])],
            name="composed",
            constant_attributes=["c"],
        )
        decompose = DecomposeOperation("wide", [("left", ["a", "b"]), ("right", ["a", "c"])])
        decomposed = apply_decompose_to_schema(schema, decompose)
        composed = apply_compose_to_schema(
            decomposed, ComposeOperation(["left", "right"], "wide", ["a", "b", "c"])
        )
        transformation = SchemaTransformation(schema, [decompose], target_name="split")
        inverse = transformation.invert()
        for produced in (
            decomposed,
            composed,
            transformation.target_schema,
            inverse.target_schema,
        ):
            assert produced.constant_attributes == {"c"}, produced.name
        assert inverse.target_schema == schema


class TestEquivalenceHelpers:
    def test_unsafe_clauses_are_skipped_in_results(self, composed_instance):
        definition = HornDefinition("t", [parse_clause("t(x, q) :- wide(x, y, z).")])
        assert definition_results(definition, composed_instance) == set()
