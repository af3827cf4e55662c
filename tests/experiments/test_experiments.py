"""Tests for the experiment harness, reporting, and figure drivers (fast configs)."""


from repro.datasets import uwcse
from repro.experiments.figures import figure3_query_complexity
from repro.experiments.harness import LearnerSpec, check_schema_independence, run_variant
from repro.experiments.reporting import (
    format_dataset_statistics,
    format_paper_table,
    format_table,
    results_as_matrix,
)
from repro.experiments.tables import _downgrade_bundle_inds, castor_spec
from repro.logic.clauses import HornDefinition
from repro.logic.parser import parse_clause


TINY_CONFIG = uwcse.UwCseConfig(num_students=14, num_professors=5, num_courses=8)


class _FixedLearner:
    """A deterministic stand-in learner so harness tests stay fast."""

    def __init__(self, schema):
        self.schema = schema

    def learn(self, instance, examples) -> HornDefinition:
        clause = parse_clause(
            "advisedBy(x, y) :- publication(t, x), publication(t, y)."
        )
        return HornDefinition("advisedBy", [clause])


FIXED_SPEC = LearnerSpec("Fixed", lambda schema: _FixedLearner(schema))


class _EmptyLearner:
    """A stand-in learner that never accepts a clause."""

    def __init__(self, schema):
        self.schema = schema

    def learn(self, instance, examples) -> HornDefinition:
        return HornDefinition("advisedBy")


class TestHarness:
    def test_run_variant_single_split(self):
        bundle = uwcse.load(TINY_CONFIG, seed=5)
        result = run_variant(bundle, "original", FIXED_SPEC, folds=1, seed=0)
        assert result.learner == "Fixed"
        assert result.variant == "original"
        assert 0.0 <= result.precision <= 1.0
        assert result.time_seconds >= 0.0

    def test_run_variant_cross_validated(self):
        bundle = uwcse.load(TINY_CONFIG, seed=5)
        result = run_variant(bundle, "4nf", FIXED_SPEC, folds=2, seed=0)
        assert result.folds == 2

    def test_check_schema_independence_fixed_learner_is_dependent_or_not(self):
        """The fixed publication-join rule uses only an untouched relation, so
        its results must agree across every variant (it is trivially schema
        independent here) — the check must report that."""
        bundle = uwcse.load(TINY_CONFIG, seed=5)
        report = check_schema_independence(bundle, FIXED_SPEC, variants=["original", "4nf"])
        assert report.is_schema_independent
        assert set(report.result_sizes) == {"original", "4nf"}

    def test_all_empty_results_are_vacuous_not_independent(self):
        """Equal empty result relations say nothing about independence."""
        bundle = uwcse.load(TINY_CONFIG, seed=5)
        spec = LearnerSpec("Empty", _EmptyLearner)
        report = check_schema_independence(bundle, spec, variants=["original", "4nf"])
        assert report.is_vacuous
        assert not report.is_schema_independent
        assert report.result_sizes == {"original": 0, "4nf": 0}
        assert report.as_dict()["vacuous"] is True

    def test_one_empty_variant_is_dependent_not_vacuous(self):
        bundle = uwcse.load(TINY_CONFIG, seed=5)
        original = bundle.schema("original")

        def factory(schema):
            if schema is original:
                return _FixedLearner(schema)
            return _EmptyLearner(schema)

        report = check_schema_independence(
            bundle, LearnerSpec("Mixed", factory), variants=["original", "4nf"]
        )
        assert report.result_sizes["original"] > 0
        assert report.result_sizes["4nf"] == 0
        assert not report.is_vacuous
        assert not report.is_schema_independent
        assert report.as_dict()["vacuous"] is False

    def test_castor_spec_builds_learner(self):
        bundle = uwcse.load(TINY_CONFIG, seed=5)
        learner = castor_spec().build(bundle.schema("original"))
        assert learner.name == "Castor"

    def test_downgrade_bundle_inds_leaves_its_input_unchanged(self):
        """Table 12 weakens a copy.  The bundle it is given, often a shared
        fixture, and every ``with_backend`` view of it keep their equality
        INDs and their materialized instances."""

        def equality_inds(schema):
            return sum(ind.with_equality for ind in schema.inclusion_dependencies)

        bundle = uwcse.load(TINY_CONFIG, seed=5)
        view = bundle.with_backend("sqlite")
        before = {}
        for name in bundle.variant_names:
            instance = bundle.instance(name)
            before[name] = (bundle.schema(name), instance, instance.schema)
        counts = {name: equality_inds(bundle.schema(name)) for name in before}
        assert any(counts.values())

        downgraded = _downgrade_bundle_inds(bundle)

        for name, (schema, instance, instance_schema) in before.items():
            assert bundle.schema(name) is schema
            assert equality_inds(schema) == counts[name]
            assert equality_inds(view.schema(name)) == counts[name]
            assert bundle.instance(name) is instance
            assert instance.schema is instance_schema
            assert equality_inds(instance.schema) == counts[name]
            weakened = downgraded.schema(name)
            assert equality_inds(weakened) == 0
            assert len(weakened.inclusion_dependencies) == len(
                schema.inclusion_dependencies
            )
            assert downgraded.instance(name).schema == weakened
            assert downgraded.instance(name).same_contents(instance)


class TestFigures:
    def test_figure3_points_have_expected_shape(self):
        points = figure3_query_complexity(
            num_variables_range=(4,), definitions_per_setting=2, seed=3
        )
        variants = {point["variant"] for point in points}
        assert variants == {"original", "4nf", "denormalized1", "denormalized2"}
        for point in points:
            assert point["mean_equivalence_queries"] >= 1
            assert point["mean_membership_queries"] >= 0

    def test_figure3_mqs_grow_with_decomposition(self):
        points = figure3_query_complexity(
            num_variables_range=(5,), definitions_per_setting=3, seed=7
        )
        by_variant = {p["variant"]: p["mean_membership_queries"] for p in points}
        assert by_variant["original"] >= by_variant["denormalized2"]


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xyz", 3]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "xyz" in lines[-1]

    def test_format_paper_table_and_matrix(self):
        bundle = uwcse.load(TINY_CONFIG, seed=5)
        results = [
            run_variant(bundle, variant, FIXED_SPEC, folds=1, seed=0)
            for variant in ("original", "4nf")
        ]
        text = format_paper_table(results, ["original", "4nf"], "Table X")
        assert "Fixed" in text and "Precision" in text
        matrix = results_as_matrix(results, "recall")
        assert set(matrix["Fixed"]) == {"original", "4nf"}

    def test_format_dataset_statistics(self):
        bundle = uwcse.load(TINY_CONFIG, seed=5)
        text = format_dataset_statistics(bundle.statistics(), "Table 2")
        assert "original" in text and "#T" in text
