"""Tests for the synthetic UW-CSE, HIV, and IMDb dataset generators."""


from repro.database.query import QueryEvaluator
from repro.datasets import hiv, uwcse
from repro.logic.parser import parse_clause


class TestUwCse:
    def test_variants_present(self, uwcse_bundle):
        assert uwcse_bundle.variant_names == [
            "original",
            "4nf",
            "denormalized1",
            "denormalized2",
        ]

    def test_relation_counts_shrink_with_composition(self, uwcse_bundle):
        sizes = [len(uwcse_bundle.schema(v)) for v in uwcse_bundle.variant_names]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == 9 and sizes[-1] == 4

    def test_constraints_hold_on_every_variant(self, uwcse_bundle):
        for variant in uwcse_bundle.variant_names:
            instance = uwcse_bundle.instance(variant)
            assert instance.satisfies_all_constraints(), variant

    def test_transformations_are_invertible_on_data(self, uwcse_bundle):
        for variant in ["4nf", "denormalized1", "denormalized2"]:
            transformation = uwcse_bundle.transformation(variant)
            assert transformation.is_invertible_on(uwcse_bundle.base_instance)

    def test_examples_are_disjoint_and_ratio_close_to_two(self, uwcse_bundle):
        examples = uwcse_bundle.examples
        assert examples.positive_tuples().isdisjoint(examples.negative_tuples())
        assert len(examples.negatives) <= 2 * len(examples.positives)
        assert len(examples.positives) > 0

    def test_ground_truth_is_learnable_from_publications(self, uwcse_bundle):
        """Most advised pairs co-author a publication (the generator's signal)."""
        evaluator = QueryEvaluator(uwcse_bundle.instance("original"))
        clause = parse_clause(
            "advisedBy(x, y) :- publication(t, x), publication(t, y), professor(y)."
        )
        covered = sum(
            1
            for example in uwcse_bundle.examples.positives
            if evaluator.clause_covers_tuple(clause, example.values)
        )
        assert covered >= len(uwcse_bundle.examples.positives) * 0.6

    def test_generation_is_deterministic_per_seed(self):
        first = uwcse.generate_instance(uwcse.UwCseConfig(num_students=10), seed=3)
        second = uwcse.generate_instance(uwcse.UwCseConfig(num_students=10), seed=3)
        assert first[0].same_contents(second[0])
        assert first[1] == second[1]

    def test_statistics_table(self, uwcse_bundle):
        stats = uwcse_bundle.statistics()
        assert set(stats) == set(uwcse_bundle.variant_names)
        assert all(entry["tuples"] > 0 for entry in stats.values())


class TestHiv:
    def test_variants_present(self, hiv_bundle):
        assert hiv_bundle.variant_names == ["initial", "4nf1", "4nf2"]

    def test_constraints_hold_on_every_variant(self, hiv_bundle):
        for variant in hiv_bundle.variant_names:
            assert hiv_bundle.instance(variant).satisfies_all_constraints(), variant

    def test_4nf1_composes_bond_types(self, hiv_bundle):
        schema = hiv_bundle.schema("4nf1")
        assert schema.relation("bonds").arity == 6
        assert not schema.has_relation("btype1")

    def test_4nf2_decomposes_bonds(self, hiv_bundle):
        schema = hiv_bundle.schema("4nf2")
        assert schema.has_relation("bondSource")
        assert schema.has_relation("bondTarget")
        assert not schema.has_relation("bonds")

    def test_activity_rule_is_exact_on_initial_schema(self, hiv_bundle):
        """hivActive ⟺ a p2_1 nitrogen bonded to an oxygen (by construction)."""
        evaluator = QueryEvaluator(hiv_bundle.instance("initial"))
        clause_forward = parse_clause(
            "hivActive(c) :- compound(c, a), element_n(a), p2_1(a), bonds(b, a, o), element_o(o)."
        )
        clause_backward = parse_clause(
            "hivActive(c) :- compound(c, a), element_n(a), p2_1(a), bonds(b, o, a), element_o(o)."
        )
        derived = evaluator.evaluate_clause(clause_forward) | evaluator.evaluate_clause(
            clause_backward
        )
        positives = hiv_bundle.examples.positive_tuples()
        assert positives <= derived
        negatives = hiv_bundle.examples.negative_tuples()
        assert not (negatives & derived)

    def test_small_and_large_presets(self):
        small = hiv.load_small(seed=2)
        assert small.base_instance.total_tuples() > 0
        assert len(small.examples.positives) > 0


class TestImdb:
    def test_variants_present(self, imdb_bundle):
        assert imdb_bundle.variant_names == ["jmdb", "stanford", "denormalized"]

    def test_constraints_hold_on_every_variant(self, imdb_bundle):
        for variant in imdb_bundle.variant_names:
            assert imdb_bundle.instance(variant).satisfies_all_constraints(), variant

    def test_stanford_widens_movie(self, imdb_bundle):
        schema = imdb_bundle.schema("stanford")
        assert schema.relation("movie").arity == 8
        assert not schema.has_relation("movies2genre")
        assert schema.has_relation("genre")

    def test_denormalized_merges_links_with_entities(self, imdb_bundle):
        schema = imdb_bundle.schema("denormalized")
        assert schema.relation("movies2director").arity == 3
        assert not schema.has_relation("director")

    def test_drama_director_target_is_exact(self, imdb_bundle):
        evaluator = QueryEvaluator(imdb_bundle.instance("jmdb"))
        clause = parse_clause(
            "dramaDirector(d) :- movies2director(m, d), movies2genre(m, g), genre(g, drama)."
        )
        derived = evaluator.evaluate_clause(clause)
        assert imdb_bundle.examples.positive_tuples() == derived

    def test_transformations_invertible(self, imdb_bundle):
        for variant in ["stanford", "denormalized"]:
            transformation = imdb_bundle.transformation(variant)
            assert transformation.is_invertible_on(imdb_bundle.base_instance)
