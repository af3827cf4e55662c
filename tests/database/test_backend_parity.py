"""Cross-backend parity: all backends must be observationally identical.

These tests materialize the same data on the memory, sqlite, and
sqlite-pooled backends and assert that query evaluation, binding counts,
and query-based coverage (sequential and batched) return identical results
— the invariant ``bench_backend_parity.py`` times at larger scale.
"""

import pytest

from repro.castor.bottom_clause import CastorBottomClauseBuilder, CastorBottomClauseConfig
from repro.database import backend_names, create_backend
from repro.database.instance import DatabaseInstance
from repro.database.query import QueryEvaluator
from repro.learning.coverage import QueryCoverageEngine
from repro.logic.parser import parse_clause

BACKENDS = ("memory", "sqlite", "sqlite-pooled")


def _assert_all_equal(per_backend, context=""):
    """All backends must produce the reference (memory) result."""
    reference = per_backend["memory"]
    for backend, result in per_backend.items():
        assert result == reference, f"{backend} disagrees with memory {context}"


def _covered_sets(bundle, variant, clauses):
    """Per-backend, per-clause frozensets of covered example values."""
    results = {}
    examples = bundle.examples.all_examples()
    for backend in BACKENDS:
        instance = bundle.instance(variant).with_backend(backend)
        engine = QueryCoverageEngine(instance)
        results[backend] = [
            frozenset(e.values for e in engine.covered_examples(clause, examples))
            for clause in clauses
        ]
    return results


def _bottom_clauses(instance, positives, count=4):
    builder = CastorBottomClauseBuilder(
        instance,
        config=CastorBottomClauseConfig(
            max_depth=2, max_distinct_variables=10, max_total_literals=20
        ),
    )
    clauses = [builder.build(e) for e in positives[:count]]
    return [c for c in clauses if c.body]


class TestCoverageParity:
    def test_uwcse_covered_examples_identical(self, uwcse_bundle):
        variant = uwcse_bundle.variant_names[0]
        instance = uwcse_bundle.instance(variant)
        clauses = _bottom_clauses(instance, uwcse_bundle.examples.positives)
        assert clauses, "workload produced no candidate clauses"
        results = _covered_sets(uwcse_bundle, variant, clauses)
        _assert_all_equal(results, "on uwcse")

    def test_hiv_covered_examples_identical(self, hiv_bundle):
        variant = hiv_bundle.variant_names[0]
        instance = hiv_bundle.instance(variant)
        clauses = _bottom_clauses(instance, hiv_bundle.examples.positives)
        assert clauses, "workload produced no candidate clauses"
        results = _covered_sets(hiv_bundle, variant, clauses)
        _assert_all_equal(results, "on hiv")

    def test_uwcse_all_variants_agree_across_backends(self, uwcse_bundle):
        clause_by_variant = {
            "original": "advisedBy(x, y) :- publication(t, x), publication(t, y), professor(y).",
            "4nf": "advisedBy(x, y) :- publication(t, x), publication(t, y), professor(y, p).",
        }
        examples = uwcse_bundle.examples.all_examples()
        for variant, text in clause_by_variant.items():
            clause = parse_clause(text)
            per_backend = {}
            for backend in BACKENDS:
                instance = uwcse_bundle.instance(variant).with_backend(backend)
                engine = QueryCoverageEngine(instance)
                per_backend[backend] = frozenset(
                    e.values for e in engine.covered_examples(clause, examples)
                )
            _assert_all_equal(per_backend, f"on variant {variant}")


class TestEvaluatorParity:
    def test_evaluate_clause_and_counts(self, uwcse_bundle):
        variant = uwcse_bundle.variant_names[0]
        memory_instance = uwcse_bundle.instance(variant).with_backend("memory")
        clause = parse_clause(
            "advisedBy(x, y) :- publication(t, x), publication(t, y), professor(y)."
        )
        memory_eval = QueryEvaluator(memory_instance)
        for backend in BACKENDS[1:]:
            other_eval = QueryEvaluator(memory_instance.with_backend(backend))
            assert memory_eval.evaluate_clause(clause) == other_eval.evaluate_clause(
                clause
            ), backend

    def test_unknown_relation_and_arity_mismatch_are_empty(self):
        from repro.database.schema import RelationSchema, Schema

        schema = Schema([RelationSchema("r", ["a", "b"])], name="tiny")
        for backend in BACKENDS:
            instance = DatabaseInstance(schema, backend=backend)
            instance.add_tuple("r", ("x", "y"))
            evaluator = QueryEvaluator(instance)
            missing = parse_clause("q(x) :- nope(x).")
            assert not evaluator.body_is_satisfiable(missing.body)
            wrong_arity = parse_clause("q(x) :- r(x).")
            assert not evaluator.body_is_satisfiable(wrong_arity.body)


class TestBackendPlumbing:
    def test_registry_names_and_errors(self):
        assert set(BACKENDS) <= set(backend_names())
        with pytest.raises(ValueError):
            create_backend("voltdb")

    def test_with_backend_roundtrip(self, simple_instance):
        for backend in BACKENDS:
            converted = simple_instance.with_backend(backend)
            assert converted.backend_name == backend
            assert converted.same_contents(simple_instance)
            assert converted == simple_instance

    def test_bundle_with_backend(self, uwcse_bundle):
        sqlite_bundle = uwcse_bundle.with_backend("sqlite")
        variant = sqlite_bundle.variant_names[0]
        assert sqlite_bundle.instance(variant).backend_name == "sqlite"
        assert sqlite_bundle.instance(variant).same_contents(
            uwcse_bundle.instance(variant)
        )
        assert uwcse_bundle.with_backend(uwcse_bundle.backend) is uwcse_bundle


class TestPooledBackend:
    """Behavior specific to the sqlite-pooled snapshot machinery."""

    def _instance(self, simple_schema):
        instance = DatabaseInstance(simple_schema, backend="sqlite-pooled")
        instance.add_tuples("r1", [("a1", "b1"), ("a2", "b2"), ("a3", "b3")])
        instance.add_tuples("r2", [("a1", "c1"), ("a2", "c2"), ("a3", "c3")])
        return instance

    def test_batch_matches_single_calls(self, simple_schema):
        instance = self._instance(simple_schema)
        clauses = [
            parse_clause("q(x) :- r1(x, b), r2(x, c)."),
            parse_clause("q(x) :- r1(x, b)."),
            parse_clause("q(x) :- r2(x, c), r1(x, b)."),
        ]
        candidates = [("a1",), ("a2",), ("a3",), ("missing",)]
        backend = instance.backend
        singles = [backend.covered_head_tuples(c, candidates) for c in clauses]
        for parallelism in (None, 1, 3):
            batched = backend.covered_head_tuples_batch(
                clauses, candidates, parallelism=parallelism
            )
            assert batched == singles

    def test_snapshots_see_mutations(self, simple_schema):
        instance = self._instance(simple_schema)
        clause = parse_clause("q(x) :- r1(x, b).")
        candidates = [("a1",), ("a9",)]
        backend = instance.backend
        before = backend.covered_head_tuples_batch([clause] * 4, candidates, parallelism=2)
        assert before[0] == {("a1",)}
        instance.add_tuple("r1", ("a9", "b9"))
        after = backend.covered_head_tuples_batch([clause] * 4, candidates, parallelism=2)
        assert after[0] == {("a1",), ("a9",)}
        instance.relation("r1").remove(("a9", "b9"))
        final = backend.covered_head_tuples_batch([clause] * 4, candidates, parallelism=2)
        assert final[0] == {("a1",)}

    def test_pool_reuses_and_refreshes_snapshots(self, simple_schema):
        instance = self._instance(simple_schema)
        pool = instance.backend.pool
        with pool.lease():
            pass
        taken = pool.snapshots_taken
        assert taken == 1
        # No mutation since the snapshot: the idle connection is reused as-is.
        with pool.lease():
            pass
        assert pool.snapshots_taken == taken
        # A mutation stales the state token: the next lease re-copies.
        instance.add_tuple("r1", ("a9", "b9"))
        with pool.lease() as snapshot:
            rows = {row[0] for row in snapshot.execute('SELECT c0 FROM "rel_r1"')}
        assert pool.snapshots_taken == taken + 1
        assert "a9" in rows

    def test_scratch_reads_do_not_invalidate_snapshots(self, simple_schema):
        """Temp-table writes from coverage queries must not stale the pool."""
        instance = self._instance(simple_schema)
        backend = instance.backend
        pool = backend.pool
        with pool.lease():
            pass
        taken = pool.snapshots_taken
        # A single coverage call creates + drops a temp table on the primary
        # connection; that is scratch work, not a data change.
        clause = parse_clause("q(x) :- r1(x, b).")
        assert backend.covered_head_tuples(clause, [("a1",)]) == {("a1",)}
        with pool.lease():
            pass
        assert pool.snapshots_taken == taken

    def test_registry_and_default_pool_size(self):
        backend = create_backend("sqlite-pooled")
        assert backend.name == "sqlite-pooled"
        assert backend.supports_compiled_queries
        assert backend.pool_size >= 1
