"""Batched candidate scoring: order, determinism, and compiled-path parity.

The batch API's contract is that results come back in input order and are
identical for every ``parallelism`` value and every backend — parallelism
may only change wall-clock time, never which examples a clause covers.
"""

import pytest

from repro.castor.bottom_clause import CastorBottomClauseBuilder, CastorBottomClauseConfig
from repro.database.sqlite_backend import SaturationStore
from repro.learning.coverage import (
    BatchCoverageEngine,
    CoverageBatch,
    QueryCoverageEngine,
    SubsumptionCoverageEngine,
    examples_mask,
    make_coverage_engine,
)
from repro.learning.examples import Example


@pytest.fixture(scope="module")
def workload(uwcse_bundle):
    """Candidate clauses + examples shared by the batch tests."""
    variant = uwcse_bundle.variant_names[0]
    instance = uwcse_bundle.instance(variant)
    builder = CastorBottomClauseBuilder(
        instance,
        config=CastorBottomClauseConfig(
            max_depth=2, max_distinct_variables=10, max_total_literals=20
        ),
    )
    clauses = [builder.build(e) for e in uwcse_bundle.examples.positives[:6]]
    clauses = [c for c in clauses if c.body]
    assert clauses, "workload produced no candidate clauses"
    return instance, clauses, uwcse_bundle.examples


def _value_sets(per_clause_lists):
    return [frozenset(e.values for e in covered) for covered in per_clause_lists]


#: ``(backend, parallelism)`` placements a batch can run on.  The engine
#: layer accepts any fan-out; single-connection ``sqlite`` serializes it.
PLACEMENTS = [
    ("memory", 1),
    ("memory", 4),
    ("sqlite", 1),
    ("sqlite", 4),
    ("sqlite-pooled", 1),
    ("sqlite-pooled", 2),
    ("sqlite-pooled", 4),
]
PLACEMENT_IDS = [f"{backend}-p{parallelism}" for backend, parallelism in PLACEMENTS]


@pytest.fixture(scope="module")
def reference(workload):
    """Per-clause covered examples, one clause at a time on ``memory``."""
    instance, clauses, examples = workload
    all_examples = examples.all_examples()
    engines = {
        "query": QueryCoverageEngine(instance),
        "subsumption": SubsumptionCoverageEngine(instance, compiled=False),
    }
    covered = {
        family: [tuple(engine.covered_examples(c, all_examples)) for c in clauses]
        for family, engine in engines.items()
    }
    assert any(covered["subsumption"]), "workload covers nothing"
    return covered


def _assert_batch_matches(batch, clauses, all_examples, expected):
    """Covered lists and masks are input-ordered and equal ``expected``."""
    got = batch.covered_examples_batch(clauses, all_examples)
    assert [tuple(covered) for covered in got] == expected
    assert batch.covered_masks_batch(clauses, all_examples) == [
        examples_mask(covered, all_examples) for covered in expected
    ]


class TestBatchDeterminism:
    @pytest.mark.parametrize("backend,parallelism", PLACEMENTS, ids=PLACEMENT_IDS)
    def test_query_batch_is_placement_invariant(
        self, workload, reference, backend, parallelism
    ):
        """Query coverage of a batch lists the same examples, in the same
        order, wherever it runs."""
        instance, clauses, examples = workload
        batch = BatchCoverageEngine(
            QueryCoverageEngine(instance.with_backend(backend)),
            parallelism=parallelism,
        )
        _assert_batch_matches(
            batch, clauses, examples.all_examples(), reference["query"]
        )

    @pytest.mark.parametrize("backend,parallelism", PLACEMENTS, ids=PLACEMENT_IDS)
    @pytest.mark.parametrize("compiled", [False, True], ids=["python", "compiled"])
    def test_subsumption_batch_is_placement_invariant(
        self, workload, reference, compiled, backend, parallelism
    ):
        """Subsumption coverage lists the same examples, in the same order,
        on every backend, decision procedure and parallelism."""
        instance, clauses, examples = workload
        batch = BatchCoverageEngine(
            SubsumptionCoverageEngine(
                instance.with_backend(backend), compiled=compiled
            ),
            parallelism=parallelism,
        )
        _assert_batch_matches(
            batch, clauses, examples.all_examples(), reference["subsumption"]
        )

    def test_evaluate_batch_matches_per_clause_evaluate(self, workload):
        instance, clauses, examples = workload
        engine = QueryCoverageEngine(instance.with_backend("sqlite"))
        batch = BatchCoverageEngine(engine, parallelism=2)
        results = batch.evaluate_batch(clauses, examples.positives, examples.negatives)
        assert len(results) == len(clauses)
        for clause, result in zip(clauses, results):
            single = engine.evaluate(clause, examples.positives, examples.negatives)
            assert result.positives_covered == single.positives_covered
            assert result.negatives_covered == single.negatives_covered

    def test_coverage_batch_run(self, workload):
        instance, clauses, examples = workload
        batch = CoverageBatch(clauses, examples.positives, examples.negatives)
        assert len(batch) == len(clauses)
        engine = BatchCoverageEngine(QueryCoverageEngine(instance), parallelism=2)
        via_run = engine.run(batch)
        via_evaluate = engine.evaluate_batch(
            clauses, examples.positives, examples.negatives
        )
        assert [(r.positives_covered, r.negatives_covered) for r in via_run] == [
            (r.positives_covered, r.negatives_covered) for r in via_evaluate
        ]

    def test_duplicate_clauses_get_duplicate_results(self, workload):
        instance, clauses, examples = workload
        all_examples = examples.all_examples()
        batch = BatchCoverageEngine(
            QueryCoverageEngine(instance.with_backend("sqlite-pooled")), parallelism=3
        )
        doubled = [clauses[0], clauses[0], clauses[0]]
        results = _value_sets(batch.covered_examples_batch(doubled, all_examples))
        assert results[0] == results[1] == results[2]


class TestCompiledSubsumptionParity:
    def test_compiled_agrees_with_python_engine(self, workload):
        instance, clauses, examples = workload
        all_examples = examples.all_examples()
        python_engine = make_coverage_engine(instance, strategy="subsumption-python")
        compiled_engine = make_coverage_engine(instance, strategy="subsumption-compiled")
        for clause in clauses:
            python_covered = {
                e.values for e in python_engine.covered_examples(clause, all_examples)
            }
            compiled_covered = {
                e.values for e in compiled_engine.covered_examples(clause, all_examples)
            }
            assert python_covered == compiled_covered
        # One store query per *distinct* clause: a repeated clause is served
        # wholly from the coverage cache without touching SQL.
        assert compiled_engine.compiled_statements >= len(set(clauses))

    def test_compiled_default_follows_backend(self, workload):
        instance, _, _ = workload
        assert not SubsumptionCoverageEngine(instance).compiled_enabled  # memory
        assert SubsumptionCoverageEngine(
            instance.with_backend("sqlite")
        ).compiled_enabled
        assert SubsumptionCoverageEngine(
            instance.with_backend("sqlite-pooled")
        ).compiled_enabled

    def test_shared_store_deduplicates_examples(self, workload):
        instance, clauses, examples = workload
        all_examples = examples.all_examples()
        store = SaturationStore()
        first = SubsumptionCoverageEngine(
            instance, compiled=True, saturation_store=store
        )
        first.covered_examples(clauses[0], all_examples)
        size_after_first = len(store)
        assert size_after_first == len(set(all_examples))
        second = SubsumptionCoverageEngine(
            instance, compiled=True, saturation_store=store
        )
        covered = second.covered_examples(clauses[0], all_examples)
        assert len(store) == size_after_first  # re-added examples deduplicate
        assert {e.values for e in covered} == {
            e.values for e in first.covered_examples(clauses[0], all_examples)
        }

    def test_unstorable_examples_fall_back_to_python(self, simple_instance):
        """Examples the store rejects are still answered (via the Python path)."""
        engine = SubsumptionCoverageEngine(simple_instance, compiled=True)
        examples = [
            Example("r1", ("a1", "b1"), True),
            Example("r1", (("tuple", "value"), "b1"), False),  # unstorable head
            Example("r1", ("a2", "b2"), True),
            Example("r1", ("a3", "b3"), True),
        ]
        from repro.logic.parser import parse_clause

        clause = parse_clause("r1(x, y) :- r1(x, y).")
        covered = engine.covered_examples(clause, examples)
        assert [e.values for e in covered] == [
            ("a1", "b1"),
            ("a2", "b2"),
            ("a3", "b3"),
        ]
        assert examples[1] in engine._compiled_failed

    def test_make_coverage_engine_strategies(self, workload):
        instance, _, _ = workload
        assert make_coverage_engine(instance, strategy="subsumption-compiled").compiled_enabled
        assert not make_coverage_engine(instance, strategy="subsumption-python").compiled_enabled
        with pytest.raises(ValueError):
            make_coverage_engine(instance, strategy="subsumption-sql")
