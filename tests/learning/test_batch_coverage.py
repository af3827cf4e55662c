"""Batched candidate scoring: order, determinism, and compiled-path parity.

The batch API's contract is that results come back in input order and are
identical on every backend and, for the query engine, for every
``parallelism`` value — parallelism may only change wall-clock time, never
which examples a clause covers.  The subsumption engine answers a question
about several examples with one SQL statement on backends with compiled
queries and with the Python kernel otherwise; both must agree.
"""

import pytest

from repro.castor.bottom_clause import CastorBottomClauseBuilder, CastorBottomClauseConfig
from repro.database.sqlite_backend import SaturationStore
from repro.learning.coverage import (
    BatchCoverageEngine,
    QueryCoverageEngine,
    SubsumptionCoverageEngine,
    examples_mask,
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


BACKENDS = ["memory", "sqlite", "sqlite-pooled"]

#: ``(backend, parallelism)`` placements a query batch can run on.  The
#: query engine hands any fan-out to the backend; single-connection
#: ``sqlite`` serializes it, and ``memory`` answers on the caller's thread.
PLACEMENTS = [
    ("memory", 1),
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
        "subsumption": SubsumptionCoverageEngine(instance),
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
            QueryCoverageEngine(
                instance.with_backend(backend), parallelism=parallelism
            )
        )
        _assert_batch_matches(
            batch, clauses, examples.all_examples(), reference["query"]
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("question", ["one-example", "all-examples"])
    def test_subsumption_batch_is_placement_invariant(
        self, workload, reference, question, backend
    ):
        """Subsumption coverage lists the same examples, in the same order,
        on every backend, whether each question names one example (the
        Python kernel) or all of them (one statement on the SQLite
        backends)."""
        instance, clauses, examples = workload
        all_examples = examples.all_examples()
        engine = SubsumptionCoverageEngine(instance.with_backend(backend))
        if question == "all-examples":
            _assert_batch_matches(
                BatchCoverageEngine(engine),
                clauses,
                all_examples,
                reference["subsumption"],
            )
            assert (engine.compiled_statements > 0) == (backend != "memory")
        else:
            covered = [
                tuple(e for e in all_examples if engine.covered_examples(c, [e]))
                for c in clauses
            ]
            assert covered == reference["subsumption"]
            assert engine.compiled_statements == 0

    def test_evaluate_batch_matches_per_clause_evaluate(self, workload):
        instance, clauses, examples = workload
        engine = QueryCoverageEngine(instance.with_backend("sqlite-pooled"), parallelism=2)
        batch = BatchCoverageEngine(engine)
        results = batch.evaluate_batch(clauses, examples.positives, examples.negatives)
        assert len(results) == len(clauses)
        for clause, result in zip(clauses, results):
            single = engine.evaluate(clause, examples.positives, examples.negatives)
            assert result.positives_covered == single.positives_covered
            assert result.negatives_covered == single.negatives_covered

    def test_duplicate_clauses_get_duplicate_results(self, workload):
        instance, clauses, examples = workload
        all_examples = examples.all_examples()
        batch = BatchCoverageEngine(
            QueryCoverageEngine(instance.with_backend("sqlite-pooled"), parallelism=3)
        )
        doubled = [clauses[0], clauses[0], clauses[0]]
        results = _value_sets(batch.covered_examples_batch(doubled, all_examples))
        assert results[0] == results[1] == results[2]


class TestCompiledSubsumptionParity:
    def test_compiled_agrees_with_python_engine(self, workload):
        instance, clauses, examples = workload
        all_examples = examples.all_examples()
        python_engine = SubsumptionCoverageEngine(instance)  # memory
        compiled_engine = SubsumptionCoverageEngine(instance.with_backend("sqlite"))
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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_rule_picks_the_procedure(self, workload, backend):
        """A question about two examples is one compiled statement exactly
        on the backends with compiled queries; ``covers`` never runs one."""
        instance, clauses, examples = workload
        engine = SubsumptionCoverageEngine(instance.with_backend(backend))
        pair = examples.all_examples()[:2]
        engine.covered_examples(clauses[0], pair)
        expected = 1 if backend != "memory" else 0
        assert engine.compiled_statements == expected
        engine.covers(clauses[1], pair[0])
        assert engine.compiled_statements == expected

    def test_shared_store_deduplicates_examples(self, workload):
        instance, clauses, examples = workload
        instance = instance.with_backend("sqlite")
        all_examples = examples.all_examples()
        store = SaturationStore()
        first = SubsumptionCoverageEngine(instance, saturation_store=store)
        first.covered_examples(clauses[0], all_examples)
        size_after_first = len(store)
        assert size_after_first == len(set(all_examples))
        second = SubsumptionCoverageEngine(instance, saturation_store=store)
        covered = second.covered_examples(clauses[0], all_examples)
        assert len(store) == size_after_first  # re-added examples deduplicate
        assert {e.values for e in covered} == {
            e.values for e in first.covered_examples(clauses[0], all_examples)
        }

    def test_unstorable_examples_fall_back_to_python(self, simple_instance):
        """Examples the store rejects are still answered (via the Python path)."""
        engine = SubsumptionCoverageEngine(simple_instance)
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
        compiled = simple_instance.backend_name != "memory"
        assert (examples[1] in engine._compiled_failed) == compiled
