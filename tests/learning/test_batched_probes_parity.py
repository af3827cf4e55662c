"""Batched-vs-sequential parity for reduction and ARMG prefix probes.

Routing negative-reduction and blocking-atom probes through
:class:`~repro.learning.coverage.BatchCoverageEngine` is a *scheduling*
change: the probe answers come from the same engine over the same
saturations, so the reduced and generalized clauses must be
literal-for-literal identical batched and sequential.
"""

import pytest

from repro.castor.bottom_clause import (
    CastorBottomClauseBuilder,
    CastorBottomClauseConfig,
)
from repro.castor.reduction import NegativeReducer
from repro.learning.coverage import BatchCoverageEngine, SubsumptionCoverageEngine
from repro.progolem.armg import armg, find_blocking_atom


@pytest.fixture(scope="module")
def workload(uwcse_bundle):
    """UW-CSE instance + bottom clauses of the first few positives."""
    variant = uwcse_bundle.variant_names[0]
    instance = uwcse_bundle.instance(variant)
    schema = instance.schema
    coverage = SubsumptionCoverageEngine(instance)
    coverage.builder = CastorBottomClauseBuilder(
        instance,
        schema,
        CastorBottomClauseConfig(max_depth=2, max_total_literals=20),
    )
    builder = CastorBottomClauseBuilder(
        instance,
        schema,
        CastorBottomClauseConfig(max_depth=2, max_total_literals=20),
    )
    clauses = [builder.build(e) for e in uwcse_bundle.examples.positives[:4]]
    clauses = [c for c in clauses if len(c.body) >= 3]
    assert clauses, "workload produced no usable bottom clauses"
    return instance, schema, coverage, clauses, uwcse_bundle.examples


class TestReducerBatchedParity:
    def test_batched_matches_sequential(self, workload):
        _, schema, coverage, clauses, examples = workload
        negatives = examples.negatives
        for clause in clauses:
            sequential = NegativeReducer(schema, coverage, batched=False).reduce(
                clause, negatives
            )
            batched = NegativeReducer(schema, coverage, batched=True).reduce(
                clause, negatives
            )
            assert batched == sequential, clause

    def test_explicit_batch_engine_is_used(self, workload):
        _, schema, coverage, clauses, examples = workload
        batch = BatchCoverageEngine(coverage)
        reducer = NegativeReducer(schema, coverage, batch=batch)
        assert reducer.batch is batch
        reduced = reducer.reduce(clauses[0], examples.negatives)
        baseline = NegativeReducer(schema, coverage, batched=False).reduce(
            clauses[0], examples.negatives
        )
        assert reduced == baseline


class TestArmgBatchedParity:
    def test_batch_matches_direct_probes(self, workload):
        _, _, coverage, clauses, examples = workload
        batch = BatchCoverageEngine(coverage)
        others = examples.positives[1:4]
        for clause in clauses:
            for example in others:
                direct = armg(clause, example, coverage)
                batched = armg(clause, example, coverage, batch=batch)
                assert batched == direct, (clause, example)

    def test_find_blocking_atom_batched_matches_direct(self, workload):
        _, _, coverage, clauses, examples = workload
        batch = BatchCoverageEngine(coverage)
        for clause in clauses:
            for example in examples.all_examples()[:6]:
                baseline = find_blocking_atom(clause, example, coverage)
                got = find_blocking_atom(clause, example, coverage, batch=batch)
                assert got == baseline, (clause, example)

    def test_blocking_atom_semantics(self, workload):
        """The reported index is the LEAST failing prefix boundary."""
        _, _, coverage, clauses, examples = workload
        batch = BatchCoverageEngine(coverage)
        checked = 0
        for clause in clauses:
            for example in examples.negatives[:4]:
                index = find_blocking_atom(clause, example, coverage, batch=batch)
                if index is None:
                    continue
                saturation = coverage.saturation(example)
                saturation_index = coverage.saturation_index(example)
                from repro.logic.clauses import HornClause

                failing = HornClause(clause.head, clause.body[: index + 1])
                assert not coverage.subsumption.covers_example(
                    failing, saturation, saturation_index
                )
                if index > 0:
                    passing = HornClause(clause.head, clause.body[:index])
                    assert coverage.subsumption.covers_example(
                        passing, saturation, saturation_index
                    )
                checked += 1
        assert checked, "workload never produced a blocking atom"
