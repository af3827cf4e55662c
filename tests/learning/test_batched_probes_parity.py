"""Engine parity for the reduction and ARMG prefix probes.

``find_blocking_atom``, ``castor_armg`` and :class:`NegativeReducer` ask the
learner's coverage engine directly: ``covers`` for a blocking-atom probe,
``covered_mask`` for a negative-reduction probe.  Which procedure answers
(the cached Python kernel, or one statement over the saturation store on a
SQLite backend) is the engine's choice, so the blocking atom, the
generalized clause and the reduced clause must be literal-for-literal
identical from a ``memory`` engine, a ``sqlite`` engine, and a reference
that decides every (clause, example) pair with the uncached kernel.
"""

import pytest

from repro.castor.armg import castor_armg
from repro.castor.bottom_clause import (
    CastorBottomClauseBuilder,
    CastorBottomClauseConfig,
)
from repro.castor.castor import CastorCoverageEngine
from repro.castor.reduction import NegativeReducer
from repro.learning.coverage import examples_mask
from repro.logic.clauses import HornClause
from repro.progolem.armg import find_blocking_atom

CONFIG = CastorBottomClauseConfig(max_depth=2, max_total_literals=20)


class UncachedKernel:
    """Reference engine: every probe re-runs the subsumption kernel."""

    def __init__(self, engine):
        self.engine = engine  # supplies saturations only

    def covers(self, clause, example):
        return self.engine.subsumption.covers_example(
            clause,
            self.engine.saturation(example),
            self.engine.saturation_index(example),
        )

    def covered_mask(self, clause, examples):
        return examples_mask(
            [e for e in examples if self.covers(clause, e)], examples
        )


@pytest.fixture(scope="module")
def workload(uwcse_bundle):
    """UW-CSE instance, one engine per route, and the bottom clauses of the
    first few positives."""
    variant = uwcse_bundle.variant_names[0]
    instance = uwcse_bundle.instance(variant)
    schema = instance.schema
    engines = {
        "memory": CastorCoverageEngine(instance, schema, CONFIG),
        "sqlite": CastorCoverageEngine(
            instance.with_backend("sqlite"), schema, CONFIG
        ),
        "uncached": UncachedKernel(CastorCoverageEngine(instance, schema, CONFIG)),
    }
    builder = CastorBottomClauseBuilder(instance, schema, CONFIG)
    clauses = [builder.build(e) for e in uwcse_bundle.examples.positives[:4]]
    clauses = [c for c in clauses if len(c.body) >= 3]
    assert clauses, "workload produced no usable bottom clauses"
    return schema, engines, clauses, uwcse_bundle.examples


ROUTES = ["sqlite", "uncached"]


@pytest.mark.parametrize("route", ROUTES)
def test_reduced_clause_matches_memory(workload, route):
    schema, engines, clauses, examples = workload
    negatives = examples.negatives
    for clause in clauses:
        expected = NegativeReducer(schema, engines["memory"]).reduce(clause, negatives)
        got = NegativeReducer(schema, engines[route]).reduce(clause, negatives)
        assert got == expected, clause
    if route == "sqlite":
        # The probes really took the other procedure.
        assert engines["sqlite"].compiled_statements > 0


@pytest.mark.parametrize("route", ROUTES)
def test_generalization_matches_memory(workload, route):
    schema, engines, clauses, examples = workload
    for clause in clauses:
        for example in examples.positives[1:4]:
            expected = castor_armg(clause, example, engines["memory"], schema)
            got = castor_armg(clause, example, engines[route], schema)
            assert got == expected, (clause, example)


@pytest.mark.parametrize("route", ROUTES)
def test_blocking_atom_matches_memory(workload, route):
    _, engines, clauses, examples = workload
    for clause in clauses:
        for example in examples.all_examples()[:6]:
            expected = find_blocking_atom(clause, example, engines["memory"])
            got = find_blocking_atom(clause, example, engines[route])
            assert got == expected, (clause, example)


def test_blocking_atom_semantics(workload):
    """The reported index is the LEAST failing prefix boundary."""
    _, engines, clauses, examples = workload
    coverage = engines["memory"]
    checked = 0
    for clause in clauses:
        for example in examples.negatives[:4]:
            index = find_blocking_atom(clause, example, coverage)
            if index is None:
                continue
            saturation = coverage.saturation(example)
            saturation_index = coverage.saturation_index(example)
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
