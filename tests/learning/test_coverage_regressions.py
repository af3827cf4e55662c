"""Regression tests: CoverageResult edge cases and strategy agreement.

* ``precision()``/``coverage_score()`` on degenerate results (nothing
  covered, only negatives covered) — ``precision`` must not divide by zero.
* Subsumption coverage and query coverage must agree on the Example 1.1
  co-authorship clause over the UW-CSE schema variants (``original`` and
  ``4nf``), on both storage backends: the two strategies answer the same
  question ("does the clause cover the example?") through different
  machinery (θ-subsumption of saturations vs join evaluation).
"""

import pytest

from repro.learning.bottom_clause import BottomClauseConfig
from repro.learning.coverage import (
    CoverageResult,
    QueryCoverageEngine,
    SubsumptionCoverageEngine,
)
from repro.logic.parser import parse_clause


class TestCoverageResultEdgeCases:
    def test_zero_covered_precision_is_zero(self):
        result = CoverageResult(0, 0)
        assert result.precision() == 0.0
        assert result.coverage_score() == 0

    def test_all_negative_coverage(self):
        result = CoverageResult(0, 7)
        assert result.precision() == 0.0
        assert result.coverage_score() == -7

    def test_all_positive_coverage(self):
        result = CoverageResult(5, 0)
        assert result.precision() == 1.0
        assert result.coverage_score() == 5

    def test_mixed_coverage(self):
        result = CoverageResult(3, 1)
        assert result.precision() == pytest.approx(0.75)
        assert result.coverage_score() == 2


# Example 1.1's advisedBy clause, phrased for each UW-CSE schema variant
# (professor is unary in Original, composed with hasPosition in 4NF).
EXAMPLE_11_CLAUSES = {
    "original": "advisedBy(x, y) :- publication(t, x), publication(t, y), professor(y).",
    "4nf": "advisedBy(x, y) :- publication(t, x), publication(t, y), professor(y, p).",
}


class TestSubsumptionVsQueryAgreement:
    @pytest.mark.parametrize("variant", sorted(EXAMPLE_11_CLAUSES))
    def test_strategies_agree_on_uwcse_variants(self, uwcse_bundle, variant, backend):
        clause = parse_clause(EXAMPLE_11_CLAUSES[variant])
        instance = uwcse_bundle.instance(variant).with_backend(backend)
        examples = uwcse_bundle.examples.all_examples()

        query_engine = QueryCoverageEngine(instance)
        subsumption_engine = SubsumptionCoverageEngine(
            instance,
            BottomClauseConfig(max_depth=3, max_total_literals=500),
        )

        query_covered = {
            e.values for e in query_engine.covered_examples(clause, examples)
        }
        subsumption_covered = {
            e.values for e in subsumption_engine.covered_examples(clause, examples)
        }
        assert query_covered == subsumption_covered

    def test_evaluate_agreement_on_counts(self, uwcse_bundle, backend):
        clause = parse_clause(EXAMPLE_11_CLAUSES["original"])
        instance = uwcse_bundle.instance("original").with_backend(backend)
        examples = uwcse_bundle.examples

        query_result = QueryCoverageEngine(instance).evaluate(
            clause, examples.positives, examples.negatives
        )
        subsumption_result = SubsumptionCoverageEngine(
            instance, BottomClauseConfig(max_depth=3, max_total_literals=500)
        ).evaluate(clause, examples.positives, examples.negatives)

        assert query_result.positives_covered == subsumption_result.positives_covered
        assert query_result.negatives_covered == subsumption_result.negatives_covered
        assert query_result.precision() == subsumption_result.precision()
        assert query_result.coverage_score() == subsumption_result.coverage_score()
