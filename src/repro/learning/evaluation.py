"""Evaluation metrics and cross-validation driver (Section 9.1.3).

Precision = true positives / all examples covered by the definition.
Recall    = true positives / all positive examples in the test data.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Sequence

from ..database.instance import DatabaseInstance
from ..logic.clauses import HornDefinition
from .coverage import QueryCoverageEngine
from .examples import Example, ExampleSet


class EvaluationResult:
    """Precision/recall/F1 of a learned definition on a test set."""

    __slots__ = (
        "precision",
        "recall",
        "true_positives",
        "false_positives",
        "false_negatives",
        "covered_total",
    )

    def __init__(
        self,
        true_positives: int,
        false_positives: int,
        false_negatives: int,
    ):
        self.true_positives = true_positives
        self.false_positives = false_positives
        self.false_negatives = false_negatives
        self.covered_total = true_positives + false_positives
        self.precision = (
            true_positives / self.covered_total if self.covered_total else 0.0
        )
        positives_total = true_positives + false_negatives
        self.recall = true_positives / positives_total if positives_total else 0.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)

    def as_dict(self) -> Dict[str, float]:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "false_negatives": self.false_negatives,
        }

    def __repr__(self) -> str:
        return (
            f"EvaluationResult(precision={self.precision:.3f}, recall={self.recall:.3f})"
        )


def evaluate_definition(
    definition: HornDefinition,
    instance: DatabaseInstance,
    test_examples: ExampleSet,
) -> EvaluationResult:
    """Compute precision/recall of a definition against a test example set.

    Coverage of test examples is decided extensionally: a test example is
    covered when some clause of the definition derives it from the database.
    An empty definition covers nothing (precision 0, recall 0).
    """
    engine = QueryCoverageEngine(instance)
    clauses = list(definition)

    # One masks call per example list; a definition covers an example when
    # ANY clause does, which is the OR of the per-clause positional bitmasks.
    def covered_count(examples: Sequence[Example]) -> int:
        if not clauses or not examples:
            return 0
        union = 0
        for mask in engine.covered_masks_batch(clauses, examples):
            union |= mask
        return union.bit_count()

    true_positives = covered_count(test_examples.positives)
    false_negatives = len(test_examples.positives) - true_positives
    false_positives = covered_count(test_examples.negatives)
    return EvaluationResult(true_positives, false_positives, false_negatives)


class FoldOutcome:
    """Metrics plus timing for one cross-validation fold."""

    __slots__ = ("evaluation", "definition", "learn_seconds")

    def __init__(
        self, evaluation: EvaluationResult, definition: HornDefinition, learn_seconds: float
    ):
        self.evaluation = evaluation
        self.definition = definition
        self.learn_seconds = learn_seconds


class CrossValidationReport:
    """Averaged metrics across folds (what the paper's tables report)."""

    def __init__(self, outcomes: Sequence[FoldOutcome]):
        self.outcomes = list(outcomes)

    @property
    def precision(self) -> float:
        return statistics.fmean(o.evaluation.precision for o in self.outcomes)

    @property
    def recall(self) -> float:
        return statistics.fmean(o.evaluation.recall for o in self.outcomes)

    @property
    def f1(self) -> float:
        return statistics.fmean(o.evaluation.f1 for o in self.outcomes)

    @property
    def mean_learn_seconds(self) -> float:
        return statistics.fmean(o.learn_seconds for o in self.outcomes)

    def as_dict(self) -> Dict[str, float]:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "time_seconds": self.mean_learn_seconds,
            "folds": len(self.outcomes),
        }

    def __repr__(self) -> str:
        return (
            f"CrossValidationReport(precision={self.precision:.3f}, "
            f"recall={self.recall:.3f}, folds={len(self.outcomes)})"
        )


def cross_validate(
    learner_factory: Callable[[], object],
    instance: DatabaseInstance,
    examples: ExampleSet,
    folds: int = 5,
    seed: int = 0,
) -> CrossValidationReport:
    """k-fold cross-validation of a learner on one database instance.

    ``learner_factory`` builds a fresh learner per fold; a learner exposes
    ``learn(instance, example_set) -> HornDefinition``.
    """
    outcomes: List[FoldOutcome] = []
    for train, test in examples.k_folds(folds, seed=seed):
        learner = learner_factory()
        start = time.perf_counter()
        definition = learner.learn(instance, train)
        elapsed = time.perf_counter() - start
        evaluation = evaluate_definition(definition, instance, test)
        outcomes.append(FoldOutcome(evaluation, definition, elapsed))
    return CrossValidationReport(outcomes)
