"""Shared learning infrastructure: examples, bottom clauses, coverage, metrics."""

from .bottom_clause import (
    BottomClauseBuilder,
    BottomClauseConfig,
    build_bottom_clause,
    build_saturation,
)
from .coverage import (
    BatchCoverageEngine,
    CoverageResult,
    QueryCoverageEngine,
    SubsumptionCoverageEngine,
)
from .covering import ClauseLearner, CoveringLearner, CoveringParameters
from .evaluation import (
    CrossValidationReport,
    EvaluationResult,
    FoldOutcome,
    cross_validate,
    evaluate_definition,
)
from .examples import (
    Example,
    ExampleSet,
    sample_closed_world_negatives,
)

__all__ = [
    "BatchCoverageEngine",
    "BottomClauseBuilder",
    "BottomClauseConfig",
    "ClauseLearner",
    "CoverageResult",
    "CoveringLearner",
    "CoveringParameters",
    "CrossValidationReport",
    "EvaluationResult",
    "Example",
    "ExampleSet",
    "FoldOutcome",
    "QueryCoverageEngine",
    "SubsumptionCoverageEngine",
    "build_bottom_clause",
    "build_saturation",
    "cross_validate",
    "evaluate_definition",
    "sample_closed_world_negatives",
]
