"""The generic covering loop shared by every sample-based learner (Algorithm 1).

A learner plugs a ``LearnClause`` strategy into :class:`CoveringLearner`:
repeatedly learn one clause, keep it if it meets the minimum-precision /
minimum-positives conditions, remove the positives it covers, and continue
until no uncovered positives remain (or no acceptable clause can be found).
"""

from __future__ import annotations

import time
from typing import Optional, Protocol, Sequence, Union

from ..database.instance import DatabaseInstance
from ..logic.clauses import HornClause, HornDefinition
from ..obs import span as obs_span
from .coverage import QueryCoverageEngine, SubsumptionCoverageEngine
from .examples import Example, ExampleSet


class ClauseLearner(Protocol):
    """Strategy interface: learn a single clause from uncovered positives."""

    def learn_clause(
        self,
        instance: DatabaseInstance,
        uncovered_positives: Sequence[Example],
        negatives: Sequence[Example],
    ) -> Optional[HornClause]:
        """Return the best clause found, or None when nothing acceptable exists."""
        ...  # pragma: no cover - protocol definition


class CoveringParameters:
    """Acceptance thresholds shared by the learners (the paper's settings).

    ``min_precision`` corresponds to FOIL's ``aaccur`` / Aleph's ``minacc`` /
    ProGolem & Castor's ``minprec`` (0.67 in the experiments: clauses must
    cover at least twice as many positives as negatives).  ``min_positives``
    corresponds to ``minpos`` (2).  ``max_clauses`` bounds the number of
    clauses a definition may accumulate, as a guard against degenerate runs
    where each clause covers a single example.

    ``max_seconds`` is a soft deadline: once it has elapsed, the loop stops
    learning further clauses and returns the definition accumulated so far
    (it never raises and never discards accepted clauses).
    """

    def __init__(
        self,
        min_precision: float = 0.67,
        min_positives: int = 2,
        max_clauses: int = 50,
        max_seconds: Optional[float] = None,
    ):
        self.min_precision = float(min_precision)
        self.min_positives = int(min_positives)
        self.max_clauses = int(max_clauses)
        self.max_seconds = max_seconds


class CoveringLearner:
    """Algorithm 1: the covering loop.

    ``coverage`` is the learner's own coverage engine (subsumption or
    query), so the loop itself stays agnostic of the decision procedure.
    Each round's clause is scored with two ``covered_mask`` calls: one over
    the uncovered positives, one over the negatives.
    """

    def __init__(
        self,
        clause_learner: ClauseLearner,
        coverage: Union[SubsumptionCoverageEngine, QueryCoverageEngine],
        parameters: Optional[CoveringParameters] = None,
    ):
        self.clause_learner = clause_learner
        self.coverage = coverage
        self.parameters = parameters or CoveringParameters()

    def learn(self, instance: DatabaseInstance, examples: ExampleSet) -> HornDefinition:
        """Run the covering loop and return the learned Horn definition."""
        definition = HornDefinition(examples.target)
        uncovered = list(examples.positives)
        negatives = list(examples.negatives)
        start = time.perf_counter()
        learner = getattr(
            self.clause_learner, "learner_label", type(self.clause_learner).__name__
        )

        while uncovered and len(definition) < self.parameters.max_clauses:
            if (
                self.parameters.max_seconds is not None
                and time.perf_counter() - start > self.parameters.max_seconds
            ):
                break
            clause = self.clause_learner.learn_clause(instance, uncovered, negatives)
            if clause is None:
                break
            with obs_span(
                "learn.cover", learner=learner, uncovered=len(uncovered)
            ) as cover_span:
                # Coverage of the round's clause as a positional bitmask
                # (bit i = uncovered[i]): counting is one bit_count() and
                # the uncovered-set update below is bit tests instead of
                # Python set algebra over Example objects.
                covered_mask = self.coverage.covered_mask(clause, uncovered)
                covered_count = covered_mask.bit_count()
                if covered_count < max(1, self.parameters.min_positives):
                    break
                negatives_covered = self.coverage.covered_mask(
                    clause, negatives
                ).bit_count()
                precision = covered_count / (covered_count + negatives_covered)
                cover_span.set(covered=covered_count)
            if precision < self.parameters.min_precision:
                # The best clause of this round is too imprecise; covering
                # cannot improve it, so stop rather than loop forever.
                break
            definition.add(clause)
            uncovered = [
                e for i, e in enumerate(uncovered) if not (covered_mask >> i) & 1
            ]
        return definition
