"""FOIL: the classic greedy top-down relational learner (Quinlan 1990).

FOIL follows the covering approach (Algorithm 1).  Its ``LearnClause``
procedure starts from the most general clause ``T(x...) :- true`` and greedily
adds the candidate literal with the highest FOIL gain until the clause covers
no negative examples (or no literal improves it, or the clause-length bound
is reached).  FOIL does not backtrack, which is the root of its schema
dependence (Example 1.1 / Theorem 5.1).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..database.instance import DatabaseInstance
from ..database.schema import Schema
from ..learning.coverage import BatchCoverageEngine, QueryCoverageEngine
from ..learning.knobs import EvaluationKnobs
from ..learning.covering import CoveringLearner, CoveringParameters
from ..learning.examples import Example, ExampleSet
from ..logic.clauses import HornClause, HornDefinition
from ..obs import span as obs_span
from .gain import foil_gain, precision
from .refinement import RefinementConfig, RefinementOperator, initial_clause


class FoilParameters:
    """FOIL's knobs, named after the original system where applicable.

    ``max_clause_length`` is the clause-length bound analyzed in Theorem 5.1;
    ``min_precision`` is the ``aaccur`` setting (0.67 in the experiments).
    ``lookahead_candidates`` bounds the two-literal lookahead used when no
    single literal has positive gain (the role of FOIL's determinate
    literals): the top candidates by coverage are each extended by one more
    literal and the best gaining *pair* is added.

    ``parallelism`` bounds how many candidate refinements one scoring batch
    may evaluate concurrently (identical results for every value);
    ``max_seconds`` is the covering loop's soft deadline — when it elapses,
    the clauses accepted so far are returned.
    """

    def __init__(
        self,
        max_clause_length: int = 6,
        min_precision: float = 0.67,
        min_positives: int = 2,
        max_clauses: int = 25,
        lookahead_candidates: int = 10,
        lookahead_extensions: int = 60,
        refinement: Optional[RefinementConfig] = None,
        max_seconds: Optional[float] = None,
        parallelism: int = 1,
    ):
        self.max_clause_length = int(max_clause_length)
        self.min_precision = float(min_precision)
        self.min_positives = int(min_positives)
        self.max_clauses = int(max_clauses)
        self.lookahead_candidates = int(lookahead_candidates)
        self.lookahead_extensions = int(lookahead_extensions)
        self.refinement = refinement or RefinementConfig()
        self.max_seconds = max_seconds
        self.parallelism = max(1, int(parallelism))


class _FoilClauseLearner:
    """LearnClause strategy: greedy gain-driven literal addition."""

    learner_label = "FOIL"

    def __init__(self, schema: Schema, parameters: FoilParameters, coverage: QueryCoverageEngine):
        self.schema = schema
        self.parameters = parameters
        self.coverage = coverage
        self.batch = BatchCoverageEngine(
            coverage, parallelism=getattr(parameters, "parallelism", 1)
        )

    def learn_clause(
        self,
        instance: DatabaseInstance,
        uncovered_positives: Sequence[Example],
        negatives: Sequence[Example],
    ) -> Optional[HornClause]:
        if not uncovered_positives:
            return None
        target = uncovered_positives[0].target
        arity = len(uncovered_positives[0].values)
        clause = initial_clause(target, arity)
        operator = RefinementOperator(self.schema, instance, self.parameters.refinement)

        covered_pos = list(uncovered_positives)
        covered_neg = list(negatives)

        while covered_neg and clause.length < self.parameters.max_clause_length:
            scored = self._score_single_literals(
                operator, clause, covered_pos, covered_neg
            )
            if not scored:
                break
            best_gain, best_literals, best_cover = scored[0]
            if best_gain <= 0 and clause.length + 1 < self.parameters.max_clause_length:
                lookahead = self._lookahead(operator, clause, scored, covered_pos, covered_neg)
                if lookahead is not None:
                    best_gain, best_literals, best_cover = lookahead
            if best_gain <= 0 and clause.length > 0:
                # No single literal or pair improves the clause further.
                break
            for literal in best_literals:
                clause = clause.add_literal(literal)
            covered_pos, covered_neg = best_cover

        if clause.length == 0:
            return None
        if len(covered_pos) < self.parameters.min_positives:
            return None
        if precision(len(covered_pos), len(covered_neg)) < self.parameters.min_precision:
            return None
        if not clause.is_safe():
            return None
        return clause

    # ------------------------------------------------------------------ #
    def _batch_gains(self, candidates, covered_pos, covered_neg):
        """Batched FOIL gain for a list of candidate clauses.

        Positive coverage of the whole batch is computed in one call; only
        candidates passing ``min_positives`` pay for negative coverage (a
        second, smaller batch).  Returns ``(gain, new_pos, new_neg) | None``
        per candidate, in input order.
        """
        with obs_span(
            "learn.score", learner=self.learner_label, candidates=len(candidates)
        ):
            pos_lists = self.batch.covered_examples_batch(candidates, covered_pos)
            survivors = [
                index
                for index, new_pos in enumerate(pos_lists)
                if len(new_pos) >= self.parameters.min_positives
            ]
            neg_lists = self.batch.covered_examples_batch(
                [candidates[index] for index in survivors], covered_neg
            )
        results: List[Optional[tuple]] = [None] * len(candidates)
        for index, new_neg in zip(survivors, neg_lists):
            new_pos = pos_lists[index]
            gain = foil_gain(
                len(covered_pos), len(covered_neg), len(new_pos), len(new_neg)
            )
            results[index] = (gain, new_pos, new_neg)
        return results

    def _score_single_literals(self, operator, clause, covered_pos, covered_neg):
        """Score every one-literal refinement; best first.

        Each entry is ``(gain, [literal], (new_pos, new_neg))``.  Candidates
        covering fewer than ``min_positives`` positives are discarded.  All
        refinements of the clause are scored as one coverage batch.
        """
        literals = operator.candidate_literals_for_clause(clause)
        candidates = [clause.add_literal(literal) for literal in literals]
        scored = []
        for literal, entry in zip(literals, self._batch_gains(candidates, covered_pos, covered_neg)):
            if entry is None:
                continue
            gain, new_pos, new_neg = entry
            scored.append((gain, [literal], (new_pos, new_neg)))
        scored.sort(key=lambda entry: (entry[0], len(entry[2][0]), -len(entry[2][1])), reverse=True)
        return scored

    def _lookahead(self, operator, clause, scored, covered_pos, covered_neg):
        """Two-literal lookahead used when no single literal has positive gain.

        The top zero-gain candidates (typically literals that only introduce a
        join variable) are each extended by one further literal; each
        intermediate's extensions are scored as one batch and the best
        gaining pair, if any, is returned.
        """
        best = None
        for _, literals, _ in scored[: self.parameters.lookahead_candidates]:
            intermediate = clause.add_literal(literals[0])
            extensions = operator.candidate_literals_for_clause(intermediate)
            extensions = extensions[: self.parameters.lookahead_extensions]
            candidates = [intermediate.add_literal(ext) for ext in extensions]
            for extension, entry in zip(
                extensions, self._batch_gains(candidates, covered_pos, covered_neg)
            ):
                if entry is None:
                    continue
                gain, new_pos, new_neg = entry
                if gain > 0 and (best is None or gain > best[0]):
                    best = (gain, [literals[0], extension], (new_pos, new_neg))
        return best


class FoilLearner(EvaluationKnobs):
    """Public FOIL learner: ``learn(instance, examples) -> HornDefinition``."""

    name = "FOIL"

    def __init__(
        self,
        schema: Schema,
        parameters: Optional[FoilParameters] = None,
        backend: Optional[str] = None,
        parallelism: Optional[int] = None,
        context=None,
    ):
        self.schema = schema
        self.parameters = parameters or FoilParameters()
        # Deliberately only the backend half of the mixin's knob set: query
        # coverage has no saturations and no compiled subsumption, and
        # phantom attributes would make apply() silently accept settings
        # this learner cannot honor.
        self.backend = backend
        if parallelism is not None:
            self.parameters.parallelism = max(1, int(parallelism))
        self._apply_context(context)

    @property
    def parallelism(self) -> int:
        """Clause-level scoring fan-out (the experiment harness sets this)."""
        return self.parameters.parallelism

    @parallelism.setter
    def parallelism(self, value: int) -> None:
        self.parameters.parallelism = max(1, int(value))

    def learn(self, instance: DatabaseInstance, examples: ExampleSet) -> HornDefinition:
        """Learn a Horn definition of the examples' target relation."""
        instance = self._prepare_instance(instance)
        coverage = QueryCoverageEngine(instance)
        clause_learner = _FoilClauseLearner(self.schema, self.parameters, coverage)
        covering = CoveringLearner(
            clause_learner,
            coverage_fn=coverage.covered_examples,
            coverage_mask_fn=coverage.covered_mask,
            precision_fn=lambda clause, pos, neg: precision(
                len(coverage.covered_examples(clause, pos)),
                len(coverage.covered_examples(clause, neg)),
            ),
            parameters=CoveringParameters(
                min_precision=self.parameters.min_precision,
                min_positives=self.parameters.min_positives,
                max_clauses=self.parameters.max_clauses,
                max_seconds=self.parameters.max_seconds,
                parallelism=self.parameters.parallelism,
            ),
        )
        return covering.learn(instance, examples)
