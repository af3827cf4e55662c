"""Progol/Aleph-style top-down learner bounded by a bottom clause.

Aleph (the system the paper uses to emulate both Progol and FOIL) learns one
clause at a time by:

1. picking a *seed* positive example and building its (variablized) bottom
   clause, which bounds the hypothesis space from below;
2. searching the space of clauses whose body literals are drawn from the
   bottom clause, from general to specific, keeping an *open list* of the
   best candidates (``openlist=1`` yields the greedy Aleph-FOIL emulation,
   larger open lists yield the default Aleph-Progol behaviour);
3. returning the best clause found subject to the ``clauselength``,
   ``minacc`` (minimum precision) and ``minpos`` constraints.

The ``clauselength`` parameter is exactly the bound that Theorem 5.1 shows
cannot be fixed consistently across composed/decomposed schemas, so this
learner is schema dependent by construction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..database.instance import DatabaseInstance
from ..database.schema import Schema
from ..foil.gain import coverage_score, foil_gain, precision
from ..learning.knobs import EvaluationKnobs, ThreadsAsParallelism
from ..learning.bottom_clause import BottomClauseBuilder, BottomClauseConfig
from ..learning.coverage import SubsumptionCoverageEngine
from ..learning.covering import CoveringLearner, CoveringParameters
from ..learning.examples import Example, ExampleSet
from ..logic.atoms import Atom
from ..logic.clauses import HornClause, HornDefinition


class ProgolParameters:
    """Aleph-style settings.

    ``clause_length`` mirrors Aleph's ``clauselength`` (the experiments use 4,
    10, and 15); ``open_list_size`` mirrors ``openlist`` (1 = Aleph-FOIL
    greedy emulation); ``scoring`` selects between Aleph's default
    compression score and FOIL gain.
    """

    def __init__(
        self,
        clause_length: int = 4,
        open_list_size: int = 5,
        min_precision: float = 0.67,
        min_positives: int = 2,
        max_clauses: int = 40,
        scoring: str = "compression",
        bottom_clause: Optional[BottomClauseConfig] = None,
        max_search_nodes: int = 2000,
    ):
        if scoring not in ("compression", "gain"):
            raise ValueError("scoring must be 'compression' or 'gain'")
        self.clause_length = int(clause_length)
        self.open_list_size = int(open_list_size)
        self.min_precision = float(min_precision)
        self.min_positives = int(min_positives)
        self.max_clauses = int(max_clauses)
        self.scoring = scoring
        self.bottom_clause = bottom_clause or BottomClauseConfig(max_depth=2)
        self.max_search_nodes = int(max_search_nodes)


class _ProgolClauseLearner:
    """LearnClause: bottom-clause-bounded beam search from general to specific."""

    def __init__(
        self,
        schema: Schema,
        parameters: ProgolParameters,
        coverage: SubsumptionCoverageEngine,
    ):
        self.schema = schema
        self.parameters = parameters
        self.coverage = coverage

    # ------------------------------------------------------------------ #
    def learn_clause(
        self,
        instance: DatabaseInstance,
        uncovered_positives: Sequence[Example],
        negatives: Sequence[Example],
    ) -> Optional[HornClause]:
        if not uncovered_positives:
            return None
        seed = uncovered_positives[0]
        builder = BottomClauseBuilder(instance, self.parameters.bottom_clause)
        bottom = builder.build(seed)
        if not bottom.body:
            return None

        head = bottom.head
        empty = HornClause(head, [])
        best: Optional[Tuple[float, HornClause, int, int]] = None
        beam: List[Tuple[float, HornClause]] = [(0.0, empty)]
        nodes_expanded = 0

        base_pos = len(uncovered_positives)
        base_neg = len(negatives)

        while beam and nodes_expanded < self.parameters.max_search_nodes:
            next_beam: List[Tuple[float, HornClause]] = []
            for _, clause in beam:
                if clause.length >= self.parameters.clause_length:
                    continue
                for literal in self._admissible_literals(clause, bottom):
                    candidate = clause.add_literal(literal)
                    nodes_expanded += 1
                    if nodes_expanded > self.parameters.max_search_nodes:
                        break
                    pos_cov = self.coverage.covered_examples(
                        candidate, list(uncovered_positives)
                    )
                    if len(pos_cov) < self.parameters.min_positives:
                        continue
                    neg_cov = self.coverage.covered_examples(candidate, list(negatives))
                    score = self._score(
                        base_pos, base_neg, len(pos_cov), len(neg_cov), candidate.length
                    )
                    next_beam.append((score, candidate))
                    if candidate.is_safe() and precision(
                        len(pos_cov), len(neg_cov)
                    ) >= self.parameters.min_precision:
                        if best is None or score > best[0]:
                            best = (score, candidate, len(pos_cov), len(neg_cov))
            next_beam.sort(key=lambda pair: pair[0], reverse=True)
            beam = next_beam[: self.parameters.open_list_size]

        if best is None:
            return None
        return best[1]

    # ------------------------------------------------------------------ #
    def _admissible_literals(self, clause: HornClause, bottom: HornClause) -> List[Atom]:
        """Bottom-clause literals not yet in the clause that keep it head-connected."""
        current_vars = set(clause.variables())
        existing = set(clause.body)
        admissible = []
        for literal in bottom.body:
            if literal in existing:
                continue
            literal_vars = set(literal.variables())
            if not literal_vars or literal_vars & current_vars:
                admissible.append(literal)
        return admissible

    def _score(
        self,
        base_pos: int,
        base_neg: int,
        covered_pos: int,
        covered_neg: int,
        length: int,
    ) -> float:
        if self.parameters.scoring == "gain":
            return foil_gain(base_pos, base_neg, covered_pos, covered_neg)
        return coverage_score(covered_pos, covered_neg, length)


class ProgolLearner(EvaluationKnobs, ThreadsAsParallelism):
    """Aleph-Progol style learner (default settings) with a configurable beam."""

    name = "Aleph-Progol"

    def __init__(
        self,
        schema: Schema,
        parameters: Optional[ProgolParameters] = None,
        threads: int = 1,
        parallelism: Optional[int] = None,
        backend: Optional[str] = None,
        saturation_store=None,
        context=None,
    ):
        self.schema = schema
        self.parameters = parameters or ProgolParameters()
        self.threads = max(1, int(threads))
        self._init_evaluation_knobs(
            backend=backend, saturation_store=saturation_store
        )
        if parallelism is not None:
            self.threads = max(1, int(parallelism))
        self._apply_context(context)

    def learn(self, instance: DatabaseInstance, examples: ExampleSet) -> HornDefinition:
        """Learn a Horn definition via bottom-clause-bounded top-down search."""
        instance = self._prepare_instance(instance)
        coverage = SubsumptionCoverageEngine(
            instance,
            self.parameters.bottom_clause,
            threads=self.threads,
            compiled=self.compiled_coverage,
            saturation_store=self.saturation_store,
        )
        clause_learner = _ProgolClauseLearner(self.schema, self.parameters, coverage)
        covering = CoveringLearner(
            clause_learner,
            coverage_fn=coverage.covered_examples,
            precision_fn=lambda clause, pos, neg: precision(
                len(coverage.covered_examples(clause, pos)),
                len(coverage.covered_examples(clause, neg)),
            ),
            parameters=CoveringParameters(
                min_precision=self.parameters.min_precision,
                min_positives=self.parameters.min_positives,
                max_clauses=self.parameters.max_clauses,
            ),
        )
        return covering.learn(instance, examples)


class AlephFoilLearner(ProgolLearner):
    """Aleph forced into a greedy FOIL-like strategy (``openlist=1``, gain scoring)."""

    name = "Aleph-FOIL"

    def __init__(
        self,
        schema: Schema,
        clause_length: int = 10,
        parameters: Optional[ProgolParameters] = None,
        threads: int = 1,
        **kwargs,
    ):
        if parameters is None:
            parameters = ProgolParameters(
                clause_length=clause_length, open_list_size=1, scoring="gain"
            )
        super().__init__(schema, parameters, threads=threads, **kwargs)
