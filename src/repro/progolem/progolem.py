"""ProGolem: bottom-up learning with ARMG and beam search (Section 6.4).

ProGolem's ``LearnClause``:

1. build the (variablized) bottom clause of a seed positive example;
2. repeatedly sample ``K`` positive examples, apply ARMG to every clause in
   the current beam for each sampled example, score the resulting candidates
   (by coverage = positives − negatives covered), and keep the best ``N`` in
   the beam;
3. stop when no candidate improves on the beam's best score and return the
   best clause, negative-reduced.

Negative reduction here is the plain literal-level version (drop a literal
when doing so does not increase negative coverage); Castor replaces it with
the inclusion-class-aware Algorithm 5.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..database.instance import DatabaseInstance
from ..database.schema import Schema
from ..foil.gain import precision
from ..learning.bottom_clause import BottomClauseBuilder, BottomClauseConfig
from ..learning.coverage import BatchCoverageEngine, SubsumptionCoverageEngine
from ..learning.covering import CoveringLearner, CoveringParameters
from ..learning.knobs import EvaluationKnobs
from ..learning.examples import Example, ExampleSet
from ..learning.prefetch import SaturationPrefetcher, backend_supports_prefetch
from ..logic.clauses import HornClause, HornDefinition
from ..logic.minimize import minimize_clause
from ..obs import span as obs_span
from .armg import armg


class ProGolemParameters:
    """ProGolem's knobs (``sample``, ``beamwidth``, ``minprec`` in GILPS).

    ``parallelism`` bounds how many candidate clauses one generation's
    scoring batch may evaluate concurrently (clause-level fan-out, distinct
    from the coverage engine's per-example ``threads`` knob); results are
    identical for every value.  ``max_seconds`` is the covering loop's soft
    deadline: when it elapses, learning stops and the clauses accepted so
    far are returned.

    ``prefetch`` overlaps the generation's saturation materialization with
    seed-clause construction (see :mod:`repro.learning.prefetch`): ``None``
    (default) enables it whenever the instance's backend declares
    ``supports_concurrent_reads``; ``False`` forces the sequential
    saturate → seed → score ordering.  Results are identical either way —
    the knob only moves work between threads.
    """

    def __init__(
        self,
        sample_size: int = 5,
        beam_width: int = 3,
        min_precision: float = 0.67,
        min_positives: int = 2,
        max_clauses: int = 25,
        max_armg_rounds: int = 10,
        bottom_clause: Optional[BottomClauseConfig] = None,
        seed: int = 0,
        max_seconds: Optional[float] = None,
        parallelism: int = 1,
        prefetch: Optional[bool] = None,
    ):
        self.sample_size = int(sample_size)
        self.beam_width = int(beam_width)
        self.min_precision = float(min_precision)
        self.min_positives = int(min_positives)
        self.max_clauses = int(max_clauses)
        self.max_armg_rounds = int(max_armg_rounds)
        self.bottom_clause = bottom_clause or BottomClauseConfig(max_depth=2)
        self.seed = int(seed)
        self.max_seconds = max_seconds
        self.parallelism = max(1, int(parallelism))
        self.prefetch = prefetch


class ProGolemClauseLearner:
    """LearnClause: ARMG-driven beam search from a seed bottom clause.

    Subclassed by Castor, which overrides bottom-clause construction, the
    ARMG step, and the final reduction.
    """

    #: Name stamped on learn.* spans (Castor's subclass overrides it).
    learner_label = "ProGolem"

    def __init__(
        self,
        schema: Schema,
        parameters: ProGolemParameters,
        coverage: SubsumptionCoverageEngine,
    ):
        self.schema = schema
        self.parameters = parameters
        self.coverage = coverage
        self.batch = BatchCoverageEngine(
            coverage, parallelism=getattr(parameters, "parallelism", 1)
        )
        self._rng = random.Random(parameters.seed)

    def _prefetch_enabled(self, instance: DatabaseInstance) -> bool:
        """Overlap saturation materialization with seed construction?

        Requires a concurrent-read-safe backend; the ``prefetch`` parameter
        can force it OFF but never onto an unsafe backend.
        """
        if getattr(self.parameters, "prefetch", None) is False:
            return False
        return backend_supports_prefetch(instance)

    # ------------------------------------------------------------------ #
    # Hooks overridden by Castor
    # ------------------------------------------------------------------ #
    def build_seed_clause(self, instance: DatabaseInstance, seed: Example) -> HornClause:
        """Variablized bottom clause of the seed example."""
        builder = BottomClauseBuilder(instance, self.parameters.bottom_clause)
        return builder.build(seed)

    def generalize(self, clause: HornClause, example: Example) -> HornClause:
        """One ARMG application (plain ProGolem semantics).

        Blocking-atom prefix probes route through the learner's batch engine
        so each search round is one batched (poolable) evaluation.
        """
        return armg(clause, example, self.coverage, batch=self.batch)

    def reduce(
        self,
        clause: HornClause,
        instance: DatabaseInstance,
        negatives: Sequence[Example],
    ) -> HornClause:
        """Literal-level negative reduction followed by minimization."""
        negatives = list(negatives)
        baseline = self.coverage.evaluate(clause, [], negatives).negatives_covered
        index = len(clause.body) - 1
        current = clause
        while index >= 0 and len(current.body) > 1:
            candidate = current.remove_literal_at(index)
            candidate = HornClause(candidate.head, candidate.head_connected_body())
            if not candidate.body or not candidate.is_safe():
                index -= 1
                continue
            covered = self.coverage.evaluate(candidate, [], negatives).negatives_covered
            if covered <= baseline:
                current = candidate
            index -= 1
            if index >= len(current.body):
                index = len(current.body) - 1
        return minimize_clause(current)

    # ------------------------------------------------------------------ #
    def learn_clause(
        self,
        instance: DatabaseInstance,
        uncovered_positives: Sequence[Example],
        negatives: Sequence[Example],
    ) -> Optional[HornClause]:
        if not uncovered_positives:
            return None
        positives = list(uncovered_positives)
        negatives = list(negatives)
        generation_examples = [*positives, *negatives]
        # Saturate the whole generation in ONE batch call instead of
        # letting the beam loop build saturations one example at a time.  On
        # concurrent-read-safe backends the materialization runs on a
        # prefetch thread, overlapping with seed-clause construction below.
        prefetcher: Optional[SaturationPrefetcher] = None
        with obs_span(
            "learn.saturate",
            learner=self.learner_label,
            examples=len(generation_examples),
        ):
            if self._prefetch_enabled(instance):
                prefetcher = SaturationPrefetcher(
                    self.coverage, generation_examples
                ).start()
            else:
                self.coverage.prepare(generation_examples)
        seed = positives[0]
        seed_clause = self.build_seed_clause(instance, seed)
        if prefetcher is not None:
            # Join before ANY coverage use: the residual wait is what the
            # overlap did not manage to hide behind seed construction.
            with obs_span(
                "learn.prefetch",
                learner=self.learner_label,
                examples=len(generation_examples),
            ):
                prefetcher.wait()
        if not seed_clause.body:
            return None

        beam: List[HornClause] = [seed_clause]
        best_score = self._score(seed_clause, positives, negatives)

        for _ in range(self.parameters.max_armg_rounds):
            sample = positives[:]
            self._rng.shuffle(sample)
            sample = sample[: self.parameters.sample_size]
            # Generate the whole generation first, then score it as ONE batch:
            # all candidates share the same example lists, so the coverage
            # backend amortizes evaluation across them (and fans clauses out
            # over its connection pool when parallelism > 1).
            generation: List[HornClause] = []
            for clause in beam:
                for example in sample:
                    if self.coverage.covers(clause, example):
                        continue
                    candidate = self.generalize(clause, example)
                    if not candidate.body or not candidate.is_safe():
                        continue
                    generation.append(candidate)
            if not generation:
                break
            with obs_span(
                "learn.score",
                learner=self.learner_label,
                candidates=len(generation),
            ):
                results = self.batch.evaluate_batch(
                    generation, positives, negatives
                )
            scored = [
                (result.coverage_score(), candidate)
                for candidate, result in zip(generation, results)
                if result.coverage_score() > best_score
            ]
            if not scored:
                break
            scored.sort(key=lambda entry: entry[0], reverse=True)
            beam = [candidate for _, candidate in scored[: self.parameters.beam_width]]
            best_score = scored[0][0]

        best = max(beam, key=lambda c: self._score(c, positives, negatives))
        with obs_span("learn.reduce", learner=self.learner_label):
            reduced = self.reduce(best, instance, negatives)
        result = self.coverage.evaluate(reduced, positives, negatives)
        if result.positives_covered < self.parameters.min_positives:
            return None
        if result.precision() < self.parameters.min_precision:
            return None
        return reduced

    def _score(
        self, clause: HornClause, positives: Sequence[Example], negatives: Sequence[Example]
    ) -> float:
        result = self.coverage.evaluate(clause, list(positives), list(negatives))
        return result.coverage_score()


class ProGolemLearner(EvaluationKnobs):
    """Public ProGolem learner."""

    name = "ProGolem"

    clause_learner_class = ProGolemClauseLearner

    def __init__(
        self,
        schema: Schema,
        parameters: Optional[ProGolemParameters] = None,
        threads: int = 1,
        parallelism: Optional[int] = None,
        saturation_store=None,
        backend: Optional[str] = None,
        context=None,
    ):
        self.schema = schema
        self.parameters = parameters or ProGolemParameters()
        self.threads = threads
        self._init_evaluation_knobs(
            backend=backend, saturation_store=saturation_store
        )
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

    def make_coverage_engine(self, instance: DatabaseInstance) -> SubsumptionCoverageEngine:
        """Build the coverage engine (overridden by Castor to add IND awareness)."""
        return SubsumptionCoverageEngine(
            instance,
            self.parameters.bottom_clause,
            threads=self.threads,
            compiled=self.compiled_coverage,
            saturation_store=self.saturation_store,
        )

    def make_clause_learner(
        self, instance: DatabaseInstance, coverage: SubsumptionCoverageEngine
    ) -> ProGolemClauseLearner:
        return self.clause_learner_class(self.schema, self.parameters, coverage)

    def learn(self, instance: DatabaseInstance, examples: ExampleSet) -> HornDefinition:
        instance = self._prepare_instance(instance)
        coverage = self.make_coverage_engine(instance)
        clause_learner = self.make_clause_learner(instance, coverage)
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
