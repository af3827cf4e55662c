"""Castor: the schema-independent bottom-up relational learner (Section 7).

Castor follows ProGolem's search strategy (covering loop + ARMG beam search)
but integrates inclusion dependencies at every step:

* **bottom-clause construction** chases INDs with equality so that the seed
  clauses over a composed schema and its decompositions are equivalent
  (Lemma 7.5);
* **ARMG** restores IND consistency after each blocking-atom removal
  (Lemma 7.7);
* **negative reduction** removes whole inclusion-class instances instead of
  individual literals (Lemma 7.8) and keeps clauses safe (Section 7.3);
* clauses are **minimized** before and after generalization (Section 7.5.5)
  and coverage tests are cached and optionally parallelized (Section 7.5.3/4).

Modes:

* default — use the schema's INDs with equality (bijective (de)compositions);
* ``promote_inds_from_data=True`` — Section 7.4 preprocessing: subset-form
  INDs that hold as equalities on the current instance are promoted and used
  like INDs with equality, restoring full schema independence for general
  (de)compositions;
* ``use_subset_inds=True`` — Section 7.4 direct extension: chase subset-form
  INDs without the preprocessing check (robust but not provably independent).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..database.constraints import InclusionDependency
from ..database.instance import DatabaseInstance
from ..database.schema import Schema
from ..learning.coverage import SubsumptionCoverageEngine
from ..learning.examples import Example, ExampleSet
from ..logic.clauses import HornClause, HornDefinition
from ..logic.minimize import minimize_clause
from ..progolem.progolem import (
    ProGolemClauseLearner,
    ProGolemLearner,
    ProGolemParameters,
)
from .armg import castor_armg
from .bottom_clause import CastorBottomClauseBuilder, CastorBottomClauseConfig
from .reduction import NegativeReducer


class CastorParameters(ProGolemParameters):
    """Castor's parameters: ProGolem's search knobs plus IND handling options."""

    def __init__(
        self,
        sample_size: int = 5,
        beam_width: int = 3,
        min_precision: float = 0.67,
        min_positives: int = 2,
        max_clauses: int = 25,
        max_armg_rounds: int = 10,
        bottom_clause: Optional[CastorBottomClauseConfig] = None,
        seed: int = 0,
        use_subset_inds: bool = False,
        promote_inds_from_data: bool = False,
        minimize_bottom_clauses: bool = False,
        ensure_safe: bool = True,
        max_seconds: Optional[float] = None,
        parallelism: int = 1,
        prefetch: Optional[bool] = None,
    ):
        super().__init__(
            sample_size=sample_size,
            beam_width=beam_width,
            min_precision=min_precision,
            min_positives=min_positives,
            max_clauses=max_clauses,
            max_armg_rounds=max_armg_rounds,
            bottom_clause=bottom_clause or CastorBottomClauseConfig(),
            seed=seed,
            max_seconds=max_seconds,
            parallelism=parallelism,
            prefetch=prefetch,
        )
        self.use_subset_inds = bool(use_subset_inds)
        self.promote_inds_from_data = bool(promote_inds_from_data)
        self.minimize_bottom_clauses = bool(minimize_bottom_clauses)
        self.ensure_safe = bool(ensure_safe)


class CastorCoverageEngine(SubsumptionCoverageEngine):
    """Coverage engine whose saturations are built with the IND-aware builder."""

    def __init__(
        self,
        instance: DatabaseInstance,
        schema: Schema,
        config: CastorBottomClauseConfig,
        threads: int = 1,
        compiled: Optional[bool] = None,
        saturation_store=None,
    ):
        # Bound before super().__init__, whose _make_builder call reads it.
        self.working_schema = schema
        super().__init__(
            instance,
            config,
            threads=threads,
            compiled=compiled,
            saturation_store=saturation_store,
        )

    def _make_builder(self, instance: DatabaseInstance, saturation_config):
        return CastorBottomClauseBuilder(
            instance, self.working_schema, saturation_config
        )


class CastorClauseLearner(ProGolemClauseLearner):
    """Castor's LearnClause (Algorithm 4): IND-aware seed, ARMG, and reduction."""

    learner_label = "Castor"

    def __init__(
        self,
        schema: Schema,
        parameters: CastorParameters,
        coverage: SubsumptionCoverageEngine,
        working_schema: Optional[Schema] = None,
    ):
        super().__init__(schema, parameters, coverage)
        # ``working_schema`` carries the (possibly promoted) IND set actually used.
        self.working_schema = working_schema or schema
        self.parameters: CastorParameters = parameters

    # ------------------------------------------------------------------ #
    # Overridden hooks
    # ------------------------------------------------------------------ #
    def build_seed_clause(self, instance: DatabaseInstance, seed: Example) -> HornClause:
        builder = CastorBottomClauseBuilder(
            instance, self.working_schema, self._bottom_config()
        )
        clause = builder.build(seed)
        if self.parameters.minimize_bottom_clauses and clause.body:
            clause = minimize_clause(clause)
        return clause

    def generalize(self, clause: HornClause, example: Example) -> HornClause:
        return castor_armg(
            clause,
            example,
            self.coverage,
            self.working_schema,
            include_subset_inds=self.parameters.use_subset_inds,
            batch=self.batch,
        )

    def reduce(
        self,
        clause: HornClause,
        instance: DatabaseInstance,
        negatives: Sequence[Example],
    ) -> HornClause:
        reducer = NegativeReducer(
            self.working_schema,
            self.coverage,
            include_subset_inds=self.parameters.use_subset_inds,
            ensure_safe=self.parameters.ensure_safe,
            batch=self.batch,
        )
        reduced = reducer.reduce(clause, negatives)
        if reduced.body:
            reduced = minimize_clause(reduced)
        if not reduced.body or (self.parameters.ensure_safe and not reduced.is_safe()):
            return clause
        return reduced

    def _bottom_config(self) -> CastorBottomClauseConfig:
        config = self.parameters.bottom_clause
        if isinstance(config, CastorBottomClauseConfig):
            config.use_subset_inds = self.parameters.use_subset_inds
            return config
        return CastorBottomClauseConfig(use_subset_inds=self.parameters.use_subset_inds)


class CastorLearner(ProGolemLearner):
    """Public Castor learner: schema-independent bottom-up induction."""

    name = "Castor"

    clause_learner_class = CastorClauseLearner

    def __init__(
        self,
        schema: Schema,
        parameters: Optional[CastorParameters] = None,
        threads: int = 1,
        backend: Optional[str] = None,
        parallelism: Optional[int] = None,
        saturation_store=None,
        context=None,
    ):
        super().__init__(
            schema,
            parameters or CastorParameters(),
            threads=threads,
            parallelism=parallelism,
            saturation_store=saturation_store,
            backend=backend,
            context=context,
        )
        self.parameters: CastorParameters = self.parameters
        self._working_schema: Optional[Schema] = None

    # ------------------------------------------------------------------ #
    def working_schema_for(self, instance: DatabaseInstance) -> Schema:
        """The schema whose INDs Castor actually chases for this instance.

        With ``promote_inds_from_data`` enabled, subset-form INDs that hold
        with equality on the instance are promoted (Section 7.4 preprocessing).
        """
        if not self.parameters.promote_inds_from_data:
            return self.schema
        promoted: List[InclusionDependency] = []
        for ind in self.schema.inclusion_dependencies:
            if ind.with_equality:
                promoted.append(ind)
            elif instance.ind_holds_with_equality(ind):
                promoted.append(
                    InclusionDependency(
                        ind.left, ind.left_attrs, ind.right, ind.right_attrs, True
                    )
                )
            else:
                promoted.append(ind)
        return self.schema.with_constraints(inclusion_dependencies=promoted)

    def make_coverage_engine(self, instance: DatabaseInstance) -> SubsumptionCoverageEngine:
        self._working_schema = self.working_schema_for(instance)
        config = self.parameters.bottom_clause
        if not isinstance(config, CastorBottomClauseConfig):
            config = CastorBottomClauseConfig()
        config.use_subset_inds = self.parameters.use_subset_inds
        return CastorCoverageEngine(
            instance,
            self._working_schema,
            config,
            threads=self.threads,
            compiled=self.compiled_coverage,
            saturation_store=self.saturation_store,
        )

    def make_clause_learner(
        self, instance: DatabaseInstance, coverage: SubsumptionCoverageEngine
    ) -> CastorClauseLearner:
        working_schema = self._working_schema or self.working_schema_for(instance)
        return CastorClauseLearner(
            self.schema, self.parameters, coverage, working_schema=working_schema
        )

    def learn(self, instance: DatabaseInstance, examples: ExampleSet) -> HornDefinition:
        # Backend conversion happens in the base class's learn() — one
        # normalization path for the whole family.
        definition = super().learn(instance, examples)
        if self.parameters.ensure_safe:
            safe_clauses = [clause for clause in definition if clause.is_safe()]
            definition = HornDefinition(definition.target, safe_clauses)
        return definition
