"""Experiment harness: run learners across schema variants and collect metrics.

The harness drives the paper's Section 9 methodology:

1. take a :class:`DatasetBundle` (instance + examples + schema variants);
2. for each schema variant and each learner, run k-fold cross-validation and
   record precision, recall, and learning time (Tables 9-12);
3. additionally learn on the full training data per variant and compare the
   *outputs* across variants (do the learned definitions return the same
   result relation on corresponding instances?) — the direct empirical test
   of schema independence.

Every entry point runs on the **session API**
(:class:`~repro.session.session.LearningSession` /
:class:`~repro.session.config.SessionConfig`): ``session=`` is the only way
evaluation settings reach a harness call.  Passing one session to many calls
also shares its prepared instances and saturation stores; without it, a
call runs on a default ``LearningSession()`` of its own.

Each entry point opens the root span of its trace tree:
:func:`run_variant` a ``session.run`` span, :func:`run_schema_sweep` and
:func:`check_schema_independence` a ``session.sweep`` span (a sweep's
cells are ``session.run`` spans under it).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Callable, ContextManager, Dict, List, Optional, Sequence

from ..database.schema import Schema
from ..learning.evaluation import CrossValidationReport, cross_validate, evaluate_definition
from ..logic.clauses import HornDefinition
from ..obs import span as obs_span
from ..session.session import LearningSession
from ..transform.equivalence import definition_results

LearnerFactory = Callable[[Schema], object]


class LearnerSpec:
    """A named learner plus the factory that instantiates it for a schema."""

    def __init__(self, name: str, factory: LearnerFactory):
        self.name = str(name)
        self.factory = factory

    def build(self, schema: Schema) -> object:
        return self.factory(schema)

    def __repr__(self) -> str:
        return f"LearnerSpec({self.name!r})"


class VariantResult:
    """Metrics of one learner on one schema variant."""

    def __init__(
        self,
        learner: str,
        variant: str,
        precision: float,
        recall: float,
        f1: float,
        time_seconds: float,
        definition: Optional[HornDefinition] = None,
        folds: int = 1,
    ):
        self.learner = learner
        self.variant = variant
        self.precision = precision
        self.recall = recall
        self.f1 = f1
        self.time_seconds = time_seconds
        self.definition = definition
        self.folds = folds

    def as_dict(self) -> Dict[str, object]:
        return {
            "learner": self.learner,
            "variant": self.variant,
            "precision": round(self.precision, 3),
            "recall": round(self.recall, 3),
            "f1": round(self.f1, 3),
            "time_seconds": round(self.time_seconds, 3),
            "folds": self.folds,
        }

    def __repr__(self) -> str:
        return (
            f"VariantResult({self.learner} on {self.variant}: "
            f"P={self.precision:.2f} R={self.recall:.2f} t={self.time_seconds:.2f}s)"
        )


def _session_scope(
    session: Optional[LearningSession],
) -> ContextManager[LearningSession]:
    """The caller's session (left open), or a default one closed on exit."""
    return nullcontext(session) if session is not None else LearningSession()


def run_variant(
    bundle,
    variant_name: str,
    learner_spec: LearnerSpec,
    folds: int = 3,
    seed: int = 0,
    session: Optional[LearningSession] = None,
) -> VariantResult:
    """Cross-validate one learner on one schema variant of the dataset.

    The run rides ``session``'s configuration, prepared instances and shared
    saturation stores, so repeat calls on one session start warm.  Every
    fold learner of a variant gets the same warm store; fold results are
    identical to a cold run.
    """
    with _session_scope(session) as active, obs_span(
        "session.run",
        variant=str(variant_name),
        learner=learner_spec.name,
        folds=int(folds),
    ):
        schema = bundle.schema(variant_name)
        instance = active.prepare(bundle.instance(variant_name))

        def factory() -> object:
            return active.bind(learner_spec.build(schema), instance)

        if folds <= 1:
            learner = factory()
            train, test = bundle.examples.train_test_split(
                test_fraction=0.3, seed=seed
            )
            start = time.perf_counter()
            definition = learner.learn(instance, train)
            elapsed = time.perf_counter() - start
            evaluation = evaluate_definition(definition, instance, test)
            return VariantResult(
                learner_spec.name,
                variant_name,
                evaluation.precision,
                evaluation.recall,
                evaluation.f1,
                elapsed,
                definition,
                folds=1,
            )

        report: CrossValidationReport = cross_validate(
            factory, instance, bundle.examples, folds=folds, seed=seed
        )
        definition = report.outcomes[0].definition if report.outcomes else None
        return VariantResult(
            learner_spec.name,
            variant_name,
            report.precision,
            report.recall,
            report.f1,
            report.mean_learn_seconds,
            definition,
            folds=folds,
        )


def run_schema_sweep(
    bundle,
    learner_specs: Sequence[LearnerSpec],
    variants: Optional[Sequence[str]] = None,
    folds: int = 3,
    seed: int = 0,
    session: Optional[LearningSession] = None,
) -> List[VariantResult]:
    """Run every learner on every schema variant (one of the paper's tables).

    The whole sweep shares one session (the caller's or a per-call one), so
    every learner×variant cell after the first on a variant starts from
    that variant's warm instance and saturation store.
    """
    with _session_scope(session) as active, obs_span(
        "session.sweep", learners=len(learner_specs)
    ):
        variants = list(variants or bundle.variant_names)
        # Convert once up front (and once per *session*, not per call): the
        # converted bundle caches the re-materialized instance per variant,
        # so repeat sweeps on one session land on the same instances and
        # stores.
        bundle = active.prepare_bundle(bundle)
        return [
            run_variant(
                bundle, variant_name, learner_spec, folds, seed, session=active
            )
            for learner_spec in learner_specs
            for variant_name in variants
        ]


class SchemaIndependenceReport:
    """Outcome of the direct schema-independence check for one learner."""

    def __init__(
        self,
        learner: str,
        result_sizes: Dict[str, int],
        pairwise_equivalent: Dict[str, bool],
        definitions: Dict[str, HornDefinition],
    ):
        self.learner = learner
        self.result_sizes = result_sizes
        self.pairwise_equivalent = pairwise_equivalent
        self.definitions = definitions

    @property
    def is_vacuous(self) -> bool:
        """True when every variant's result relation is empty: equal outputs
        then say nothing about schema independence."""
        return not any(self.result_sizes.values())

    @property
    def is_schema_independent(self) -> bool:
        """True when the learner produced equivalent, non-empty outputs on
        every variant pair (a vacuous report is never independent)."""
        return not self.is_vacuous and all(self.pairwise_equivalent.values())

    def as_dict(self) -> Dict[str, object]:
        return {
            "learner": self.learner,
            "schema_independent": self.is_schema_independent,
            "vacuous": self.is_vacuous,
            "result_sizes": dict(self.result_sizes),
            "pairwise_equivalent": dict(self.pairwise_equivalent),
        }

    def __repr__(self) -> str:
        return (
            f"SchemaIndependenceReport({self.learner!r}, "
            f"independent={self.is_schema_independent}, "
            f"vacuous={self.is_vacuous})"
        )


def check_schema_independence(
    bundle,
    learner_spec: LearnerSpec,
    variants: Optional[Sequence[str]] = None,
    session: Optional[LearningSession] = None,
) -> SchemaIndependenceReport:
    """Learn on every variant with the full training data and compare outputs.

    The comparison is semantic: each learned definition is evaluated on its
    own variant's instance and the result relations are compared across
    variants (Definition 3.10 instantiated on the actual data).
    """
    with _session_scope(session) as active, obs_span(
        "session.sweep", learners=1
    ):
        variants = list(variants or bundle.variant_names)
        bundle = active.prepare_bundle(bundle)
        definitions: Dict[str, HornDefinition] = {}
        results: Dict[str, frozenset] = {}
        for variant_name in variants:
            instance = active.prepare(bundle.instance(variant_name))
            learner = active.bind(
                learner_spec.build(bundle.schema(variant_name)), instance
            )
            definition = learner.learn(instance, bundle.examples)
            definitions[variant_name] = definition
            results[variant_name] = frozenset(
                definition_results(definition, instance)
            )

    pairwise: Dict[str, bool] = {}
    for i, first in enumerate(variants):
        for second in variants[i + 1 :]:
            pairwise[f"{first}|{second}"] = results[first] == results[second]

    sizes = {name: len(results[name]) for name in variants}
    return SchemaIndependenceReport(learner_spec.name, sizes, pairwise, definitions)
