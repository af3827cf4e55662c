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
:class:`~repro.session.config.SessionConfig`): pass ``session=`` to share
one session — and therefore one set of prepared instances and saturation
stores — across many calls, or keep passing the legacy
``backend=``/``parallelism=`` keywords and the harness wraps them in a
per-call session for you.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from ..database.schema import Schema
from ..learning.evaluation import CrossValidationReport, cross_validate, evaluate_definition
from ..logic.clauses import HornDefinition
from ..session.config import SessionConfig, warn_once as _warn_once
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


def _reject_knobs_with_session(**knobs: object) -> None:
    """Per-call knobs and an explicit session cannot both win — say so."""
    set_knobs = {name: value for name, value in knobs.items() if value is not None}
    if set_knobs:
        raise ValueError(
            f"{sorted(set_knobs)} cannot be combined with session=; "
            "configure them on the session's SessionConfig instead"
        )


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


def _session_for(
    session: Optional[LearningSession],
    backend: Optional[str],
    parallelism: Optional[int],
    reuse_saturation_store: bool = True,
) -> tuple:
    """Resolve the (session, owns_session) pair every entry point needs.

    The owned config never carries ``presaturate``: the keyword stays the
    single source of truth inside :func:`run_variant` (including the
    legacy warn-and-run path for ``presaturate`` without a shared store,
    which direct ``SessionConfig`` construction rejects).
    """
    if session is not None:
        _reject_knobs_with_session(backend=backend, parallelism=parallelism)
        return session, False
    owned = LearningSession(
        SessionConfig(
            backend=backend,
            parallelism=parallelism,
            reuse_saturation_store=reuse_saturation_store,
        )
    )
    return owned, True


def run_variant(
    bundle,
    variant_name: str,
    learner_spec: LearnerSpec,
    folds: int = 3,
    seed: int = 0,
    backend: Optional[str] = None,
    parallelism: Optional[int] = None,
    reuse_saturation_store: bool = True,
    presaturate: bool = False,
    session: Optional[LearningSession] = None,
) -> VariantResult:
    """Cross-validate one learner on one schema variant of the dataset.

    With ``session=`` the run rides that session's prepared instances and
    shared saturation stores (repeat calls start warm; ``backend`` and
    ``parallelism`` then live on the session's :class:`SessionConfig` and
    may not be passed here).  Without it, the legacy keywords are wrapped
    in a per-call session: ``backend`` selects the storage/evaluation
    backend, ``parallelism`` the clause-scoring fan-out (results are
    identical for every value; only wall-clock time changes).  With
    ``reuse_saturation_store`` (default),
    learners with compiled subsumption coverage share one warm
    :class:`SaturationStore` across the folds of this variant; fold
    results are identical either way.  ``presaturate`` additionally
    materializes every example's saturation into that shared store
    *before* the folds run — one batched call, excluded from the per-fold
    learning times.
    """
    session, owns_session = _session_for(
        session, backend, parallelism, reuse_saturation_store
    )
    config = session.config
    effective_reuse = reuse_saturation_store and config.reuse_saturation_store
    effective_presaturate = presaturate or config.presaturate
    try:
        schema = bundle.schema(variant_name)
        instance = session.prepare(bundle.instance(variant_name))
        supplier = session.store_supplier(instance) if effective_reuse else None

        def factory() -> object:
            learner = session.apply(learner_spec.build(schema))
            if supplier is not None and hasattr(learner, "saturation_store"):
                # Keyed by the learner's saturation config: folds and
                # repeat runs of one spec share a warm store, differently
                # configured learners never do.
                learner.saturation_store = supplier(learner)
            return learner

        if effective_presaturate:
            if effective_reuse:
                session.presaturate(factory(), instance, bundle.examples)
            else:
                # Without a shared store the warm-up would be thrown away
                # with the first fold's engine — say so, don't double-pay.
                _warn_once(
                    "presaturate=True has no effect with "
                    "reuse_saturation_store=False; ignoring it"
                )

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
    finally:
        if owns_session:
            session.close()


def run_schema_sweep(
    bundle,
    learner_specs: Sequence[LearnerSpec],
    variants: Optional[Sequence[str]] = None,
    folds: int = 3,
    seed: int = 0,
    backend: Optional[str] = None,
    parallelism: Optional[int] = None,
    reuse_saturation_store: bool = True,
    presaturate: bool = False,
    session: Optional[LearningSession] = None,
) -> List[VariantResult]:
    """Run every learner on every schema variant (one of the paper's tables).

    The whole sweep shares one session (the caller's or a per-call one), so
    every learner×variant cell after the first on a variant starts from
    that variant's warm instance and saturation store.
    """
    session, owns_session = _session_for(
        session, backend, parallelism, reuse_saturation_store
    )
    try:
        variants = list(variants or bundle.variant_names)
        # Convert once up front (and once per *session*, not per call): the
        # converted bundle caches the re-materialized instance per variant,
        # so repeat sweeps on one session land on the same instances and
        # stores.
        bundle = session.prepare_bundle(bundle)
        results: List[VariantResult] = []
        for learner_spec in learner_specs:
            for variant_name in variants:
                results.append(
                    run_variant(
                        bundle,
                        variant_name,
                        learner_spec,
                        folds,
                        seed,
                        reuse_saturation_store=reuse_saturation_store,
                        presaturate=presaturate,
                        session=session,
                    )
                )
        return results
    finally:
        if owns_session:
            session.close()


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
    def is_schema_independent(self) -> bool:
        """True when the learner produced equivalent outputs on every variant pair."""
        return all(self.pairwise_equivalent.values())

    def as_dict(self) -> Dict[str, object]:
        return {
            "learner": self.learner,
            "schema_independent": self.is_schema_independent,
            "result_sizes": dict(self.result_sizes),
            "pairwise_equivalent": dict(self.pairwise_equivalent),
        }

    def __repr__(self) -> str:
        return (
            f"SchemaIndependenceReport({self.learner!r}, "
            f"independent={self.is_schema_independent})"
        )


def check_schema_independence(
    bundle,
    learner_spec: LearnerSpec,
    variants: Optional[Sequence[str]] = None,
    seed: int = 0,
    backend: Optional[str] = None,
    parallelism: Optional[int] = None,
    session: Optional[LearningSession] = None,
) -> SchemaIndependenceReport:
    """Learn on every variant with the full training data and compare outputs.

    The comparison is semantic: each learned definition is evaluated on its
    own variant's instance and the result relations are compared across
    variants (Definition 3.10 instantiated on the actual data).
    """
    del seed  # accepted for signature compatibility; learning is seeded by parameters
    session, owns_session = _session_for(session, backend, parallelism)
    try:
        variants = list(variants or bundle.variant_names)
        bundle = session.prepare_bundle(bundle)
        definitions: Dict[str, HornDefinition] = {}
        results: Dict[str, frozenset] = {}
        for variant_name in variants:
            schema = bundle.schema(variant_name)
            instance = session.prepare(bundle.instance(variant_name))
            learner = learner_spec.build(schema)
            store = (
                session.saturation_store_for(instance, learner)
                if hasattr(learner, "saturation_store")
                else None
            )
            session.apply(learner, saturation_store=store)
            if session.config.presaturate:
                # Honored here like in run_variant: an explicit setting is
                # never silently ignored (warn paths live in presaturate).
                session.presaturate(learner, instance, bundle.examples)
            definition = learner.learn(instance, bundle.examples)
            definitions[variant_name] = definition
            results[variant_name] = frozenset(
                definition_results(definition, instance)
            )
    finally:
        if owns_session:
            session.close()

    pairwise: Dict[str, bool] = {}
    for i, first in enumerate(variants):
        for second in variants[i + 1 :]:
            pairwise[f"{first}|{second}"] = results[first] == results[second]

    sizes = {name: len(results[name]) for name in variants}
    return SchemaIndependenceReport(learner_spec.name, sizes, pairwise, definitions)
