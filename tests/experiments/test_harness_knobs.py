"""Harness knobs: backend/parallelism placement invariance and
cross-validation saturation-store reuse."""

from __future__ import annotations

import pytest

from repro.database import RelationSchema, Schema
from repro.datasets import uwcse
from repro.experiments.harness import (
    LearnerSpec,
    check_schema_independence,
    run_variant,
)
from repro.progolem.progolem import ProGolemLearner, ProGolemParameters
from repro.learning.bottom_clause import BottomClauseConfig


@pytest.fixture(scope="module")
def tiny_bundle():
    return uwcse.load(
        uwcse.UwCseConfig(num_students=10, num_professors=3, num_courses=5), seed=5
    )


def progolem_spec() -> LearnerSpec:
    def factory(schema):
        return ProGolemLearner(
            schema,
            ProGolemParameters(
                sample_size=2,
                beam_width=2,
                max_armg_rounds=2,
                max_clauses=4,
                bottom_clause=BottomClauseConfig(max_depth=2, max_total_literals=20),
            ),
        )

    return LearnerSpec("ProGolem", factory)


def test_learners_accept_saturation_store_kwarg():
    """Both bottom-up learners take saturation_store= at construction."""
    from repro.castor.castor import CastorLearner
    from repro.database.sqlite_backend import SaturationStore

    schema = Schema([RelationSchema("r", ["a"])], name="s")
    store = SaturationStore()
    assert CastorLearner(schema, saturation_store=store).saturation_store is store
    assert ProGolemLearner(schema, saturation_store=store).saturation_store is store


# --------------------------------------------------------------------- #
# Placement knobs threaded through the harness entry points
# --------------------------------------------------------------------- #
#: ``(backend, parallelism)`` placements compared against single-connection
#: ``sqlite``.
PLACEMENTS = [
    ("memory", None),
    ("memory", 2),
    ("sqlite-pooled", 1),
    ("sqlite-pooled", 2),
]
PLACEMENT_IDS = ["memory", "memory-p2", "sqlite-pooled-p1", "sqlite-pooled-p2"]


@pytest.fixture(scope="module")
def baseline(tiny_bundle):
    """Harness results on the ``sqlite`` backend."""
    variants = tiny_bundle.variant_names[:2]
    return {
        "run": run_variant(
            tiny_bundle, variants[0], progolem_spec(), folds=2, backend="sqlite"
        ),
        "independence": check_schema_independence(
            tiny_bundle, progolem_spec(), variants=variants, backend="sqlite"
        ),
    }


@pytest.mark.parametrize("backend,parallelism", PLACEMENTS, ids=PLACEMENT_IDS)
def test_run_variant_is_placement_invariant(
    tiny_bundle, baseline, backend, parallelism
):
    result = run_variant(
        tiny_bundle,
        tiny_bundle.variant_names[0],
        progolem_spec(),
        folds=2,
        backend=backend,
        parallelism=parallelism,
    )
    assert as_key(result) == as_key(baseline["run"])


@pytest.mark.parametrize("backend,parallelism", PLACEMENTS, ids=PLACEMENT_IDS)
def test_check_schema_independence_is_placement_invariant(
    tiny_bundle, baseline, backend, parallelism
):
    result = check_schema_independence(
        tiny_bundle,
        progolem_spec(),
        variants=tiny_bundle.variant_names[:2],
        backend=backend,
        parallelism=parallelism,
    )
    expected = baseline["independence"]
    assert result.result_sizes == expected.result_sizes
    assert result.pairwise_equivalent == expected.pairwise_equivalent


# --------------------------------------------------------------------- #
# Saturation-store reuse across folds
# --------------------------------------------------------------------- #
def as_key(result):
    definition = result.definition
    clauses = sorted(str(c) for c in definition) if definition else []
    return (
        round(result.precision, 9),
        round(result.recall, 9),
        round(result.f1, 9),
        result.folds,
        clauses,
    )


def test_fold_results_identical_with_and_without_store_reuse(tiny_bundle):
    """Satellite: reusing one SaturationStore across folds changes timing
    only — metrics and learned definitions are identical."""
    variant = tiny_bundle.variant_names[0]
    fresh = run_variant(
        tiny_bundle,
        variant,
        progolem_spec(),
        folds=3,
        backend="sqlite",
        reuse_saturation_store=False,
    )
    reused = run_variant(
        tiny_bundle,
        variant,
        progolem_spec(),
        folds=3,
        backend="sqlite",
        reuse_saturation_store=True,
    )
    assert as_key(fresh) == as_key(reused)


def test_store_is_shared_across_fold_learners(tiny_bundle):
    """The factory hands every fold learner the same store object."""
    from repro.database.sqlite_backend import SaturationStore

    spec = progolem_spec()
    seen = []
    original_factory = spec.factory

    def spying_factory(schema_arg):
        learner = original_factory(schema_arg)
        seen.append(learner)
        return learner

    spec.factory = spying_factory
    run_variant(
        tiny_bundle,
        tiny_bundle.variant_names[0],
        spec,
        folds=2,
        backend="sqlite",
        reuse_saturation_store=True,
    )
    stores = {id(learner.saturation_store) for learner in seen}
    assert len(seen) >= 2, "cross-validation should build one learner per fold"
    assert len(stores) == 1
    assert isinstance(seen[0].saturation_store, SaturationStore)


def test_presaturate_warms_the_shared_store_before_folding(tiny_bundle):
    """presaturate= materializes every example into the shared store up
    front (one batched call) and fold results are unchanged."""
    spec = progolem_spec()
    seen = []
    original_factory = spec.factory

    def spying_factory(schema_arg):
        learner = original_factory(schema_arg)
        seen.append(learner)
        return learner

    spec.factory = spying_factory
    warmed = run_variant(
        tiny_bundle,
        tiny_bundle.variant_names[0],
        spec,
        folds=2,
        backend="sqlite",
        reuse_saturation_store=True,
        presaturate=True,
    )
    store = seen[0].saturation_store
    assert len(store) == len(tiny_bundle.examples.all_examples())

    cold = run_variant(
        tiny_bundle,
        tiny_bundle.variant_names[0],
        progolem_spec(),
        folds=2,
        backend="sqlite",
        reuse_saturation_store=True,
        presaturate=False,
    )
    assert (warmed.precision, warmed.recall, warmed.f1) == (
        cold.precision,
        cold.recall,
        cold.f1,
    )
