"""Harness sessions: backend/parallelism placement invariance and
cross-validation saturation-store sharing."""

from __future__ import annotations

import pytest

from repro import LearningSession, SessionConfig
from repro.datasets import uwcse
from repro.experiments.harness import (
    LearnerSpec,
    check_schema_independence,
    run_variant,
)
from repro.experiments.tables import foil_spec
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


# --------------------------------------------------------------------- #
# Placement settings threaded through the harness entry points
# --------------------------------------------------------------------- #
#: ``(learner, backend, parallelism)`` placements, each compared against the
#: same learner on single-connection ``sqlite``.  FOIL's batched scoring is
#: the one fan-out, and only ``sqlite-pooled`` takes it; ProGolem runs
#: coverage on the caller's thread and ignores it with a warning.
PLACEMENTS = [
    ("progolem", "memory", None),
    ("progolem", "sqlite-pooled", 1),
    ("progolem", "sqlite-pooled", 2),
    ("foil", "sqlite-pooled", 2),
]
PLACEMENT_IDS = [
    "memory",
    "sqlite-pooled-p1",
    "sqlite-pooled-p2",
    "foil-sqlite-pooled-p2",
]

SPECS = {"progolem": progolem_spec, "foil": foil_spec}


def placed(backend, parallelism=None) -> LearningSession:
    return LearningSession(SessionConfig(backend=backend, parallelism=parallelism))


@pytest.fixture(scope="module")
def baseline(tiny_bundle):
    """``learner -> harness results`` on the ``sqlite`` backend."""
    variants = tiny_bundle.variant_names[:2]
    results = {}

    def get(learner):
        if learner not in results:
            spec = SPECS[learner]
            with placed("sqlite") as session:
                results[learner] = {
                    "run": run_variant(
                        tiny_bundle, variants[0], spec(), folds=2, session=session
                    ),
                    "independence": check_schema_independence(
                        tiny_bundle, spec(), variants=variants, session=session
                    ),
                }
        return results[learner]

    return get


@pytest.mark.parametrize(
    "learner,backend,parallelism", PLACEMENTS, ids=PLACEMENT_IDS
)
def test_run_variant_is_placement_invariant(
    tiny_bundle, baseline, learner, backend, parallelism, ignored_fan_out
):
    expected = baseline(learner)["run"]
    with placed(backend, parallelism) as session, ignored_fan_out(
        learner, parallelism
    ):
        result = run_variant(
            tiny_bundle,
            tiny_bundle.variant_names[0],
            SPECS[learner](),
            folds=2,
            session=session,
        )
    assert as_key(result) == as_key(expected)


@pytest.mark.parametrize(
    "learner,backend,parallelism", PLACEMENTS, ids=PLACEMENT_IDS
)
def test_check_schema_independence_is_placement_invariant(
    tiny_bundle, baseline, learner, backend, parallelism, ignored_fan_out
):
    expected = baseline(learner)["independence"]
    with placed(backend, parallelism) as session, ignored_fan_out(
        learner, parallelism
    ):
        result = check_schema_independence(
            tiny_bundle,
            SPECS[learner](),
            variants=tiny_bundle.variant_names[:2],
            session=session,
        )
    assert result.result_sizes == expected.result_sizes
    assert result.pairwise_equivalent == expected.pairwise_equivalent


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


# --------------------------------------------------------------------- #
# Saturation-store sharing across folds
# --------------------------------------------------------------------- #
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
    with placed("sqlite") as session:
        run_variant(
            tiny_bundle,
            tiny_bundle.variant_names[0],
            spec,
            folds=2,
            session=session,
        )
    stores = {id(learner.saturation_store) for learner in seen}
    assert len(seen) >= 2, "cross-validation should build one learner per fold"
    assert len(stores) == 1
    assert isinstance(seen[0].saturation_store, SaturationStore)
