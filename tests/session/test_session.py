"""LearningSession: uniform learner construction, warm reuse, lifecycle."""

from __future__ import annotations

import pytest

from repro import LearningSession, SessionConfig
from repro.castor.castor import CastorLearner
from repro.datasets import uwcse
from repro.experiments.harness import LearnerSpec, run_variant
from repro.foil.foil import FoilLearner
from repro.golem.golem import GolemLearner
from repro.learning.bottom_clause import BottomClauseConfig
from repro.progolem.progolem import ProGolemLearner, ProGolemParameters
from repro.session.session import SessionLearner


@pytest.fixture(scope="module")
def tiny_bundle():
    return uwcse.load(
        uwcse.UwCseConfig(num_students=10, num_professors=3, num_courses=5), seed=5
    )


def progolem_parameters() -> ProGolemParameters:
    return ProGolemParameters(
        sample_size=2,
        beam_width=2,
        max_armg_rounds=2,
        max_clauses=4,
        bottom_clause=BottomClauseConfig(max_depth=2, max_total_literals=20),
    )


def progolem_spec() -> LearnerSpec:
    return LearnerSpec(
        "ProGolem", lambda schema: ProGolemLearner(schema, progolem_parameters())
    )


def as_key(result):
    clauses = [str(c) for c in result.definition] if result.definition else []
    return (
        round(result.precision, 9),
        round(result.recall, 9),
        round(result.f1, 9),
        result.folds,
        clauses,
    )


# --------------------------------------------------------------------- #
# Uniform context= construction
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "learner_class", [CastorLearner, FoilLearner, GolemLearner, ProGolemLearner]
)
def test_every_learner_takes_context(learner_class, tiny_bundle):
    config = SessionConfig(backend="sqlite-pooled", parallelism=3)
    learner = learner_class(
        tiny_bundle.schema(tiny_bundle.variant_names[0]), context=config
    )
    assert learner.parallelism == 3
    assert learner.backend == "sqlite-pooled"


def test_session_doubles_as_context(tiny_bundle):
    with LearningSession(SessionConfig(parallelism=2)) as session:
        learner = ProGolemLearner(
            tiny_bundle.schema(tiny_bundle.variant_names[0]), context=session
        )
        assert learner.parallelism == 2


def test_session_context_pushes_local_backend(tiny_bundle):
    """context=session must not silently drop the configured backend on a
    bare constructor — learn() without session.prepare still converts."""
    with LearningSession(SessionConfig(backend="sqlite-pooled")) as session:
        learner = ProGolemLearner(
            tiny_bundle.schema(tiny_bundle.variant_names[0]), context=session
        )
        assert learner.backend == "sqlite-pooled"


def test_every_registry_kind_constructs(tiny_bundle):
    """Every advertised kind — including progol/aleph-foil — takes context=."""
    schema = tiny_bundle.schema(tiny_bundle.variant_names[0])
    with LearningSession(SessionConfig(parallelism=2)) as session:
        for kind in ("castor", "foil", "golem", "progolem", "progol", "aleph-foil"):
            learner = session.learner(kind, schema)
            assert learner.parallelism == 2, kind


def test_registry_kinds_take_parameters(tiny_bundle):
    """parameters= reaches the right slot on every kind (aleph-foil's
    leading clause_length positional is the trap)."""
    from repro.progol.progol import ProgolParameters

    schema = tiny_bundle.schema(tiny_bundle.variant_names[0])
    params = ProgolParameters(clause_length=4)
    with LearningSession(SessionConfig()) as session:
        learner = session.learner("aleph-foil", schema, params)
        assert learner.parameters is params
        spec = session._as_spec("aleph-foil", params)
        assert spec.build(schema).parameters is params


def test_repeat_sweeps_stay_warm(tiny_bundle):
    """A second sweep on one session reuses the converted bundle, the
    prepared instances, and the saturation stores (no cache growth)."""
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        session.sweep(
            tiny_bundle, [progolem_spec()],
            variants=tiny_bundle.variant_names[:1], folds=2,
        )
        instances_after_first = dict(session._instances)
        stores_after_first = dict(session._stores)
        session.sweep(
            tiny_bundle, [progolem_spec()],
            variants=tiny_bundle.variant_names[:1], folds=2,
        )
        assert session._instances == instances_after_first
        assert session._stores == stores_after_first


def test_session_learner_registry(tiny_bundle):
    schema = tiny_bundle.schema(tiny_bundle.variant_names[0])
    with LearningSession(SessionConfig(parallelism=2)) as session:
        learner = session.learner("progolem", schema, progolem_parameters())
        assert isinstance(learner, SessionLearner)
        assert isinstance(learner.wrapped, ProGolemLearner)
        assert learner.parallelism == 2
        with pytest.raises(ValueError, match="castor"):
            session.learner("no-such-learner", schema)


# --------------------------------------------------------------------- #
# session.run / session.learner parity with the per-run path
# --------------------------------------------------------------------- #
def test_session_run_matches_legacy_run_variant(tiny_bundle):
    variant = tiny_bundle.variant_names[0]
    legacy = run_variant(
        tiny_bundle, variant, progolem_spec(), folds=2, backend="sqlite"
    )
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        through_session = session.run(tiny_bundle, variant, progolem_spec(), folds=2)
        repeat = session.run(tiny_bundle, variant, progolem_spec(), folds=2)
    assert as_key(through_session) == as_key(legacy)
    assert as_key(repeat) == as_key(legacy)


def test_session_learner_learn_matches_direct_learner(tiny_bundle):
    variant = tiny_bundle.variant_names[0]
    schema = tiny_bundle.schema(variant)
    instance = tiny_bundle.instance(variant)
    direct = ProGolemLearner(
        schema, progolem_parameters(), backend="sqlite"
    ).learn(instance, tiny_bundle.examples)
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        learner = session.learner("progolem", schema, progolem_parameters())
        through_session = learner.learn(instance, tiny_bundle.examples)
    assert sorted(map(str, through_session)) == sorted(map(str, direct))


def test_repeated_runs_share_one_store_and_instance(tiny_bundle):
    variant = tiny_bundle.variant_names[0]
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        prepared_first = session.prepare(tiny_bundle.instance(variant))
        store_first = session.saturation_store_for(prepared_first)
        session.run(tiny_bundle, variant, progolem_spec(), folds=2)
        prepared_second = session.prepare(tiny_bundle.instance(variant))
        store_second = session.saturation_store_for(prepared_second)
        assert prepared_first is prepared_second
        assert store_first is store_second


def test_constructed_learner_follows_the_variant_schema(tiny_bundle):
    """A pre-built learner passed to sweep/check is rebound to each
    variant's schema instead of silently learning with the wrong one."""
    variants = tiny_bundle.variant_names[:2]
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        by_factory = session.sweep(
            tiny_bundle, [progolem_spec()], variants=variants, folds=2
        )
    constructed = ProGolemLearner(
        tiny_bundle.schema(variants[0]), progolem_parameters()
    )
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        by_object = session.sweep(
            tiny_bundle, [constructed], variants=variants, folds=2
        )
        # Other variants learn on a per-variant clone; the caller's object
        # is never left mutated.
        assert constructed.schema is tiny_bundle.schema(variants[0])
    assert [as_key(r) for r in by_object] == [as_key(r) for r in by_factory]


def test_stores_are_keyed_per_saturation_config(tiny_bundle):
    """Same-configured learners share a warm store; learners whose builders
    construct different saturations never do (the store dedups by example,
    so sharing across configs would answer coverage from foreign clauses)."""
    variant = tiny_bundle.variant_names[0]
    schema = tiny_bundle.schema(variant)
    shallow = progolem_parameters()
    deep = ProGolemParameters(
        sample_size=2,
        beam_width=2,
        max_armg_rounds=2,
        max_clauses=4,
        bottom_clause=BottomClauseConfig(max_depth=3, max_total_literals=40),
    )
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        prepared = session.prepare(tiny_bundle.instance(variant))
        store_a = session.saturation_store_for(
            prepared, ProGolemLearner(schema, shallow)
        )
        store_a_again = session.saturation_store_for(
            prepared, ProGolemLearner(schema, shallow)
        )
        store_b = session.saturation_store_for(
            prepared, ProGolemLearner(schema, deep)
        )
        assert store_a is store_a_again, "same config must share the store"
        assert store_a is not store_b, "different configs must not"


def test_multi_spec_sweep_matches_per_run_path(tiny_bundle):
    """A sweep mixing differently-configured specs produces the same
    definitions as running each spec in isolation."""
    variant = tiny_bundle.variant_names[0]
    deep_spec = LearnerSpec(
        "ProGolem-deep",
        lambda schema: ProGolemLearner(
            schema,
            ProGolemParameters(
                sample_size=2,
                beam_width=2,
                max_armg_rounds=2,
                max_clauses=4,
                bottom_clause=BottomClauseConfig(
                    max_depth=3, max_total_literals=40
                ),
            ),
        ),
    )
    isolated = [
        run_variant(tiny_bundle, variant, spec, folds=2, backend="sqlite")
        for spec in (progolem_spec(), deep_spec)
    ]
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        swept = session.sweep(
            tiny_bundle, [progolem_spec(), deep_spec],
            variants=[variant], folds=2,
        )
    assert [as_key(r) for r in swept] == [as_key(r) for r in isolated]


def test_source_mutations_invalidate_the_prepared_cache(tiny_bundle):
    """Mutating the source instance between runs re-converts and drops the
    stale saturation stores (legacy per-learn() conversion semantics)."""
    source = tiny_bundle.instance(tiny_bundle.variant_names[0])
    relation = source.schema.relations[0]
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        first = session.prepare(source)
        store = session.saturation_store_for(first)
        assert store is not None and session._stores
        source.add_tuples(relation.name, [("mutation-witness",) * len(relation.attributes)])
        second = session.prepare(source)
        assert second is not first, "stale conversion must be replaced"
        assert ("mutation-witness",) * len(relation.attributes) in second.relation(
            relation.name
        ).rows
        assert not any(key[0] == id(first) for key in session._stores)


def test_storeless_learner_opens_no_store(tiny_bundle):
    """FOIL through a session never opens a SaturationStore connection."""
    variant = tiny_bundle.variant_names[0]
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        learner = session.learner("foil", tiny_bundle.schema(variant))
        learner.learn(tiny_bundle.instance(variant), tiny_bundle.examples)
        assert session._stores == {}


def test_reuse_disabled_hands_out_no_store(tiny_bundle):
    variant = tiny_bundle.variant_names[0]
    with LearningSession(
        SessionConfig(backend="sqlite", reuse_saturation_store=False)
    ) as session:
        prepared = session.prepare(tiny_bundle.instance(variant))
        assert session.saturation_store_for(prepared) is None
        assert session.store_supplier(prepared) is None


# --------------------------------------------------------------------- #
# Harness integration rules
# --------------------------------------------------------------------- #
def test_per_call_knobs_rejected_with_explicit_session(tiny_bundle):
    variant = tiny_bundle.variant_names[0]
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        with pytest.raises(ValueError, match="SessionConfig"):
            run_variant(
                tiny_bundle, variant, progolem_spec(), backend="memory",
                session=session,
            )
        with pytest.raises(ValueError, match="parallelism"):
            run_variant(
                tiny_bundle, variant, progolem_spec(), parallelism=2,
                session=session,
            )


# --------------------------------------------------------------------- #
# Lifecycle safety
# --------------------------------------------------------------------- #
def test_close_is_idempotent_and_blocks_reuse(tiny_bundle):
    session = LearningSession(SessionConfig(backend="sqlite"))
    session.prepare(tiny_bundle.instance(tiny_bundle.variant_names[0]))
    session.close()
    session.close()  # idempotent
    assert session.closed
    with pytest.raises(RuntimeError, match="closed"):
        session.prepare(tiny_bundle.instance(tiny_bundle.variant_names[0]))
    with pytest.raises(RuntimeError, match="closed"):
        with session:
            pass


def test_context_manager_closes(tiny_bundle):
    with LearningSession(SessionConfig()) as session:
        assert not session.closed
    assert session.closed


def test_close_releases_bundle_converted_instances(tiny_bundle):
    """Instances materialized inside a session-converted bundle (the sweep
    path) are owned by the session and released with it."""
    session = LearningSession(SessionConfig(backend="sqlite-pooled"))
    converted = session.prepare_bundle(tiny_bundle)
    assert converted is not tiny_bundle
    instance = converted.instance(tiny_bundle.variant_names[0])
    assert instance.backend_name == "sqlite-pooled"
    assert converted._materialized
    session.close()
    assert not converted._materialized
