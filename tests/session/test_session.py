"""LearningSession: learners built by the session, warm reuse, lifecycle."""

from __future__ import annotations

import pytest

from repro import LearningSession, SessionConfig
from repro.castor.bottom_clause import CastorBottomClauseConfig
from repro.castor.castor import CastorLearner, CastorParameters
from repro.datasets import uwcse
from repro.experiments.harness import LearnerSpec, run_schema_sweep, run_variant
from repro.foil.foil import FoilParameters
from repro.learning.bottom_clause import BottomClauseConfig
from repro.learning.coverage import QueryCoverageEngine, SubsumptionCoverageEngine
from repro.logic.clauses import HornClause
from repro.progolem.progolem import ProGolemLearner, ProGolemParameters
from repro.session.session import SessionLearner, _learner_kinds


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
# Learners come from the session
# --------------------------------------------------------------------- #
def test_every_registry_kind_constructs(tiny_bundle):
    """Every advertised kind constructs through the session, and no learner
    holds a backend of its own: the session places the instance."""
    schema = tiny_bundle.schema(tiny_bundle.variant_names[0])
    with LearningSession(SessionConfig(backend="sqlite-pooled")) as session:
        for kind, learner_class in _learner_kinds().items():
            learner = session.learner(kind, schema)
            assert type(learner.wrapped) is learner_class, kind
            assert not hasattr(learner.wrapped, "backend"), kind


def test_registry_kinds_take_parameters(tiny_bundle):
    """parameters= reaches the right slot on every kind (aleph-foil's
    leading clause_length positional is the trap)."""
    from repro.progol.progol import ProgolParameters

    schema = tiny_bundle.schema(tiny_bundle.variant_names[0])
    params = ProgolParameters(clause_length=4)
    with LearningSession(SessionConfig()) as session:
        learner = session.learner("aleph-foil", schema, params)
        assert learner.parameters is params


def test_repeat_sweeps_stay_warm(tiny_bundle):
    """A second sweep on one session reuses the converted bundle, the
    prepared instances, and the saturation stores (no cache growth)."""
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        run_schema_sweep(
            tiny_bundle, [progolem_spec()],
            variants=tiny_bundle.variant_names[:1], folds=2, session=session,
        )
        instances_after_first = dict(session._instances)
        stores_after_first = dict(session._stores)
        run_schema_sweep(
            tiny_bundle, [progolem_spec()],
            variants=tiny_bundle.variant_names[:1], folds=2, session=session,
        )
        assert session._instances == instances_after_first
        assert session._stores == stores_after_first


@pytest.mark.parametrize(
    "kind,parameters_class", [("foil", FoilParameters)], ids=["foil"]
)
def test_learn_scores_at_the_learner_parallelism(
    kind, parameters_class, tiny_bundle, monkeypatch
):
    """learn() through the session hands the session's parallelism to the
    query engine its clause learner scores candidates with (FOIL's one
    fan-out)."""
    widths = []
    build = QueryCoverageEngine.__init__

    def spy(self, instance, parallelism=1):
        widths.append(parallelism)
        build(self, instance, parallelism)

    monkeypatch.setattr(QueryCoverageEngine, "__init__", spy)
    variant = tiny_bundle.variant_names[0]
    # A zero deadline stops the covering loop before its first clause: the
    # engine is built by then, and the test stays fast.
    config = SessionConfig(backend="sqlite-pooled", parallelism=3)
    with LearningSession(config) as session:
        learner = session.learner(
            kind, tiny_bundle.schema(variant), parameters_class(max_seconds=0.0)
        )
        learner.learn(tiny_bundle.instance(variant), tiny_bundle.examples)
    assert widths == [3]


#: Compiled statements a subsumption engine runs for one two-example
#: question on each backend: one over the saturation store where the backend
#: has compiled queries, none where the Python kernel answers.
COMPILED_STATEMENTS = {"memory": 0, "sqlite": 1, "sqlite-pooled": 1}

#: The registry kinds that decide coverage by subsumption (FOIL runs queries).
SUBSUMPTION_KINDS = ("castor", "progolem", "progol", "aleph-foil")


class _EngineBuilt(Exception):
    """Stops ``learn()`` as soon as its coverage engine exists."""


@pytest.mark.parametrize("backend", sorted(COMPILED_STATEMENTS))
@pytest.mark.parametrize("kind", SUBSUMPTION_KINDS)
def test_the_backend_decides_the_subsumption_procedure(
    kind, backend, tiny_bundle, monkeypatch
):
    """The coverage engine a learner builds runs on the session's prepared
    instance, answers a multi-example question with one compiled statement
    exactly on the SQLite backends, and materializes into the session's
    shared store."""
    build = SubsumptionCoverageEngine.__init__

    def stop_once_built(self, *args, **kwargs):
        build(self, *args, **kwargs)
        raise _EngineBuilt(self)

    monkeypatch.setattr(SubsumptionCoverageEngine, "__init__", stop_once_built)
    variant = tiny_bundle.variant_names[0]
    # A private copy: preparing on memory marks the instance itself managed,
    # and later tests mutate the module's shared one directly.
    instance = tiny_bundle.instance(variant).copy()
    with LearningSession(SessionConfig(backend=backend)) as session:
        learner = session.learner(kind, tiny_bundle.schema(variant))
        with pytest.raises(_EngineBuilt) as built:
            learner.learn(instance, tiny_bundle.examples)
        engine = built.value.args[0]
        prepared = session.prepare(instance)
        assert engine.instance is prepared
        assert prepared.backend_name == backend
        store = session.saturation_store_for(prepared, learner.wrapped)
        assert engine._compiled_store is store
        examples = tiny_bundle.examples.positives[:2]
        bottom = engine.builder.build(examples[0])
        assert bottom.body
        engine.covered_examples(HornClause(bottom.head, bottom.body[:2]), examples)
        assert engine.compiled_statements == COMPILED_STATEMENTS[backend]
        assert (store.existing_id(examples[0].target, examples[0].values) is None) == (
            backend == "memory"
        )


def test_session_learner_registry(tiny_bundle):
    schema = tiny_bundle.schema(tiny_bundle.variant_names[0])
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        learner = session.learner("progolem", schema, progolem_parameters())
        assert isinstance(learner, SessionLearner)
        assert isinstance(learner.wrapped, ProGolemLearner)
        with pytest.raises(ValueError, match="castor"):
            session.learner("no-such-learner", schema)


def test_an_unknown_kind_lists_the_five_registered_kinds(tiny_bundle):
    schema = tiny_bundle.schema(tiny_bundle.variant_names[0])
    with LearningSession(SessionConfig()) as session:
        with pytest.raises(ValueError) as error:
            session.learner("no-such-learner", schema)
    kinds = ["aleph-foil", "castor", "foil", "progol", "progolem"]
    assert str(error.value).endswith(f"available: {kinds}")


# --------------------------------------------------------------------- #
# Warm session runs learn what cold ones do
# --------------------------------------------------------------------- #
def test_warm_repeat_runs_match_a_cold_run(tiny_bundle):
    """A cold per-call session and a warm shared one learn the same."""
    variant = tiny_bundle.variant_names[0]
    with LearningSession(SessionConfig(backend="sqlite")) as cold:
        per_call = run_variant(
            tiny_bundle, variant, progolem_spec(), folds=2, session=cold
        )
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        first, repeat = (
            run_variant(tiny_bundle, variant, progolem_spec(), folds=2, session=session)
            for _ in range(2)
        )
    assert as_key(first) == as_key(per_call)
    assert as_key(repeat) == as_key(per_call)


def test_session_learner_learn_matches_direct_learner(tiny_bundle):
    """A learner run directly on an instance converted by hand learns what
    the same learner learns through a session on that backend."""
    variant = tiny_bundle.variant_names[0]
    schema = tiny_bundle.schema(variant)
    instance = tiny_bundle.instance(variant)
    direct = ProGolemLearner(schema, progolem_parameters()).learn(
        instance.with_backend("sqlite"), tiny_bundle.examples
    )
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        learner = session.learner("progolem", schema, progolem_parameters())
        through_session = learner.learn(instance, tiny_bundle.examples)
    assert sorted(map(str, through_session)) == sorted(map(str, direct))


def test_repeated_runs_share_one_store_and_instance(tiny_bundle):
    """Repeat harness calls on one session run on one prepared instance
    and one saturation store."""
    variant = tiny_bundle.variant_names[0]
    source = tiny_bundle.instance(variant)
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        run_variant(tiny_bundle, variant, progolem_spec(), folds=2, session=session)
        prepared_first = session.prepare(source)
        stores_first = dict(session._stores)
        run_variant(tiny_bundle, variant, progolem_spec(), folds=2, session=session)
        assert session.prepare(source) is prepared_first
        assert len(stores_first) == 1
        assert session._stores == stores_first


def test_castor_runs_leave_parameters_and_store_key_unchanged(tiny_bundle):
    """Learning never writes to Castor's parameters, so repeat runs of one
    learner object key (and warm) the same saturation store.  The store key
    is the pickled ``(learner type, parameters)`` pair."""
    variant = tiny_bundle.variant_names[0]
    parameters = CastorParameters(
        sample_size=2,
        beam_width=2,
        max_armg_rounds=2,
        max_clauses=4,
        bottom_clause=CastorBottomClauseConfig(
            max_depth=2, max_total_literals=20, use_subset_inds=True
        ),
    )
    learner = CastorLearner(tiny_bundle.schema(variant), parameters)
    spec = LearnerSpec("Castor", lambda schema: learner)
    key = LearningSession._learner_fingerprint(learner)
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        run_variant(tiny_bundle, variant, spec, folds=1, session=session)
        assert LearningSession._learner_fingerprint(learner) == key
        assert len(session._stores) == 1
        run_variant(tiny_bundle, variant, spec, folds=1, session=session)
        assert LearningSession._learner_fingerprint(learner) == key
        assert len(session._stores) == 1


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
    isolated = []
    for spec in (progolem_spec(), deep_spec):
        with LearningSession(SessionConfig(backend="sqlite")) as session:
            isolated.append(
                run_variant(tiny_bundle, variant, spec, folds=2, session=session)
            )
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        swept = run_schema_sweep(
            tiny_bundle, [progolem_spec(), deep_spec],
            variants=[variant], folds=2, session=session,
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
