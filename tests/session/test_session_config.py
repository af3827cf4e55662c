"""SessionConfig validation: incoherent combos are rejected with actionable
messages; ``LearningSession.bind`` is the one way the settings reach a
learner, and warns once about a fan-out a learner cannot use."""

from __future__ import annotations

import dataclasses
import inspect
import warnings

import pytest

from repro.castor.armg import castor_armg
from repro.castor.castor import CastorClauseLearner, CastorCoverageEngine
from repro.castor.reduction import NegativeReducer
from repro.castor.stored_procedures import (
    StoredProcedureRunner,
    compare_stored_procedure_modes,
)
from repro.database import DatabaseInstance, RelationSchema, Schema, backend_names
from repro.database import backend as backend_module
from repro.database.sqlite_backend import SaturationStore
from repro.foil.foil import FoilLearner
from repro.learning.coverage import BatchCoverageEngine, SubsumptionCoverageEngine
from repro.progolem.armg import armg, find_blocking_atom
from repro.progolem.progolem import ProGolemClauseLearner, ProGolemLearner
from repro.experiments import harness
from repro.experiments.tables import castor_spec
from repro.session import LearningSession, SessionConfig
from repro.session.session import _learner_kinds

BACKENDS = ["memory", "sqlite", "sqlite-pooled"]


def schema() -> Schema:
    return Schema([RelationSchema("r", ["a", "b"])], name="s")


# --------------------------------------------------------------------- #
# Backend-matrix validation
# --------------------------------------------------------------------- #
def test_backends_and_fields_are_the_single_process_set():
    assert backend_names() == tuple(BACKENDS)
    assert [field.name for field in dataclasses.fields(SessionConfig)] == [
        "backend",
        "parallelism",
        "trace",
    ]


@pytest.mark.parametrize("parallelism", [None, 1, 2, 4])
@pytest.mark.parametrize("backend", [None, *BACKENDS])
def test_parallelism_rejected_where_nothing_fans_out(backend, parallelism):
    """A fan-out is valid only on ``sqlite-pooled`` (and on instances left
    as given): ``memory`` evaluates on the caller's thread and ``sqlite``
    serializes every statement on one connection.  The error names the
    fix."""
    if backend in ("memory", "sqlite") and parallelism is not None and parallelism > 1:
        with pytest.raises(ValueError, match=f"'{backend}'.*sqlite-pooled"):
            SessionConfig(backend=backend, parallelism=parallelism)
    else:
        config = SessionConfig(backend=backend, parallelism=parallelism)
        assert (config.backend, config.parallelism) == (backend, parallelism)


def test_unknown_backend_lists_the_registry():
    with pytest.raises(ValueError, match="memory"):
        SessionConfig(backend="voltdb")


def test_out_of_range_counts():
    with pytest.raises(ValueError, match="parallelism"):
        SessionConfig(parallelism=0)


# --------------------------------------------------------------------- #
# bind(): the one way settings reach a learner
# --------------------------------------------------------------------- #
class ConfigKnoblessLearner:
    pass


class OtherKnoblessLearner:
    pass


def bind(config: SessionConfig, learner):
    """``learner`` bound by a session with ``config`` to a prepared instance."""
    with LearningSession(config) as session:
        return session.bind(learner, session.prepare(DatabaseInstance(schema())))


def test_bind_sets_the_knobs_a_learner_exposes():
    learner = FoilLearner(schema())
    config = SessionConfig(backend="sqlite-pooled", parallelism=5)
    assert bind(config, learner) is learner
    assert learner.parallelism == 5


def test_bind_warns_once_on_learners_without_the_knob(fresh_warnings):
    with pytest.warns(RuntimeWarning, match="ConfigKnoblessLearner.*parallelism=3"):
        bind(SessionConfig(parallelism=3), ConfigKnoblessLearner())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Same situation again: silent (already reported).
        bind(SessionConfig(parallelism=3), ConfigKnoblessLearner())
        # An unset knob is never a warning, and neither is no fan-out.
        bind(SessionConfig(), ConfigKnoblessLearner())
        bind(SessionConfig(parallelism=1), OtherKnoblessLearner())
    # A different situation still warns.
    with pytest.warns(RuntimeWarning, match="OtherKnoblessLearner"):
        bind(SessionConfig(parallelism=3), OtherKnoblessLearner())


def test_bind_hands_out_the_shared_saturation_store():
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        instance = session.prepare(DatabaseInstance(schema()))
        learner = session.bind(ProGolemLearner(schema()), instance)
        assert isinstance(learner.saturation_store, SaturationStore)
        assert learner.saturation_store is session.saturation_store_for(
            instance, learner
        )


# --------------------------------------------------------------------- #
# bind() on every registered learner kind
# --------------------------------------------------------------------- #
KINDS = ("castor", "foil", "progolem", "progol", "aleph-foil")


def make_learner(kind):
    return _learner_kinds()[kind](schema())


@pytest.fixture
def fresh_warnings(monkeypatch):
    """Forget earlier warn-once reports so this test sees its own."""
    monkeypatch.setattr(backend_module, "_WARNED", set())


@pytest.mark.parametrize("kind", KINDS)
def test_bind_gives_every_kind_its_settings(kind, fresh_warnings):
    """FOIL alone has a fan-out (the subsumption kinds run coverage on the
    caller's thread) and alone has no store; ``parallelism=1`` is silent
    on the kinds without a fan-out."""
    learner = make_learner(kind)
    assert hasattr(learner, "parallelism") == (kind == "foil")
    assert hasattr(learner, "saturation_store") == (kind != "foil")
    parallelism = 3 if kind == "foil" else 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bind(SessionConfig(backend="sqlite-pooled", parallelism=parallelism), learner)
    assert getattr(learner, "parallelism", 1) == parallelism
    if kind != "foil":
        assert isinstance(learner.saturation_store, SaturationStore)


def test_sessions_sharing_parameters_keep_their_own_parallelism():
    """Regression: two sessions handed one Parameters object used to
    overwrite each other's parallelism through it.  The setting lives on
    each learner, and the caller's object is never written."""
    params = type(make_learner("foil").parameters)()
    before = dict(vars(params))
    configs = (
        SessionConfig(backend="sqlite-pooled", parallelism=4),
        SessionConfig(parallelism=1),
    )
    learners = [bind(config, FoilLearner(schema(), params)) for config in configs]
    assert [learner.parallelism for learner in learners] == [4, 1]
    assert all(learner.parameters is params for learner in learners)
    assert vars(params) == before


#: Engines, searches and drivers that once sized a thread pool or a probe
#: fan-out; coverage now runs on the caller's thread.
NO_FAN_OUT = [
    SubsumptionCoverageEngine,
    CastorCoverageEngine,
    BatchCoverageEngine,
    ProGolemClauseLearner,
    CastorClauseLearner,
    StoredProcedureRunner,
    compare_stored_procedure_modes,
    castor_spec,
    find_blocking_atom,
    armg,
    castor_armg,
    NegativeReducer,
]


@pytest.mark.parametrize("entry", NO_FAN_OUT, ids=lambda entry: entry.__name__)
def test_coverage_paths_take_no_fan_out_keyword(entry):
    keywords = set(inspect.signature(entry).parameters)
    assert not keywords & {"threads", "parallelism", "probe_width"}


def test_context_and_session_are_the_only_evaluation_keywords():
    """Learner constructors take no evaluation setting at all (a session
    binds them); harness entry points take them only through ``session=``."""
    for kind, learner_class in _learner_kinds().items():
        expected = {"schema", "parameters"}
        if kind == "aleph-foil":
            expected.add("clause_length")
        assert set(inspect.signature(learner_class).parameters) == expected, kind
    for entry in (
        harness.run_variant,
        harness.run_schema_sweep,
        harness.check_schema_independence,
    ):
        keywords = set(inspect.signature(entry).parameters)
        assert "session" in keywords
        assert not keywords & {"backend", "parallelism", "saturation_store"}
    for entry in (StoredProcedureRunner, compare_stored_procedure_modes):
        assert "backend" not in inspect.signature(entry).parameters
