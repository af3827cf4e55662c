"""SessionConfig validation: incoherent combos are rejected with actionable
messages, and apply() is the single warn-once normalization path."""

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
from repro.database import RelationSchema, Schema, backend_names
from repro.database import backend as backend_module
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
# apply(): the single normalization path
# --------------------------------------------------------------------- #
class ConfigKnoblessLearner:
    pass


class OtherKnoblessLearner:
    pass


def test_apply_sets_knobs_the_learner_exposes():
    learner = FoilLearner(schema())
    config = SessionConfig(backend="sqlite-pooled", parallelism=5)
    assert config.apply(learner) is learner
    assert learner.parallelism == 5
    assert learner.backend == "sqlite-pooled"


def test_apply_warns_once_on_learners_without_the_knob():
    with pytest.warns(RuntimeWarning, match="ConfigKnoblessLearner.*parallelism=3"):
        SessionConfig(parallelism=3).apply(ConfigKnoblessLearner())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Same situation again: silent (already reported).
        SessionConfig(parallelism=3).apply(ConfigKnoblessLearner())
        # An unset knob is never a warning, and neither is no fan-out.
        SessionConfig().apply(ConfigKnoblessLearner())
        SessionConfig(parallelism=1).apply(OtherKnoblessLearner())
    # A different situation still warns.
    with pytest.warns(RuntimeWarning, match="OtherKnoblessLearner"):
        SessionConfig(parallelism=3).apply(OtherKnoblessLearner())


def test_apply_hands_out_the_saturation_store():
    from repro.database.sqlite_backend import SaturationStore

    learner = ProGolemLearner(schema())
    store = SaturationStore()
    SessionConfig().apply(learner, saturation_store=store)
    assert learner.saturation_store is store


# --------------------------------------------------------------------- #
# apply() on every registered learner kind
# --------------------------------------------------------------------- #
KINDS = ("castor", "foil", "progolem", "progol", "aleph-foil")


def make_learner(kind):
    return _learner_kinds()[kind](schema())


@pytest.fixture
def fresh_warnings(monkeypatch):
    """Forget earlier warn-once reports so this test sees its own."""
    monkeypatch.setattr(backend_module, "_WARNED", set())


@pytest.mark.parametrize("kind", KINDS)
def test_apply_pushes_placement_onto_every_kind(kind, fresh_warnings):
    """Every kind takes the backend; FOIL alone has a fan-out (the
    subsumption kinds run coverage on the caller's thread), and
    ``parallelism=1`` is silent on the kinds without one."""
    learner = make_learner(kind)
    assert hasattr(learner, "parallelism") == (kind == "foil")
    parallelism = 3 if kind == "foil" else 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SessionConfig(backend="sqlite-pooled", parallelism=parallelism).apply(learner)
    assert learner.backend == "sqlite-pooled"
    assert getattr(learner, "parallelism", 1) == parallelism


#: ``setting -> (first config, second config)`` two sessions are given.
SHARED_SETTINGS = {
    "parallelism": (
        SessionConfig(backend="sqlite-pooled", parallelism=4),
        SessionConfig(parallelism=1),
    ),
    "backend": (
        SessionConfig(backend="sqlite-pooled"),
        SessionConfig(backend="memory"),
    ),
}


@pytest.mark.parametrize(
    "setting,kind",
    [("parallelism", "foil"), *(("backend", kind) for kind in KINDS)],
)
def test_sessions_sharing_parameters_keep_their_own_settings(setting, kind):
    """Regression: two sessions handed one Parameters object used to
    overwrite each other's parallelism through it.  Each setting now lives
    on each learner, and the caller's object is never written."""
    params = type(make_learner(kind).parameters)()
    before = dict(vars(params))
    configs = SHARED_SETTINGS[setting]
    with LearningSession(configs[0]) as first, LearningSession(configs[1]) as second:
        learners = [
            session.learner(kind, schema(), params) for session in (first, second)
        ]
        assert [getattr(learner, setting) for learner in learners] == [
            getattr(config, setting) for config in configs
        ]
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
    """Learners take evaluation settings through ``context=``; harness entry
    points through ``session=``."""
    learning = {"schema", "parameters", "clause_length"}
    for kind, learner_class in _learner_kinds().items():
        keywords = set(inspect.signature(learner_class).parameters) - learning
        assert keywords == {"context"}, kind
    for entry in (
        harness.run_variant,
        harness.run_schema_sweep,
        harness.check_schema_independence,
    ):
        keywords = set(inspect.signature(entry).parameters)
        assert "session" in keywords
        assert not keywords & {"backend", "parallelism", "saturation_store"}
