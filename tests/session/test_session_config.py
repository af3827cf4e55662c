"""SessionConfig validation: incoherent combos are rejected with actionable
messages, and apply() is the single warn-once normalization path."""

from __future__ import annotations

import dataclasses
import inspect
import warnings

import pytest

from repro.database import RelationSchema, Schema, backend_names
from repro.database import backend as backend_module
from repro.progolem.progolem import ProGolemLearner
from repro.experiments import harness
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
def test_parallelism_rejected_only_on_single_connection_sqlite(
    backend, parallelism
):
    """Every placement is valid except a fan-out on ``sqlite``, whose one
    connection serializes every statement; the error names the fix."""
    if backend == "sqlite" and parallelism is not None and parallelism > 1:
        with pytest.raises(ValueError, match="sqlite-pooled"):
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
    learner = ProGolemLearner(schema())
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
        # An unset knob is never a warning.
        SessionConfig().apply(ConfigKnoblessLearner())
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
KINDS = ("castor", "foil", "golem", "progolem", "progol", "aleph-foil")


def make_learner(kind):
    return _learner_kinds()[kind](schema())


@pytest.fixture
def fresh_warnings(monkeypatch):
    """Forget earlier warn-once reports so this test sees its own."""
    monkeypatch.setattr(backend_module, "_WARNED", set())


@pytest.mark.parametrize("kind", KINDS)
def test_apply_pushes_placement_onto_every_kind(kind, fresh_warnings):
    learner = make_learner(kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SessionConfig(backend="sqlite-pooled", parallelism=3).apply(learner)
    assert learner.backend == "sqlite-pooled"
    assert learner.parallelism == 3


@pytest.mark.parametrize("kind", KINDS)
def test_sessions_sharing_parameters_keep_their_own_parallelism(kind):
    """Regression: two sessions handed one Parameters object used to
    overwrite each other's parallelism through it.  The setting now lives
    on each learner, and the caller's object is never written."""
    params = type(make_learner(kind).parameters)()
    before = dict(vars(params))
    with LearningSession(SessionConfig(parallelism=4)) as wide_session:
        with LearningSession(SessionConfig(parallelism=1)) as narrow_session:
            wide = wide_session.learner(kind, schema(), params)
            narrow = narrow_session.learner(kind, schema(), params)
            assert (wide.parallelism, narrow.parallelism) == (4, 1)
            assert wide.parameters is params and narrow.parameters is params
    assert vars(params) == before


def test_context_and_session_are_the_only_evaluation_keywords():
    """Learners take evaluation settings through ``context=`` (plus the
    Figure 2 ``threads`` sweep); harness entry points through ``session=``."""
    learning = {"schema", "parameters", "clause_length"}
    for kind, learner_class in _learner_kinds().items():
        keywords = set(inspect.signature(learner_class).parameters) - learning
        expected = {"context"} if kind == "foil" else {"threads", "context"}
        assert keywords == expected, kind
    for entry in (
        harness.run_variant,
        harness.run_schema_sweep,
        harness.check_schema_independence,
    ):
        keywords = set(inspect.signature(entry).parameters)
        assert "session" in keywords
        assert not keywords & {"backend", "parallelism", "saturation_store"}
