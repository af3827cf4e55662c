"""SessionConfig validation: incoherent combos are rejected with actionable
messages, and apply() is the single warn-once normalization path."""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.database import RelationSchema, Schema, backend_names
from repro.database import backend as backend_module
from repro.progolem.progolem import ProGolemLearner
from repro.session import COVERAGE_STRATEGIES, SessionConfig
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
        "coverage",
        "reuse_saturation_store",
        "presaturate",
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


def test_unknown_coverage_strategy_lists_options():
    with pytest.raises(ValueError, match="subsumption-compiled"):
        SessionConfig(coverage="compiled")
    for strategy in COVERAGE_STRATEGIES:
        if strategy == "query":
            continue
        assert SessionConfig(coverage=strategy).coverage == strategy


def test_presaturate_needs_the_shared_store():
    with pytest.raises(ValueError, match="reuse_saturation_store"):
        SessionConfig(presaturate=True, reuse_saturation_store=False)


def test_presaturate_incoherent_with_query_coverage():
    with pytest.raises(ValueError, match="no saturations"):
        SessionConfig(presaturate=True, coverage="query")


# --------------------------------------------------------------------- #
# merged()
# --------------------------------------------------------------------- #
def test_merged_overrides_and_revalidates():
    base = SessionConfig(backend="sqlite-pooled", parallelism=2)
    bumped = base.merged(parallelism=4)
    assert bumped.parallelism == 4 and bumped.backend == "sqlite-pooled"
    assert base.parallelism == 2  # immutable
    with pytest.raises(ValueError, match="sqlite-pooled"):
        base.merged(backend="sqlite")
    assert base.merged() is base


# --------------------------------------------------------------------- #
# apply(): the single normalization path
# --------------------------------------------------------------------- #
class ConfigKnoblessLearner:
    pass


class OtherKnoblessLearner:
    pass


def test_apply_sets_knobs_the_learner_exposes():
    learner = ProGolemLearner(schema())
    config = SessionConfig(
        backend="sqlite-pooled", parallelism=5, coverage="subsumption-python"
    )
    assert config.apply(learner) is learner
    assert learner.parallelism == 5
    assert learner.backend == "sqlite-pooled"
    assert learner.compiled_coverage is False


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


def family(kind):
    """FOIL scores by query coverage; every other kind by subsumption."""
    return "query" if kind == "foil" else "subsumption"


#: ``(family, strategy) -> outcome``: ``("compiled", flag)`` sets
#: ``compiled_coverage``; ``("honored",)`` changes nothing silently;
#: ``("warns", pattern)`` leaves the learner alone and warns once.
COVERAGE_OUTCOMES = {
    ("subsumption", "auto"): ("honored",),
    ("subsumption", "subsumption"): ("honored",),
    ("subsumption", "subsumption-compiled"): ("compiled", True),
    ("subsumption", "subsumption-python"): ("compiled", False),
    ("subsumption", "query"): ("warns", "always uses subsumption coverage"),
    ("query", "auto"): ("honored",),
    ("query", "subsumption"): ("warns", "always uses query coverage"),
    ("query", "subsumption-compiled"): ("warns", "no compiled-subsumption knob"),
    ("query", "subsumption-python"): ("warns", "no compiled-subsumption knob"),
    ("query", "query"): ("honored",),
}


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


@pytest.mark.parametrize("strategy", COVERAGE_STRATEGIES)
@pytest.mark.parametrize("kind", KINDS)
def test_apply_honors_or_warns_once_about_coverage(kind, strategy, fresh_warnings):
    config = SessionConfig(coverage=strategy)
    learner = make_learner(kind)
    before = getattr(learner, "compiled_coverage", None)
    outcome = COVERAGE_OUTCOMES[(family(kind), strategy)]
    if outcome[0] == "warns":
        with pytest.warns(RuntimeWarning, match=outcome[1]):
            config.apply(learner)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config.apply(learner)
    expected = outcome[1] if outcome[0] == "compiled" else before
    assert getattr(learner, "compiled_coverage", None) == expected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # The same situation again is silent: already reported.
        config.apply(make_learner(kind))
