"""Where evaluation runs never changes what a learner learns.

Every placement — single-connection ``sqlite`` and the snapshot-pooled
``sqlite-pooled`` at parallelism 1 and 2 — must learn literal-for-literal
the same, non-empty definition as the ``memory`` backend, on each schema
variant and for every learner that finds the planted rule.  Parallelism 2
sizes FOIL's batched scoring, the one fan-out; the subsumption learners run
coverage on the caller's thread, so they warn that they ignore it.  Castor runs
with the benchmark's settings (``perfbench/workloads.py``), the others
with their defaults, on a UW-CSE bundle small enough for tier-1.  Nor does
the saturation store a session shares between runs: it only saves work.
"""

from __future__ import annotations

import threading

import pytest

from repro import LearningSession, SessionConfig
from repro.castor.bottom_clause import CastorBottomClauseConfig
from repro.castor.castor import CastorParameters
from repro.datasets import uwcse
from repro.logic.subsumption import SubsumptionEngine
from repro.session.session import _learner_kinds

#: ``(backend, parallelism)`` of the reference run.
REFERENCE = ("memory", None)

#: Placements compared against the reference; single-connection ``sqlite``
#: rejects parallelism above 1.
PLACEMENTS = (
    ("sqlite", None),
    ("sqlite-pooled", 1),
    ("sqlite-pooled", 2),
)
PLACEMENT_IDS = ["sqlite", "sqlite-pooled-p1", "sqlite-pooled-p2"]

VARIANTS = ("4nf", "denormalized1")

#: Every learner kind; each recovers the planted co-author rule on this
#: bundle.
KINDS = ("castor", "foil", "progolem", "progol", "aleph-foil")

def castor_parameters() -> CastorParameters:
    return CastorParameters(
        sample_size=10,
        beam_width=2,
        max_armg_rounds=10,
        prefetch=False,
        bottom_clause=CastorBottomClauseConfig(
            max_depth=3,
            max_distinct_variables=15,
            max_literals_per_relation_per_tuple=50,
            max_joining_tuples_per_ind=50,
        ),
    )


def parameters_for(kind: str):
    return castor_parameters() if kind == "castor" else None


@pytest.fixture(scope="module")
def bundle():
    config = uwcse.UwCseConfig(
        num_students=40,
        num_professors=12,
        num_courses=18,
        coauthor_probability=1.0,
    )
    return uwcse.load(config, seed=3)


def learn(bundle, kind, variant, backend, parallelism):
    config = SessionConfig(backend=backend, parallelism=parallelism)
    with LearningSession(config) as session:
        learner = session.learner(
            kind, bundle.schema(variant), parameters_for(kind)
        )
        definition = learner.learn(bundle.instance(variant), bundle.examples)
    return [str(clause) for clause in definition]


@pytest.fixture(scope="module")
def reference(bundle):
    """``(kind, variant) -> clauses`` learned on the reference placement."""
    learned = {}

    def get(kind, variant):
        if (kind, variant) not in learned:
            learned[(kind, variant)] = learn(bundle, kind, variant, *REFERENCE)
        return learned[(kind, variant)]

    return get


@pytest.mark.parametrize("placement", PLACEMENTS, ids=PLACEMENT_IDS)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("kind", KINDS)
def test_definitions_are_placement_invariant(
    bundle, reference, kind, variant, placement, ignored_fan_out
):
    expected = reference(kind, variant)
    assert expected, f"{kind} learned nothing on {variant}"
    _, parallelism = placement
    with ignored_fan_out(kind, parallelism):
        learned = learn(bundle, kind, variant, *placement)
    assert learned == expected


#: Every learner that decides coverage by subsumption, and so answers it
#: from a saturation store on the SQLite backends.
STORE_KINDS = ("castor", "progolem", "progol", "aleph-foil")


@pytest.mark.parametrize("backend", ("sqlite", "sqlite-pooled"))
@pytest.mark.parametrize("kind", STORE_KINDS)
def test_shared_saturation_store_never_changes_the_definition(
    tiny_schema, tiny_instance, tiny_examples, kind, backend
):
    """A learner on its session's shared store, cold and then warm from its
    own first run, learns what a learner without a store learns on the same
    backend."""
    config = SessionConfig(backend=backend)
    private = _learner_kinds()[kind](tiny_schema)
    expected = [
        str(clause)
        for clause in private.learn(tiny_instance.with_backend(backend), tiny_examples)
    ]
    assert expected, f"{kind} learned nothing"
    with LearningSession(config) as session:
        learner = session.learner(kind, tiny_schema)
        cold = [str(clause) for clause in learner.learn(tiny_instance, tiny_examples)]
        warm = [str(clause) for clause in learner.learn(tiny_instance, tiny_examples)]
        store = session.saturation_store_for(
            session.prepare(tiny_instance), learner.wrapped
        )
        assert len(store) > 0, "coverage never reached the shared store"
    assert cold == expected
    assert warm == expected


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_subsumption_coverage_runs_on_the_callers_thread(
    tiny_schema, tiny_instance, tiny_examples, kind, monkeypatch
):
    """Every subsumption test a learner makes on ``memory`` runs on the
    thread that called ``learn()``: no pool fans coverage out."""
    threads = []
    covers_example = SubsumptionEngine.covers_example

    def spy(self, *args, **kwargs):
        threads.append(threading.get_ident())
        return covers_example(self, *args, **kwargs)

    monkeypatch.setattr(SubsumptionEngine, "covers_example", spy)
    learner = _learner_kinds()[kind](tiny_schema)
    learner.learn(tiny_instance, tiny_examples)
    assert threads, f"{kind} made no subsumption test"
    assert set(threads) == {threading.get_ident()}
