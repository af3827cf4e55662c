"""Where evaluation runs never changes what a learner learns.

Every placement — single-connection ``sqlite`` and the snapshot-pooled
``sqlite-pooled`` at parallelism 1 and 2 — must learn literal-for-literal
the same, non-empty definition as the ``memory`` backend, on each schema
variant and for every learner that finds the planted rule.  Castor runs
with the benchmark's settings (``perfbench/workloads.py``), the others
with their defaults, on a UW-CSE bundle small enough for tier-1.
"""

from __future__ import annotations

import pytest

from repro import LearningSession, SessionConfig
from repro.castor.bottom_clause import CastorBottomClauseConfig
from repro.castor.castor import CastorParameters
from repro.datasets import uwcse

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

#: Learners that recover the planted co-author rule on this bundle.  Golem's
#: pairwise rlgg learns nothing at this size, so it is not compared here.
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
    bundle, reference, kind, variant, placement
):
    expected = reference(kind, variant)
    assert expected, f"{kind} learned nothing on {variant}"
    assert learn(bundle, kind, variant, *placement) == expected
