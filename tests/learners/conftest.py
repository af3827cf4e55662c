"""Fixtures for end-to-end learner tests: a tiny, fully learnable problem.

The scenario is a miniature UW-CSE: ``advised(stud, prof)`` holds exactly
when the student and the professor co-authored a publication and the
professor is a faculty member.  ``position`` is the declared constant
attribute, so clauses can say ``professor(p, faculty)``.  Every learner should be able to find a
consistent definition on this data within a couple of seconds.
"""

from __future__ import annotations

import pytest

from repro.database import (
    DatabaseInstance,
    FunctionalDependency,
    RelationSchema,
    Schema,
)
from repro.learning.examples import ExampleSet


@pytest.fixture(scope="module")
def tiny_schema() -> Schema:
    relations = [
        RelationSchema("student", ["stud"]),
        RelationSchema("professor", ["prof", "position"]),
        RelationSchema("publication", ["title", "person"]),
    ]
    fds = [FunctionalDependency("professor", ["prof"], ["position"])]
    return Schema(relations, fds, [], name="tiny", constant_attributes=["position"])


@pytest.fixture(scope="module")
def tiny_instance(tiny_schema: Schema) -> DatabaseInstance:
    instance = DatabaseInstance(tiny_schema)
    for index in range(6):
        instance.add_tuple("student", (f"s{index}",))
    for index in range(4):
        position = "faculty" if index < 3 else "emeritus"
        instance.add_tuple("professor", (f"p{index}", position))
    coauthorships = [
        ("t0", "s0", "p0"),
        ("t1", "s1", "p1"),
        ("t2", "s2", "p2"),
        ("t3", "s3", "p0"),
    ]
    for title, student, professor in coauthorships:
        instance.add_tuple("publication", (title, student))
        instance.add_tuple("publication", (title, professor))
    # Solo publications to create distractors.
    instance.add_tuple("publication", ("t4", "s4"))
    instance.add_tuple("publication", ("t5", "p3"))
    instance.add_tuple("publication", ("t6", "s5"))
    return instance


@pytest.fixture(scope="module")
def tiny_examples() -> ExampleSet:
    positives = [("s0", "p0"), ("s1", "p1"), ("s2", "p2"), ("s3", "p0")]
    negatives = [
        ("s4", "p0"), ("s5", "p1"), ("s0", "p1"), ("s1", "p0"),
        ("s2", "p3"), ("s3", "p1"), ("s4", "p2"), ("s5", "p3"),
    ]
    return ExampleSet("advised", positives, negatives)
