"""Synthetic UW-CSE dataset with the four schema variants of Section 9.

The real UW-CSE benchmark (Richardson & Domingos) describes an academic
department: students, professors, courses, TA-ships, publications.  The
target relation is ``advisedBy(stud, prof)``.  This module generates a
synthetic department with the same schema, the same constraints (the INDs of
Table 5), and a ground-truth advising process that leaves the same kind of
relational footprint the paper's examples rely on (advisors co-author
publications with their advisees; advisees TA courses taught by their
advisor), so the learners face the same structural learning problem.

Schema variants (all derived from the *Original* highly-decomposed schema):

* ``original``       — Table 1 left column (9 relations);
* ``4nf``            — student/inPhase/yearsInProgram composed, professor/
                        hasPosition composed (Table 1 right column);
* ``denormalized1``  — 4NF with courseLevel ⋈ taughtBy composed;
* ``denormalized2``  — denormalized1 with the course relation ⋈ professor.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..database.constraints import FunctionalDependency, InclusionDependency
from ..database.instance import DatabaseInstance
from ..database.schema import RelationSchema, Schema
from ..learning.examples import ExampleSet, sample_closed_world_negatives
from ..transform.transformation import SchemaTransformation
from ..transform.decomposition import ComposeOperation
from .base import DatasetBundle, SchemaVariant, base_variant

TARGET = "advisedBy"

PHASES = ("pre_quals", "post_quals", "post_generals")
POSITIONS = ("faculty", "adjunct", "emeritus")
LEVELS = ("level_300", "level_400", "level_500")
TERMS = ("autumn", "winter", "spring")


class UwCseConfig:
    """Size and behaviour knobs of the synthetic department generator."""

    def __init__(
        self,
        num_students: int = 40,
        num_professors: int = 12,
        num_courses: int = 18,
        publications_per_professor: int = 3,
        advising_fraction: float = 0.6,
        coauthor_probability: float = 0.9,
        ta_for_advisor_probability: float = 0.5,
        negative_ratio: float = 2.0,
    ):
        self.num_students = int(num_students)
        self.num_professors = int(num_professors)
        self.num_courses = int(num_courses)
        self.publications_per_professor = int(publications_per_professor)
        self.advising_fraction = float(advising_fraction)
        self.coauthor_probability = float(coauthor_probability)
        self.ta_for_advisor_probability = float(ta_for_advisor_probability)
        self.negative_ratio = float(negative_ratio)


def original_schema() -> Schema:
    """The Original UW-CSE schema (Table 1, left) with the INDs of Table 5."""
    relations = [
        RelationSchema("student", ["stud"]),
        RelationSchema("inPhase", ["stud", "phase"]),
        RelationSchema("yearsInProgram", ["stud", "years"]),
        RelationSchema("professor", ["prof"]),
        RelationSchema("hasPosition", ["prof", "position"]),
        RelationSchema("publication", ["title", "person"]),
        RelationSchema("courseLevel", ["crs", "level"]),
        RelationSchema("taughtBy", ["crs", "prof", "term"]),
        RelationSchema("ta", ["crs", "stud", "term"]),
    ]
    fds = [
        FunctionalDependency("inPhase", ["stud"], ["phase"]),
        FunctionalDependency("yearsInProgram", ["stud"], ["years"]),
        FunctionalDependency("hasPosition", ["prof"], ["position"]),
        FunctionalDependency("courseLevel", ["crs"], ["level"]),
    ]
    inds = [
        InclusionDependency("student", ["stud"], "inPhase", ["stud"], with_equality=True),
        InclusionDependency("student", ["stud"], "yearsInProgram", ["stud"], with_equality=True),
        InclusionDependency("professor", ["prof"], "hasPosition", ["prof"], with_equality=True),
        InclusionDependency("taughtBy", ["crs"], "courseLevel", ["crs"], with_equality=True),
        InclusionDependency("taughtBy", ["prof"], "professor", ["prof"], with_equality=True),
        InclusionDependency("ta", ["crs"], "taughtBy", ["crs"], with_equality=True),
        InclusionDependency("ta", ["stud"], "student", ["stud"]),
    ]
    return Schema(relations, fds, inds, name="uwcse-original")


def schema_variants(schema: Optional[Schema] = None) -> List[SchemaVariant]:
    """The four schema variants used in Table 10, as transformations of Original."""
    schema = schema or original_schema()
    original = base_variant(schema, "original")

    to_4nf = SchemaTransformation(
        schema,
        [
            ComposeOperation(
                ["student", "inPhase", "yearsInProgram"],
                "student",
                attribute_order=["stud", "phase", "years"],
            ),
            ComposeOperation(
                ["professor", "hasPosition"],
                "professor",
                attribute_order=["prof", "position"],
            ),
        ],
        target_name="uwcse-4nf",
    )

    to_denorm1 = SchemaTransformation(
        schema,
        [
            *to_4nf.operations,
            ComposeOperation(
                ["courseLevel", "taughtBy"],
                "course",
                attribute_order=["crs", "level", "prof", "term"],
            ),
        ],
        target_name="uwcse-denormalized1",
    )

    to_denorm2 = SchemaTransformation(
        schema,
        [
            *to_denorm1.operations,
            ComposeOperation(
                ["course", "professor"],
                "course",
                attribute_order=["crs", "level", "prof", "term", "position"],
            ),
        ],
        target_name="uwcse-denormalized2",
    )

    return [
        original,
        SchemaVariant("4nf", to_4nf),
        SchemaVariant("denormalized1", to_denorm1),
        SchemaVariant("denormalized2", to_denorm2),
    ]


def generate_instance(
    config: Optional[UwCseConfig] = None, seed: int = 0
) -> Tuple[DatabaseInstance, List[Tuple[str, str]]]:
    """Generate a department instance plus the hidden advisedBy ground truth.

    Returns ``(instance, advised_pairs)`` where ``advised_pairs`` is the list
    of (student, professor) positives.
    """
    config = config or UwCseConfig()
    rng = random.Random(seed)
    schema = original_schema()
    instance = DatabaseInstance(schema)

    students = [f"student{i}" for i in range(config.num_students)]
    professors = [f"prof{i}" for i in range(config.num_professors)]
    courses = [f"course{i}" for i in range(config.num_courses)]

    advised_pairs: List[Tuple[str, str]] = []
    # --- professors ---------------------------------------------- #
    position_of: Dict[str, str] = {}
    for prof in professors:
        position = rng.choice(POSITIONS)
        position_of[prof] = position
        instance.add_tuple("professor", (prof,))
        instance.add_tuple("hasPosition", (prof, position))

    faculty = [p for p in professors if position_of[p] == "faculty"] or professors

    # --- students ------------------------------------------------ #
    phase_of: Dict[str, str] = {}
    for stud in students:
        phase = rng.choice(PHASES)
        years = rng.randint(1, 7)
        phase_of[stud] = phase
        instance.add_tuple("student", (stud,))
        instance.add_tuple("inPhase", (stud, phase))
        instance.add_tuple("yearsInProgram", (stud, years))

    # --- courses, teaching, TAs ---------------------------------- #
    teacher_of: Dict[str, str] = {}
    for crs in courses:
        level = rng.choice(LEVELS)
        prof = rng.choice(faculty)
        term = rng.choice(TERMS)
        teacher_of[crs] = prof
        instance.add_tuple("courseLevel", (crs, level))
        instance.add_tuple("taughtBy", (crs, prof, term))
        # Each taught course has at least one TA (keeps ta[crs] = taughtBy[crs]).
        instance.add_tuple("ta", (crs, rng.choice(students), term))
    # Ensure every professor teaches at least one course (taughtBy[prof] = professor[prof]).
    for prof in professors:
        if prof not in teacher_of.values():
            crs = rng.choice(courses)
            term = rng.choice(TERMS)
            instance.add_tuple("taughtBy", (crs, prof, term))
            instance.add_tuple("ta", (crs, rng.choice(students), term))

    # --- publications and advising (the hidden ground truth) ------ #
    title_counter = 0
    for prof in professors:
        for _ in range(config.publications_per_professor):
            title = f"paper{title_counter}"
            title_counter += 1
            instance.add_tuple("publication", (title, prof))

    advisee_candidates = [
        s for s in students if phase_of[s] in ("post_quals", "post_generals")
    ]
    rng.shuffle(advisee_candidates)
    num_advised = int(len(advisee_candidates) * config.advising_fraction) or 1
    for stud in advisee_candidates[:num_advised]:
        advisor = rng.choice(faculty)
        advised_pairs.append((stud, advisor))
        if rng.random() < config.coauthor_probability:
            title = f"paper{title_counter}"
            title_counter += 1
            instance.add_tuple("publication", (title, advisor))
            instance.add_tuple("publication", (title, stud))
        if rng.random() < config.ta_for_advisor_probability:
            advisor_courses = [c for c, p in teacher_of.items() if p == advisor]
            if advisor_courses:
                crs = rng.choice(advisor_courses)
                instance.add_tuple("ta", (crs, stud, rng.choice(TERMS)))

    return instance, advised_pairs


def generate_examples(
    advised_pairs: Sequence[Tuple[str, str]],
    instance: DatabaseInstance,
    config: Optional[UwCseConfig] = None,
    seed: int = 0,
) -> ExampleSet:
    """Positive advisedBy pairs plus closed-world sampled negatives."""
    config = config or UwCseConfig()
    students = sorted(instance.relation("student").distinct_values("stud"), key=str)
    professors = sorted(instance.relation("professor").distinct_values("prof"), key=str)
    negatives = sample_closed_world_negatives(
        advised_pairs,
        [students, professors],
        ratio=config.negative_ratio,
        seed=seed,
    )
    return ExampleSet(TARGET, advised_pairs, negatives)


def load(
    config: Optional[UwCseConfig] = None, seed: int = 0, backend: str = "memory"
) -> DatasetBundle:
    """Generate the full UW-CSE bundle (instance, examples, schema variants)."""
    config = config or UwCseConfig()
    instance, advised_pairs = generate_instance(config, seed)
    examples = generate_examples(advised_pairs, instance, config, seed)
    return DatasetBundle(
        "uwcse", instance, examples, schema_variants(), TARGET, backend=backend
    )
