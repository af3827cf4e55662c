"""Equivalence checks used to *measure* schema (in)dependence empirically.

Two Horn definitions over schemas R and S (related by τ) are equivalent when
they return the same result relation over every pair of corresponding
instances (Definition 3.5).  Checking this for all instances is undecidable
in general, so the experiment harness uses the standard surrogate: evaluate
both definitions on the actual dataset instance and its transform and compare
the result sets.  The module also provides a same-schema semantic equivalence
check and a θ-subsumption equivalence check of clauses and definitions.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

from ..database.instance import DatabaseInstance
from ..database.query import QueryEvaluator
from ..logic.clauses import HornClause, HornDefinition
from ..logic.subsumption import SubsumptionEngine
from .transformation import SchemaTransformation


def definition_results(
    definition: HornDefinition, instance: DatabaseInstance
) -> Set[Tuple[object, ...]]:
    """Result relation of a definition on an instance (unsafe clauses skipped).

    Learned definitions are normally safe; any unsafe clause contributes
    nothing here rather than raising, because the comparison is between what
    the definitions *return* on finite data.
    """
    evaluator = QueryEvaluator(instance)
    results: Set[Tuple[object, ...]] = set()
    for clause in definition:
        if clause.is_safe():
            results |= evaluator.evaluate_clause(clause)
    return results


def definitions_equivalent_on(
    first: HornDefinition,
    second: HornDefinition,
    instance: DatabaseInstance,
    second_instance: Optional[DatabaseInstance] = None,
) -> bool:
    """True when both definitions return the same result set.

    When ``second_instance`` is given, ``second`` is evaluated on it (the
    cross-schema case); otherwise both run on ``instance``.
    """
    results_first = definition_results(first, instance)
    results_second = definition_results(second, second_instance or instance)
    return results_first == results_second


def definitions_equivalent_across(
    definition_source: HornDefinition,
    definition_target: HornDefinition,
    source_instance: DatabaseInstance,
    transformation: SchemaTransformation,
) -> bool:
    """Check Definition 3.10's output condition on an actual instance pair.

    ``definition_source`` was learned over the source schema; it is evaluated
    on ``source_instance``.  ``definition_target`` was learned over the target
    schema; it is evaluated on ``τ(source_instance)``.  The learner is schema
    independent on this instance when the result sets agree.
    """
    target_instance = transformation.apply(source_instance)
    return definitions_equivalent_on(
        definition_source, definition_target, source_instance, target_instance
    )


def clauses_are_variants(first: HornClause, second: HornClause) -> bool:
    """θ-subsumption equivalence: each clause θ-subsumes the other.

    This is weaker than being variants: ``p(X) :- q(X, Y)`` and
    ``p(A) :- q(A, B), q(A, C)`` compare equal, since a redundant literal
    changes nothing.  A search that exhausts the kernel's backtrack budget
    reads as "not equivalent".
    """
    engine = SubsumptionEngine()
    return engine.equivalent(first, second)


def definitions_are_variants(first: HornDefinition, second: HornDefinition) -> bool:
    """Every clause of either definition has a θ-equivalent clause (as
    :func:`clauses_are_variants` decides it) in the other, in any order."""
    engine = SubsumptionEngine()

    def covered(clauses_a: Iterable[HornClause], clauses_b: Iterable[HornClause]) -> bool:
        clauses_b = list(clauses_b)
        return all(
            any(engine.equivalent(a, b) for b in clauses_b) for a in clauses_a
        )

    return covered(first.clauses, second.clauses) and covered(
        second.clauses, first.clauses
    )


def schema_independence_witness(
    definition_source: HornDefinition,
    definition_target: HornDefinition,
    source_instance: DatabaseInstance,
    transformation: SchemaTransformation,
) -> dict:
    """Produce a small report comparing outputs across a transformation.

    Returns a dict with the two result sets' sizes, the symmetric-difference
    size, and an ``equivalent`` flag — the experiment harness logs this to
    quantify *how* schema dependent a learner's outputs are, not just whether.
    """
    target_instance = transformation.apply(source_instance)
    results_source = definition_results(definition_source, source_instance)
    results_target = definition_results(definition_target, target_instance)
    difference = results_source ^ results_target
    return {
        "source_result_size": len(results_source),
        "target_result_size": len(results_target),
        "symmetric_difference": len(difference),
        "equivalent": not difference,
    }
