"""Equivalence checks used to *measure* schema (in)dependence empirically.

Two Horn definitions over schemas R and S (related by τ) are equivalent when
they return the same result relation over every pair of corresponding
instances (Definition 3.5).  Checking this for all instances is undecidable
in general, so the experiment harness uses the standard surrogate: it
evaluates each definition on its variant's instance with
:func:`definition_results` and compares the result sets
(``check_schema_independence``).  The module also provides a θ-subsumption
equivalence check of clauses and definitions.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

from ..database.instance import DatabaseInstance
from ..database.query import QueryEvaluator
from ..logic.clauses import HornClause, HornDefinition
from ..logic.subsumption import SubsumptionEngine


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
