"""Instances of inclusion classes inside a clause (Section 7.2.2).

Given a clause ``C`` and an inclusion class ``N = {S1..Sm}``, an *instance*
of ``N`` in ``C`` is a set of literals, one or more per member relation, such
that every IND ``Si[X] = Sj[X]`` of the class is witnessed by a pair of
literals whose terms agree on the ``X`` positions.  Literals of relations not
belonging to any multi-member inclusion class form singleton instances.

Castor's negative reduction removes whole inclusion instances (never
individual literals of an instance), which is what makes the reduction
commute with composition/decomposition (Lemma 7.8).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..database.constraints import InclusionClass, InclusionDependency
from ..database.schema import Schema
from ..logic.atoms import Atom
from ..logic.clauses import HornClause
from ..logic.terms import Term, Variable


class InclusionInstance:
    """A group of clause literals forming one instance of an inclusion class."""

    __slots__ = ("literals", "class_members")

    def __init__(self, literals: Sequence[Atom], class_members: Optional[Set[str]] = None):
        self.literals: Tuple[Atom, ...] = tuple(literals)
        self.class_members: Set[str] = set(class_members or {a.predicate for a in literals})

    def variables(self) -> Set[Variable]:
        """All variables mentioned by the instance's literals."""
        variables: Set[Variable] = set()
        for literal in self.literals:
            variables |= set(literal.variables())
        return variables

    def __len__(self) -> int:
        return len(self.literals)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, InclusionInstance) and set(other.literals) == set(self.literals)

    def __hash__(self) -> int:
        return hash(frozenset(self.literals))

    def __repr__(self) -> str:
        return f"InclusionInstance({[str(lit) for lit in self.literals]})"


def _terms_at(schema: Schema, literal: Atom, attributes: Sequence[str]) -> Optional[Tuple[Term, ...]]:
    """Terms of ``literal`` at the positions of ``attributes`` (None on arity mismatch)."""
    relation = schema.relation(literal.predicate)
    if literal.arity != relation.arity:
        return None
    positions = relation.positions_of(attributes)
    return tuple(literal.terms[p] for p in positions)


def literals_satisfy_ind(
    schema: Schema, ind: InclusionDependency, left_literal: Atom, right_literal: Atom
) -> bool:
    """True when the two literals witness the IND (projections agree)."""
    if left_literal.predicate != ind.left or right_literal.predicate != ind.right:
        return False
    left_terms = _terms_at(schema, left_literal, ind.left_attrs)
    right_terms = _terms_at(schema, right_literal, ind.right_attrs)
    if left_terms is None or right_terms is None:
        return False
    return left_terms == right_terms


def compute_inclusion_instances(
    clause: HornClause,
    schema: Schema,
    include_subset_inds: bool = False,
) -> List[InclusionInstance]:
    """Group the clause's body literals into inclusion-class instances.

    The instances are returned in the order of their first literal in the
    clause body (Algorithm 5 relies on this ordering).  A literal can belong
    to at most one instance; literals whose relation is not in a multi-member
    inclusion class each form a singleton instance.
    """
    instances: List[InclusionInstance] = []
    assigned: Set[int] = set()
    body = list(clause.body)

    for start_index, literal in enumerate(body):
        if start_index in assigned:
            continue
        inclusion_class = schema.inclusion_class_of(
            literal.predicate, include_subset_inds
        ) if schema.has_relation(literal.predicate) else None
        if inclusion_class is None:
            assigned.add(start_index)
            instances.append(InclusionInstance([literal]))
            continue
        member_indexes = _chase_instance(
            body, start_index, inclusion_class, schema, assigned
        )
        for index in member_indexes:
            assigned.add(index)
        instances.append(
            InclusionInstance(
                [body[i] for i in sorted(member_indexes)], inclusion_class.members
            )
        )
    return instances


def _chase_instance(
    body: List[Atom],
    start_index: int,
    inclusion_class: InclusionClass,
    schema: Schema,
    already_assigned: Set[int],
) -> Set[int]:
    """Collect the literal indexes belonging to the instance seeded at ``start_index``."""
    member_indexes: Set[int] = {start_index}
    frontier = [start_index]
    while frontier:
        current = frontier.pop()
        current_literal = body[current]
        for ind in inclusion_class.inds_for(current_literal.predicate):
            other_name, own_attrs, other_attrs = ind.other_side(current_literal.predicate)
            own_terms = _terms_at(schema, current_literal, own_attrs)
            if own_terms is None:
                continue
            for index, candidate in enumerate(body):
                if index in member_indexes or index in already_assigned:
                    continue
                if candidate.predicate != other_name:
                    continue
                candidate_terms = _terms_at(schema, candidate, other_attrs)
                if candidate_terms is not None and candidate_terms == own_terms:
                    member_indexes.add(index)
                    frontier.append(index)
    return member_indexes


def head_connecting_instances(
    target_instance: InclusionInstance,
    all_instances: Sequence[InclusionInstance],
    head_variables: Set[Variable],
) -> List[InclusionInstance]:
    """Instances forming a chain of shared variables from the head to ``target_instance``.

    Breadth-first search over the instance graph (nodes = instances, edges =
    shared variables; the head contributes its variables as the source).  The
    returned list excludes ``target_instance`` itself and preserves the order
    of ``all_instances``.
    """
    if target_instance.variables() & head_variables:
        return []
    # BFS from the head variable set.
    reached_vars = set(head_variables)
    parents: Dict[int, Optional[int]] = {}
    order = list(all_instances)
    frontier: List[int] = []
    for index, instance in enumerate(order):
        if instance is target_instance:
            continue
        if instance.variables() & reached_vars:
            parents[index] = None
            frontier.append(index)
    visited = set(frontier)
    connecting: List[int] = []
    found_path: Optional[List[int]] = None
    while frontier and found_path is None:
        current = frontier.pop(0)
        current_vars = order[current].variables()
        if target_instance.variables() & current_vars:
            # Reconstruct chain back to a head-connected instance.
            chain = [current]
            while parents[chain[-1]] is not None:
                chain.append(parents[chain[-1]])
            found_path = chain
            break
        for index, instance in enumerate(order):
            if index in visited or instance is target_instance:
                continue
            if instance.variables() & current_vars:
                visited.add(index)
                parents[index] = current
                frontier.append(index)
    if found_path is None:
        return []
    found = sorted(set(found_path))
    return [order[i] for i in found]
