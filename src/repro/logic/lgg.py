"""Least general generalization (lgg) of clauses — Plotkin's operator.

The lgg of two terms is a variable when they differ, the term itself when
they are equal; the lgg of two compatible atoms applies this pointwise; the
lgg of two clauses pairs up compatible body literals (same predicate and
arity) in all possible ways.  A2 merges a new clause with a stored one
through it, and ``benchmarks/bench_subsumption.py`` generalizes pairs of
saturations with it to make its candidate clauses.

The size of ``lgg(C1, C2)`` is bounded by ``|C1| * |C2|``.  That growth is
why Golem, which generalizes pairs of saturations this way, does not scale
(the paper's Section 6.3); callers are expected to cap clause sizes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .atoms import Atom
from .clauses import HornClause
from .terms import Term, Variable


class _VariableFactory:
    """Produce one fresh variable per distinct pair of generalized terms."""

    def __init__(self) -> None:
        self._cache: Dict[Tuple[Term, Term], Variable] = {}
        self._counter = 0

    def variable_for(self, left: Term, right: Term) -> Variable:
        key = (left, right)
        existing = self._cache.get(key)
        if existing is not None:
            return existing
        self._counter += 1
        fresh = Variable(f"G{self._counter}")
        self._cache[key] = fresh
        return fresh


def lgg_terms(left: Term, right: Term, factory: _VariableFactory) -> Term:
    """lgg of two terms: the term itself when equal, else a (cached) fresh variable."""
    if left == right:
        return left
    return factory.variable_for(left, right)


def lgg_atoms(left: Atom, right: Atom, factory: _VariableFactory) -> Optional[Atom]:
    """lgg of two atoms; None when they are incompatible (predicate/arity differ)."""
    if left.predicate != right.predicate or left.arity != right.arity:
        return None
    terms = [lgg_terms(a, b, factory) for a, b in zip(left.terms, right.terms)]
    return Atom(left.predicate, terms)


def lgg_clauses(
    left: HornClause, right: HornClause, max_body_literals: Optional[int] = None
) -> Optional[HornClause]:
    """lgg of two Horn clauses.

    Returns None when the heads are incompatible.  The body of the result is
    the set of pairwise lggs of compatible body literals; duplicates are
    removed.  ``max_body_literals`` truncates the result (A2 caps it at
    its clause size); literals produced earlier — from earlier body
    positions — are preferred, which keeps the operator deterministic.
    """
    factory = _VariableFactory()
    head = lgg_atoms(left.head, right.head, factory)
    if head is None:
        return None
    body: List[Atom] = []
    seen = set()
    for atom_left in left.body:
        for atom_right in right.body:
            generalized = lgg_atoms(atom_left, atom_right, factory)
            if generalized is None or generalized in seen:
                continue
            seen.add(generalized)
            body.append(generalized)
            if max_body_literals is not None and len(body) >= max_body_literals:
                return HornClause(head, body)
    return HornClause(head, body)
