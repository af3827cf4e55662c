"""Substitutions and unification for function-free terms.

A substitution maps variables to terms.  Because the language is
function-free (Datalog), unification is simple: a variable can bind to a
constant or to another variable, and occurs-check is unnecessary.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from .atoms import Atom
from .terms import Term, Variable

Substitution = Dict[Variable, Term]


def apply_substitution(term: Term, substitution: Substitution) -> Term:
    """Apply ``substitution`` to a single term (identity for constants)."""
    if isinstance(term, Variable):
        return substitution.get(term, term)
    return term


def compose(first: Substitution, second: Substitution) -> Substitution:
    """Compose two substitutions: ``compose(f, s)(x) == s(f(x))``.

    Bindings of ``second`` for variables not bound by ``first`` are kept.
    """
    result: Substitution = {}
    for var, term in first.items():
        result[var] = apply_substitution(term, second)
    for var, term in second.items():
        if var not in result:
            result[var] = term
    return result


def restrict(substitution: Substitution, variables: Iterable[Variable]) -> Substitution:
    """Restrict a substitution to the given set of variables."""
    wanted = set(variables)
    return {v: t for v, t in substitution.items() if v in wanted}


def unify_terms(
    a: Term, b: Term, substitution: Optional[Substitution] = None
) -> Optional[Substitution]:
    """Unify two terms under an existing substitution.

    Returns the extended substitution, or None when unification fails.  The
    input substitution is not modified.
    """
    theta: Substitution = dict(substitution or {})
    a = apply_substitution(a, theta)
    b = apply_substitution(b, theta)
    if a == b:
        return theta
    if isinstance(a, Variable):
        theta[a] = b
        return theta
    if isinstance(b, Variable):
        theta[b] = a
        return theta
    return None


def unify_term_sequences(
    seq_a: Sequence[Term], seq_b: Sequence[Term], substitution: Optional[Substitution] = None
) -> Optional[Substitution]:
    """Unify two equal-length term sequences, or return None."""
    if len(seq_a) != len(seq_b):
        return None
    theta: Optional[Substitution] = dict(substitution or {})
    for term_a, term_b in zip(seq_a, seq_b):
        theta = unify_terms(term_a, term_b, theta)
        if theta is None:
            return None
    return theta


def unify_atoms(
    a: Atom, b: Atom, substitution: Optional[Substitution] = None
) -> Optional[Substitution]:
    """Unify two atoms (same predicate and arity), or return None."""
    if a.predicate != b.predicate or a.arity != b.arity:
        return None
    return unify_term_sequences(a.terms, b.terms, substitution)


def match_atom_to_ground(
    pattern: Atom, ground: Atom, substitution: Optional[Substitution] = None
) -> Optional[Substitution]:
    """One-way matching: bind variables of ``pattern`` to constants of ``ground``.

    Unlike unification, variables occurring in ``ground`` are not bound; the
    call fails if ``ground`` is not actually ground where needed.  This is the
    operation used by θ-subsumption and by coverage testing.
    """
    if pattern.predicate != ground.predicate or pattern.arity != ground.arity:
        return None
    theta: Substitution = dict(substitution or {})
    for pat_term, ground_term in zip(pattern.terms, ground.terms):
        if isinstance(pat_term, Variable):
            bound = theta.get(pat_term)
            if bound is None:
                theta[pat_term] = ground_term
            elif bound != ground_term:
                return None
        else:
            if pat_term != ground_term:
                return None
    return theta
