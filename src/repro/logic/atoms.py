"""Atoms.

An *atom* is ``R(u1, ..., un)`` where ``R`` is a relation (predicate) symbol
and each ``ui`` is a term.  Horn clauses in this package only ever contain
positive body literals (Datalog without negation), so a body literal is an
atom.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple, Union

from .terms import Constant, Term, Variable, make_term


class Atom:
    """A predicate applied to a tuple of terms: ``R(t1, ..., tn)``."""

    __slots__ = ("predicate", "terms", "_hash")

    def __init__(self, predicate: str, terms: Sequence[Union[Term, str, int, float]]):
        if not predicate:
            raise ValueError("predicate name must be non-empty")
        self.predicate = str(predicate)
        self.terms: Tuple[Term, ...] = tuple(make_term(t) for t in terms)
        self._hash = hash((self.predicate, self.terms))

    @property
    def arity(self) -> int:
        """Number of arguments of the atom."""
        return len(self.terms)

    def variables(self) -> List[Variable]:
        """Return the variables of the atom, in order of first occurrence."""
        seen = []
        for term in self.terms:
            if isinstance(term, Variable) and term not in seen:
                seen.append(term)
        return seen

    def constants(self) -> List[Constant]:
        """Return the constants of the atom, in order of first occurrence."""
        seen = []
        for term in self.terms:
            if isinstance(term, Constant) and term not in seen:
                seen.append(term)
        return seen

    def is_ground(self) -> bool:
        """True when every term is a constant."""
        return all(isinstance(t, Constant) for t in self.terms)

    def apply(self, substitution: Dict[Variable, Term]) -> "Atom":
        """Return a new atom with ``substitution`` applied to every term."""
        new_terms = [
            substitution.get(t, t) if isinstance(t, Variable) else t for t in self.terms
        ]
        return Atom(self.predicate, new_terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and other.predicate == self.predicate
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Atom({self.predicate!r}, {list(self.terms)!r})"

    def __str__(self) -> str:
        args = ", ".join(str(t) for t in self.terms)
        return f"{self.predicate}({args})"


def atoms_share_variable(a: Atom, b: Atom) -> bool:
    """Return True when atoms ``a`` and ``b`` have at least one common variable."""
    vars_a = set(a.variables())
    if not vars_a:
        return False
    return any(v in vars_a for v in b.variables())


def collect_variables(atoms: Iterable[Atom]) -> List[Variable]:
    """Collect distinct variables from ``atoms`` in order of first occurrence."""
    seen: List[Variable] = []
    for atom in atoms:
        for var in atom.variables():
            if var not in seen:
                seen.append(var)
    return seen


def collect_constants(atoms: Iterable[Atom]) -> List[Constant]:
    """Collect distinct constants from ``atoms`` in order of first occurrence."""
    seen: List[Constant] = []
    for atom in atoms:
        for const in atom.constants():
            if const not in seen:
                seen.append(const)
    return seen
