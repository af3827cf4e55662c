"""Horn clauses and Horn definitions.

A :class:`HornClause` is ``head :- body`` where the head is a single positive
atom and the body is an *ordered* sequence of positive atoms (the ordering
matters for ProGolem/Castor's ARMG operator, see Section 6.4 of the paper).
A :class:`HornDefinition` is a set of Horn clauses sharing the same head
predicate — a union of conjunctive queries.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from .atoms import Atom, collect_constants, collect_variables
from .substitution import Substitution
from .terms import Constant, Variable


class HornClause:
    """A definite Horn clause ``head :- body`` over function-free atoms.

    The clause is treated as an *ordered clause*: the body is a tuple whose
    order is preserved and significant for the bottom-up generalization
    operators.  Equality, however, compares the head and the body as a
    multiset of atoms, because two clauses that differ only in literal order
    are logically identical for coverage purposes.  Atoms compare by
    predicate and terms, not by their text: variable ``a`` differs from
    constant ``a``, and ``Constant(1)`` from ``Constant("1")``.
    """

    __slots__ = ("head", "body", "_hash")

    def __init__(self, head: Atom, body: Sequence[Atom] = ()):
        if not isinstance(head, Atom):
            raise TypeError("clause head must be an Atom")
        self.head = head
        self.body: Tuple[Atom, ...] = tuple(body)
        for atom in self.body:
            if not isinstance(atom, Atom):
                raise TypeError("clause body must contain Atoms")
        self._hash = hash((self.head, frozenset(self.body)))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def length(self) -> int:
        """Number of body literals (the paper's notion of clause length)."""
        return len(self.body)

    def variables(self) -> List[Variable]:
        """Distinct variables of the clause, head first, in order of appearance."""
        return collect_variables([self.head, *self.body])

    def body_variables(self) -> List[Variable]:
        """Distinct variables appearing in the body."""
        return collect_variables(self.body)

    def head_variables(self) -> List[Variable]:
        """Distinct variables appearing in the head."""
        return self.head.variables()

    def constants(self) -> List[Constant]:
        """Distinct constants of the clause in order of appearance."""
        return collect_constants([self.head, *self.body])

    def is_ground(self) -> bool:
        """True when the clause contains no variables."""
        return self.head.is_ground() and all(a.is_ground() for a in self.body)

    def is_safe(self) -> bool:
        """True when every head variable also appears in the body (Section 7.3)."""
        body_vars = set(self.body_variables())
        return all(v in body_vars for v in self.head_variables())

    def predicates(self) -> Set[str]:
        """The set of body predicate symbols used by this clause."""
        return {atom.predicate for atom in self.body}

    # ------------------------------------------------------------------ #
    # Structural measures
    # ------------------------------------------------------------------ #
    def variable_depths(self) -> Dict[Variable, int]:
        """Compute the depth of each variable as defined in Section 6.1.

        Head variables have depth 0; a body-only variable ``x`` has depth
        ``min(depth(v) for v in Ux) + 1`` where ``Ux`` ranges over variables
        co-occurring with ``x`` in some body literal.  Variables not connected
        to the head get depth ``len(body)`` (effectively infinite but finite
        for reporting).
        """
        depths: Dict[Variable, int] = {v: 0 for v in self.head_variables()}
        all_vars = set(self.variables())
        # Relaxation loop: depths can only shrink, at most |vars| iterations.
        changed = True
        while changed:
            changed = False
            for atom in self.body:
                atom_vars = atom.variables()
                known = [depths[v] for v in atom_vars if v in depths]
                if not known:
                    continue
                candidate = min(known) + 1
                for var in atom_vars:
                    current = depths.get(var)
                    if current is None or candidate < current:
                        if current is None or candidate < current:
                            depths[var] = min(candidate, current) if current is not None else candidate
                            changed = True
        fallback = len(self.body) + 1
        for var in all_vars:
            depths.setdefault(var, fallback)
        return depths

    def depth(self) -> int:
        """Depth of the clause: maximum literal depth (Section 6.1)."""
        if not self.body:
            return 0
        depths = self.variable_depths()
        literal_depths = []
        for atom in self.body:
            atom_vars = atom.variables()
            if atom_vars:
                literal_depths.append(max(depths[v] for v in atom_vars))
            else:
                literal_depths.append(0)
        return max(literal_depths)

    def is_head_connected(self) -> bool:
        """True when every body literal is connected to the head via shared variables."""
        return len(self.head_connected_body()) == len(self.body)

    def head_connected_body(self) -> List[Atom]:
        """Return the body literals reachable from the head through variable chains.

        Order of the original body is preserved.  Literals with no variables
        at all (fully ground) are considered connected, matching the behaviour
        of bottom-clause construction which only adds literals that mention a
        known constant.
        """
        connected_vars: Set[Variable] = set(self.head_variables())
        indexed_body = list(enumerate(self.body))
        kept_indices: Set[int] = set()
        changed = True
        while changed:
            changed = False
            for index, atom in indexed_body:
                if index in kept_indices:
                    continue
                atom_vars = set(atom.variables())
                if not atom_vars or atom_vars & connected_vars:
                    kept_indices.add(index)
                    connected_vars |= atom_vars
                    changed = True
        return [atom for index, atom in indexed_body if index in kept_indices]

    # ------------------------------------------------------------------ #
    # Transformation
    # ------------------------------------------------------------------ #
    def apply(self, substitution: Substitution) -> "HornClause":
        """Apply a substitution to head and body."""
        return HornClause(
            self.head.apply(substitution), [a.apply(substitution) for a in self.body]
        )

    def add_literal(self, atom: Atom) -> "HornClause":
        """Return a clause with ``atom`` appended to the body."""
        return HornClause(self.head, [*self.body, atom])

    def remove_literal_at(self, index: int) -> "HornClause":
        """Return a clause with the body literal at ``index`` removed."""
        new_body = list(self.body)
        del new_body[index]
        return HornClause(self.head, new_body)

    def without_duplicates(self) -> "HornClause":
        """Return a clause whose body has duplicate literals removed (order kept)."""
        seen: Set[Atom] = set()
        body = []
        for atom in self.body:
            if atom not in seen:
                seen.add(atom)
                body.append(atom)
        return HornClause(self.head, body)

    def normalize_variables(self, prefix: str = "V") -> "HornClause":
        """Rename variables canonically (V0, V1, ...) in order of appearance.

        Two clauses that are variants of each other (identical up to variable
        renaming, with the same literal order) normalize to equal clauses.
        """
        renaming: Substitution = {}
        for index, var in enumerate(self.variables()):
            renaming[var] = Variable(f"{prefix}{index}")
        return self.apply(renaming)

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HornClause):
            return NotImplemented
        if self._hash != other._hash or self.head != other.head:
            return False
        body, other_body = self.body, other.body
        if len(body) != len(other_body):
            return False
        return body == other_body or Counter(body) == Counter(other_body)

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.body)

    def __repr__(self) -> str:
        return f"HornClause({self.head!r}, {list(self.body)!r})"

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        body = ", ".join(str(a) for a in self.body)
        return f"{self.head} :- {body}."


class HornDefinition:
    """A Horn definition: a set of Horn clauses with the same head predicate."""

    __slots__ = ("target", "clauses")

    def __init__(self, target: str, clauses: Sequence[HornClause] = ()):
        self.target = str(target)
        self.clauses: List[HornClause] = []
        for clause in clauses:
            self.add(clause)

    def add(self, clause: HornClause) -> None:
        """Add a clause; its head predicate must match the definition target."""
        if clause.head.predicate != self.target:
            raise ValueError(
                f"clause head {clause.head.predicate!r} does not match target {self.target!r}"
            )
        self.clauses.append(clause)

    def is_empty(self) -> bool:
        return not self.clauses

    def is_safe(self) -> bool:
        """True when every clause in the definition is safe."""
        return all(clause.is_safe() for clause in self.clauses)

    def predicates(self) -> Set[str]:
        """Union of body predicates used across all clauses."""
        result: Set[str] = set()
        for clause in self.clauses:
            result |= clause.predicates()
        return result

    def normalize(self) -> "HornDefinition":
        """Return a definition with each clause's variables canonically renamed."""
        return HornDefinition(
            self.target, [clause.normalize_variables() for clause in self.clauses]
        )

    def __iter__(self):
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def __eq__(self, other: object) -> bool:
        """Same target and the same multiset of variable-normalized clauses,
        compared structurally as :class:`HornClause` compares them."""
        if not isinstance(other, HornDefinition):
            return NotImplemented
        if self.target != other.target or len(self.clauses) != len(other.clauses):
            return False
        return Counter(c.normalize_variables() for c in self.clauses) == Counter(
            c.normalize_variables() for c in other.clauses
        )

    def __hash__(self) -> int:
        # Equal definitions have equal clause counts.
        return hash((self.target, len(self.clauses)))

    def __repr__(self) -> str:
        return f"HornDefinition({self.target!r}, {self.clauses!r})"

    def __str__(self) -> str:
        if not self.clauses:
            return f"<empty definition for {self.target}>"
        return "\n".join(str(clause) for clause in self.clauses)


def clause_from_example(example: Atom, body: Iterable[Atom] = ()) -> HornClause:
    """Build a clause whose head is the (usually ground) example atom."""
    return HornClause(example, list(body))
