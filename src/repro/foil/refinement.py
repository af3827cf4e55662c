"""Candidate-literal generation for top-down learners (the refinement operator).

FOIL's specialization operator adds one new literal to the clause body.  A
candidate literal for relation ``R(A1..Ak)`` assigns each argument position
either an existing clause variable or a fresh variable, with at least one
existing variable so the clause stays linked; a column of a declared
constant attribute (:attr:`~repro.database.schema.Schema.constant_attributes`)
may also be specialized to one of its stored values (this is how FOIL learns
literals like ``yearsInProgram(x, 7)`` in Example 1.1).

The number of such literals grows combinatorially with relation arity and
with the number of clause variables — which is precisely why top-down
learners degrade on composed (wide) schemas.  ``max_candidates_per_relation``
caps the blow-up so runs terminate, mirroring the resource limits real
systems impose.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..database.instance import DatabaseInstance
from ..database.schema import Schema
from ..logic.atoms import Atom
from ..logic.clauses import HornClause
from ..logic.terms import Constant, Term, Variable


class RefinementConfig:
    """Limits on candidate-literal generation."""

    def __init__(
        self,
        max_new_variables_per_literal: int = 2,
        max_candidates_per_relation: int = 300,
    ):
        self.max_new_variables_per_literal = max_new_variables_per_literal
        self.max_candidates_per_relation = max_candidates_per_relation


class RefinementOperator:
    """Generate candidate literals to append to a clause under construction."""

    def __init__(
        self,
        schema: Schema,
        instance: Optional[DatabaseInstance] = None,
        config: Optional[RefinementConfig] = None,
    ):
        self.schema = schema
        self.config = config or RefinementConfig()
        self._constant_pool: Dict[Tuple[str, int], List[object]] = (
            instance.constant_values() if instance is not None else {}
        )

    # ------------------------------------------------------------------ #
    # Candidate generation
    # ------------------------------------------------------------------ #
    def candidate_literals(self, clause: HornClause) -> List[Atom]:
        """All candidate literals for one refinement step of ``clause``."""
        existing = clause.variables()
        candidates: List[Atom] = []
        for relation in self.schema.relations:
            candidates.extend(self._candidates_for_relation(relation.name, relation.arity, existing))
        return candidates

    def _candidates_for_relation(
        self, relation: str, arity: int, existing: Sequence[Variable]
    ) -> List[Atom]:
        config = self.config
        candidates: List[Atom] = []
        seen: Set[Atom] = set()
        fresh_names = [Variable(f"n{i}") for i in range(arity)]

        # Each position gets: an existing variable, a fresh variable, or (for
        # declared constant columns) a constant.  Enumerate with a cap.
        position_choices: List[List[Term]] = []
        for position in range(arity):
            choices: List[Term] = list(existing)
            choices.append(fresh_names[position])
            for value in self._constant_pool.get((relation, position), []):
                choices.append(Constant(value))
            position_choices.append(choices)

        for assignment in itertools.product(*position_choices):
            if len(candidates) >= config.max_candidates_per_relation:
                break
            if not any(isinstance(term, Variable) and term in existing for term in assignment):
                continue
            new_vars = {
                term
                for term in assignment
                if isinstance(term, Variable) and term not in existing
            }
            if len(new_vars) > config.max_new_variables_per_literal:
                continue
            atom = Atom(relation, assignment)
            if atom not in seen:
                seen.add(atom)
                candidates.append(atom)
        return candidates

    def candidate_literals_for_clause(self, clause: HornClause) -> List[Atom]:
        """Candidate literals not already present in the clause body."""
        present = set(clause.body)
        return [atom for atom in self.candidate_literals(clause) if atom not in present]


def initial_clause(target: str, arity: int) -> HornClause:
    """The most general clause for a target: ``target(x0, ..., xk) :- true``."""
    head = Atom(target, [Variable(f"x{i}") for i in range(arity)])
    return HornClause(head, [])
