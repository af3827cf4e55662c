"""First-order logic substrate: terms, atoms, clauses, subsumption, lgg.

This package is the foundation both for the in-memory relational engine
(conjunctive-query evaluation) and for every learner (clause construction,
generalization, coverage testing).
"""

from .atoms import Atom, atoms_share_variable, collect_constants, collect_variables
from .clauses import HornClause, HornDefinition, clause_from_example
from .lgg import lgg_atoms, lgg_clauses, lgg_terms
from .minimize import minimize_clause, minimize_definition_clauses, remove_duplicate_literals
from .parser import (
    ClauseParseError,
    format_clause,
    format_definition,
    parse_atom,
    parse_clause,
    parse_definition,
    parse_term,
)
from .substitution import (
    Substitution,
    apply_substitution,
    compose,
    match_atom_to_ground,
    restrict,
    unify_atoms,
    unify_terms,
)
from .subsumption import SubsumptionEngine, clauses_equivalent, theta_subsumes
from .terms import Constant, Term, Variable, fresh_variable_factory, make_term

__all__ = [
    "Atom",
    "ClauseParseError",
    "Constant",
    "HornClause",
    "HornDefinition",
    "SubsumptionEngine",
    "Substitution",
    "Term",
    "Variable",
    "apply_substitution",
    "atoms_share_variable",
    "clause_from_example",
    "clauses_equivalent",
    "collect_constants",
    "collect_variables",
    "compose",
    "format_clause",
    "format_definition",
    "fresh_variable_factory",
    "lgg_atoms",
    "lgg_clauses",
    "lgg_terms",
    "make_term",
    "match_atom_to_ground",
    "minimize_clause",
    "minimize_definition_clauses",
    "parse_atom",
    "parse_clause",
    "parse_definition",
    "parse_term",
    "remove_duplicate_literals",
    "restrict",
    "theta_subsumes",
    "unify_atoms",
    "unify_terms",
]
