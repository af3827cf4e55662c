"""Tests for clause minimization and (relative) least general generalization."""

from repro.logic.lgg import lgg_atoms, lgg_clauses
from repro.logic.minimize import minimize_clause, minimize_definition_clauses, remove_duplicate_literals
from repro.logic.atoms import Atom
from repro.logic.parser import parse_clause
from repro.logic.subsumption import clauses_equivalent
from repro.logic.terms import Constant


class TestMinimize:
    def test_removes_duplicate_literals(self):
        clause = parse_clause("t(x) :- r(x, y), r(x, y).")
        assert remove_duplicate_literals(clause).length == 1

    def test_removes_redundant_literal(self):
        clause = parse_clause("t(x) :- r(x, y), r(x, z).")
        minimized = minimize_clause(clause)
        assert minimized.length == 1
        assert clauses_equivalent(minimized, clause)

    def test_keeps_necessary_literals(self):
        clause = parse_clause("t(x) :- r(x, y), s(y).")
        assert minimize_clause(clause).length == 2

    def test_keeps_constant_literal_distinct_from_variable_literal(self):
        clause = parse_clause("t(x) :- r(x, a), r(x, y).")
        minimized = minimize_clause(clause)
        # r(x, y) is redundant (subsumed by r(x, a) direction of matching),
        # but r(x, a) is not; the minimized clause must still be equivalent.
        assert clauses_equivalent(minimized, clause)

    def test_minimize_definition_drops_subsumed_clauses(self):
        general = parse_clause("t(x) :- r(x, y).")
        specific = parse_clause("t(x) :- r(x, y), s(y).")
        kept = minimize_definition_clauses([general, specific])
        assert kept == [general]

    def test_minimize_definition_keeps_incomparable_clauses(self):
        first = parse_clause("t(x) :- r(x, y).")
        second = parse_clause("t(x) :- s(x, y).")
        kept = minimize_definition_clauses([first, second])
        assert len(kept) == 2


class TestLgg:
    def test_lgg_of_identical_atoms_is_the_atom(self):
        class Factory:
            def variable_for(self, left, right):
                raise AssertionError("should not be called")

        atom = Atom("r", [Constant("ann"), Constant("bob")])
        assert lgg_atoms(atom, atom, Factory()) == atom

    def test_lgg_of_incompatible_atoms_is_none(self):
        from repro.logic.lgg import _VariableFactory

        assert lgg_atoms(Atom("r", ["a"]), Atom("s", ["a"]), _VariableFactory()) is None
        assert lgg_atoms(Atom("r", ["a"]), Atom("r", ["a", "b"]), _VariableFactory()) is None

    def test_lgg_generalizes_differing_constants_consistently(self):
        first = parse_clause("t(ann) :- r(ann, bob), s(bob).")
        second = parse_clause("t(carl) :- r(carl, dana), s(dana).")
        generalized = lgg_clauses(first, second)
        assert generalized is not None
        # The same constant pair (b, d) must map to the same variable in both
        # r and s literals, so the generalization keeps the join.
        from repro.logic.subsumption import SubsumptionEngine

        engine = SubsumptionEngine()
        assert engine.subsumes(generalized, first)
        assert engine.subsumes(generalized, second)
        assert clauses_equivalent(generalized, parse_clause("t(x) :- r(x, y), s(y)."))

    def test_lgg_size_is_bounded_by_product(self):
        first = parse_clause("t(ann) :- r(ann, bob), r(ann, carl).")
        second = parse_clause("t(dana) :- r(dana, eve), r(dana, fred).")
        generalized = lgg_clauses(first, second)
        assert generalized is not None
        assert generalized.length <= first.length * second.length

    def test_lgg_respects_max_body_literals(self):
        first = parse_clause("t(ann) :- r(ann, bob), r(ann, carl), r(ann, dana).")
        second = parse_clause("t(eve) :- r(eve, fred), r(eve, gina), r(eve, hank).")
        generalized = lgg_clauses(first, second, max_body_literals=4)
        assert generalized is not None
        assert generalized.length <= 4

    def test_lgg_subsumes_both_inputs(self):
        from repro.logic.subsumption import SubsumptionEngine

        engine = SubsumptionEngine()
        first = parse_clause("t(ann) :- p(ann, bob), q(bob, carl).")
        second = parse_clause("t(dana) :- p(dana, eve), q(eve, fred), q(eve, gina).")
        generalized = lgg_clauses(first, second)
        assert engine.subsumes(generalized, first)
        assert engine.subsumes(generalized, second)

    def test_lgg_none_for_incompatible_heads(self):
        body = parse_clause("t(ann) :- r(ann).")
        assert lgg_clauses(body, parse_clause("u(bob) :- r(bob).")) is None
        assert lgg_clauses(body, parse_clause("t(bob, carl) :- r(bob).")) is None
