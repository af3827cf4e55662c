"""Tests for repro.logic.atoms."""

import pytest

from repro.logic.atoms import Atom, atoms_share_variable, collect_constants, collect_variables
from repro.logic.terms import Constant, Variable


class TestAtom:
    def test_plain_values_become_constants(self):
        atom = Atom("r", ["a", 1])
        assert atom.terms == (Constant("a"), Constant(1))

    def test_arity(self):
        assert Atom("r", [Variable("x"), Variable("y")]).arity == 2
        assert Atom("r", []).arity == 0

    def test_variables_in_order_without_duplicates(self):
        atom = Atom("r", [Variable("x"), Variable("y"), Variable("x")])
        assert atom.variables() == [Variable("x"), Variable("y")]

    def test_constants_in_order(self):
        atom = Atom("r", [Constant("a"), Variable("x"), Constant("b")])
        assert atom.constants() == [Constant("a"), Constant("b")]

    def test_is_ground(self):
        assert Atom("r", ["a", "b"]).is_ground()
        assert not Atom("r", [Variable("x"), "b"]).is_ground()

    def test_apply_substitution(self):
        atom = Atom("r", [Variable("x"), Variable("y")])
        applied = atom.apply({Variable("x"): Constant("a")})
        assert applied == Atom("r", [Constant("a"), Variable("y")])

    def test_apply_does_not_mutate(self):
        atom = Atom("r", [Variable("x")])
        atom.apply({Variable("x"): Constant("a")})
        assert atom.terms == (Variable("x"),)

    def test_equality_and_hash(self):
        assert Atom("r", ["a"]) == Atom("r", ["a"])
        assert Atom("r", ["a"]) != Atom("s", ["a"])
        assert len({Atom("r", ["a"]), Atom("r", ["a"])}) == 1

    def test_str(self):
        assert str(Atom("r", [Variable("x"), "a"])) == "r(x, a)"

    def test_empty_predicate_rejected(self):
        with pytest.raises(ValueError):
            Atom("", ["a"])


class TestHelpers:
    def test_atoms_share_variable(self):
        a = Atom("r", [Variable("x"), "a"])
        b = Atom("s", [Variable("x")])
        c = Atom("s", [Variable("z")])
        assert atoms_share_variable(a, b)
        assert not atoms_share_variable(a, c)
        assert not atoms_share_variable(Atom("r", ["a"]), Atom("s", ["a"]))

    def test_collect_variables(self):
        atoms = [Atom("r", [Variable("x")]), Atom("s", [Variable("y"), Variable("x")])]
        assert collect_variables(atoms) == [Variable("x"), Variable("y")]

    def test_collect_constants(self):
        atoms = [Atom("r", ["a"]), Atom("s", ["b", "a"])]
        assert collect_constants(atoms) == [Constant("a"), Constant("b")]
