"""Tests for repro.logic.clauses."""

import pytest

from repro.logic.atoms import Atom
from repro.logic.clauses import HornClause, HornDefinition, clause_from_example
from repro.logic.parser import parse_clause
from repro.logic.terms import Constant, Variable

X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")


def make_collaborated() -> HornClause:
    return HornClause(
        Atom("collaborated", [X, Y]),
        [Atom("publication", [Z, X]), Atom("publication", [Z, Y])],
    )


class TestHornClause:
    def test_length_counts_body_literals(self):
        assert make_collaborated().length == 2
        assert HornClause(Atom("t", [X])).length == 0

    def test_variables_head_first(self):
        assert make_collaborated().variables() == [X, Y, Z]

    def test_head_and_body_variables(self):
        clause = make_collaborated()
        assert clause.head_variables() == [X, Y]
        assert set(clause.body_variables()) == {X, Y, Z}

    def test_is_safe(self):
        assert make_collaborated().is_safe()
        unsafe = HornClause(Atom("t", [X, Y]), [Atom("r", [X])])
        assert not unsafe.is_safe()

    def test_fact_with_no_head_variables_is_safe(self):
        assert HornClause(Atom("t", ["a"]), [Atom("r", ["a"])]).is_safe()

    def test_is_ground(self):
        assert HornClause(Atom("t", ["a"]), [Atom("r", ["a", "b"])]).is_ground()
        assert not make_collaborated().is_ground()

    def test_predicates(self):
        assert make_collaborated().predicates() == {"publication"}

    def test_add_and_remove_literal(self):
        clause = make_collaborated()
        extended = clause.add_literal(Atom("professor", [Y]))
        assert extended.length == 3
        assert clause.length == 2
        shrunk = extended.remove_literal_at(2)
        assert shrunk == clause

    def test_without_duplicates(self):
        clause = HornClause(Atom("t", [X]), [Atom("r", [X]), Atom("r", [X])])
        assert clause.without_duplicates().length == 1

    def test_apply_substitution(self):
        clause = make_collaborated()
        grounded = clause.apply({X: Constant("p1"), Y: Constant("p2"), Z: Constant("t1")})
        assert grounded.is_ground()

    def test_standardize_apart_renames_all_variables(self):
        clause = make_collaborated()
        renamed = clause.standardize_apart("1")
        assert set(renamed.variables()).isdisjoint(set(clause.variables()))
        assert renamed.length == clause.length

    def test_normalize_variables_gives_variant_equality(self):
        clause_a = make_collaborated()
        clause_b = HornClause(
            Atom("collaborated", [W, Y]),
            [Atom("publication", [Z, W]), Atom("publication", [Z, Y])],
        )
        assert clause_a.normalize_variables() == clause_b.normalize_variables()

    def test_equality_ignores_body_order(self):
        clause_a = make_collaborated()
        clause_b = HornClause(
            Atom("collaborated", [X, Y]),
            [Atom("publication", [Z, Y]), Atom("publication", [Z, X])],
        )
        assert clause_a == clause_b
        assert hash(clause_a) == hash(clause_b)

    def test_equality_distinguishes_variable_from_constant_of_same_text(self):
        head = Atom("t", [X])
        with_variable = HornClause(head, [Atom("r", [X, Variable("a")])])
        with_constant = HornClause(head, [Atom("r", [X, Constant("a")])])
        assert str(with_variable) == str(with_constant)
        assert with_variable != with_constant

    def test_equality_distinguishes_constant_types(self):
        head = Atom("t", [X])
        with_int = HornClause(head, [Atom("r", [X, Constant(1)])])
        with_str = HornClause(head, [Atom("r", [X, Constant("1")])])
        assert with_int != with_str

    def test_equality_counts_repeated_literals(self):
        q, r = Atom("q", [X]), Atom("r", [X])
        head = Atom("t", [X])
        assert HornClause(head, [q, q, r]) != HornClause(head, [q, r, r])
        assert HornClause(head, [q, q, r]) == HornClause(head, [r, q, q])
        assert HornClause(head, [q, r]) != HornClause(head, [q, r, r])

    def test_str_round_trips_through_parser(self):
        clause = make_collaborated()
        assert parse_clause(str(clause)) == clause


class TestDepthAndConnectivity:
    def test_depth_of_flat_clause_is_one(self):
        clause = parse_clause("taLevel(x, y) :- ta(c, x, t), courseLevel(c, y).")
        assert clause.depth() == 1

    def test_depth_two_example_from_paper(self):
        clause = parse_clause(
            "commonLevel(x, y) :- ta(c1, x, t1), ta(c2, y, t2), "
            "courseLevel(c1, l), courseLevel(c2, l)."
        )
        assert clause.depth() == 2

    def test_head_connected_body_keeps_connected_literals(self):
        clause = HornClause(
            Atom("t", [X]),
            [Atom("r", [X, Y]), Atom("s", [Y, Z]), Atom("q", [W, W])],
        )
        connected = clause.head_connected_body()
        assert Atom("q", [W, W]) not in connected
        assert len(connected) == 2

    def test_is_head_connected(self):
        assert make_collaborated().is_head_connected()
        disconnected = HornClause(Atom("t", [X]), [Atom("r", [Y, Z])])
        assert not disconnected.is_head_connected()


class TestHornDefinition:
    def test_add_requires_matching_target(self):
        definition = HornDefinition("t")
        with pytest.raises(ValueError):
            definition.add(HornClause(Atom("other", [X]), [Atom("r", [X])]))

    def test_iteration_and_len(self):
        definition = HornDefinition("collaborated", [make_collaborated()])
        assert len(definition) == 1
        assert list(definition) == [make_collaborated()]

    def test_total_length_and_predicates(self):
        definition = HornDefinition("collaborated", [make_collaborated()])
        assert definition.total_length() == 2
        assert definition.predicates() == {"publication"}

    def test_is_safe(self):
        definition = HornDefinition("collaborated", [make_collaborated()])
        assert definition.is_safe()
        definition.add(HornClause(Atom("collaborated", [X, Y]), [Atom("publication", [Z, X])]))
        assert not definition.is_safe()

    def test_equality_up_to_variable_renaming(self):
        first = HornDefinition("collaborated", [make_collaborated()])
        renamed = HornDefinition(
            "collaborated",
            [
                HornClause(
                    Atom("collaborated", [W, Y]),
                    [Atom("publication", [Z, W]), Atom("publication", [Z, Y])],
                )
            ],
        )
        assert first == renamed

    def test_equality_distinguishes_constant_types(self):
        head = Atom("t", [X])
        with_int = HornDefinition("t", [HornClause(head, [Atom("r", [X, Constant(1)])])])
        with_str = HornDefinition(
            "t", [HornClause(head, [Atom("r", [X, Constant("1")])])]
        )
        assert str(with_int) == str(with_str)
        assert with_int != with_str

    def test_equality_distinguishes_constant_from_normalized_variable(self):
        # ``normalize_variables`` names the variables V0, V1, ...; a constant
        # spelled V1 must not equal the variable it prints like.
        head = Atom("t", [X])
        with_variable = HornDefinition("t", [HornClause(head, [Atom("r", [X, Y])])])
        with_constant = HornDefinition(
            "t", [HornClause(head, [Atom("r", [X, Constant("V1")])])]
        )
        assert str(with_variable.normalize()) == str(with_constant.normalize())
        assert with_variable != with_constant

    def test_equality_counts_repeated_clauses(self):
        clause = make_collaborated()
        other = HornClause(Atom("collaborated", [X, Y]), [Atom("publication", [X, Y])])
        twice = HornDefinition("collaborated", [clause, clause, other])
        mixed = HornDefinition("collaborated", [clause, other, other])
        assert twice != mixed
        assert twice == HornDefinition("collaborated", [other, clause, clause])
        assert hash(twice) == hash(HornDefinition("collaborated", [other, clause, clause]))

    def test_clause_from_example(self):
        example = Atom("advisedBy", ["s1", "p1"])
        clause = clause_from_example(example, [Atom("student", ["s1"])])
        assert clause.head == example
        assert clause.length == 1
