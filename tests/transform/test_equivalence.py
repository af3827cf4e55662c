"""``clauses_are_variants`` and ``definitions_are_variants`` decide
θ-subsumption equivalence: renaming, literal order, a redundant literal and
clause order never matter; a constant, a non-redundant literal or an extra
non-equivalent clause does."""

from __future__ import annotations

import pytest

from repro.logic.parser import parse_clause, parse_definition
from repro.transform.equivalence import clauses_are_variants, definitions_are_variants

CLAUSE = "movie(M) :- genre(M, 'drama'), directed(D, M), director(D)."


@pytest.mark.parametrize(
    "other,expected",
    [
        ("movie(X) :- director(Y), directed(Y, X), genre(X, 'drama').", True),
        (
            "movie(M) :- genre(M, 'drama'), directed(D, M), director(D), "
            "directed(E, M).",
            True,
        ),
        ("movie(M) :- genre(M, G), directed(D, M), director(D).", False),
        (
            "movie(M) :- genre(M, 'drama'), directed(D, M), director(D), "
            "award(D).",
            False,
        ),
    ],
    ids=[
        "renamed-and-reordered",
        "redundant-literal",
        "variable-for-constant",
        "extra-literal",
    ],
)
def test_clauses_are_theta_equivalent(other, expected):
    first, second = parse_clause(CLAUSE), parse_clause(other)
    assert clauses_are_variants(first, second) is expected
    assert clauses_are_variants(second, first) is expected


DEFINITION = """
movie(M) :- genre(M, 'drama'), directed(D, M), director(D).
movie(M) :- produced(P, M), producer(P).
"""


@pytest.mark.parametrize(
    "other,expected",
    [
        (
            """
            movie(X) :- producer(Y), produced(Y, X).
            movie(X) :- director(Y), directed(Y, X), genre(X, 'drama').
            """,
            True,
        ),
        (
            """
            movie(M) :- genre(M, 'drama'), directed(D, M), director(D).
            movie(M) :- produced(P, M), producer(P).
            movie(M) :- genre(M, 'comedy').
            """,
            False,
        ),
    ],
    ids=["clauses-reordered", "extra-clause"],
)
def test_definitions_are_theta_equivalent(other, expected):
    first, second = parse_definition(DEFINITION), parse_definition(other)
    assert definitions_are_variants(first, second) is expected
    assert definitions_are_variants(second, first) is expected
