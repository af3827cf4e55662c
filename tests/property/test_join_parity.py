"""Property-based parity of the generic join against two oracles.

Over small random instances and clauses, the join ``QueryEvaluator`` runs
on the ``memory`` backend must agree with

* a brute-force nested loop over the active domain, and
* the SQLite backend's compiled statements;

and the same generic join run over SQLite relation stores (the path taken
when a body cannot be compiled) must agree too.  The clauses include head
constants, repeated head variables, body constants, a variable repeated
inside one atom, a missing relation, a wrong-arity atom and an empty body.
Each clause also comes with a batch of its refinements (the clause plus one
more drawn atom each), the shape FOIL scores: ``covered_tuples_batch`` must
give every refinement the covered set the oracle gives it.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.instance import DatabaseInstance
from repro.database.query import QueryEvaluator
from repro.database.schema import RelationSchema, Schema
from repro.database.sqlite_backend import SQLiteBackend
from repro.logic.atoms import Atom
from repro.logic.clauses import HornClause
from repro.logic.parser import parse_clause
from repro.logic.terms import Constant, Variable

DOMAIN = ["a", "b", "c", 1, 2]
ARITIES = {"r": 2, "s": 2, "t": 1, "u": 3}
VARIABLES = [Variable(name) for name in ("x", "y", "z", "w")]
SCHEMA = Schema(
    [
        RelationSchema(name, [f"c{i}" for i in range(arity)])
        for name, arity in sorted(ARITIES.items())
    ],
    name="join",
)


class _UncompiledSQLiteBackend(SQLiteBackend):
    """SQLite relation stores without compiled queries, so the evaluator
    runs its generic join over them."""

    supports_compiled_queries = False


VALUES = st.sampled_from(DOMAIN)
TERMS = st.one_of(
    st.sampled_from(VARIABLES),
    st.sampled_from(VARIABLES),
    VALUES.map(Constant),
)


@st.composite
def contents(draw):
    return {
        name: draw(st.lists(st.tuples(*[VALUES] * arity), max_size=8))
        for name, arity in sorted(ARITIES.items())
    }


@st.composite
def atoms(draw):
    predicate = draw(st.sampled_from(sorted(ARITIES) * 4 + ["missing"]))
    arity = ARITIES.get(predicate, 2)
    if draw(st.integers(0, 11)) == 0:
        arity += draw(st.sampled_from([-1, 1]))
    return Atom(predicate, draw(st.lists(TERMS, min_size=arity, max_size=arity)))


@st.composite
def clauses(draw):
    head_terms = st.one_of(st.sampled_from(VARIABLES[:3]), VALUES.map(Constant))
    head = Atom("h", draw(st.lists(head_terms, max_size=3)))
    return HornClause(head, draw(st.lists(atoms(), max_size=4)))


def _instances(rows):
    """The same contents on memory, sqlite, and sqlite without compilation."""
    instances = {}
    for label, backend in (
        ("memory", "memory"),
        ("sqlite", "sqlite"),
        ("generic-sqlite", _UncompiledSQLiteBackend()),
    ):
        instance = DatabaseInstance(SCHEMA, backend=backend)
        for name, relation_rows in rows.items():
            instance.add_tuples(name, relation_rows)
        instances[label] = instance
    return instances


# --------------------------------------------------------------------- #
# Brute-force oracle
# --------------------------------------------------------------------- #
def _brute_bindings(rows, body, initial):
    """Every assignment of the body's unbound variables over the active
    domain that puts each body atom's tuple in its relation."""
    stored = {name: set(relation_rows) for name, relation_rows in rows.items()}
    domain = sorted({v for rs in rows.values() for row in rs for v in row}, key=repr)
    free = sorted(
        {t for atom in body for t in atom.terms if isinstance(t, Variable)} - set(initial),
        key=lambda v: v.name,
    )
    found = []
    for values in itertools.product(domain, repeat=len(free)):
        binding = dict(initial)
        binding.update(zip(free, values))
        if all(
            tuple(
                binding[t] if isinstance(t, Variable) else t.value for t in atom.terms
            )
            in stored.get(atom.predicate, set())
            for atom in body
        ):
            found.append(binding)
    return found


def _brute_head_binding(head, candidate):
    """Head variables bound to ``candidate``, or ``None`` when it cannot match."""
    if len(candidate) != head.arity:
        return None
    binding = {}
    for term, value in zip(head.terms, candidate):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        elif binding.setdefault(term, value) != value:
            return None
    return binding


def _brute_covered(rows, clause, candidates):
    """The candidates whose head binding extends to a body solution."""
    covered = set()
    for candidate in candidates:
        head_binding = _brute_head_binding(clause.head, candidate)
        if head_binding is not None and _brute_bindings(rows, clause.body, head_binding):
            covered.add(tuple(candidate))
    return covered


# --------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------- #
@settings(max_examples=150, deadline=None)
@given(
    rows=contents(),
    clause=clauses(),
    extra=st.lists(st.lists(VALUES, max_size=3).map(tuple), max_size=6),
    initial=st.dictionaries(st.sampled_from(VARIABLES), VALUES, max_size=2),
    refinements=st.lists(atoms(), min_size=2, max_size=5),
)
def test_join_agrees_with_brute_force_and_sqlite(
    rows, clause, extra, initial, refinements
):
    body, head = clause.body, clause.head
    bindings = _brute_bindings(rows, body, {})
    expected_results = None
    if clause.is_safe():
        expected_results = {
            tuple(b[t] if isinstance(t, Variable) else t.value for t in head.terms)
            for b in bindings
        }
    candidates = list(extra) + sorted(expected_results or (), key=repr)
    expected_covered = _brute_covered(rows, clause, candidates)
    expected_satisfiable = bool(_brute_bindings(rows, body, initial))
    # The lone clause rides along in its refinements' batch.
    batch = [clause.add_literal(atom) for atom in refinements] + [clause]
    expected_batch = [
        _brute_covered(rows, refined, candidates) for refined in batch[:-1]
    ] + [expected_covered]

    for label, instance in _instances(rows).items():
        evaluator = QueryEvaluator(instance)
        assert evaluator.covered_tuples(clause, candidates) == expected_covered, label
        assert evaluator.covered_tuples_batch(batch, candidates) == expected_batch, label
        for candidate in candidates:
            assert evaluator.clause_covers_tuple(clause, candidate) == (
                tuple(candidate) in expected_covered
            ), (label, candidate)
        assert evaluator.body_is_satisfiable(body, initial) == (
            expected_satisfiable
        ), label
        if expected_results is None:
            with pytest.raises(ValueError):
                evaluator.evaluate_clause(clause)
        else:
            assert evaluator.evaluate_clause(clause) == expected_results, label


def test_covered_tuples_plans_the_clause_once(monkeypatch):
    """One ``covered_tuples`` call resolves each body atom's relation once
    for its whole candidate list, instead of re-planning per candidate."""
    instance = DatabaseInstance(SCHEMA)
    instance.add_tuples("r", [(i, i + 1) for i in range(50)])
    instance.add_tuples("s", [(i + 1, "b") for i in range(0, 50, 2)])
    clause = parse_clause("h(x, z) :- r(x, y), s(y, z).")
    candidates = [(i, "b") for i in range(50)]
    lookups = []
    resolve = instance.relation

    def counting(name):
        lookups.append(name)
        return resolve(name)

    monkeypatch.setattr(instance, "relation", counting)
    covered = QueryEvaluator(instance).covered_tuples(clause, candidates)
    assert covered == {(i, "b") for i in range(0, 50, 2)}
    assert sorted(lookups) == ["r", "s"]


def test_covered_tuples_batch_plans_the_shared_body_once(monkeypatch):
    """A batch of refinements of one clause resolves each relation of the
    shared body once for the whole batch, not once per refinement, and each
    refinement's last atom once."""
    instance = DatabaseInstance(SCHEMA)
    instance.add_tuples("r", [(i, i + 1) for i in range(50)])
    instance.add_tuples("s", [(i + 1, "b") for i in range(0, 50, 2)])
    instance.add_tuples("t", [(i,) for i in range(0, 50, 3)])
    instance.add_tuples("u", [(i, i + 1, "c") for i in range(0, 50, 4)])
    clause = parse_clause("h(x, z) :- r(x, y), s(y, z).")
    lasts = ["t(x)", "t(y)", "t(w)", "u(x, y, w)", "u(w, w, y)", "missing(x)"]
    refinements = [
        parse_clause(f"h(x, z) :- r(x, y), s(y, z), {last}.") for last in lasts
    ]
    assert all(refined.body[:-1] == clause.body for refined in refinements)
    candidates = [(i, "b") for i in range(50)]
    lookups = []
    resolve = instance.relation

    def counting(name):
        lookups.append(name)
        return resolve(name)

    monkeypatch.setattr(instance, "relation", counting)
    covered = QueryEvaluator(instance).covered_tuples_batch(refinements, candidates)
    evens = {(i, "b") for i in range(0, 50, 2)}
    assert covered == [
        {(i, "b") for i in range(0, 50, 6)},
        {(i, "b") for i in range(2, 50, 6)},
        evens,
        {(i, "b") for i in range(0, 50, 4)},
        set(),
        set(),
    ]
    assert sorted(lookups) == ["missing", "r", "s", "t", "t", "t", "u", "u"]
