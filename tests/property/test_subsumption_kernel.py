"""Kernel-vs-reference parity for the θ-subsumption engines.

The interned, explicit-stack :class:`~repro.logic.subsumption.SubsumptionEngine`
must be an observationally identical drop-in for the original recursive
:class:`~repro.logic.subsumption.ReferenceSubsumptionEngine`: same verdicts
on random clause pairs (hypothesis) and on realistic UW-CSE saturation
workloads, and every positive verdict must come with a *valid* witness
substitution (applying it maps the general clause into the specific one).
The kernel runs both on fresh indexes and the way the coverage engine runs
it: many saturation indexes over one shared
:class:`~repro.logic.subsumption.InternTable`.  Generous backtrack budgets
keep both engines inside exact territory, where decisions are uniquely
determined.
"""

from hypothesis import Phase, example, find, given, settings, strategies as st
import pytest

from repro.datasets import uwcse
from repro.learning.bottom_clause import BottomClauseBuilder, BottomClauseConfig
from repro.logic.atoms import Atom
from repro.logic.clauses import HornClause
from repro.logic.lgg import lgg_clauses
from repro.logic.subsumption import (
    GroundClauseIndex,
    InternTable,
    ReferenceSubsumptionEngine,
    SubsumptionEngine,
)
from repro.logic.terms import Constant, Variable

BUDGET = 2_000_000
KERNEL = SubsumptionEngine(max_backtracks=BUDGET)
REFERENCE = ReferenceSubsumptionEngine(max_backtracks=BUDGET)

predicates = st.sampled_from(["p", "q", "r"])
constants = st.integers(min_value=0, max_value=5).map(lambda i: Constant(f"c{i}"))
variables = st.integers(min_value=0, max_value=4).map(lambda i: Variable(f"x{i}"))
terms = st.one_of(constants, variables)


def atom_strategy(term_strategy):
    return st.builds(
        lambda predicate, args: Atom(predicate, args),
        predicates,
        st.lists(term_strategy, min_size=1, max_size=2),
    )


general_clauses = st.builds(
    lambda head_terms, body: HornClause(Atom("t", head_terms), body),
    st.lists(terms, min_size=1, max_size=2),
    st.lists(atom_strategy(terms), min_size=0, max_size=5),
)
specific_clauses = st.builds(
    lambda head_terms, body: HornClause(Atom("t", head_terms), body),
    st.lists(constants, min_size=1, max_size=2),
    st.lists(atom_strategy(constants), min_size=0, max_size=6),
)
general_lists = st.lists(general_clauses, min_size=1, max_size=4)
specific_lists = st.lists(specific_clauses, min_size=1, max_size=4)


def assert_witness_valid(theta, general, specific):
    """θ must map the general clause inside the specific one."""
    mapped_head = general.head.apply(theta)
    assert mapped_head == specific.head, (mapped_head, specific.head)
    specific_body = set(specific.body)
    for literal in general.body:
        mapped = literal.apply(theta)
        assert mapped in specific_body, (literal, mapped)


def _body_keys(clause):
    return {(atom.predicate, atom.arity) for atom in clause.body}


def _body_constants(clause):
    return {term for atom in clause.body for term in atom.constants()}


def reaches_shared_table_paths(generals, specifics):
    """True when the case reaches the three paths a shared table adds: a
    general literal whose predicate some saturation lacks, a general
    constant some saturation lacks, and a later saturation that reuses ids
    an earlier one interned."""
    lacks_predicate = any(
        _body_keys(general) - _body_keys(specific)
        for general in generals
        for specific in specifics
    )
    lacks_constant = any(
        _body_constants(general) - _body_constants(specific)
        for general in generals
        for specific in specifics
    )
    reuses_ids = any(
        _body_constants(earlier) & _body_constants(later)
        for i, earlier in enumerate(specifics)
        for later in specifics[i + 1 :]
    )
    return lacks_predicate and lacks_constant and reuses_ids


C0, C1, C2 = Constant("c0"), Constant("c1"), Constant("c2")
X0 = Variable("x0")
SHARED_TABLE_CASE = (
    [
        HornClause(Atom("t", [X0]), [Atom("q", [X0])]),
        HornClause(Atom("t", [X0]), [Atom("p", [X0, C2])]),
    ],
    [
        HornClause(Atom("t", [C0]), [Atom("p", [C0, C1])]),
        HornClause(Atom("t", [C1]), [Atom("q", [C1]), Atom("p", [C1, C2])]),
    ],
)


class TestKernelMatchesReferenceRandom:
    @settings(max_examples=300, deadline=None)
    @given(general_clauses, specific_clauses)
    def test_identical_verdicts_and_valid_witnesses(self, general, specific):
        reference_verdict = REFERENCE.subsumes(general, specific)
        witness = KERNEL.subsumption_substitution(general, specific)
        assert (witness is not None) == reference_verdict
        if witness is not None:
            assert_witness_valid(witness, general, specific)

    @settings(max_examples=120, deadline=None)
    @given(general_clauses, general_clauses)
    def test_identical_verdicts_on_non_ground_pairs(self, first, second):
        assert KERNEL.subsumes(first, second) == REFERENCE.subsumes(first, second)
        assert KERNEL.equivalent(first, second) == REFERENCE.equivalent(first, second)

    @settings(max_examples=120, deadline=None)
    @given(general_clauses)
    def test_kernel_is_reflexive(self, clause):
        witness = KERNEL.subsumption_substitution(clause, clause)
        assert witness is not None


class TestKernelOnSharedTable:
    """Many indexes over one intern table, as the coverage engine runs them."""

    @settings(max_examples=200, deadline=None)
    @given(general_lists, specific_lists)
    @example(*SHARED_TABLE_CASE)
    def test_identical_verdicts_and_valid_witnesses(self, generals, specifics):
        table = InternTable()
        indexes = []
        # Saturations join the table one at a time between sweeps, so a
        # later index reuses ids interned both by earlier indexes and by
        # earlier encodings.
        for specific in specifics:
            indexes.append(GroundClauseIndex(specific, table))
            for general in generals:
                for index in indexes:
                    reference_verdict = REFERENCE.subsumes(general, index.clause)
                    witness = KERNEL.subsumption_substitution(
                        general, index.clause, index
                    )
                    assert (witness is not None) == reference_verdict
                    if witness is not None:
                        assert_witness_valid(witness, general, index.clause)

    def test_generator_reaches_shared_table_paths(self):
        assert reaches_shared_table_paths(*SHARED_TABLE_CASE)
        found = find(
            st.tuples(general_lists, specific_lists),
            lambda case: reaches_shared_table_paths(*case),
            # The first hit is enough: shrinking it would only cost time.
            settings=settings(database=None, phases=[Phase.generate]),
        )
        assert reaches_shared_table_paths(*found)


@pytest.fixture(scope="module")
def uwcse_workload():
    """Recorded saturations + LGG candidates from a quick UW-CSE instance."""
    config = uwcse.UwCseConfig(num_students=14, num_professors=6, num_courses=9)
    bundle = uwcse.load(config, seed=3)
    instance = bundle.instance(bundle.variant_names[0])
    builder = BottomClauseBuilder(
        instance, BottomClauseConfig(max_depth=2, max_total_literals=18)
    )
    saturations = [
        clause
        for clause in (
            builder.build(e) for e in bundle.examples.all_examples()[:10]
        )
        if clause.body
    ]
    assert len(saturations) >= 4, "workload must produce usable saturations"
    candidates = []
    for i in range(min(5, len(saturations))):
        for j in range(i + 1, min(5, len(saturations))):
            generalized = lgg_clauses(saturations[i], saturations[j])
            if generalized is not None and generalized.body:
                candidates.append(generalized)
    assert candidates, "workload must produce LGG candidates"
    return saturations, candidates


class TestKernelMatchesReferenceOnUwCse:
    def test_identical_verdicts_on_saturation_pairs(self, uwcse_workload):
        saturations, candidates = uwcse_workload
        table = InternTable()
        indexes = [GroundClauseIndex(s, table) for s in saturations]
        checked = positive = 0
        for candidate in candidates:
            for saturation, index in zip(saturations, indexes):
                reference_verdict = REFERENCE.subsumes(candidate, saturation, index)
                witness = KERNEL.subsumption_substitution(
                    candidate, saturation, index
                )
                assert (witness is not None) == reference_verdict, (
                    candidate,
                    saturation,
                )
                if witness is not None:
                    positive += 1
                    assert_witness_valid(witness, candidate, saturation)
                checked += 1
        assert checked >= 16
        # The workload must exercise BOTH verdicts or the parity is vacuous.
        assert 0 < positive < checked

    def test_shared_index_matches_fresh_index(self, uwcse_workload):
        saturations, candidates = uwcse_workload
        candidate = candidates[0]
        for saturation in saturations:
            shared = GroundClauseIndex(saturation)
            first = KERNEL.subsumes(candidate, saturation, shared)
            second = KERNEL.subsumes(candidate, saturation, shared)
            fresh = KERNEL.subsumes(candidate, saturation)
            assert first == second == fresh
