"""Tests for inclusion-class instances, IND-aware ARMG, and negative reduction."""


from repro.castor.armg import IndConsistencyEnforcer, castor_armg
from repro.castor.bottom_clause import CastorBottomClauseBuilder, CastorBottomClauseConfig
from repro.castor.castor import CastorCoverageEngine
from repro.castor.inclusion_instances import (
    compute_inclusion_instances,
    head_connecting_instances,
    literals_satisfy_ind,
)
from repro.castor.reduction import NegativeReducer
from repro.learning.coverage import SubsumptionCoverageEngine
from repro.logic.parser import parse_clause


class TestInclusionInstances:
    def test_literals_satisfy_ind(self, decomposed_schema):
        ind = decomposed_schema.equality_inds()[0]  # person[id] = inPhase[id]
        person = parse_clause("t(x) :- person(x).").body[0]
        in_phase_match = parse_clause("t(x) :- inPhase(x, prelim).").body[0]
        in_phase_other = parse_clause("t(x) :- inPhase(y, prelim).").body[0]
        assert literals_satisfy_ind(decomposed_schema, ind, person, in_phase_match)
        assert not literals_satisfy_ind(decomposed_schema, ind, person, in_phase_other)

    def test_instances_group_sibling_literals(self, decomposed_schema):
        clause = parse_clause(
            "advised(x, y) :- person(x), inPhase(x, prelim), years(x, 3), "
            "publication(t, x), publication(t, y)."
        )
        instances = compute_inclusion_instances(clause, decomposed_schema)
        sizes = sorted(len(instance) for instance in instances)
        # person/inPhase/years form one instance; each publication literal is
        # a singleton.
        assert sizes == [1, 1, 3]

    def test_two_independent_instances_of_same_class(self, decomposed_schema):
        clause = parse_clause(
            "advised(x, y) :- person(x), inPhase(x, prelim), years(x, 3), "
            "person(y), inPhase(y, faculty), years(y, 10)."
        )
        instances = compute_inclusion_instances(clause, decomposed_schema)
        assert len(instances) == 2
        assert all(len(instance) == 3 for instance in instances)

    def test_head_connecting_instances_chain(self, decomposed_schema):
        clause = parse_clause(
            "advised(x, y) :- publication(t, x), publication(t, z), person(z)."
        )
        instances = compute_inclusion_instances(clause, decomposed_schema)
        person_instance = next(
            i for i in instances if any(a.predicate == "person" for a in i.literals)
        )
        connecting = head_connecting_instances(
            person_instance, instances, set(clause.head.variables())
        )
        # person(z) connects to the head only through publication(t, z).
        assert connecting
        assert any(
            any(a.predicate == "publication" for a in inst.literals) for inst in connecting
        )

    def test_directly_connected_instance_needs_no_chain(self, decomposed_schema):
        clause = parse_clause("advised(x, y) :- publication(t, x).")
        instances = compute_inclusion_instances(clause, decomposed_schema)
        assert head_connecting_instances(
            instances[0], instances, set(clause.head.variables())
        ) == []


class TestIndConsistencyEnforcer:
    def test_orphan_literal_removed(self, decomposed_schema):
        enforcer = IndConsistencyEnforcer(decomposed_schema)
        clause = parse_clause(
            "advised(x, y) :- inPhase(x, prelim), publication(t, x), publication(t, y)."
        )
        # inPhase participates in person[id] = inPhase[id] but person(x) is
        # missing, so the literal is dropped.
        enforced = enforcer.enforce(clause)
        assert all(atom.predicate != "inPhase" for atom in enforced.body)
        assert len(enforced.body) == 2

    def test_consistent_group_is_kept(self, decomposed_schema):
        enforcer = IndConsistencyEnforcer(decomposed_schema)
        clause = parse_clause(
            "advised(x, y) :- person(x), inPhase(x, prelim), years(x, 3), publication(t, x)."
        )
        enforced = enforcer.enforce(clause)
        assert len(enforced.body) == 4

    def test_cascading_removal(self, decomposed_schema):
        enforcer = IndConsistencyEnforcer(decomposed_schema)
        # years(x,3) is witnessed by person(x); person(x) is witnessed by
        # inPhase? person needs BOTH inPhase and years.  Removing inPhase makes
        # person unsupported, which in turn makes years unsupported.
        clause = parse_clause("advised(x, y) :- person(x), years(x, 3), publication(t, y).")
        enforced = enforcer.enforce(clause)
        assert {a.predicate for a in enforced.body} == {"publication"}


class TestCastorArmg:
    def test_armg_covers_second_example(
        self, decomposed_instance, decomposed_schema, advised_examples
    ):
        coverage = CastorCoverageEngine(
            decomposed_instance, decomposed_schema, CastorBottomClauseConfig(max_depth=2)
        )
        seed_clause = CastorBottomClauseBuilder(
            decomposed_instance, decomposed_schema, CastorBottomClauseConfig(max_depth=2)
        ).build(advised_examples.positives[0])
        other = advised_examples.positives[1]
        generalized = castor_armg(seed_clause, other, coverage, decomposed_schema)
        assert coverage.covers(generalized, other)
        assert coverage.covers(generalized, advised_examples.positives[0])

    def test_castor_armg_preserves_ind_consistency(
        self, decomposed_instance, decomposed_schema, advised_examples
    ):
        coverage = SubsumptionCoverageEngine(decomposed_instance)
        seed_clause = CastorBottomClauseBuilder(
            decomposed_instance, decomposed_schema, CastorBottomClauseConfig(max_depth=2)
        ).build(advised_examples.positives[0])
        generalized = castor_armg(
            seed_clause, advised_examples.positives[1], coverage, decomposed_schema
        )
        enforcer = IndConsistencyEnforcer(decomposed_schema)
        assert enforcer.enforce(generalized) == generalized


class TestNegativeReducer:
    def test_reduction_drops_nonessential_instances(
        self, decomposed_instance, decomposed_schema, advised_examples
    ):
        coverage = SubsumptionCoverageEngine(decomposed_instance)
        clause = parse_clause(
            "advised(x, y) :- person(x), inPhase(x, prelim), years(x, 3), "
            "publication(t, x), publication(t, y)."
        )
        reducer = NegativeReducer(decomposed_schema, coverage)
        reduced = reducer.reduce(clause, advised_examples.negatives)
        # The publication join is what separates positives from negatives; the
        # person/inPhase/years instance is non-essential and may be dropped,
        # but the reduced clause must not cover more negatives than before.
        negatives_before = sum(
            1 for e in advised_examples.negatives if coverage.covers(clause, e)
        )
        negatives_after = sum(
            1 for e in advised_examples.negatives if coverage.covers(reduced, e)
        )
        assert negatives_after <= negatives_before
        assert reduced.is_safe()

    def test_reduction_keeps_safety(self, decomposed_instance, decomposed_schema, advised_examples):
        coverage = SubsumptionCoverageEngine(decomposed_instance)
        clause = parse_clause(
            "advised(x, y) :- publication(t, x), publication(t, y), person(y)."
        )
        reducer = NegativeReducer(decomposed_schema, coverage, ensure_safe=True)
        reduced = reducer.reduce(clause, advised_examples.negatives)
        assert reduced.is_safe()
        assert reduced.body

    def test_empty_clause_is_returned_unchanged(self, decomposed_instance, decomposed_schema):
        coverage = SubsumptionCoverageEngine(decomposed_instance)
        reducer = NegativeReducer(decomposed_schema, coverage)
        clause = parse_clause("advised(x, y).")
        assert reducer.reduce(clause, []) == clause
