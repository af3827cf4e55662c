"""Castor's negative reduction over inclusion-class instances (Algorithm 5).

Negative reduction generalizes a clause by removing *non-essential* groups of
literals: a group is non-essential when removing it does not increase the
number of negative examples covered.  Castor removes whole inclusion-class
instances rather than individual literals so that the reduction commutes with
composition/decomposition (Lemma 7.8).  The safe variant (Section 7.3.3)
additionally keeps enough instances to preserve every head variable, so that
the reduced clause remains safe.

Each probe asks how many negatives a prefix clause covers with one
``covered_mask`` call on the learner's coverage engine (one compiled
statement on backends with compiled queries).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from ..database.schema import Schema
from ..learning.coverage import SubsumptionCoverageEngine
from ..learning.examples import Example
from ..logic.atoms import Atom
from ..logic.clauses import HornClause
from ..logic.terms import Variable
from .inclusion_instances import (
    InclusionInstance,
    compute_inclusion_instances,
    head_connecting_instances,
)


class NegativeReducer:
    """Reduce clauses by discarding non-essential inclusion-class instances.

    Each negative-coverage probe (one prefix clause against the whole
    negative example list) is one ``coverage.covered_mask`` call.
    """

    def __init__(
        self,
        schema: Schema,
        coverage: SubsumptionCoverageEngine,
        include_subset_inds: bool = False,
        ensure_safe: bool = True,
        max_iterations: int = 50,
    ):
        self.schema = schema
        self.coverage = coverage
        self.include_subset_inds = include_subset_inds
        self.ensure_safe = ensure_safe
        self.max_iterations = int(max_iterations)

    # ------------------------------------------------------------------ #
    def reduce(
        self, clause: HornClause, negatives: Sequence[Example]
    ) -> HornClause:
        """Negative-reduce ``clause`` against the negative examples."""
        negatives = list(negatives)
        if not clause.body:
            return clause
        target_count = self._covered_negatives(clause, negatives)
        instances = compute_inclusion_instances(
            clause, self.schema, self.include_subset_inds
        )
        if self.ensure_safe:
            instances = self._sort_for_safety(clause, instances)
        head_variables = set(clause.head.variables())

        for _ in range(self.max_iterations):
            prefix_end = self._first_sufficient_prefix(
                clause, instances, negatives, target_count
            )
            if prefix_end is None:
                break
            pivot = instances[prefix_end]
            connecting = head_connecting_instances(pivot, instances, head_variables)
            kept: List[InclusionInstance] = []
            seen: Set[InclusionInstance] = set()
            for instance in (*connecting, pivot, *instances[:prefix_end]):
                if instance not in seen:
                    seen.add(instance)
                    kept.append(instance)
            if self.ensure_safe:
                kept = self._repair_safety(clause, kept, instances)
            if len(kept) >= len(instances):
                break
            instances = kept
        return self._clause_from_instances(clause, instances)

    # ------------------------------------------------------------------ #
    def _covered_negatives(
        self, clause: HornClause, negatives: Sequence[Example]
    ) -> int:
        """Number of negatives covered: one ``covered_mask`` call."""
        return self.coverage.covered_mask(clause, negatives).bit_count()

    def _first_sufficient_prefix(
        self,
        clause: HornClause,
        instances: Sequence[InclusionInstance],
        negatives: Sequence[Example],
        target_count: int,
    ) -> Optional[int]:
        """Index of the first instance whose prefix already pins negative coverage.

        Returns the smallest ``i`` such that the clause built from instances
        ``0..i`` covers no more negatives than the full clause, or None when
        no prefix qualifies.  Because longer prefixes are more specific, the
        covered-negatives count is non-increasing in ``i``, so the boundary
        is located by bisection, each probe one count over the negatives.
        """

        def prefix_count(index: int) -> int:
            prefix_clause = self._clause_from_instances(clause, instances[: index + 1])
            if not prefix_clause.body:
                return len(negatives) + 1
            return self._covered_negatives(prefix_clause, negatives)

        last = len(instances) - 1
        if prefix_count(last) > target_count:
            return None
        low, high = 0, last
        while low < high:
            middle = (low + high) // 2
            if prefix_count(middle) <= target_count:
                high = middle
            else:
                low = middle + 1
        return low

    def _clause_from_instances(
        self, clause: HornClause, instances: Sequence[InclusionInstance]
    ) -> HornClause:
        """Rebuild the clause body from the kept instances, preserving body order."""
        kept_literals: Set[Atom] = set()
        for instance in instances:
            kept_literals |= set(instance.literals)
        body = [literal for literal in clause.body if literal in kept_literals]
        return HornClause(clause.head, body)

    # ------------------------------------------------------------------ #
    # Safety handling (Section 7.3.3)
    # ------------------------------------------------------------------ #
    def _sort_for_safety(
        self, clause: HornClause, instances: List[InclusionInstance]
    ) -> List[InclusionInstance]:
        """Order instances by number of head variables they contain, descending."""
        head_variables = set(clause.head.variables())

        def head_var_count(instance: InclusionInstance) -> int:
            return len(instance.variables() & head_variables)

        return sorted(instances, key=head_var_count, reverse=True)

    def _repair_safety(
        self,
        clause: HornClause,
        kept: List[InclusionInstance],
        all_instances: Sequence[InclusionInstance],
    ) -> List[InclusionInstance]:
        """Add back discarded instances until every head variable is covered."""
        head_variables = set(clause.head.variables())
        covered: Set[Variable] = set()
        for instance in kept:
            covered |= instance.variables()
        missing = head_variables - covered
        if not missing:
            return kept
        repaired = list(kept)
        present: Set[InclusionInstance] = set(repaired)
        for instance in all_instances:
            if not missing:
                break
            if instance in present:
                continue
            provided = instance.variables() & missing
            if provided:
                repaired.append(instance)
                present.add(instance)
                missing -= provided
        return repaired
