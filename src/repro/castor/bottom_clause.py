"""Castor's IND-aware bottom-clause construction (Section 7.1).

The standard bottom-clause algorithm adds one literal per database tuple that
mentions a known constant.  Castor additionally *chases inclusion
dependencies*: when a tuple of relation ``Si`` (member of an inclusion class
``N``) is added, Castor follows every IND ``Sj[X] = Si[X]`` of ``N`` and adds
the joining tuples of ``Sj`` as well, recursively until the INDs of the class
are exhausted.  This makes the bottom clauses over a composed schema and its
decomposition equivalent (Lemma 7.5), which is the first ingredient of
Castor's schema independence.

The stopping condition is Castor's variable-budget rule: stop iterating once
the clause has a given number of *distinct variables* (equivalent clauses
over (de)compositions have the same number of distinct variables, unlike
clause depth or length).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..database.constraints import InclusionDependency
from ..database.instance import DatabaseInstance
from ..database.schema import Schema
from ..learning.bottom_clause import BottomClauseBuilder, BottomClauseConfig
from ..logic.atoms import Atom


class CastorBottomClauseConfig(BottomClauseConfig):
    """Bottom-clause limits plus Castor-specific IND options.

    ``max_joining_tuples_per_ind`` is the cap on how many tuples of the other
    side of an IND may be pulled in for a single tuple (the paper uses 10).
    ``use_subset_inds`` enables the Section 7.4 extension where general
    (subset-form) INDs are chased as well.
    """

    def __init__(
        self,
        max_depth: Optional[int] = 3,
        max_distinct_variables: Optional[int] = 15,
        max_literals_per_relation_per_tuple: int = 5,
        max_total_literals: int = 100,
        max_joining_tuples_per_ind: int = 10,
        use_subset_inds: bool = False,
    ):
        super().__init__(
            max_depth=max_depth,
            max_distinct_variables=max_distinct_variables,
            max_literals_per_relation_per_tuple=max_literals_per_relation_per_tuple,
            max_total_literals=max_total_literals,
        )
        self.max_joining_tuples_per_ind = int(max_joining_tuples_per_ind)
        self.use_subset_inds = bool(use_subset_inds)


class CastorBottomClauseBuilder(BottomClauseBuilder):
    """Construct IND-aware bottom clauses and saturations.

    The builder pre-computes, per relation, the list of INDs to chase (those
    of the relation's inclusion class), so the per-example construction only
    performs indexed lookups.  Frontier expansion (including level-synchronous
    batch construction over whole example generations) is inherited from the
    standard builder; the IND chase rides the same indexed seam through
    ``tuples_matching``.
    """

    def __init__(
        self,
        instance: DatabaseInstance,
        schema: Optional[Schema] = None,
        config: Optional[CastorBottomClauseConfig] = None,
        use_compiled_lookups: Optional[bool] = None,
    ):
        # The working schema must be bound before the base constructor runs
        # theory-constant inference (which consults its FDs/INDs).
        self.schema = schema or instance.schema
        super().__init__(
            instance,
            config or CastorBottomClauseConfig(),
            use_compiled_lookups=use_compiled_lookups,
        )
        self._inds_by_relation: Dict[str, List[InclusionDependency]] = {}
        # Compiled per-relation chase plan: (other relation, own positions,
        # other positions) per IND, resolved once per schema instead of per
        # chased tuple (part of the "stored procedure" compilation step).
        self._chase_plan: Dict[str, List[Tuple[str, Tuple[int, ...], Tuple[int, ...]]]] = {}
        self._prepare_inclusion_metadata()

    def _theory_schema(self) -> Schema:
        return self.schema

    # ------------------------------------------------------------------ #
    # Metadata preparation (the "stored procedure" compilation step)
    # ------------------------------------------------------------------ #
    def _prepare_inclusion_metadata(self) -> None:
        include_subset = self.config.use_subset_inds
        for inclusion_class in self.schema.inclusion_classes(include_subset):
            if len(inclusion_class) < 2:
                continue
            for relation in inclusion_class.members:
                inds = inclusion_class.inds_for(relation)
                self._inds_by_relation.setdefault(relation, []).extend(inds)

    def inds_for(self, relation: str) -> List[InclusionDependency]:
        """INDs Castor chases when a tuple of ``relation`` enters the clause."""
        return self._inds_by_relation.get(relation, [])

    def _chase_plan_for(
        self, relation: str
    ) -> List[Tuple[str, Tuple[int, ...], Tuple[int, ...]]]:
        """Resolved join positions for every IND chased from ``relation``."""
        plan = self._chase_plan.get(relation)
        if plan is None:
            relation_schema = self.schema.relation(relation)
            plan = []
            for ind in self.inds_for(relation):
                other_name, own_attrs, other_attrs = ind.other_side(relation)
                plan.append(
                    (
                        other_name,
                        tuple(relation_schema.positions_of(own_attrs)),
                        tuple(self.schema.relation(other_name).positions_of(other_attrs)),
                    )
                )
            self._chase_plan[relation] = plan
        return plan

    # ------------------------------------------------------------------ #
    # Construction hook: one admitted tuple plus its inclusion-class chase
    # ------------------------------------------------------------------ #
    def _add_neighbor(
        self,
        state,
        relation_name: str,
        row: Tuple[object, ...],
        next_frontier: Set[object],
    ) -> None:
        """Add one tuple's literal and chase the INDs of its inclusion class."""
        pending: List[Tuple[str, Tuple[object, ...]]] = [(relation_name, row)]
        while pending:
            current_relation, current_row = pending.pop(0)
            key = (current_relation, current_row)
            if key in state.seen_rows:
                continue
            if len(state.body) >= self.config.max_total_literals:
                return
            state.seen_rows.add(key)
            state.body.append(
                Atom(current_relation, [self._term_for(state, v) for v in current_row])
            )
            for value in current_row:
                if value not in state.known_constants:
                    state.known_constants.add(value)
                    next_frontier.add(value)
            pending.extend(
                self._joining_tuples(
                    current_relation, current_row, state.seen_rows, state.join_cache
                )
            )

    def _joining_tuples(
        self,
        relation_name: str,
        row: Tuple[object, ...],
        seen_rows: Set[Tuple[str, Tuple[object, ...]]],
        join_cache: Optional[Dict[object, List[Tuple[object, ...]]]] = None,
    ) -> List[Tuple[str, Tuple[object, ...]]]:
        """Tuples of sibling relations that join with ``row`` through the class INDs.

        The underlying index lookups are pure functions of the database, so
        a batch-scoped ``join_cache`` (shared by every example of one
        construction call) deduplicates them across the generation; the
        per-call ``seen_rows`` filter stays outside the cache.
        """
        joining: List[Tuple[str, Tuple[object, ...]]] = []
        for other_name, own_positions, other_positions in self._chase_plan_for(
            relation_name
        ):
            key_values = tuple(row[p] for p in own_positions)
            cache_key = (other_name, other_positions, key_values)
            matches = None if join_cache is None else join_cache.get(cache_key)
            if matches is None:
                bindings = dict(zip(other_positions, key_values))
                matches = sorted(
                    self.instance.relation(other_name).tuples_matching(bindings),
                    key=lambda r: tuple(map(str, r)),
                )
                if join_cache is not None:
                    join_cache[cache_key] = matches
            added = 0
            for match in matches:
                if (other_name, match) in seen_rows:
                    continue
                joining.append((other_name, match))
                added += 1
                if added >= self.config.max_joining_tuples_per_ind:
                    break
        return joining
