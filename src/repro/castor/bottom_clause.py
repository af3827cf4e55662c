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
from ..database.delta import Delta
from ..database.instance import DatabaseInstance
from ..database.schema import Schema
from ..learning.bottom_clause import BottomClauseBuilder, BottomClauseConfig, Row

#: One IND to chase: (other relation, own positions, other positions).
ChaseStep = Tuple[str, Tuple[int, ...], Tuple[int, ...]]
#: One join-cache key a changed row evicts: (joined relation, its
#: positions, the changed row's positions that hold the key values).
JoinEviction = Tuple[str, Tuple[int, ...], Tuple[int, ...]]


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
        self._chase_plan: Dict[str, List[ChaseStep]] = {}
        self._prepare_inclusion_metadata()
        self._evictions = self._join_evictions()

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

    def _chase_plan_for(self, relation: str) -> List[ChaseStep]:
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
    # Builder-lifetime join cache
    # ------------------------------------------------------------------ #
    def _reset_caches(self) -> None:
        super()._reset_caches()
        # ``(relation, positions, key values) -> sorted matching rows``.
        self._joins: Dict[Tuple[str, Tuple[int, ...], Row], List[Row]] = {}

    def _join_evictions(self) -> Dict[str, Tuple[JoinEviction, ...]]:
        """``relation -> ((joined relation, its positions, row positions), ...)``.

        For a changed row of ``relation``, each entry names one join cache
        key to drop: a chase lookup into ``relation`` that the row matches
        (its answer changes), or the lookup keyed by the row's own values
        (so the cache keeps nothing of a removed row).
        """
        evictions: Dict[str, Set[JoinEviction]] = {}
        for relation in self._inds_by_relation:
            for other_name, own, other in self._chase_plan_for(relation):
                evictions.setdefault(other_name, set()).add((other_name, other, other))
                evictions.setdefault(relation, set()).add((other_name, other, own))
        return {relation: tuple(keys) for relation, keys in evictions.items()}

    def apply_delta(self, delta: Delta) -> None:
        """Also evict the IND-chase joins ``delta`` can change, one ``pop``
        per changed row and chased IND."""
        joins = self._joins
        for _op, relation, rows in delta.ops:
            for other_name, other, positions in self._evictions.get(relation, ()):
                for row in rows:
                    joins.pop((other_name, other, tuple(row[p] for p in positions)), None)
        super().apply_delta(delta)

    # ------------------------------------------------------------------ #
    # Construction hook: one admitted tuple plus its inclusion-class chase
    # ------------------------------------------------------------------ #
    def _add_neighbor(
        self,
        state,
        relation_name: str,
        row: Row,
        next_frontier: Set[object],
    ) -> None:
        """Add one tuple's literal and chase the INDs of its inclusion class."""
        pending: List[Tuple[str, Row]] = [(relation_name, row)]
        index = 0
        while index < len(pending):
            key = pending[index]
            index += 1
            if key in state.seen_rows:
                continue
            if len(state.body) >= self.config.max_total_literals:
                state.truncated.add("max_total_literals")
                return
            current_relation, current_row = key
            state.seen_rows.add(key)
            state.body.append(self._literal(state, current_relation, current_row))
            for value in current_row:
                if value not in state.known_constants:
                    state.known_constants.add(value)
                    next_frontier.add(value)
            pending.extend(self._joining_tuples(state, current_relation, current_row))

    def _joining_tuples(
        self, state, relation_name: str, row: Row
    ) -> List[Tuple[str, Row]]:
        """Tuples of sibling relations that join with ``row`` through the class INDs.

        The index lookups are pure functions of the database, so their
        sorted answers live in the builder's join cache until a delta
        changes them; the per-clause ``seen_rows`` filter stays outside it.
        The chase admits at least one joining tuple per IND, even at a cap
        of 0.
        """
        joining: List[Tuple[str, Row]] = []
        limit = max(self.config.max_joining_tuples_per_ind, 1)
        joins = self._joins
        for other_name, own_positions, other_positions in self._chase_plan_for(
            relation_name
        ):
            key_values = tuple(row[p] for p in own_positions)
            cache_key = (other_name, other_positions, key_values)
            matches = joins.get(cache_key)
            if matches is None:
                bindings = dict(zip(other_positions, key_values))
                matches = sorted(
                    self.instance.relation(other_name).tuples_matching(bindings),
                    key=lambda r: tuple(map(str, r)),
                )
                joins[cache_key] = matches
            added = 0
            for match in matches:
                if (other_name, match) in state.seen_rows:
                    continue
                if added >= limit:
                    state.truncated.add("max_joining_tuples_per_ind")
                    break
                joining.append((other_name, match))
                added += 1
        return joining
