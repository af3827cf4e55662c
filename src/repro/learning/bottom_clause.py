"""Standard bottom-clause construction (Section 6.1).

Given a positive example ``T(a1, ..., an)`` and a database instance, the
bottom clause is the most specific clause covering the example relative to
the instance.  The classic algorithm (Muggleton's inverse entailment, as
described in the paper) starts from the example's constants, repeatedly finds
database tuples mentioning known constants, and adds one literal per tuple,
replacing constants by variables consistently.

Two stopping conditions are supported:

* ``max_depth`` — the classic per-iteration depth bound (schema *dependent*,
  Lemma 6.3);
* ``max_distinct_variables`` — Castor's stopping condition (Section 7.1),
  which is invariant under (de)composition because equivalent clauses over
  composed/decomposed schemas have the same number of distinct variables.

The builder can also produce *ground* bottom clauses (saturations), which the
coverage engine θ-subsumes candidate clauses against (Section 7.5.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..database.delta import Delta
from ..database.instance import DatabaseInstance
from ..logic.atoms import Atom
from ..logic.clauses import HornClause
from ..logic.terms import Constant, Term, Variable
from ..obs import registry as obs_registry
from .examples import Example

Row = Tuple[object, ...]
Neighbors = Dict[object, List[Tuple[str, Row]]]


class BottomClauseConfig:
    """Tunable limits for bottom-clause construction.

    Attributes
    ----------
    max_depth:
        Maximum iteration depth (new constants found in iteration ``i`` are
        expanded in iteration ``i+1``).  ``None`` disables the depth bound.
    max_distinct_variables:
        Castor's stopping condition: stop iterating once the clause has at
        least this many distinct variables.  ``None`` disables it.
    max_literals_per_relation_per_tuple:
        Cap on how many tuples of one relation may be added for a single
        lookup constant in one iteration (the paper uses 10 for IMDb).
    max_total_literals:
        Hard cap on the body size, as a safety net for dense databases.
    """

    def __init__(
        self,
        max_depth: Optional[int] = 2,
        max_distinct_variables: Optional[int] = None,
        max_literals_per_relation_per_tuple: int = 5,
        max_total_literals: int = 100,
    ):
        self.max_depth = max_depth
        self.max_distinct_variables = max_distinct_variables
        self.max_literals_per_relation_per_tuple = max_literals_per_relation_per_tuple
        self.max_total_literals = max_total_literals


class _ConstructionState:
    """Per-example construction state for (batched) bottom-clause building.

    One state is the classic algorithm's working set — the partial body, the
    constant→variable map, the seen-tuple set, and the current frontier —
    factored out of the loop so that many examples can advance depth levels
    in lockstep while sharing one frontier lookup per level.
    """

    __slots__ = (
        "example",
        "variablize",
        "example_values",
        "variable_of",
        "head",
        "body",
        "seen_rows",
        "known_constants",
        "frontier",
        "depth",
        "truncated",
    )

    def __init__(self, example: Example, variablize: bool):
        self.example = example
        self.variablize = variablize
        self.example_values = set(example.values)
        self.variable_of: Dict[object, Variable] = {}
        self.head: Optional[Atom] = None
        self.body: List[Atom] = []
        self.seen_rows: Set[Tuple[str, Row]] = set()
        self.known_constants: Set[object] = set(example.values)
        self.frontier: Set[object] = set(example.values)
        self.depth = 0
        # Names of the caps that cut this clause, set in the cap branches
        # only and counted once when the construction call ends.
        self.truncated: Set[str] = set()


class BottomClauseBuilder:
    """Construct bottom clauses / saturations relative to a database instance.

    Frontier expansion — "which tuples mention any of this depth level's new
    constants" — goes through the backend's saturation capability when the
    instance has one (``use_compiled_lookups=None``, the default): one
    set-at-a-time :meth:`~repro.database.instance.DatabaseInstance.neighbors_of_batch`
    call per depth level, the stored-procedure analogue of Section 7.5.2.
    ``use_compiled_lookups=False`` forces the per-constant client path (one
    ``tuples_containing`` round-trip per frontier value), which Table 13
    compares against.  The constructed clauses are identical either way.

    :meth:`build_many` / :meth:`build_ground_many` construct a whole example
    generation **level-synchronously**: all examples advance one depth at a
    time and each level issues ONE frontier lookup for the union of every
    example's frontier, so the per-statement cost is amortized across the
    generation.  Per-example construction order is untouched (each state
    consumes its own frontier's neighbors in its own sorted order), so the
    clauses are byte-identical to one-at-a-time construction.

    The builder keeps what it looks up for its whole lifetime: each value's
    sorted frontier neighbours, each ground literal by ``(relation, row)``,
    and (Castor) each IND-chase join.  :meth:`apply_delta` evicts exactly
    what a delta can change.  A write that bypassed it moves the instance's
    :meth:`~repro.database.instance.DatabaseInstance.data_token` away from
    the one the caches were synced to; the next construction, or the next
    delta, then drops every cache first.
    """

    def __init__(
        self,
        instance: DatabaseInstance,
        config: Optional[BottomClauseConfig] = None,
        use_compiled_lookups: Optional[bool] = None,
    ):
        self.instance = instance
        self.config = config or BottomClauseConfig()
        if use_compiled_lookups is None:
            use_compiled_lookups = getattr(
                instance.backend, "supports_saturation_queries", False
            )
        self.use_compiled_lookups = bool(use_compiled_lookups)
        # Values stored under a declared constant attribute stay constants
        # in variablized clauses.
        self.constants: Set[object] = {
            value for values in instance.constant_values().values() for value in values
        }
        self._reset_caches()
        self._token = instance.data_token()

    # ------------------------------------------------------------------ #
    # Builder-lifetime caches
    # ------------------------------------------------------------------ #
    def _reset_caches(self) -> None:
        """Start every cache empty.  Fresh dicts, not ``clear()``: a
        construction running on another thread keeps reading the dicts it
        already holds."""
        self._neighbors: Neighbors = {}
        self._literals: Dict[Tuple[str, Row], Atom] = {}

    def _sync_caches(self) -> None:
        """Drop every cache when the instance changed since the last
        eviction (or tracks no version)."""
        token = self.instance.data_token()
        if token is None or token != self._token:
            self._reset_caches()
            self._token = token

    def apply_delta(self, delta: Delta) -> None:
        """Evict what ``delta``, the instance's last applied delta, can change.

        The cost follows the delta, not the cache size: one ``pop`` per
        touched value (the frontier neighbours of every value in a changed
        row) and per listed row (its ground literal).  Eviction never
        iterates a cache, so a construction on another thread may keep
        filling them.  When the delta did not start from the data token the
        caches were last synced to (a write bypassed :meth:`apply_delta` in
        between), every cache is dropped instead.
        """
        before, after = self.instance.delta_tokens
        if before is None or before != self._token:
            self._reset_caches()
            self._token = self.instance.data_token()
            return
        neighbors, literals = self._neighbors, self._literals
        for value in delta.touched_values():
            neighbors.pop(value, None)
        for _op, relation, rows in delta.ops:
            for row in rows:
                literals.pop((relation, row), None)
        self._token = after

    def _frontier_neighbors(self, constants: Sequence[object]) -> Neighbors:
        """Sorted ``constant -> [(relation, tuple)]`` for one depth level.

        The per-constant lists are sorted exactly as the construction loop
        consumes them, so the clause is identical whichever lookup path
        produced the neighbors.
        """
        if self.use_compiled_lookups:
            neighbors = self.instance.neighbors_of_batch(constants)
        else:
            neighbors = {
                constant: self.instance.tuples_containing(constant)
                for constant in constants
            }
        return {
            constant: sorted(
                neighbors.get(constant, ()),
                key=lambda pair: (pair[0], tuple(map(str, pair[1]))),
            )
            for constant in constants
        }

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def build(self, example: Example) -> HornClause:
        """Variablized bottom clause for ``example`` (used as the search seed)."""
        return self._construct_many([example], variablize=True)[0]

    def build_ground(self, example: Example) -> HornClause:
        """Ground bottom clause (saturation) for ``example`` (used for coverage)."""
        return self._construct_many([example], variablize=False)[0]

    def build_many(self, examples: Sequence[Example]) -> List[HornClause]:
        """Variablized bottom clauses for a whole generation, in input order."""
        return self._construct_many(list(examples), variablize=True)

    def build_ground_many(self, examples: Sequence[Example]) -> List[HornClause]:
        """Ground saturations for a whole generation, in input order."""
        return self._construct_many(list(examples), variablize=False)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _term_for(self, state: _ConstructionState, value: object) -> Term:
        # Example values are always variablized so the clause generalizes
        # over the target's arguments; other declared constants stay ground.
        if not state.variablize or (
            value in self.constants and value not in state.example_values
        ):
            return Constant(value)
        existing = state.variable_of.get(value)
        if existing is None:
            existing = Variable(f"v{len(state.variable_of)}")
            state.variable_of[value] = existing
        return existing

    def _state_active(self, state: _ConstructionState) -> bool:
        if not state.frontier:
            return False
        if (
            self.config.max_depth is not None
            and state.depth >= self.config.max_depth
        ):
            return False
        if self._reached_variable_budget(
            state.variable_of, state.known_constants, state.variablize
        ):
            return False
        # A full body can never admit another literal; dropping the state
        # here is output-identical and keeps its (possibly large) leftover
        # frontier out of the next level's batched lookup.
        if len(state.body) >= self.config.max_total_literals:
            state.truncated.add("max_total_literals")
            return False
        return True

    def _literal(self, state: _ConstructionState, relation_name: str, row: Row) -> Atom:
        """The body literal of one admitted tuple.

        A ground literal depends on nothing but ``(relation, row)``, so it
        is built once per builder and shared by every saturation holding it.
        """
        if state.variablize:
            return Atom(relation_name, [self._term_for(state, v) for v in row])
        key = (relation_name, row)
        literal = self._literals.get(key)
        if literal is None:
            literal = Atom(relation_name, [Constant(v) for v in row])
            self._literals[key] = literal
        return literal

    def _add_neighbor(
        self,
        state: _ConstructionState,
        relation_name: str,
        row: Row,
        next_frontier: Set[object],
    ) -> None:
        """Admit one tuple: literal, bookkeeping, frontier growth.

        Castor overrides this to additionally chase the tuple's inclusion
        class (Section 7.1) through the same indexed lookups.
        """
        state.seen_rows.add((relation_name, row))
        state.body.append(self._literal(state, relation_name, row))
        for value in row:
            if value not in state.known_constants:
                state.known_constants.add(value)
                next_frontier.add(value)

    def _expand_state(self, state: _ConstructionState, neighbors: Neighbors) -> None:
        """Advance one example one depth level using pre-fetched neighbors."""
        next_frontier: Set[object] = set()
        limit = self.config.max_total_literals
        per_relation = self.config.max_literals_per_relation_per_tuple
        for constant in sorted(state.frontier, key=str):
            per_relation_counts: Dict[str, int] = {}
            for relation_name, row in neighbors[constant]:
                if (relation_name, row) in state.seen_rows:
                    continue
                if len(state.body) >= limit:
                    state.truncated.add("max_total_literals")
                    break
                count = per_relation_counts.get(relation_name, 0)
                if count >= per_relation:
                    state.truncated.add("max_literals_per_relation_per_tuple")
                    continue
                per_relation_counts[relation_name] = count + 1
                self._add_neighbor(state, relation_name, row, next_frontier)
            else:
                continue
            break  # the total-literal cap stopped this constant: end the level
        state.frontier = next_frontier
        state.depth += 1

    def _level_neighbors(self, values: Set[object]) -> Neighbors:
        """Sorted neighbours of one depth level's frontier union.

        Values the builder has not looked up yet are fetched with ONE
        set-at-a-time lookup, so the statement cost is shared across the
        whole generation and every later call reuses the answers.  The
        level reads only the dict returned here, which an eviction on
        another thread cannot shrink.
        """
        cache = self._neighbors
        level: Neighbors = {}
        missing: List[object] = []
        for value in values:
            found = cache.get(value)
            if found is None:
                missing.append(value)
            else:
                level[value] = found
        if missing:
            fetched = self._frontier_neighbors(sorted(missing, key=str))
            cache.update(fetched)
            level.update(fetched)
        return level

    def _construct_many(
        self, examples: Sequence[Example], variablize: bool
    ) -> List[HornClause]:
        self._sync_caches()
        states = [_ConstructionState(example, variablize) for example in examples]
        for state in states:
            state.head = Atom(
                state.example.target,
                [self._term_for(state, v) for v in state.example.values],
            )
        while True:
            active = [state for state in states if self._state_active(state)]
            if not active:
                break
            neighbors = self._level_neighbors(
                {value for state in active for value in state.frontier}
            )
            for state in active:
                self._expand_state(state, neighbors)
        registry = obs_registry()
        for state in states:
            for cap in state.truncated:
                registry.counter("saturation.truncated", cap=cap).inc()
        return [HornClause(state.head, state.body) for state in states]

    def _reached_variable_budget(
        self,
        variable_of: Dict[object, Variable],
        known_constants: Set[object],
        variablize: bool,
    ) -> bool:
        budget = self.config.max_distinct_variables
        if budget is None:
            return False
        count = len(variable_of) if variablize else len(known_constants)
        return count >= budget


def build_bottom_clause(
    instance: DatabaseInstance,
    example: Example,
    config: Optional[BottomClauseConfig] = None,
) -> HornClause:
    """Convenience wrapper: variablized bottom clause for one example."""
    return BottomClauseBuilder(instance, config).build(example)


def build_saturation(
    instance: DatabaseInstance,
    example: Example,
    config: Optional[BottomClauseConfig] = None,
) -> HornClause:
    """Convenience wrapper: ground bottom clause (saturation) for one example."""
    return BottomClauseBuilder(instance, config).build_ground(example)
