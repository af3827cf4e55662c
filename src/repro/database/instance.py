"""Relation and database instances with hash indexes.

This module plays the role of the in-memory RDBMS (VoltDB in the paper): it
stores tuples, maintains hash indexes from constants to tuples so that
bottom-clause construction can find "all tuples containing constant ``a``" in
O(1) per tuple, and checks FDs/INDs on demand.

:class:`RelationInstance` is the relation store of the default ``memory``
backend.  :class:`DatabaseInstance` is backend-agnostic: pass
``backend="sqlite"`` (or any name registered in
:mod:`repro.database.backend`) to materialize the instance in a different
storage/evaluation engine with the same interface.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .backend import Backend, RelationBackend, create_backend
from .constraints import FunctionalDependency, InclusionDependency
from .delta import Delta
from .schema import RelationSchema, Schema

Row = Tuple[object, ...]


class RelationInstance:
    """The extension of a single relation: a set of tuples plus indexes.

    Tuples are plain Python tuples of values positionally aligned with the
    relation schema's attributes.  Two indexes are maintained:

    * ``value -> positions`` index: for each value appearing anywhere in the
      relation, the set of tuples containing it (used by bottom-clause
      construction, which looks tuples up by constant regardless of column);
    * ``(position, value) -> tuples`` index: used by joins and IND walks.
    """

    def __init__(
        self,
        schema: RelationSchema,
        rows: Iterable[Sequence[object]] = (),
        on_change: Optional[Callable[[Row, bool], None]] = None,
    ):
        self.schema = schema
        self._rows: Set[Row] = set()
        self._by_value: Dict[object, Set[Row]] = {}
        self._by_position_value: Dict[Tuple[int, object], Set[Row]] = {}
        # Invoked as ``on_change(row, added)`` after every effective insert or
        # delete; the memory backend uses it to maintain its cross-relation
        # value index (the saturation-frontier capability).
        self._on_change = on_change
        for row in rows:
            self.add(row)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, row: Sequence[object]) -> None:
        """Insert a tuple; silently ignores exact duplicates."""
        row_tuple: Row = tuple(row)
        if len(row_tuple) != self.schema.arity:
            raise ValueError(
                f"tuple arity {len(row_tuple)} does not match relation "
                f"{self.schema.name!r} arity {self.schema.arity}"
            )
        if row_tuple in self._rows:
            return
        self._rows.add(row_tuple)
        for position, value in enumerate(row_tuple):
            self._by_value.setdefault(value, set()).add(row_tuple)
            self._by_position_value.setdefault((position, value), set()).add(row_tuple)
        if self._on_change is not None:
            self._on_change(row_tuple, True)

    def add_all(self, rows: Iterable[Sequence[object]]) -> None:
        for row in rows:
            self.add(row)

    def remove(self, row: Sequence[object]) -> None:
        """Delete a tuple; raises KeyError if absent."""
        row_tuple: Row = tuple(row)
        if row_tuple not in self._rows:
            raise KeyError(f"tuple {row_tuple!r} not in relation {self.schema.name!r}")
        self._rows.discard(row_tuple)
        for position, value in enumerate(row_tuple):
            self._by_value.get(value, set()).discard(row_tuple)
            self._by_position_value.get((position, value), set()).discard(row_tuple)
        if self._on_change is not None:
            self._on_change(row_tuple, False)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> Set[Row]:
        """The set of tuples (do not mutate)."""
        return self._rows

    def tuples_containing(self, value: object) -> Set[Row]:
        """All tuples mentioning ``value`` in any column."""
        return self._by_value.get(value, set())

    def tuples_with(self, position: int, value: object) -> Set[Row]:
        """All tuples with ``value`` in column ``position``."""
        return self._by_position_value.get((position, value), set())

    def tuples_matching(self, bindings: Dict[int, object]) -> Set[Row]:
        """Tuples matching all ``position -> value`` bindings (index-accelerated)."""
        if not bindings:
            return set(self._rows)
        candidate_sets = [
            self.tuples_with(position, value) for position, value in bindings.items()
        ]
        candidate_sets.sort(key=len)
        result = set(candidate_sets[0])
        for candidates in candidate_sets[1:]:
            result &= candidates
            if not result:
                break
        return result

    def project(self, attributes: Sequence[str]) -> Set[Tuple[object, ...]]:
        """Projection π_attributes of this relation (as a set of tuples)."""
        positions = self.schema.positions_of(attributes)
        return {tuple(row[p] for p in positions) for row in self._rows}

    def distinct_values(self, attribute: str) -> Set[object]:
        """Distinct values of one attribute."""
        position = self.schema.position_of(attribute)
        return {row[position] for row in self._rows}

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: Sequence[object]) -> bool:
        return tuple(row) in self._rows

    def __eq__(self, other: object) -> bool:
        # Duck-typed so relation stores of different backends compare by
        # contents (e.g. memory vs sqlite parity checks).
        return (
            hasattr(other, "schema")
            and hasattr(other, "rows")
            and other.schema == self.schema
            and set(other.rows) == self._rows
        )

    def __repr__(self) -> str:
        return f"RelationInstance({self.schema.name!r}, {len(self)} tuples)"


class DatabaseInstance:
    """An instance of a schema: one relation store per relation symbol.

    The storage/evaluation engine is pluggable: ``backend`` may be a name
    (``"memory"``, ``"sqlite"``) or a pre-built backend object.  Every
    relation store of one instance is created by the same backend, so
    backends that compile multi-relation queries (SQLite) can join across
    relations in a single statement.
    """

    def __init__(self, schema: Schema, backend: Union[str, Backend, None] = None):
        self.schema = schema
        self.backend: Backend = create_backend(backend)
        self._relations: Dict[str, RelationBackend] = {
            relation.name: self.backend.make_relation(relation)
            for relation in schema.relations
        }
        # Backends that serve exactly one instance (memory) bind to it here,
        # once every relation exists.
        bind_schema = getattr(self.backend, "bind_instance_schema", None)
        if bind_schema is not None:
            bind_schema(schema)
        #: ``(before, after)``: the :meth:`data_token` around the last
        #: :meth:`apply_delta`.  A cache that recorded ``before`` saw every
        #: write up to that delta; any other value means a write bypassed
        #: the delta path since it last synced.
        self.delta_tokens: Tuple[Optional[int], Optional[int]] = (None, None)

    @property
    def backend_name(self) -> str:
        """The selector name of this instance's backend (``memory``, ``sqlite``)."""
        return self.backend.name

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def relation(self, name: str) -> RelationBackend:
        """The instance of relation ``name``."""
        try:
            return self._relations[name]
        except KeyError as exc:
            raise KeyError(f"relation {name!r} not in instance") from exc

    def relations(self) -> List[RelationBackend]:
        return list(self._relations.values())

    def add_tuple(self, relation: str, row: Sequence[object]) -> None:
        """Insert a tuple into a relation."""
        self.relation(relation).add(row)

    def add_tuples(self, relation: str, rows: Iterable[Sequence[object]]) -> None:
        self.relation(relation).add_all(rows)

    def remove_tuple(
        self, relation: str, row: Sequence[object], missing_ok: bool = False
    ) -> None:
        """Delete a tuple from a relation.

        Raises ``KeyError`` when the tuple is absent unless ``missing_ok``
        (delta application uses idempotent retraction: removing an absent
        row is a no-op).
        """
        try:
            self.relation(relation).remove(row)
        except KeyError:
            if not missing_ok:
                raise

    def apply_delta(self, delta: Delta) -> Delta:
        """Apply a :class:`Delta` to this instance (set semantics).

        ``add`` ops ignore rows already present; ``remove`` ops ignore rows
        already absent.  Records :attr:`delta_tokens`.  Returns the applied
        delta.
        """
        if not isinstance(delta, Delta):
            raise TypeError(f"apply_delta expects a Delta, got {type(delta).__name__}")
        before = self.data_token()
        for op, relation, rows in delta.ops:
            if op == "add":
                self.add_tuples(relation, rows)
            else:
                for row in rows:
                    self.remove_tuple(relation, row, missing_ok=True)
        self.delta_tokens = (before, self.data_token())
        return delta

    def total_tuples(self) -> int:
        """Total number of tuples across all relations (the paper's #T)."""
        return sum(len(instance) for instance in self._relations.values())

    def tuples_containing(self, value: object) -> List[Tuple[str, Row]]:
        """All (relation name, tuple) pairs where the tuple mentions ``value``.

        Backends exposing a cheap single-value neighbor hook (the memory
        backend's cross-relation value index) answer in one dict hit;
        otherwise every relation's per-relation index is consulted.
        """
        neighbors = getattr(self.backend, "neighbors_of", None)
        if neighbors is not None:
            return neighbors(value)
        found: List[Tuple[str, Row]] = []
        for name, instance in self._relations.items():
            for row in instance.tuples_containing(value):
                found.append((name, row))
        return found

    def neighbors_of_batch(
        self, values: Sequence[object]
    ) -> Dict[object, List[Tuple[str, Row]]]:
        """``value -> [(relation, tuple)]`` for a whole saturation frontier.

        This is the set-at-a-time frontier expansion bottom-clause
        construction is built on: backends with the saturation capability
        (``supports_saturation_queries``) answer the entire batch natively —
        the SQLite family runs one statement per relation over a temp
        frontier-values table, the memory backend reads its cross-relation
        index — and other backends fall back to per-value lookups.
        """
        if getattr(self.backend, "supports_saturation_queries", False):
            return self.backend.neighbors_of_batch(values)
        return {value: self.tuples_containing(value) for value in values}

    # ------------------------------------------------------------------ #
    # Constraint checking
    # ------------------------------------------------------------------ #
    def satisfies_fd(self, fd: FunctionalDependency) -> bool:
        """Check a functional dependency against the stored tuples."""
        instance = self.relation(fd.relation)
        lhs_positions = instance.schema.positions_of(fd.lhs)
        rhs_positions = instance.schema.positions_of(fd.rhs)
        seen: Dict[Tuple[object, ...], Tuple[object, ...]] = {}
        for row in instance:
            key = tuple(row[p] for p in lhs_positions)
            value = tuple(row[p] for p in rhs_positions)
            if key in seen and seen[key] != value:
                return False
            seen[key] = value
        return True

    def satisfies_ind(self, ind: InclusionDependency) -> bool:
        """Check an inclusion dependency (both directions when with_equality)."""
        left_projection = self.relation(ind.left).project(ind.left_attrs)
        right_projection = self.relation(ind.right).project(ind.right_attrs)
        if not left_projection <= right_projection:
            return False
        if ind.with_equality and not right_projection <= left_projection:
            return False
        return True

    def ind_holds_with_equality(self, ind: InclusionDependency) -> bool:
        """True when the IND holds as an equality on this instance.

        This is the preprocessing check of Section 7.4: a subset-form IND that
        happens to hold with equality on the current instance can be promoted
        and used by Castor exactly like an IND with equality.
        """
        left_projection = self.relation(ind.left).project(ind.left_attrs)
        right_projection = self.relation(ind.right).project(ind.right_attrs)
        return left_projection == right_projection

    def satisfies_all_constraints(self) -> bool:
        """Check every FD and IND declared by the schema."""
        return all(
            self.satisfies_fd(fd) for fd in self.schema.functional_dependencies
        ) and all(
            self.satisfies_ind(ind) for ind in self.schema.inclusion_dependencies
        )

    def violated_constraints(self) -> List[object]:
        """Return the list of constraints that do not hold on this instance."""
        violations: List[object] = []
        for fd in self.schema.functional_dependencies:
            if not self.satisfies_fd(fd):
                violations.append(fd)
        for ind in self.schema.inclusion_dependencies:
            if not self.satisfies_ind(ind):
                violations.append(ind)
        return violations

    # ------------------------------------------------------------------ #
    # Comparison / copying
    # ------------------------------------------------------------------ #
    def data_token(self) -> Optional[int]:
        """Cheap token of this instance's current contents-version.

        The backend's ``data_version``, which moves whenever a tuple is
        inserted or deleted, so caches keyed on an instance — e.g. a
        :class:`~repro.session.session.LearningSession`'s prepared-instance
        and saturation-store caches — can notice mutations without
        scanning.  ``None`` when the backend tracks no version (exotic
        third-party backends); every registered backend tracks one.
        """
        return getattr(self.backend, "data_version", None)

    def copy(self) -> "DatabaseInstance":
        """Deep-ish copy: new relation stores (same backend kind) sharing tuples."""
        return self.with_backend(self.backend_name)

    def with_backend(self, backend: Union[str, Backend, None]) -> "DatabaseInstance":
        """Materialize the same contents in a (possibly different) backend."""
        duplicate = DatabaseInstance(self.schema, backend=backend)
        for name, instance in self._relations.items():
            duplicate.add_tuples(name, instance.rows)
        return duplicate

    def same_contents(self, other: "DatabaseInstance") -> bool:
        """True when both instances store identical tuple sets per relation name."""
        if set(self._relations) != set(other._relations):
            return False
        return all(
            self._relations[name].rows == other._relations[name].rows
            for name in self._relations
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseInstance):
            return NotImplemented
        return self.same_contents(other)

    def __repr__(self) -> str:
        return (
            f"DatabaseInstance({self.schema.name!r}, {len(self._relations)} relations, "
            f"{self.total_tuples()} tuples)"
        )
