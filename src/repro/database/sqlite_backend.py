"""SQLite storage/evaluation backend: the Python analogue of Castor's VoltDB.

The paper pushes bottom-clause construction and coverage testing into an
in-memory RDBMS via stored procedures (Section 7 / Table 13).  This backend
reproduces the architectural move with the standard-library ``sqlite3``:

* every relation is materialized as an indexed table (one index per column,
  a UNIQUE constraint over the full row for set semantics);
* conjunctive clause bodies are **compiled into single SQL statements** —
  satisfiability, binding enumeration, head-tuple computation, and
  FOIL-style binding counts all run set-at-a-time inside SQLite's join
  planner instead of the evaluator's generic Python join;
* query-based coverage of a whole example set is one statement: the example
  tuples are loaded into a temp table and joined against an ``EXISTS`` of
  the compiled body, so testing a clause against N examples costs one
  round-trip rather than N evaluator calls.

Values must be SQLite-storable (``str``/``int``/``float``/``bytes``/bool).
Anything else raises :class:`BackendValueError` on insert; lookups for such
values simply return the empty set (they cannot have been stored).  Bodies
the compiler cannot express (e.g. more atoms than SQLite's join limit) raise
:class:`CompilationNotSupported`, and the caller falls back to the generic
join of :class:`~repro.database.query.QueryEvaluator`, which reads these
same tables through the relation-store protocol.
"""

from __future__ import annotations

import itertools
import os
import sqlite3
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..logic.atoms import Atom
from ..logic.clauses import HornClause
from ..logic.terms import Constant, Variable
from ..obs import Counter, registry as obs_registry
from .schema import RelationSchema

Row = Tuple[object, ...]

# SQLite refuses joins of more than 64 tables; stay safely below.
MAX_COMPILED_ATOMS = 60

_STORABLE_TYPES = (str, int, float, bytes)


class BackendValueError(TypeError):
    """A value cannot be stored by the SQLite backend."""


class CompilationNotSupported(Exception):
    """The body/clause cannot be compiled to a single SQL statement.

    Callers catch this and fall back to the evaluator's generic join.
    """


def _storable(value: object) -> object:
    """Map a Python value to its SQLite representation, or raise."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        # SQLite integers are 64-bit; out-of-range ints would raise an
        # uncatchable-at-this-layer OverflowError inside sqlite3 otherwise.
        if -(2**63) <= value < 2**63:
            return value
    elif value is not None and isinstance(value, _STORABLE_TYPES):
        return value
    raise BackendValueError(
        f"sqlite backend cannot store value {value!r} of type {type(value).__name__}"
    )


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


_SERIALIZED: Optional[bool] = None


def _sqlite_is_serialized() -> bool:
    """Whether the linked SQLite is in serialized (fully thread-safe) mode.

    ``sqlite3.threadsafety`` only reflects the real build since Python 3.11
    (it is hardcoded to 1 on older versions), so fall back to the compile
    options for 3.9/3.10.
    """
    global _SERIALIZED
    if _SERIALIZED is None:
        if sqlite3.threadsafety == 3:
            _SERIALIZED = True
        else:
            probe = sqlite3.connect(":memory:")
            try:
                options = {row[0] for row in probe.execute("PRAGMA compile_options")}
            finally:
                probe.close()
            _SERIALIZED = "THREADSAFE=1" in options
    return _SERIALIZED


class SQLiteRelation:
    """One relation's extension as an indexed SQLite table.

    Implements the :class:`~repro.database.backend.RelationBackend` interface
    so it is a drop-in replacement for the dict-based ``RelationInstance``.
    """

    def __init__(
        self,
        schema: RelationSchema,
        connection: sqlite3.Connection,
        on_mutation: Optional[Callable[[], None]] = None,
    ):
        if schema.arity == 0:
            raise ValueError(
                f"sqlite backend requires relations of arity >= 1, got {schema.name!r}"
            )
        self.schema = schema
        self._connection = connection
        # Invoked after every successful data change; the pooled backend uses
        # it to version relation contents for snapshot staleness checks.
        self._on_mutation = on_mutation
        # Installed by DatabaseInstance.mark_managed(): invoked before every
        # mutation so prepared instances can warn when callers bypass the
        # transaction/update API (stale-cache hazard).
        self.mutation_guard: Optional[Callable[[], None]] = None
        self._table = _quote(f"rel_{schema.name}")
        columns = ", ".join(f"c{i}" for i in range(schema.arity))
        self._connection.execute(
            f"CREATE TABLE {self._table} ({columns}, UNIQUE ({columns}))"
        )
        for i in range(schema.arity):
            index_name = _quote(f"idx_{schema.name}_c{i}")
            self._connection.execute(
                f"CREATE INDEX {index_name} ON {self._table} (c{i})"
            )
        self._placeholders = ", ".join("?" for _ in range(schema.arity))
        self._all_match = " AND ".join(f"c{i} = ?" for i in range(schema.arity))

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def _check_arity(self, row: Sequence[object]) -> Row:
        row_tuple: Row = tuple(row)
        if len(row_tuple) != self.schema.arity:
            raise ValueError(
                f"tuple arity {len(row_tuple)} does not match relation "
                f"{self.schema.name!r} arity {self.schema.arity}"
            )
        return row_tuple

    def _mutated(self) -> None:
        if self._on_mutation is not None:
            self._on_mutation()

    def add(self, row: Sequence[object]) -> None:
        """Insert a tuple; silently ignores exact duplicates."""
        if self.mutation_guard is not None:
            self.mutation_guard()
        row_tuple = self._check_arity(row)
        values = tuple(_storable(v) for v in row_tuple)
        cursor = self._connection.execute(
            f"INSERT OR IGNORE INTO {self._table} VALUES ({self._placeholders})",
            values,
        )
        if cursor.rowcount != 0:
            self._mutated()

    def add_all(self, rows: Iterable[Sequence[object]]) -> None:
        if self.mutation_guard is not None:
            self.mutation_guard()
        prepared = [
            tuple(_storable(v) for v in self._check_arity(row)) for row in rows
        ]
        cursor = self._connection.executemany(
            f"INSERT OR IGNORE INTO {self._table} VALUES ({self._placeholders})",
            prepared,
        )
        if cursor.rowcount != 0:
            self._mutated()

    def remove(self, row: Sequence[object]) -> None:
        """Delete a tuple; raises KeyError if absent."""
        if self.mutation_guard is not None:
            self.mutation_guard()
        row_tuple = self._check_arity(row)
        try:
            values = tuple(_storable(v) for v in row_tuple)
        except BackendValueError:
            values = None
        if values is not None:
            cursor = self._connection.execute(
                f"DELETE FROM {self._table} WHERE {self._all_match}", values
            )
            if cursor.rowcount > 0:
                self._mutated()
                return
        raise KeyError(f"tuple {row_tuple!r} not in relation {self.schema.name!r}")

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> Set[Row]:
        """The set of tuples (materialized from the table)."""
        cursor = self._connection.execute(f"SELECT * FROM {self._table}")
        return {tuple(row) for row in cursor}

    def tuples_containing(self, value: object) -> Set[Row]:
        """All tuples mentioning ``value`` in any column."""
        try:
            stored = _storable(value)
        except BackendValueError:
            return set()
        condition = " OR ".join(f"c{i} = ?" for i in range(self.schema.arity))
        cursor = self._connection.execute(
            f"SELECT * FROM {self._table} WHERE {condition}",
            tuple(stored for _ in range(self.schema.arity)),
        )
        return {tuple(row) for row in cursor}

    def tuples_with(self, position: int, value: object) -> Set[Row]:
        """All tuples with ``value`` in column ``position``."""
        return self.tuples_matching({position: value})

    def tuples_matching(self, bindings: Dict[int, object]) -> Set[Row]:
        """Tuples matching all ``position -> value`` bindings (index-backed)."""
        if not bindings:
            return self.rows
        conditions: List[str] = []
        params: List[object] = []
        for position, value in bindings.items():
            if not 0 <= position < self.schema.arity:
                return set()
            try:
                params.append(_storable(value))
            except BackendValueError:
                return set()
            conditions.append(f"c{position} = ?")
        cursor = self._connection.execute(
            f"SELECT * FROM {self._table} WHERE {' AND '.join(conditions)}",
            tuple(params),
        )
        return {tuple(row) for row in cursor}

    def project(self, attributes: Sequence[str]) -> Set[Row]:
        """Projection π_attributes of this relation (as a set of tuples)."""
        positions = self.schema.positions_of(attributes)
        columns = ", ".join(f"c{p}" for p in positions)
        cursor = self._connection.execute(
            f"SELECT DISTINCT {columns} FROM {self._table}"
        )
        return {tuple(row) for row in cursor}

    def distinct_values(self, attribute: str) -> Set[object]:
        """Distinct values of one attribute."""
        position = self.schema.position_of(attribute)
        cursor = self._connection.execute(
            f"SELECT DISTINCT c{position} FROM {self._table}"
        )
        return {row[0] for row in cursor}

    def __len__(self) -> int:
        cursor = self._connection.execute(f"SELECT COUNT(*) FROM {self._table}")
        return int(cursor.fetchone()[0])

    def __iter__(self) -> Iterator[Row]:
        cursor = self._connection.execute(f"SELECT * FROM {self._table}")
        return iter([tuple(row) for row in cursor])

    def __contains__(self, row: Sequence[object]) -> bool:
        row_tuple = tuple(row)
        if len(row_tuple) != self.schema.arity:
            return False
        try:
            values = tuple(_storable(v) for v in row_tuple)
        except BackendValueError:
            return False
        cursor = self._connection.execute(
            f"SELECT 1 FROM {self._table} WHERE {self._all_match} LIMIT 1", values
        )
        return cursor.fetchone() is not None

    def __eq__(self, other: object) -> bool:
        return (
            hasattr(other, "schema")
            and hasattr(other, "rows")
            and other.schema == self.schema
            and other.rows == self.rows
        )

    def __repr__(self) -> str:
        return f"SQLiteRelation({self.schema.name!r}, {len(self)} tuples)"


class _CompiledBody:
    """A conjunctive body translated to SQL FROM/WHERE fragments.

    ``empty`` marks bodies that are statically unsatisfiable on this instance
    (unknown relation, arity mismatch, unstorable constant) — their result is
    the empty set, which is exactly what the generic join would produce, so
    no fallback is needed.
    """

    __slots__ = ("from_items", "where", "params", "variable_columns", "empty")

    def __init__(self) -> None:
        self.from_items: List[str] = []
        self.where: List[str] = []
        self.params: List[object] = []
        self.variable_columns: Dict[Variable, str] = {}
        self.empty = False


def compile_conjunction(
    body: Sequence[Atom],
    resolve_table: Callable[[Atom], Optional[str]],
    binding: Optional[Dict[Variable, object]] = None,
    outer_columns: Optional[Dict[Variable, str]] = None,
    alias_condition: Optional[Callable[[str], str]] = None,
) -> _CompiledBody:
    """Translate a conjunctive body into SQL FROM/WHERE fragments.

    ``resolve_table`` maps an atom to the table holding its predicate's
    extension (``None`` marks the body statically empty on this store);
    ``binding`` pins variables to concrete values (the bound variables of
    the generic join); ``outer_columns`` pins variables to columns of an
    enclosing query (set-at-a-time coverage references the candidate temp
    table this way); ``alias_condition`` emits one extra parameter-free
    condition per atom (the saturation store uses it to keep every atom
    inside a single example's saturation).
    """
    if len(body) > MAX_COMPILED_ATOMS:
        raise CompilationNotSupported(
            f"body has {len(body)} atoms, above the {MAX_COMPILED_ATOMS}-way join limit"
        )
    compiled = _CompiledBody()
    if outer_columns:
        compiled.variable_columns.update(outer_columns)
    binding = binding or {}
    for alias_index, atom in enumerate(body):
        table = resolve_table(atom)
        if table is None:
            compiled.empty = True
            return compiled
        alias = f"a{alias_index}"
        compiled.from_items.append(f"{table} AS {alias}")
        if alias_condition is not None:
            compiled.where.append(alias_condition(alias))
        for position, term in enumerate(atom.terms):
            column = f"{alias}.c{position}"
            if isinstance(term, Constant):
                try:
                    compiled.params.append(_storable(term.value))
                except BackendValueError:
                    compiled.empty = True
                    return compiled
                compiled.where.append(f"{column} = ?")
                continue
            if term in binding:
                try:
                    compiled.params.append(_storable(binding[term]))
                except BackendValueError:
                    compiled.empty = True
                    return compiled
                compiled.where.append(f"{column} = ?")
                # The variable stays addressable for SELECT projections.
                compiled.variable_columns.setdefault(term, column)
                continue
            known = compiled.variable_columns.get(term)
            if known is None:
                compiled.variable_columns[term] = column
            else:
                compiled.where.append(f"{column} = {known}")
    return compiled


def _head_signature(head: Atom) -> Tuple[object, ...]:
    """Canonical shape of a clause head: constants plus variable-repeat pattern.

    Two heads with the same signature accept exactly the same candidate
    tuples and project them onto the same key positions, so batched coverage
    can share one candidate temp table across all clauses of a signature.
    """
    seen: Dict[Variable, int] = {}
    signature: List[object] = []
    for term in head.terms:
        if isinstance(term, Constant):
            signature.append(("const", term.value))
        else:
            signature.append(("var", seen.setdefault(term, len(seen))))
    return tuple(signature)


class _CandidateProjection:
    """Candidate head tuples filtered and projected for one head signature.

    ``viable`` drops candidates that cannot match the head (wrong arity,
    constant mismatch, inconsistent repeated variables); ``projections`` maps
    each distinct key (values at the first occurrence of every distinct head
    variable, in position order) back to the candidates it represents;
    ``stored_keys`` is ``None`` when some key value is not SQLite-storable.
    """

    __slots__ = ("viable", "var_positions", "projections", "stored_keys")

    def __init__(self, head: Atom, candidates: Sequence[Sequence[object]]):
        arity = head.arity
        first_position: Dict[Variable, int] = {}
        for position, term in enumerate(head.terms):
            if isinstance(term, Variable) and term not in first_position:
                first_position[term] = position
        self.var_positions: List[int] = sorted(first_position.values())

        self.viable: List[Row] = []
        for raw in candidates:
            candidate = tuple(raw)
            if len(candidate) != arity:
                continue
            consistent = True
            seen: Dict[Variable, object] = {}
            for term, value in zip(head.terms, candidate):
                if isinstance(term, Constant):
                    if term.value != value:
                        consistent = False
                        break
                else:
                    previous = seen.get(term)
                    if previous is not None and previous != value:
                        consistent = False
                        break
                    seen[term] = value
            if consistent:
                self.viable.append(candidate)

        self.projections: Dict[Row, List[Row]] = {}
        for candidate in self.viable:
            key = tuple(candidate[p] for p in self.var_positions)
            self.projections.setdefault(key, []).append(candidate)
        try:
            self.stored_keys: Optional[List[Row]] = [
                tuple(_storable(v) for v in key) for key in self.projections
            ]
        except BackendValueError:
            self.stored_keys = None


class SQLiteBackend:
    """Relation storage plus compiled set-at-a-time query evaluation.

    One backend object owns one in-memory SQLite connection shared by every
    relation of a :class:`~repro.database.instance.DatabaseInstance`, so
    multi-relation joins run inside a single statement.
    """

    name = "sqlite"
    supports_compiled_queries = True
    supports_saturation_queries = True
    # One shared connection: concurrent readers would interleave statements
    # on it (and a non-serialized SQLite build pins it to one thread), so
    # phase-overlap machinery must not read this backend from worker threads.
    supports_concurrent_reads = False

    def __init__(self, connection: Optional[sqlite3.Connection] = None):
        if connection is None:
            # With a serialized SQLite build the library itself locks around
            # every call, so the connection may be shared by the coverage
            # engine's worker threads.  Autocommit keeps the database free of
            # open write transactions, which snapshot pools require.
            connection = sqlite3.connect(
                ":memory:",
                check_same_thread=not _sqlite_is_serialized(),
                isolation_level=None,
            )
        self._connection = connection
        self._connection.execute("PRAGMA temp_store = MEMORY")
        self._relations: Dict[str, SQLiteRelation] = {}
        self._temp_ids = itertools.count(1)
        # One reusable frontier-values temp table for saturation queries
        # (created lazily); the lock serializes its refill when batched
        # construction fans out over threads.
        self._frontier_table: Optional[str] = None
        self._frontier_lock = threading.Lock()
        # Bumped on every successful relation mutation; versions the data
        # independently of scratch writes (temp tables do not count).
        self._data_version = 0

    def _bump_data_version(self) -> None:
        self._data_version += 1

    def make_relation(self, schema: RelationSchema) -> SQLiteRelation:
        if schema.name in self._relations:
            raise ValueError(
                f"relation {schema.name!r} already exists on this backend; "
                "a SQLiteBackend object serves exactly one DatabaseInstance"
            )
        relation = SQLiteRelation(
            schema, self._connection, on_mutation=self._bump_data_version
        )
        self._relations[schema.name] = relation
        return relation

    # ------------------------------------------------------------------ #
    # Saturation queries (the stored-procedure frontier step)
    # ------------------------------------------------------------------ #
    def neighbors_of_batch(
        self, values: Sequence[object]
    ) -> Dict[object, List[Tuple[str, Row]]]:
        """``value -> [(relation, tuple)]`` for one whole saturation frontier.

        The frontier values are loaded into a temp table and every relation
        is joined against it with ONE statement (a UNION of per-column
        index-driven joins), so expanding a depth level of bottom-clause
        construction costs one round-trip per relation instead of one
        lookup per (value, relation) pair.  Values SQLite cannot store come
        back with empty neighbor lists (they cannot have been stored).
        """
        results: Dict[object, List[Tuple[str, Row]]] = {
            value: [] for value in values
        }
        stored_of: Dict[object, object] = {}
        for value in results:
            try:
                stored_of[_storable(value)] = value
            except BackendValueError:
                continue
        if not stored_of:
            return results
        with self._frontier_lock:
            temp = self._frontier_table
            if temp is None:
                temp = self._frontier_table = _quote("frontier_values")
                self._connection.execute(f"CREATE TEMP TABLE {temp} (v)")
            else:
                self._connection.execute(f"DELETE FROM {temp}")
            self._connection.executemany(
                f"INSERT INTO {temp} VALUES (?)",
                [(stored,) for stored in stored_of],
            )
            for name, relation in self._relations.items():
                arms = [
                    f"SELECT f.v, t.* FROM {temp} AS f, {relation._table} AS t "
                    f"WHERE t.c{i} = f.v"
                    for i in range(relation.schema.arity)
                ]
                # UNION (not UNION ALL) dedups tuples matched in two columns.
                for row in self._connection.execute(" UNION ".join(arms)):
                    value = stored_of.get(row[0])
                    if value is not None:
                        results[value].append((name, tuple(row[1:])))
            # Release the frontier rows now rather than pinning the last
            # batch's values in the long-lived connection until next call.
            self._connection.execute(f"DELETE FROM {temp}")
        return results

    # ------------------------------------------------------------------ #
    # Body compilation
    # ------------------------------------------------------------------ #
    def _compile_body(
        self,
        body: Sequence[Atom],
        binding: Optional[Dict[Variable, object]] = None,
        outer_columns: Optional[Dict[Variable, str]] = None,
    ) -> _CompiledBody:
        """Translate a conjunctive body into FROM/WHERE fragments.

        ``binding`` pins variables to concrete values (the bound variables of
        the generic join); ``outer_columns`` pins variables to columns of
        an enclosing query (used by set-at-a-time coverage, where head
        variables reference the candidate-example temp table).
        """

        def resolve(atom: Atom) -> Optional[str]:
            relation = self._relations.get(atom.predicate)
            if relation is None or relation.schema.arity != atom.arity:
                return None
            return relation._table

        return compile_conjunction(
            body, resolve, binding=binding, outer_columns=outer_columns
        )

    @staticmethod
    def _sql_for(compiled: _CompiledBody, select: str) -> str:
        sql = f"SELECT {select} FROM {', '.join(compiled.from_items)}"
        if compiled.where:
            sql += " WHERE " + " AND ".join(compiled.where)
        return sql

    # ------------------------------------------------------------------ #
    # Set-at-a-time evaluation (probed by QueryEvaluator)
    # ------------------------------------------------------------------ #
    def satisfiable(
        self,
        body: Sequence[Atom],
        binding: Optional[Dict[Variable, object]] = None,
        connection: Optional[sqlite3.Connection] = None,
    ) -> bool:
        """One satisfying assignment exists (``SELECT 1 ... LIMIT 1``)."""
        if not body:
            return True
        compiled = self._compile_body(body, binding)
        if compiled.empty:
            return False
        sql = self._sql_for(compiled, "1") + " LIMIT 1"
        connection = connection or self._connection
        return connection.execute(sql, compiled.params).fetchone() is not None

    def count_bindings(
        self, body: Sequence[Atom], limit: Optional[int] = None
    ) -> int:
        """Number of satisfying assignments, optionally capped at ``limit``."""
        if not body:
            return 1 if limit is None or limit >= 1 else 0
        compiled = self._compile_body(body)
        if compiled.empty:
            return 0
        inner = self._sql_for(compiled, "1")
        if limit is not None:
            inner += f" LIMIT {int(limit)}"
        cursor = self._connection.execute(
            f"SELECT COUNT(*) FROM ({inner})", compiled.params
        )
        return int(cursor.fetchone()[0])

    def iter_bindings(
        self, body: Sequence[Atom], binding: Optional[Dict[Variable, object]] = None
    ) -> Iterator[Dict[Variable, object]]:
        """Enumerate satisfying assignments of the body's variables."""
        base = dict(binding or {})
        if not body:
            yield dict(base)
            return
        compiled = self._compile_body(body, binding)
        if compiled.empty:
            return
        variables = [
            v for v in compiled.variable_columns if v not in base
        ]
        if not variables:
            if self.satisfiable(body, binding):
                yield dict(base)
            return
        select = ", ".join(compiled.variable_columns[v] for v in variables)
        cursor = self._connection.execute(
            self._sql_for(compiled, select), compiled.params
        )
        for row in cursor:
            result = dict(base)
            result.update(zip(variables, row))
            yield result

    def head_tuples(self, clause: HornClause) -> Set[Row]:
        """All head tuples produced by a (safe) clause, as one SELECT DISTINCT."""
        if not clause.body:
            raise CompilationNotSupported("empty body: nothing to join")
        if not clause.head.terms:
            # Nothing to select: the result is the empty tuple or nothing.
            return {()} if self.satisfiable(clause.body) else set()
        compiled = self._compile_body(clause.body)
        if compiled.empty:
            return set()
        select_parts: List[str] = []
        head_params: List[object] = []
        for term in clause.head.terms:
            if isinstance(term, Constant):
                try:
                    head_params.append(_storable(term.value))
                except BackendValueError as exc:
                    raise CompilationNotSupported(
                        f"unstorable head constant {term.value!r}"
                    ) from exc
                select_parts.append("?")
                continue
            column = compiled.variable_columns.get(term)
            if column is None:
                raise ValueError(f"unbound head variable {term}")
            select_parts.append(column)
        sql = self._sql_for(compiled, "DISTINCT " + ", ".join(select_parts))
        cursor = self._connection.execute(sql, head_params + compiled.params)
        return {tuple(row) for row in cursor}

    @staticmethod
    def _outer_columns_for(head: Atom) -> Dict[Variable, str]:
        """Map the head's distinct variables (first-occurrence order) to the
        candidate temp table's key columns ``cand.x0, cand.x1, ...``."""
        first_position: Dict[Variable, int] = {}
        for position, term in enumerate(head.terms):
            if isinstance(term, Variable) and term not in first_position:
                first_position[term] = position
        variables = sorted(first_position, key=lambda v: first_position[v])
        return {variable: f"cand.x{i}" for i, variable in enumerate(variables)}

    def _covered_batch_on(
        self,
        connection: sqlite3.Connection,
        indexed_clauses: Sequence[Tuple[int, HornClause]],
        candidates: Sequence[Sequence[object]],
    ) -> Dict[int, Optional[Set[Row]]]:
        """Set-at-a-time coverage of several clauses on one connection.

        Clauses are grouped by head signature so the candidate tuples are
        loaded into ONE temp table per signature and reused by every clause
        of the group — this amortization (not just thread fan-out) is what
        makes batched scoring beat the per-clause sequential path.  The
        result maps each input index to its covered candidate set, or to
        ``None`` when that clause cannot be compiled (the caller falls back
        to the generic join).
        """
        results: Dict[int, Optional[Set[Row]]] = {}
        groups: Dict[Tuple[object, ...], List[Tuple[int, HornClause]]] = {}
        for index, clause in indexed_clauses:
            groups.setdefault(_head_signature(clause.head), []).append((index, clause))

        for members in groups.values():
            head = members[0][1].head
            projection = _CandidateProjection(head, candidates)
            if not projection.viable:
                for index, _ in members:
                    results[index] = set()
                continue
            if not projection.var_positions:
                # All-constant heads: the body never references the candidates.
                for index, clause in members:
                    if not clause.body:
                        results[index] = set(projection.viable)
                        continue
                    try:
                        satisfied = self.satisfiable(
                            clause.body, connection=connection
                        )
                    except CompilationNotSupported:
                        results[index] = None
                        continue
                    results[index] = set(projection.viable) if satisfied else set()
                continue
            if projection.stored_keys is None:
                # Unstorable candidate values: generic-join fallback.
                for index, _ in members:
                    results[index] = None
                continue

            width = len(projection.var_positions)
            temp = _quote(f"cand_{next(self._temp_ids)}")
            columns = ", ".join(f"x{i}" for i in range(width))
            connection.execute(f"CREATE TEMP TABLE {temp} ({columns})")
            try:
                placeholders = ", ".join("?" for _ in range(width))
                connection.executemany(
                    f"INSERT INTO {temp} VALUES ({placeholders})",
                    projection.stored_keys,
                )
                select = ", ".join(f"cand.x{i}" for i in range(width))
                for index, clause in members:
                    if not clause.body:
                        results[index] = set(projection.viable)
                        continue
                    outer_columns = self._outer_columns_for(clause.head)
                    try:
                        compiled = self._compile_body(
                            clause.body, outer_columns=outer_columns
                        )
                    except CompilationNotSupported:
                        results[index] = None
                        continue
                    if compiled.empty:
                        results[index] = set()
                        continue
                    exists = self._sql_for(compiled, "1")
                    sql = (
                        f"SELECT {select} FROM {temp} AS cand "
                        f"WHERE EXISTS ({exists})"
                    )
                    covered: Set[Row] = set()
                    for row in connection.execute(sql, compiled.params):
                        for candidate in projection.projections.get(tuple(row), []):
                            covered.add(candidate)
                    results[index] = covered
            finally:
                connection.execute(f"DROP TABLE {temp}")
        return results

    def covered_head_tuples(
        self,
        clause: HornClause,
        candidates: Sequence[Sequence[object]],
        connection: Optional[sqlite3.Connection] = None,
    ) -> Set[Row]:
        """The subset of candidate head tuples the clause derives — one query.

        This is the set-at-a-time coverage test (the paper's stored-procedure
        path): the candidates are loaded into a temp table and filtered by an
        ``EXISTS`` over the compiled body, so the whole example set is tested
        in a single statement.
        """
        connection = connection or self._connection
        result = self._covered_batch_on(connection, [(0, clause)], candidates)[0]
        if result is None:
            raise CompilationNotSupported(
                "clause not compilable for set-at-a-time coverage"
            )
        return result

    def covered_head_tuples_batch(
        self,
        clauses: Sequence[HornClause],
        candidates: Sequence[Sequence[object]],
        parallelism: Optional[int] = None,
    ) -> List[Optional[Set[Row]]]:
        """Covered candidate sets for N clauses against one candidate list.

        Sharing one candidate temp table per head signature amortizes the
        per-clause setup the sequential path pays N times.  Entries are
        ``None`` for clauses that need the generic-join fallback.  The
        single-connection backend ignores ``parallelism``; the pooled
        subclass fans groups out across snapshot connections.
        """
        del parallelism  # one connection: batching amortizes, threads cannot
        indexed = list(enumerate(clauses))
        results = self._covered_batch_on(self._connection, indexed, candidates)
        return [results[index] for index in range(len(indexed))]

    def __repr__(self) -> str:
        return f"SQLiteBackend({len(self._relations)} relations)"


class SQLiteReadPool:
    """A pool of snapshot connections over one source SQLite database.

    Each pooled connection is an independent in-memory copy of the source
    (built with SQLite's online backup), so worker threads can evaluate
    queries truly concurrently: ``sqlite3`` releases the GIL inside
    ``step()`` and per-copy connections never contend on page locks.
    Snapshots are refreshed lazily — ``state_fn`` returns a cheap token of
    the source's current state, and a leased connection whose token is stale
    is re-copied before use, so mutations between batches are always visible.
    """

    def __init__(
        self,
        source: sqlite3.Connection,
        state_fn: Callable[[], object],
        max_idle: int = 8,
        source_owned: bool = True,
    ):
        self._source = source
        self._state_fn = state_fn
        self._max_idle = int(max_idle)
        # ``source_owned`` marks a source connection the backend created
        # itself (autocommit, no caller-managed transactions): only then may
        # the pool commit a stray open transaction before a backup.
        self._source_owned = bool(source_owned)
        self._lock = threading.Lock()
        self._idle: List[Tuple[sqlite3.Connection, object]] = []
        # The pool's own count (a fresh pool reads zero) feeds one shared
        # process-wide series.
        self._c_snapshots = Counter(
            parent=obs_registry().counter("sqlite.pool.snapshots")
        )

    @property
    def snapshots_taken(self) -> int:
        return self._c_snapshots.value

    def _snapshot(
        self, connection: Optional[sqlite3.Connection] = None
    ) -> Tuple[sqlite3.Connection, object]:
        # Called with self._lock held: snapshot refreshes are serialized so
        # the source connection is never used from two threads at once.
        # Token is read BEFORE the copy: a write racing the backup leaves the
        # snapshot newer than its token, which only causes a harmless refresh.
        state = self._state_fn()
        if connection is None:
            connection = sqlite3.connect(
                ":memory:", check_same_thread=False, isolation_level=None
            )
            connection.execute("PRAGMA temp_store = MEMORY")
        if self._source.in_transaction:
            # The online backup cannot copy past an open write transaction.
            if not self._source_owned:
                raise RuntimeError(
                    "cannot snapshot a caller-supplied connection with an "
                    "open transaction; commit or roll back before batched "
                    "coverage on the pooled backend"
                )
            self._source.commit()
        self._source.backup(connection)
        self._c_snapshots.inc()
        return connection, state

    @contextmanager
    def lease(self) -> Iterator[sqlite3.Connection]:
        """Borrow a fresh-enough snapshot connection for the ``with`` block."""
        with self._lock:
            entry = self._idle.pop() if self._idle else None
            current = self._state_fn()
            if entry is None:
                connection, state = self._snapshot()
            else:
                connection, state = entry
                if state != current:
                    connection, state = self._snapshot(connection)
        try:
            yield connection
        finally:
            with self._lock:
                if len(self._idle) < self._max_idle:
                    self._idle.append((connection, state))
                    connection = None
            if connection is not None:
                connection.close()

    def close(self) -> None:
        with self._lock:
            for connection, _ in self._idle:
                connection.close()
            self._idle.clear()


class PooledSQLiteBackend(SQLiteBackend):
    """SQLite backend with a snapshot read pool for the parallel covering loop.

    Storage and single-statement evaluation are inherited unchanged; the
    difference is batched coverage: ``covered_head_tuples_batch`` fans the
    candidate clauses out over a thread pool in which every worker queries
    its own snapshot connection, so scoring one generation of refinements
    uses multiple cores on top of the temp-table amortization of the base
    backend.  Writes go to the primary connection and invalidate snapshots
    lazily (see :class:`SQLiteReadPool`).
    """

    name = "sqlite-pooled"
    # Reads fan out over per-worker snapshot connections, so concurrent
    # readers never share a cursor.
    supports_concurrent_reads = True

    def __init__(
        self,
        connection: Optional[sqlite3.Connection] = None,
        pool_size: Optional[int] = None,
    ):
        owns_connection = connection is None
        if connection is None:
            # The pool's backup runs from worker threads, so the primary must
            # not be pinned to its creating thread (serialized SQLite builds
            # lock internally; the pool lock serializes every backup anyway).
            connection = sqlite3.connect(
                ":memory:", check_same_thread=False, isolation_level=None
            )
        super().__init__(connection)
        if pool_size is None:
            pool_size = min(4, os.cpu_count() or 1)
        self.pool_size = max(1, int(pool_size))
        self.pool = SQLiteReadPool(
            self._connection, self._pool_state, source_owned=owns_connection
        )

    def _pool_state(self) -> Tuple[int, int]:
        # Relation mutations bump the data version; new relations change the
        # count.  Deliberately NOT total_changes: scratch temp-table writes
        # from read-only coverage calls must not invalidate snapshots.
        return (len(self._relations), self._data_version)

    def covered_head_tuples_batch(
        self,
        clauses: Sequence[HornClause],
        candidates: Sequence[Sequence[object]],
        parallelism: Optional[int] = None,
    ) -> List[Optional[Set[Row]]]:
        workers = self.pool_size if parallelism is None else max(1, int(parallelism))
        clause_list = list(clauses)
        workers = min(workers, len(clause_list))
        if workers <= 1:
            return super().covered_head_tuples_batch(clause_list, candidates)

        chunks: List[List[Tuple[int, HornClause]]] = [[] for _ in range(workers)]
        for index, clause in enumerate(clause_list):
            chunks[index % workers].append((index, clause))

        def run(chunk: List[Tuple[int, HornClause]]) -> Dict[int, Optional[Set[Row]]]:
            with self.pool.lease() as snapshot:
                return self._covered_batch_on(snapshot, chunk, candidates)

        results: Dict[int, Optional[Set[Row]]] = {}
        with ThreadPoolExecutor(max_workers=workers) as executor:
            for partial in executor.map(run, chunks):
                results.update(partial)
        return [results[index] for index in range(len(clause_list))]

    def __repr__(self) -> str:
        return (
            f"PooledSQLiteBackend({len(self._relations)} relations, "
            f"pool_size={self.pool_size})"
        )


class SaturationStore:
    """Ground saturations materialized into tagged tables for compiled
    θ-subsumption coverage (Section 7.5.3 pushed into SQL).

    Every materialized example gets an integer id.  The saturation's head
    tuple goes into a per-(target, arity) ``sat_head_*`` table and each
    ground body atom into a per-(predicate, arity) ``sat_body_*`` table
    tagged with the id.  ``covered_ids`` then answers "which materialized
    examples does clause C cover" with ONE statement: C θ-subsumes a ground
    clause D exactly when D's body, read as a canonical database, satisfies
    C's body under the head matching — an ``EXISTS`` join that SQLite
    evaluates for every example's saturation at once.

    Unlike the Python :class:`~repro.logic.subsumption.SubsumptionEngine`
    the SQL path has no backtrack budget: clauses whose Python search would
    exhaust ``max_backtracks`` (and conservatively report "not covered") are
    decided exactly here.

    Examples whose head or saturation contains values SQLite cannot store
    (or non-ground atoms) are rejected with :class:`BackendValueError`; the
    coverage engine keeps testing those through the Python engine.
    """

    def __init__(self) -> None:
        self._connection = sqlite3.connect(
            ":memory:", check_same_thread=False, isolation_level=None
        )
        self._connection.execute("PRAGMA temp_store = MEMORY")
        self._lock = threading.RLock()
        self._head_tables: Dict[Tuple[str, int], str] = {}
        self._body_tables: Dict[Tuple[str, int], str] = {}
        self._ids = itertools.count(1)
        self._key_ids: Dict[Tuple[str, Row], int] = {}
        self._size = 0
        self._stale_statistics = False
        self._analyzed_size = 0

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    # Materialization
    # ------------------------------------------------------------------ #
    def _head_table(self, target: str, arity: int) -> str:
        table = self._head_tables.get((target, arity))
        if table is None:
            table = _quote(f"sat_head_{target}_{arity}")
            columns = ", ".join(f"h{i}" for i in range(arity))
            self._connection.execute(
                f"CREATE TABLE {table} (ex INTEGER PRIMARY KEY, {columns})"
            )
            self._head_tables[(target, arity)] = table
        return table

    def _body_table(self, predicate: str, arity: int) -> str:
        table = self._body_tables.get((predicate, arity))
        if table is None:
            table = _quote(f"sat_body_{predicate}_{arity}")
            columns = ", ".join(f"c{i}" for i in range(arity))
            self._connection.execute(f"CREATE TABLE {table} (ex INTEGER, {columns})")
            for i in range(arity):
                index_name = _quote(f"idx_sat_{predicate}_{arity}_c{i}")
                self._connection.execute(
                    f"CREATE INDEX {index_name} ON {table} (ex, c{i})"
                )
            self._body_tables[(predicate, arity)] = table
        return table

    def add_example(
        self, target: str, head_values: Sequence[object], body: Sequence[Atom]
    ) -> int:
        """Materialize one example's ground saturation; returns its id.

        Validates everything before touching the database so a rejected
        example leaves no partial rows behind.  Re-adding an example already
        in the store returns its existing id without inserting (so a store
        may be shared by several coverage engines over the same instance —
        saturations of one example are identical across them).
        """
        head_row = tuple(head_values)
        if not head_row:
            raise BackendValueError("cannot materialize a zero-arity example head")
        stored_head = tuple(_storable(v) for v in head_row)
        existing = self._key_ids.get((target, stored_head))
        if existing is not None:
            return existing
        prepared: Dict[Tuple[str, int], List[Row]] = {}
        for atom in body:
            if atom.arity == 0:
                raise BackendValueError("cannot materialize a zero-arity atom")
            values: List[object] = []
            for term in atom.terms:
                if not isinstance(term, Constant):
                    raise BackendValueError(
                        f"saturation atom {atom} is not ground"
                    )
                values.append(_storable(term.value))
            prepared.setdefault((atom.predicate, atom.arity), []).append(tuple(values))

        with self._lock:
            racing = self._key_ids.get((target, stored_head))
            if racing is not None:
                return racing
            example_id = next(self._ids)
            head_table = self._head_table(target, len(head_row))
            placeholders = ", ".join("?" for _ in range(len(head_row) + 1))
            self._connection.execute(
                f"INSERT INTO {head_table} VALUES ({placeholders})",
                (example_id, *stored_head),
            )
            for (predicate, arity), rows in prepared.items():
                body_table = self._body_table(predicate, arity)
                row_placeholders = ", ".join("?" for _ in range(arity + 1))
                self._connection.executemany(
                    f"INSERT INTO {body_table} VALUES ({row_placeholders})",
                    [(example_id, *row) for row in rows],
                )
            self._key_ids[(target, stored_head)] = example_id
            self._size += 1
            self._stale_statistics = True
            return example_id

    def existing_id(
        self, target: str, head_values: Sequence[object]
    ) -> Optional[int]:
        """The id of an already-materialized example, or ``None``.

        Lets engines sharing a store (cross-validation folds, the harness
        presaturation pass) claim stored saturations without rebuilding
        them — the same dedup key :meth:`add_example` uses.
        """
        try:
            stored = tuple(_storable(v) for v in head_values)
        except BackendValueError:
            return None
        return self._key_ids.get((target, stored))

    def stored_key(
        self, target: str, head_values: Sequence[object]
    ) -> Optional[Tuple[str, Row]]:
        """The dedup key this store files ``(target, head_values)`` under.

        ``None`` when the head contains unstorable values (such an example
        can never be materialized here).  Lets callers correlate their own
        example objects with keys returned by :meth:`invalidate_touching`.
        """
        try:
            return (target, tuple(_storable(v) for v in head_values))
        except BackendValueError:
            return None

    def remove_example(
        self, target: str, head_values: Sequence[object]
    ) -> Optional[int]:
        """Drop one materialized saturation by its dedup key.

        Returns the removed example's id, or ``None`` when the key was not
        materialized (including heads with unstorable values, which can
        never have been stored).  Incremental maintenance uses this to
        retract-and-repair saturations a delta invalidated.
        """
        try:
            stored = tuple(_storable(v) for v in head_values)
        except BackendValueError:
            return None
        with self._lock:
            example_id = self._key_ids.pop((target, stored), None)
            if example_id is None:
                return None
            self._delete_ids({example_id})
            return example_id

    def invalidate_touching(
        self, values: Iterable[object]
    ) -> List[Tuple[str, Row]]:
        """Drop every saturation whose footprint intersects ``values``.

        The footprint of a materialized example is its head tuple plus every
        constant in its ground body.  Bottom-clause construction only ever
        probes the database with values drawn from that footprint, so a
        delta whose touched values are disjoint from it cannot change the
        saturation — dropping exactly the intersecting examples (for the
        caller to rebuild) keeps delta maintenance byte-identical to a cold
        rebuild.  Returns the ``(target, head tuple)`` keys dropped.
        """
        storable: List[object] = []
        for value in values:
            try:
                storable.append(_storable(value))
            except BackendValueError:
                continue  # never stored, cannot intersect any footprint
        if not storable:
            return []
        with self._lock:
            if not self._key_ids:
                return []
            self._connection.execute(
                "CREATE TEMP TABLE IF NOT EXISTS _touch (v PRIMARY KEY) WITHOUT ROWID"
            )
            self._connection.execute("DELETE FROM _touch")
            self._connection.executemany(
                "INSERT OR IGNORE INTO _touch VALUES (?)", [(v,) for v in storable]
            )
            dead: Set[int] = set()
            for (_target, arity), table in self._head_tables.items():
                condition = " OR ".join(
                    f"h{i} IN (SELECT v FROM _touch)" for i in range(arity)
                )
                dead.update(
                    row[0]
                    for row in self._connection.execute(
                        f"SELECT ex FROM {table} WHERE {condition}"
                    )
                )
            for (_predicate, arity), table in self._body_tables.items():
                condition = " OR ".join(
                    f"c{i} IN (SELECT v FROM _touch)" for i in range(arity)
                )
                dead.update(
                    row[0]
                    for row in self._connection.execute(
                        f"SELECT DISTINCT ex FROM {table} WHERE {condition}"
                    )
                )
            self._connection.execute("DELETE FROM _touch")
            if not dead:
                return []
            dropped = [key for key, ex in self._key_ids.items() if ex in dead]
            for key in dropped:
                del self._key_ids[key]
            self._delete_ids(dead)
            return dropped

    def _delete_ids(self, ids: Set[int]) -> None:
        """Purge rows for ``ids`` from every head and body table (lock held)."""
        self._connection.execute(
            "CREATE TEMP TABLE IF NOT EXISTS _dead (ex INTEGER PRIMARY KEY) WITHOUT ROWID"
        )
        self._connection.execute("DELETE FROM _dead")
        self._connection.executemany(
            "INSERT OR IGNORE INTO _dead VALUES (?)", [(ex,) for ex in ids]
        )
        for table in self._head_tables.values():
            self._connection.execute(
                f"DELETE FROM {table} WHERE ex IN (SELECT ex FROM _dead)"
            )
        for table in self._body_tables.values():
            self._connection.execute(
                f"DELETE FROM {table} WHERE ex IN (SELECT ex FROM _dead)"
            )
        self._connection.execute("DELETE FROM _dead")
        self._size -= len(ids)
        self._stale_statistics = True

    def contents(self) -> Dict[Tuple[str, Row], FrozenSet[Tuple[str, Row]]]:
        """Canonical dump: ``(target, head tuple) -> {(predicate, body row)}``.

        Independent of materialization order and example-id assignment, so
        two stores filled through different paths (batched vs one-by-one,
        incremental repair vs cold rebuild) can be compared for identical
        contents.
        """
        with self._lock:
            heads: Dict[int, Tuple[str, Row]] = {}
            for (target, _arity), table in self._head_tables.items():
                for row in self._connection.execute(f"SELECT * FROM {table}"):
                    heads[row[0]] = (target, tuple(row[1:]))
            result: Dict[Tuple[str, Row], Set[Tuple[str, Row]]] = {
                key: set() for key in heads.values()
            }
            for (predicate, _arity), table in self._body_tables.items():
                for row in self._connection.execute(f"SELECT * FROM {table}"):
                    key = heads.get(row[0])
                    if key is not None:
                        result[key].add((predicate, tuple(row[1:])))
        return {key: frozenset(atoms) for key, atoms in result.items()}

    # ------------------------------------------------------------------ #
    # Coverage
    # ------------------------------------------------------------------ #
    def covered_ids(
        self, clause: HornClause, only_ids: Optional[Iterable[int]] = None
    ) -> Set[int]:
        """Ids of every materialized example the clause covers — one query.

        ``only_ids`` restricts the scan to the given example ids: delta
        maintenance re-scores just the examples a mutation invalidated
        instead of re-joining the clause against every stored saturation.

        Raises :class:`CompilationNotSupported` for bodies above the join
        limit; the caller falls back to the Python subsumption engine for
        that clause.
        """
        head = clause.head
        with self._lock:
            head_table = self._head_tables.get((head.predicate, head.arity))
            if head_table is None:
                return set()
            if self._stale_statistics:
                # Without index statistics SQLite's greedy planner can pick
                # catastrophic orders for wide saturation joins (50x+ slower).
                # But ANALYZE scans every saturation table, which would
                # dominate a delta-maintenance round that only re-adds a
                # handful of examples — and the planner only cares about
                # *relative* cardinalities, which barely move under small
                # churn.  Re-analyze only when the store has grown or shrunk
                # past 2x since the statistics were last taken.
                if not (
                    0 < self._analyzed_size // 2 <= self._size
                    and self._size <= self._analyzed_size * 2
                ):
                    self._connection.execute("ANALYZE")
                    self._analyzed_size = self._size
                self._stale_statistics = False

            where: List[str] = []
            params: List[object] = []
            outer_columns: Dict[Variable, str] = {}
            first_column: Dict[Variable, int] = {}
            for position, term in enumerate(head.terms):
                column = f"cand.h{position}"
                if isinstance(term, Constant):
                    try:
                        params.append(_storable(term.value))
                    except BackendValueError:
                        # Stored head values are storable, so nothing matches.
                        return set()
                    where.append(f"{column} = ?")
                    continue
                known = first_column.get(term)
                if known is None:
                    first_column[term] = position
                    outer_columns[term] = column
                else:
                    where.append(f"{column} = cand.h{known}")

            if clause.body:
                compiled = compile_conjunction(
                    clause.body,
                    lambda atom: self._body_tables.get((atom.predicate, atom.arity)),
                    outer_columns=outer_columns,
                    alias_condition=lambda alias: f"{alias}.ex = cand.ex",
                )
                if compiled.empty:
                    return set()
                exists = "SELECT 1 FROM " + ", ".join(compiled.from_items)
                if compiled.where:
                    exists += " WHERE " + " AND ".join(compiled.where)
                where.append(f"EXISTS ({exists})")
                params.extend(compiled.params)

            if only_ids is not None:
                ids = sorted({int(example_id) for example_id in only_ids})
                if not ids:
                    return set()
                # The scope rides a temp table rather than an inline
                # ``IN (?, ?, ...)`` so the SQL text stays identical across
                # calls: sqlite3's per-connection statement cache then skips
                # re-planning the (potentially 20-way) saturation join on
                # every delta-maintenance round.
                self._connection.execute(
                    "CREATE TEMP TABLE IF NOT EXISTS _covered_scope "
                    "(ex INTEGER PRIMARY KEY)"
                )
                self._connection.execute("DELETE FROM _covered_scope")
                self._connection.executemany(
                    "INSERT INTO _covered_scope VALUES (?)",
                    [(example_id,) for example_id in ids],
                )
                where.append("cand.ex IN (SELECT ex FROM _covered_scope)")

            sql = f"SELECT cand.ex FROM {head_table} AS cand"
            if where:
                sql += " WHERE " + " AND ".join(where)
            return {row[0] for row in self._connection.execute(sql, params)}

    def __repr__(self) -> str:
        return (
            f"SaturationStore({self._size} examples, "
            f"{len(self._body_tables)} predicates)"
        )
