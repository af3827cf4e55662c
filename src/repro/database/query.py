"""Conjunctive-query (Horn clause) evaluation over database instances.

``evaluate_clause`` computes the result of applying a Horn clause to a
database instance: the set of head-tuple instantiations whose body is
satisfied by the instance (the paper's ``h_R(I)``, Section 3.2.2).

The generic evaluator compiles a body once per call into a :class:`_JoinPlan`
for a fixed set of bound variables: a greedy atom order, variables mapped to
integer slots of one flat value list, and per-atom index probes.  Running the
plan is a backtracking index-nested-loop join, so selective constants and
join variables prune early.  Coverage of a candidate list reuses one plan for
every candidate, which turns "is this head tuple in the clause's result?"
into a few index probes per tuple rather than a fresh plan per tuple.  A
coverage batch goes one step further: clauses that share a head and all but
their last body atom (a refinement generation, as FOIL scores it) share one
plan of that body, each candidate walks its solutions once, and every
clause's last atom is one more probe against each solution until all are
decided.  Nothing a plan holds outlives the call that built it.

The same machinery powers:
* labeling examples from a hidden ground-truth definition (datasets),
* definition-equivalence checks across schema transformations,
* FOIL's coverage counts over the extensional database.

When the instance's backend supports compiled queries (the SQLite backend),
the evaluator delegates to single set-at-a-time SQL statements instead;
bodies the backend cannot compile fall back to the generic join, which reads
relation stores only through the ``RelationBackend`` protocol.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..logic.atoms import Atom
from ..logic.clauses import HornClause, HornDefinition
from ..logic.terms import Constant, Term, Variable
from .backend import RelationBackend
from .instance import DatabaseInstance
from .sqlite_backend import CompilationNotSupported

Binding = Dict[Variable, object]
Row = Tuple[object, ...]
Slots = Tuple[Tuple[int, int], ...]
#: One atom of a plan: its store, ``(position, slot)`` probes on known
#: values, ``(position, slot)`` assignments of fresh variables, and
#: ``(position, earlier position)`` checks of repeated fresh variables.
_Step = Tuple[RelationBackend, Slots, Slots, Slots]


def _store_for(instance: DatabaseInstance, atom: Atom) -> Optional[RelationBackend]:
    """The store ``atom`` reads, or ``None`` when the instance has no such
    relation or the atom has the wrong arity (it can then match nothing)."""
    try:
        store = instance.relation(atom.predicate)
    except KeyError:
        return None
    return store if store.schema.arity == atom.arity else None


def _row_getter(slots: Sequence[int]) -> Callable[[List[object]], Row]:
    """``values -> tuple(values[s] for s in slots)``, as one C call."""
    if len(slots) == 1:
        (slot,) = slots
        return lambda values: (values[slot],)
    if not slots:
        return lambda values: ()
    return itemgetter(*slots)


class _JoinPlan:
    """A conjunctive body compiled once for a fixed set of bound variables.

    ``slots`` maps every variable to its index in the flat value list the
    join fills in: the bound variables take the first slots, in the order
    given.  Every constant has a slot of its own, filled in at compile time,
    so every atom position reads one list entry.  Atoms are ordered greedily
    (fewest unbound variables first, then the smaller relation), exactly
    once.  A body naming a missing relation, or an atom of the wrong arity,
    compiles to an ``empty`` plan with no solutions.

    A plan lives for one evaluator call: it holds the relation stores, and
    the relation sizes that ordered it are not watched for changes.
    """

    __slots__ = ("slots", "steps", "empty", "_template", "_known")

    def __init__(
        self,
        instance: DatabaseInstance,
        body: Sequence[Atom],
        bound: Sequence[Variable] = (),
    ):
        self.slots: Dict[Variable, int] = {}
        for variable in bound:
            self.slots.setdefault(variable, len(self.slots))
        self._template: List[object] = [None] * len(self.slots)
        self.steps: List[_Step] = []
        self.empty = False
        # The variables bound once every step has run.
        self._known: Set[Variable] = set(self.slots)
        remaining = []
        for atom in body:
            store = _store_for(instance, atom)
            if store is None:
                self.empty = True
                return
            remaining.append((atom, store, atom.variables(), len(store)))
        known = self._known
        while remaining:
            best = min(
                range(len(remaining)),
                key=lambda i: (
                    sum(1 for v in remaining[i][2] if v not in known),
                    remaining[i][3],
                ),
            )
            atom, store, _, _ = remaining.pop(best)
            self.steps.append(self._compile_atom(atom, store, known))

    def _compile_atom(
        self, atom: Atom, store: RelationBackend, known: Set[Variable]
    ) -> _Step:
        probes: List[Tuple[int, int]] = []
        fresh: List[Tuple[int, int]] = []
        repeats: List[Tuple[int, int]] = []
        first_seen: Dict[Variable, int] = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                probes.append((position, self.new_slot(term.value)))
            elif term in known:
                probes.append((position, self.slots[term]))
            elif term in first_seen:
                repeats.append((position, first_seen[term]))
            else:
                slot = self.slots[term] = self.new_slot()
                first_seen[term] = position
                fresh.append((position, slot))
        known.update(first_seen)
        return (store, tuple(probes), tuple(fresh), tuple(repeats))

    def last_step(self, instance: DatabaseInstance, atom: Atom) -> Optional[_Step]:
        """``atom`` compiled as one more step after the plan's own, for an
        existence test (:func:`_has_row`): the variables the plan leaves
        unbound get slots that nothing reads.  ``None`` when the atom can
        match nothing.

        Each call compiles against the plan alone, so the last steps of
        several refinements of one body do not see each other's variables.
        """
        store = _store_for(instance, atom)
        if store is None:
            return None
        return self._compile_atom(atom, store, set(self._known))

    def new_slot(self, value: object = None) -> int:
        """A new slot, pre-filled with ``value`` in every value list."""
        self._template.append(value)
        return len(self._template) - 1

    def values(self) -> List[object]:
        """A value list with the constants filled in, bound slots unset."""
        return list(self._template)

    def solutions(self, binding: Optional[Binding] = None) -> Iterator[List[object]]:
        """Yield the value list once per satisfying assignment, filled in,
        with the bound variables set from ``binding``.

        The same list is yielded every time; copy what you keep.  An empty
        body is satisfied once.
        """
        if self.empty:
            return
        values = self.values()
        for variable, value in (binding or {}).items():
            values[self.slots[variable]] = value
        if self.steps:
            yield from _extend(self.steps, 0, values)
        else:
            yield values


def _has_row(step: _Step, values: List[object]) -> bool:
    """True when ``step``'s atom matches a row under the slots set so far."""
    # The probes are read as in ``_extend``; a helper shared by the two
    # would cost one more call per join step.
    store, probes, _, repeats = step
    if probes:
        position, slot = probes[0]
        rows = store.tuples_with(position, values[slot])
        for position, slot in probes[1:]:
            if not rows:
                return False
            rows = rows & store.tuples_with(position, values[slot])
    else:
        rows = store.rows
    if not repeats:
        return bool(rows)
    return any(
        all(row[position] == row[earlier] for position, earlier in repeats)
        for row in rows
    )


def _extend(steps: List[_Step], depth: int, values: List[object]) -> Iterator[List[object]]:
    """The join: match ``steps[depth:]`` under the slots set so far."""
    store, probes, fresh, repeats = steps[depth]
    depth += 1
    last = depth == len(steps)
    if probes:
        position, slot = probes[0]
        rows = store.tuples_with(position, values[slot])
        for position, slot in probes[1:]:
            if not rows:
                return
            rows = rows & store.tuples_with(position, values[slot])
    else:
        rows = store.rows
    for row in rows:
        for position, earlier in repeats:
            if row[position] != row[earlier]:
                break
        else:
            for position, slot in fresh:
                values[slot] = row[position]
            if last:
                yield values
            else:
                yield from _extend(steps, depth, values)


class QueryEvaluator:
    """Evaluate Horn clauses / definitions against a :class:`DatabaseInstance`."""

    def __init__(self, instance: DatabaseInstance):
        self.instance = instance
        backend = getattr(instance, "backend", None)
        self._compiled = (
            backend
            if backend is not None
            and getattr(backend, "supports_compiled_queries", False)
            else None
        )

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def evaluate_clause(self, clause: HornClause) -> Set[Tuple[object, ...]]:
        """All head tuples produced by ``clause`` on the instance.

        Unsafe clauses (head variables not bound by the body) raise
        ``ValueError`` because their result would be infinite (Section 7.3).
        """
        if not clause.is_safe():
            raise ValueError(f"cannot evaluate unsafe clause: {clause}")
        if self._compiled is not None and clause.body:
            try:
                return self._compiled.head_tuples(clause)
            except CompilationNotSupported:
                pass
        plan = _JoinPlan(self.instance, clause.body)
        if plan.empty:
            return set()
        head_tuple = _row_getter([
            plan.slots[term] if isinstance(term, Variable)
            else plan.new_slot(term.value)
            for term in clause.head.terms
        ])
        return {head_tuple(values) for values in plan.solutions()}

    def evaluate_definition(self, definition: HornDefinition) -> Set[Tuple[object, ...]]:
        """Union of the results of every clause in the definition."""
        results: Set[Tuple[object, ...]] = set()
        for clause in definition:
            results |= self.evaluate_clause(clause)
        return results

    def body_is_satisfiable(self, body: Sequence[Atom], binding: Optional[Binding] = None) -> bool:
        """True when the body has at least one satisfying assignment."""
        if self._compiled is not None:
            try:
                return self._compiled.satisfiable(body, binding)
            except CompilationNotSupported:
                pass
        binding = binding or {}
        plan = _JoinPlan(self.instance, body, list(binding))
        for _ in plan.solutions(binding):
            return True
        return False

    def clause_covers_tuple(
        self, clause: HornClause, head_values: Sequence[object]
    ) -> bool:
        """True when ``clause`` derives the given head tuple on the instance.

        Head variables are bound to the given values; head constants must
        match.  This is the "does clause C cover example e" question answered
        extensionally (as opposed to via θ-subsumption of saturations).
        """
        if len(head_values) != clause.head.arity:
            return False
        binding: Binding = {}
        for term, value in zip(clause.head.terms, head_values):
            if isinstance(term, Constant):
                if term.value != value:
                    return False
            else:
                existing = binding.get(term)
                if existing is not None and existing != value:
                    return False
                binding[term] = value
        return self.body_is_satisfiable(clause.body, binding)

    def covered_tuples(
        self, clause: HornClause, candidates: Sequence[Sequence[object]]
    ) -> Set[Tuple[object, ...]]:
        """The subset of candidate head tuples the clause derives.

        On backends with compiled queries this is **one** set-at-a-time
        statement for the whole candidate list (the stored-procedure analogue
        of Section 7.5.2); otherwise the clause is compiled once and every
        candidate is tested against that plan, stopping at its first match.
        """
        if self._compiled is not None:
            try:
                return self._compiled.covered_head_tuples(clause, candidates)
            except CompilationNotSupported:
                pass
        return self._covered_sets(clause.head, clause.body, [None], candidates)[0]

    def covered_tuples_batch(
        self,
        clauses: Sequence[HornClause],
        candidates: Sequence[Sequence[object]],
        parallelism: int = 1,
    ) -> List[Set[Tuple[object, ...]]]:
        """Per-clause covered candidate sets for a whole batch of clauses.

        Backends exposing ``covered_head_tuples_batch`` (the SQLite family)
        answer the batch with one shared candidate temp table per head
        signature — and, on the pooled backend, fan the clauses out across
        snapshot connections when ``parallelism > 1``.

        The generic join answers every other clause, grouped by refinement:
        clauses that share a head and every body atom but the last (a
        generation of ``clause.add_literal(l)``, as FOIL scores them) are one
        group.  The group's shared body is planned once with the head bound;
        for each candidate its solutions are walked once, every last atom
        not yet decided is tested against each as one extra step, and the
        walk stops when every atom is decided.  A clause alone in its group
        is planned whole.  Results are returned in input order.
        """
        clause_list = list(clauses)
        compiled: Sequence[Optional[Set[Row]]] = [None] * len(clause_list)
        batch = getattr(self._compiled, "covered_head_tuples_batch", None)
        if batch is not None:
            try:
                compiled = batch(clause_list, candidates, parallelism=parallelism)
            except CompilationNotSupported:
                pass
        groups: Dict[Tuple[Atom, Tuple[Atom, ...]], List[int]] = {}
        for index, clause in enumerate(clause_list):
            if compiled[index] is None:
                groups.setdefault((clause.head, clause.body[:-1]), []).append(index)
        generic: Dict[int, Set[Row]] = {}
        for (head, shared), members in groups.items():
            bodies = [clause_list[index].body for index in members]
            if len(members) == 1:
                covered = self._covered_sets(head, bodies[0], [None], candidates)
            else:
                lasts = [body[-1] if body else None for body in bodies]
                covered = self._covered_sets(head, shared, lasts, candidates)
            generic.update(zip(members, covered))
        return [
            found if found is not None else generic[index]
            for index, found in enumerate(compiled)
        ]

    # ------------------------------------------------------------------ #
    # Coverage against one plan
    # ------------------------------------------------------------------ #
    def _covered_sets(
        self,
        head: Atom,
        shared: Sequence[Atom],
        lasts: Sequence[Optional[Atom]],
        candidates: Sequence[Sequence[object]],
    ) -> List[Set[Row]]:
        """Covered candidates of ``head :- shared, last`` for each entry of
        ``lasts``, in order; a ``None`` entry is the clause ``head :- shared``.

        ``shared`` is planned once with the head's variables bound, and each
        last atom compiles to one more step after that plan.  Head constants
        must match and repeated head variables must agree; a candidate of
        the wrong length is not covered.
        """
        covered: List[Set[Row]] = [set() for _ in lasts]
        plan = _JoinPlan(self.instance, shared, head.variables())
        if plan.empty:
            return covered
        tests: List[Tuple[Set[Row], Optional[_Step]]] = []
        for found, atom in zip(covered, lasts):
            if atom is None:
                tests.append((found, None))
                continue
            step = plan.last_step(self.instance, atom)
            if step is not None:
                tests.append((found, step))
        if not tests:
            return covered
        constants: List[Tuple[int, object]] = []
        assign: List[Tuple[int, int]] = []
        repeats: List[Tuple[int, int]] = []
        first_seen: Dict[Term, int] = {}
        for position, term in enumerate(head.terms):
            if isinstance(term, Constant):
                constants.append((position, term.value))
            elif term in first_seen:
                repeats.append((position, first_seen[term]))
            else:
                first_seen[term] = position
                assign.append((position, plan.slots[term]))
        arity = head.arity
        steps = plan.steps
        # One value list serves every candidate: each test overwrites the
        # head slots, and the join assigns every other slot before reading it.
        values = plan.values()
        for candidate in candidates:
            if len(candidate) != arity:
                continue
            if constants and any(
                candidate[position] != value for position, value in constants
            ):
                continue
            if repeats and any(
                candidate[position] != candidate[earlier] for position, earlier in repeats
            ):
                continue
            for position, slot in assign:
                values[slot] = candidate[position]
            row = tuple(candidate)
            undecided = tests
            for _ in _extend(steps, 0, values) if steps else (values,):
                remaining = []
                for test in undecided:
                    found, step = test
                    if step is None or _has_row(step, values):
                        found.add(row)
                    else:
                        remaining.append(test)
                if not remaining:
                    break
                undecided = remaining
        return covered


def evaluate_definition(
    instance: DatabaseInstance, definition: HornDefinition
) -> Set[Tuple[object, ...]]:
    """Convenience wrapper: result of a definition on an instance."""
    return QueryEvaluator(instance).evaluate_definition(definition)


def evaluate_clause(
    instance: DatabaseInstance, clause: HornClause
) -> Set[Tuple[object, ...]]:
    """Convenience wrapper: result of a single clause on an instance."""
    return QueryEvaluator(instance).evaluate_clause(clause)
