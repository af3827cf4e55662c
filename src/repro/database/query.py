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
into a few index probes per tuple rather than a fresh plan per tuple.

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

    __slots__ = ("slots", "steps", "empty", "_template")

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
        remaining = []
        for atom in body:
            try:
                store = instance.relation(atom.predicate)
            except KeyError:
                self.empty = True
                return
            if store.schema.arity != atom.arity:
                self.empty = True
                return
            remaining.append((atom, store, atom.variables(), len(store)))
        known = set(self.slots)
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

    def definition_covers_tuple(
        self, definition: HornDefinition, head_values: Sequence[object]
    ) -> bool:
        """True when any clause of the definition derives the head tuple."""
        return any(
            self.clause_covers_tuple(clause, head_values) for clause in definition
        )

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
        covers = self._coverage_test(clause)
        return {tuple(candidate) for candidate in candidates if covers(candidate)}

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
        snapshot connections when ``parallelism > 1``.  Clauses the backend
        cannot compile fall back to :meth:`covered_tuples` individually.
        Results are returned in input order.
        """
        clause_list = list(clauses)
        batch = getattr(self._compiled, "covered_head_tuples_batch", None)
        if batch is not None:
            try:
                partial = batch(clause_list, candidates, parallelism=parallelism)
            except CompilationNotSupported:
                partial = [None] * len(clause_list)
        else:
            partial = [None] * len(clause_list)
        return [
            covered if covered is not None else self.covered_tuples(clause, candidates)
            for clause, covered in zip(clause_list, partial)
        ]

    def count_bindings(self, body: Sequence[Atom], limit: Optional[int] = None) -> int:
        """Number of satisfying assignments of the body (used by FOIL's gain)."""
        if self._compiled is not None:
            try:
                return self._compiled.count_bindings(body, limit)
            except CompilationNotSupported:
                pass
        plan = _JoinPlan(self.instance, body)
        count = 0
        for _ in plan.solutions():
            count += 1
            if limit is not None and count >= limit:
                break
        return count

    def bindings_for_body(
        self, body: Sequence[Atom], initial: Optional[Binding] = None
    ) -> Iterator[Binding]:
        """Generate all variable bindings satisfying every body atom.

        Each binding is a new dict holding ``initial`` plus the body's
        variables.  Atoms are joined in a greedy order: at each step the
        atom with the fewest unbound variables (smallest relation as
        tie-break) comes next, which keeps intermediate results small.  On
        compiled backends the enumeration runs as a single SQL statement.

        The generic join reads the relation stores' live indexes, so do not
        mutate the instance while this generator is suspended; collect the
        bindings first (``list(...)``) when you need to.
        """
        if self._compiled is not None:
            try:
                yield from self._compiled.iter_bindings(body, initial)
                return
            except CompilationNotSupported:
                pass
        initial = initial or {}
        plan = _JoinPlan(self.instance, body, list(initial))
        slots = list(plan.slots.items())
        for values in plan.solutions(initial):
            yield {variable: values[slot] for variable, slot in slots}

    # ------------------------------------------------------------------ #
    # Coverage against one plan
    # ------------------------------------------------------------------ #
    def _coverage_test(self, clause: HornClause) -> Callable[[Sequence[object]], bool]:
        """Compile ``clause`` once; return a test of one candidate head tuple.

        Head constants must match and repeated head variables must agree; a
        candidate of the wrong length is not covered.
        """
        head = clause.head
        plan = _JoinPlan(self.instance, clause.body, head.variables())
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
        satisfiable = not plan.empty
        # One value list serves every candidate: each test overwrites the
        # head slots, and the join assigns every other slot before reading it.
        values = plan.values()

        def covers(candidate: Sequence[object]) -> bool:
            if len(candidate) != arity:
                return False
            for position, value in constants:
                if candidate[position] != value:
                    return False
            for position, earlier in repeats:
                if candidate[position] != candidate[earlier]:
                    return False
            if not satisfiable:
                return False
            if not steps:
                return True
            for position, slot in assign:
                values[slot] = candidate[position]
            for _ in _extend(steps, 0, values):
                return True
            return False

        return covers


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
