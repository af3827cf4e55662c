"""θ-subsumption engine (the role played by Resumer2 in the paper).

Clause ``C`` θ-subsumes clause ``D`` iff there is a substitution θ such that
``Cθ ⊆ D`` (comparing head to head and body literals to body literals as
sets).  Coverage testing in bottom-up learners reduces to θ-subsumption
between a candidate clause and the *ground bottom clause* of an example
(Section 7.5.3), so this module is the hottest path of the whole library.

Two engines are provided:

* :class:`SubsumptionEngine` — the production kernel.  Terms and predicates
  are **interned to integer ids** in an :class:`InternTable` that every
  :class:`GroundClauseIndex` of one coverage engine shares, so a candidate
  clause is encoded once however many saturations it is tested against, and
  the inner matching loop compares plain ints instead of hashing
  :class:`~repro.logic.terms.Term` objects; bindings live
  in a flat slot array with trail-based undo (no per-candidate substitution
  dict copies); the backtracking search runs on an **explicit stack** (no
  recursion, no ``remaining[:i] + remaining[i+1:]`` list churn); the general
  clause's body is decomposed into **variable-connected components** solved
  independently (a product of small searches instead of one big one); and
  candidate lists are **memoized per (pattern, bound-profile)** within a
  search.  Decisions are identical to the reference engine whenever the
  backtrack budget is not exhausted.
* :class:`ReferenceSubsumptionEngine` — the original recursive,
  Term-at-a-time engine, kept as the executable specification: the property
  suite and the subsumption microbench pit the kernel against it pair by
  pair.

Both engines share :class:`GroundClauseIndex` — a hash index over the
specific clause's literals keyed by predicate and by ``(predicate, position,
term)`` — so that once some variables are bound, the remaining candidates
are retrieved by index lookup instead of scanning (this mirrors how the
paper's VoltDB-backed coverage tests exploit RDBMS indexes).  Both use
dynamic most-constrained-first literal selection and a backtrack budget so
pathological clauses cannot stall a learning run; exhausting the budget
conservatively reports "does not subsume", increments the
``subsumption.budget_exhausted`` registry counter, and warns once per
process.
"""

from __future__ import annotations

import threading
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import registry as obs_registry
from .atoms import Atom
from .clauses import HornClause
from .substitution import Substitution, match_atom_to_ground
from .terms import Term, Variable


class InternTable:
    """Term ids, predicate ids and clause encodings shared by many indexes.

    Every :class:`GroundClauseIndex` built over one table numbers terms and
    predicate keys the same way, so a general clause's encoding depends only
    on the table: it is built once per distinct clause and reused against
    every index.  A coverage engine owns one table for all its saturations;
    an index built without one gets a fresh table of its own.  Interning
    and encoding run under one (re-entrant) lock; lookups of known ids and
    cached encodings take no lock.
    """

    __slots__ = ("terms", "_term_ids", "_pred_ids", "_encodings", "_lock")

    def __init__(self) -> None:
        self.terms: List[Term] = []
        self._term_ids: Dict[Term, int] = {}
        self._pred_ids: Dict[Tuple[str, int], int] = {}
        self._encodings: Dict[HornClause, _EncodedClause] = {}
        self._lock = threading.RLock()

    def term_id(self, term: Term) -> int:
        """Stable integer id of ``term``, interning it on first sight.

        A term absent from an index gets an id with no positional entries
        there, so lookups through it fail exactly as Term-level matching
        would.
        """
        term_id = self._term_ids.get(term)
        if term_id is None:
            with self._lock:
                term_id = self._term_ids.get(term)
                if term_id is None:
                    term_id = self._term_ids[term] = len(self.terms)
                    self.terms.append(term)
        return term_id

    def pred_id(self, key: Tuple[str, int]) -> int:
        """Stable integer id of a ``(predicate, arity)`` key."""
        pred_id = self._pred_ids.get(key)
        if pred_id is None:
            with self._lock:
                pred_id = self._pred_ids.get(key)
                if pred_id is None:
                    pred_id = self._pred_ids[key] = len(self._pred_ids)
        return pred_id

    def encode(self, general: HornClause) -> "_EncodedClause":
        """``general`` compiled against this table's ids (cached per clause)."""
        encoded = self._encodings.get(general)
        if encoded is None:
            with self._lock:
                encoded = self._encodings.get(general)
                if encoded is None:
                    encoded = self._encodings[general] = _EncodedClause(
                        general, self
                    )
        return encoded


class _EncodedClause:
    """A general clause compiled against one :class:`InternTable`.

    ``patterns[i]`` is ``(pred_id, codes, var_slots)`` for the i-th body
    literal: ``codes`` holds one int per argument — the interned term id for
    constants, ``-(slot + 1)`` for variables — and ``var_slots`` the
    distinct variable slots the literal mentions (the memo profile).
    ``components`` groups body-literal positions into variable-connected
    components; literals in different components share no free variable, so
    the search solves each independently.
    """

    __slots__ = (
        "var_count",
        "head_slot_items",
        "slot_items",
        "patterns",
        "components",
    )

    def __init__(self, general: HornClause, table: InternTable):
        slot_of: Dict[Variable, int] = {}
        for term in general.head.terms:
            if isinstance(term, Variable) and term not in slot_of:
                slot_of[term] = len(slot_of)
        head_slot_count = len(slot_of)
        patterns: List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = []
        for atom in general.body:
            codes: List[int] = []
            var_slots: List[int] = []
            for term in atom.terms:
                if isinstance(term, Variable):
                    slot = slot_of.get(term)
                    if slot is None:
                        slot = slot_of[term] = len(slot_of)
                    codes.append(-(slot + 1))
                    if slot not in var_slots:
                        var_slots.append(slot)
                else:
                    codes.append(table.term_id(term))
            patterns.append(
                (
                    table.pred_id((atom.predicate, len(atom.terms))),
                    tuple(codes),
                    tuple(var_slots),
                )
            )

        # Variable-connected components over *free* (non-head) slots: head
        # slots are bound before the search starts, so sharing one does not
        # couple two literals.
        parent = list(range(len(patterns)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        slot_owner: Dict[int, int] = {}
        for i, (_, _, var_slots) in enumerate(patterns):
            for slot in var_slots:
                if slot < head_slot_count:
                    continue
                owner = slot_owner.get(slot)
                if owner is None:
                    slot_owner[slot] = i
                else:
                    root_a, root_b = find(i), find(owner)
                    if root_a != root_b:
                        parent[root_a] = root_b
        grouped: Dict[int, List[int]] = {}
        for i in range(len(patterns)):
            grouped.setdefault(find(i), []).append(i)
        self.var_count = len(slot_of)
        self.slot_items = tuple(slot_of.items())
        self.head_slot_items = self.slot_items[:head_slot_count]
        self.patterns = tuple(patterns)
        self.components = tuple(
            tuple(group) for group in sorted(grouped.values(), key=lambda g: g[0])
        )


class GroundClauseIndex:
    """Interned hash index over the body literals of a (typically ground) clause.

    Every term and predicate of the clause is interned to an integer id of
    the index's :class:`InternTable` at construction; the positional index
    maps ``(pred_id, position, term_id)`` to the literals whose
    ``position``-th argument is that term, so candidate retrieval and
    matching run entirely on ints.  Building the index once per saturation
    and reusing it across the many coverage tests of a learning run is the
    optimization that Castor's in-memory-RDBMS design point corresponds to.

    General clauses are compiled by :meth:`encode`, which the table caches
    per clause: indexes sharing a table (a coverage engine's saturations)
    share every encoding.  Without ``table`` the index gets a fresh one.
    The legacy Term-level ``by_predicate`` / ``by_position`` views used by
    :class:`ReferenceSubsumptionEngine` are built lazily on first access.
    """

    __slots__ = (
        "clause",
        "table",
        "_atoms",
        "_atom_args",
        "_atoms_by_pred",
        "_pos_index",
        "_legacy_by_predicate",
        "_legacy_by_position",
    )

    def __init__(self, clause: HornClause, table: Optional[InternTable] = None):
        self.clause = clause
        self.table = table = InternTable() if table is None else table
        term_id = table.term_id
        atoms: List[Atom] = []
        atom_args: List[Tuple[int, ...]] = []
        atoms_by_pred: Dict[int, List[int]] = {}
        pos_index: Dict[Tuple[int, int, int], List[int]] = {}
        for atom in clause.body:
            pred_id = table.pred_id((atom.predicate, len(atom.terms)))
            atom_index = len(atoms)
            atoms.append(atom)
            args_tuple = tuple([term_id(term) for term in atom.terms])
            atom_args.append(args_tuple)
            atoms_by_pred.setdefault(pred_id, []).append(atom_index)
            for position, value in enumerate(args_tuple):
                pos_index.setdefault((pred_id, position, value), []).append(
                    atom_index
                )
        self._atoms = atoms
        self._atom_args = atom_args
        self._atoms_by_pred = atoms_by_pred
        self._pos_index = pos_index
        self._legacy_by_predicate: Optional[Dict[Tuple[str, int], List[Atom]]] = None
        self._legacy_by_position: Optional[Dict[Tuple[str, int, int, Term], List[Atom]]] = None

    def encode(self, general: HornClause) -> _EncodedClause:
        """Compile ``general`` against this index's table (cached per table)."""
        return self.table.encode(general)

    # ------------------------------------------------------------------ #
    # Legacy Term-level views (reference engine + compatibility)
    # ------------------------------------------------------------------ #
    def _build_legacy(self) -> None:
        by_predicate: Dict[Tuple[str, int], List[Atom]] = {}
        by_position: Dict[Tuple[str, int, int, Term], List[Atom]] = {}
        for atom in self._atoms:
            key = (atom.predicate, atom.arity)
            by_predicate.setdefault(key, []).append(atom)
            for position, term in enumerate(atom.terms):
                by_position.setdefault(
                    (atom.predicate, atom.arity, position, term), []
                ).append(atom)
        self._legacy_by_predicate = by_predicate
        self._legacy_by_position = by_position

    @property
    def by_predicate(self) -> Dict[Tuple[str, int], List[Atom]]:
        if self._legacy_by_predicate is None:
            self._build_legacy()
        return self._legacy_by_predicate  # type: ignore[return-value]

    @property
    def by_position(self) -> Dict[Tuple[str, int, int, Term], List[Atom]]:
        if self._legacy_by_position is None:
            self._build_legacy()
        return self._legacy_by_position  # type: ignore[return-value]

    def candidates(self, pattern: Atom, theta: Substitution) -> List[Atom]:
        """Literals that could match ``pattern`` under the current bindings.

        Every pattern argument that is a constant or an already-bound variable
        narrows the candidate set through the positional index; the smallest
        such set is returned (unfiltered arguments are checked later by the
        full match).
        """
        key = (pattern.predicate, pattern.arity)
        best = self.by_predicate.get(key)
        if best is None:
            return []
        for position, term in enumerate(pattern.terms):
            if isinstance(term, Variable):
                term = theta.get(term)
                if term is None:
                    continue
            narrowed = self.by_position.get(
                (pattern.predicate, pattern.arity, position, term)
            )
            if narrowed is None:
                return []
            if len(narrowed) < len(best):
                best = narrowed
        return best


# --------------------------------------------------------------------- #
# Budget-exhaustion accounting (shared by both engines)
# --------------------------------------------------------------------- #
_budget_lock = threading.Lock()
_budget_warned = False


def _note_budget_exhausted(max_backtracks: int) -> None:
    """Count (and warn once about) a conservatively-failed search.

    Budget exhaustion silently reporting "does not subsume" is a
    correctness-adjacent event: a learner may discard a clause it should
    have kept.  The ``subsumption.budget_exhausted`` registry series makes
    the silence observable, and the first occurrence per process warns.
    The counter is looked up per event (exhaustion is rare) so test-only
    registry resets never orphan a cached series.
    """
    global _budget_warned
    obs_registry().counter("subsumption.budget_exhausted").inc()
    if not _budget_warned:
        with _budget_lock:
            if not _budget_warned:
                _budget_warned = True
                warnings.warn(
                    "θ-subsumption backtrack budget exhausted "
                    f"(max_backtracks={max_backtracks}); conservatively "
                    "reporting 'does not subsume'.  Further exhaustions are "
                    "counted on the 'subsumption.budget_exhausted' registry "
                    "series without warning again.",
                    RuntimeWarning,
                    stacklevel=4,
                )


def budget_exhausted_count() -> int:
    """Process-wide number of searches that hit the backtrack budget."""
    return obs_registry().counter("subsumption.budget_exhausted").value


class SubsumptionEngine:
    """Decide θ-subsumption between Horn clauses (interned fast kernel).

    The engine is stateless with respect to clauses; a single shared instance
    can be used from multiple threads.  ``max_backtracks`` bounds the search:
    exhausting it conservatively reports "does not subsume" (and bumps the
    ``subsumption.budget_exhausted`` registry counter).
    """

    def __init__(self, max_backtracks: int = 5_000):
        self.max_backtracks = int(max_backtracks)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def subsumes(
        self,
        general: HornClause,
        specific: HornClause,
        index: Optional[GroundClauseIndex] = None,
    ) -> bool:
        """Return True when ``general`` θ-subsumes ``specific``."""
        return self.subsumption_substitution(general, specific, index) is not None

    def subsumption_substitution(
        self,
        general: HornClause,
        specific: HornClause,
        index: Optional[GroundClauseIndex] = None,
    ) -> Optional[Substitution]:
        """Return a witnessing substitution θ with ``general·θ ⊆ specific``.

        The heads must unify by one-way matching (variables of ``general``
        bind to terms of ``specific``); every body literal of ``general`` must
        then map onto some body literal of ``specific``.  A pre-built
        ``index`` of the specific clause may be supplied to amortize indexing
        across repeated tests against the same saturation.
        """
        theta = match_atom_to_ground(general.head, specific.head)
        if theta is None:
            return None
        if not general.body:
            return theta
        if index is None or index.clause is not specific:
            index = GroundClauseIndex(specific)
        encoded = index.encode(general)
        term_id = index.table.term_id
        bindings = [-1] * encoded.var_count
        for variable, slot in encoded.head_slot_items:
            bindings[slot] = term_id(theta[variable])

        budget = self.max_backtracks
        memo: Dict[Tuple[int, Tuple[int, ...]], Sequence[int]] = {}
        for component in encoded.components:
            matched, budget = _solve_component(
                index, encoded, component, bindings, memo, budget
            )
            if budget < 0:
                _note_budget_exhausted(self.max_backtracks)
                return None
            if not matched:
                return None

        terms = index.table.terms
        for variable, slot in encoded.slot_items:
            bound = bindings[slot]
            if bound >= 0 and variable not in theta:
                theta[variable] = terms[bound]
        return theta

    def covers_example(
        self,
        clause: HornClause,
        ground_bottom: HornClause,
        index: Optional[GroundClauseIndex] = None,
    ) -> bool:
        """Coverage test used by bottom-up learners (Section 7.5.3).

        A candidate clause covers example ``e`` iff it θ-subsumes the ground
        bottom clause of ``e``.
        """
        return self.subsumes(clause, ground_bottom, index)

    def equivalent(self, a: HornClause, b: HornClause) -> bool:
        """Clause equivalence under θ-subsumption (both directions)."""
        return self.subsumes(a, b) and self.subsumes(b, a)


def _solve_component(
    index: GroundClauseIndex,
    encoded: _EncodedClause,
    component: Tuple[int, ...],
    bindings: List[int],
    memo: Dict[Tuple[int, Tuple[int, ...]], Sequence[int]],
    budget: int,
) -> Tuple[bool, int]:
    """Match one variable-connected component of the general clause's body.

    Explicit-stack backtracking with dynamic most-constrained-first literal
    selection; ``bindings`` is mutated in place (successful matches leave
    their bindings for the witness, failures are rolled back via per-frame
    trails).  Returns ``(matched, remaining_budget)``; a negative remaining
    budget signals exhaustion (the caller reports "does not subsume").
    """
    patterns = encoded.patterns
    atom_args = index._atom_args
    pos_index = index._pos_index
    atoms_by_pred = index._atoms_by_pred

    remaining = list(component)
    # Frames: [atom_position, insert_position, candidates, next_candidate, trail]
    stack: List[list] = []

    # Hot closure: captured values are passed as default args so the loop
    # body runs on fast local loads instead of cell dereferences.
    def select_and_push(
        remaining=remaining,
        stack=stack,
        patterns=patterns,
        bindings=bindings,
        memo=memo,
        memo_get=memo.get,
        atoms_by_pred_get=atoms_by_pred.get,
        pos_index_get=pos_index.get,
    ) -> bool:
        """Pick the most-constrained remaining literal; False on a dead end."""
        best_i = 0
        best: Optional[Sequence[int]] = None
        best_len = 0
        for i, atom_position in enumerate(remaining):
            pred_id, codes, var_slots = patterns[atom_position]
            key = (atom_position, tuple([bindings[slot] for slot in var_slots]))
            cands = memo_get(key)
            if cands is None:
                # A predicate the specific clause lacks has no entries:
                # the literal, and so the clause, cannot map onto it.
                cands = atoms_by_pred_get(pred_id, ())
                for position, code in enumerate(codes):
                    if code < 0:
                        value = bindings[-1 - code]
                        if value < 0:
                            continue
                    else:
                        value = code
                    narrowed = pos_index_get((pred_id, position, value))
                    if narrowed is None:
                        cands = ()
                        break
                    if len(narrowed) < len(cands):
                        cands = narrowed
                memo[key] = cands
            if not cands:
                return False
            if best is None or len(cands) < best_len:
                best = cands
                best_len = len(cands)
                best_i = i
                if best_len == 1:
                    break
        stack.append([remaining.pop(best_i), best_i, best, 0, None])
        return True

    if not remaining:
        return True, budget
    if not select_and_push():
        return False, budget

    while stack:
        frame = stack[-1]
        trail = frame[4]
        if trail is not None:
            for slot in trail:
                bindings[slot] = -1
            frame[4] = None
        cands = frame[2]
        next_candidate = frame[3]
        if next_candidate >= len(cands):
            stack.pop()
            remaining.insert(frame[1], frame[0])
            continue
        if budget <= 0:
            return False, -1
        budget -= 1
        frame[3] = next_candidate + 1

        codes = patterns[frame[0]][1]
        args = atom_args[cands[next_candidate]]
        trail = []
        matched = True
        for code, value in zip(codes, args):
            if code < 0:
                slot = -1 - code
                bound = bindings[slot]
                if bound < 0:
                    bindings[slot] = value
                    trail.append(slot)
                elif bound != value:
                    matched = False
                    break
            elif code != value:
                matched = False
                break
        if not matched:
            for slot in trail:
                bindings[slot] = -1
            continue
        if not remaining:
            return True, budget
        frame[4] = trail
        if not select_and_push():
            continue
    return False, budget


class ReferenceSubsumptionEngine:
    """The original recursive, Term-at-a-time engine (executable spec).

    Kept verbatim as the baseline the fast kernel is validated and benched
    against: identical public API, identical verdicts (modulo backtrack
    budget accounting, which both engines report conservatively).
    """

    def __init__(self, max_backtracks: int = 5_000):
        self.max_backtracks = int(max_backtracks)

    def subsumes(
        self,
        general: HornClause,
        specific: HornClause,
        index: Optional[GroundClauseIndex] = None,
    ) -> bool:
        """Return True when ``general`` θ-subsumes ``specific``."""
        return self.subsumption_substitution(general, specific, index) is not None

    def subsumption_substitution(
        self,
        general: HornClause,
        specific: HornClause,
        index: Optional[GroundClauseIndex] = None,
    ) -> Optional[Substitution]:
        """Return a witnessing substitution θ with ``general·θ ⊆ specific``."""
        theta = match_atom_to_ground(general.head, specific.head)
        if theta is None:
            return None
        body = list(general.body)
        if not body:
            return theta
        if index is None or index.clause is not specific:
            index = GroundClauseIndex(specific)
        budget = [self.max_backtracks]
        result = self._search(body, index, theta, budget)
        if result is None and budget[0] <= 0:
            _note_budget_exhausted(self.max_backtracks)
        return result

    def covers_example(
        self,
        clause: HornClause,
        ground_bottom: HornClause,
        index: Optional[GroundClauseIndex] = None,
    ) -> bool:
        """Coverage test used by bottom-up learners (Section 7.5.3)."""
        return self.subsumes(clause, ground_bottom, index)

    def equivalent(self, a: HornClause, b: HornClause) -> bool:
        """Clause equivalence under θ-subsumption (both directions)."""
        return self.subsumes(a, b) and self.subsumes(b, a)

    # ------------------------------------------------------------------ #
    # Search internals
    # ------------------------------------------------------------------ #
    def _search(
        self,
        remaining: List[Atom],
        index: GroundClauseIndex,
        theta: Substitution,
        budget: List[int],
    ) -> Optional[Substitution]:
        if not remaining:
            return theta

        # Dynamic most-constrained-first selection: the literal with the
        # fewest candidates under the current bindings is matched next, which
        # both detects dead ends early and keeps the branching factor small.
        best_position = 0
        best_candidates: Optional[List[Atom]] = None
        for position, pattern in enumerate(remaining):
            candidates = index.candidates(pattern, theta)
            if not candidates:
                return None
            if best_candidates is None or len(candidates) < len(best_candidates):
                best_candidates = candidates
                best_position = position
                if len(candidates) == 1:
                    break

        pattern = remaining[best_position]
        rest = remaining[:best_position] + remaining[best_position + 1 :]
        for candidate in best_candidates or []:
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            extended = match_atom_to_ground(pattern, candidate, theta)
            if extended is None:
                continue
            result = self._search(rest, index, extended, budget)
            if result is not None:
                return result
        return None


_DEFAULT_ENGINE = SubsumptionEngine()


def theta_subsumes(general: HornClause, specific: HornClause) -> bool:
    """Module-level convenience wrapper around a shared engine."""
    return _DEFAULT_ENGINE.subsumes(general, specific)


def clauses_equivalent(a: HornClause, b: HornClause) -> bool:
    """True when the clauses θ-subsume each other."""
    return _DEFAULT_ENGINE.equivalent(a, b)
