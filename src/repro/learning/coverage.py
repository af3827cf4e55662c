"""Coverage testing: does a candidate clause cover an example?

Two strategies are provided, mirroring Section 7.5:

* **Subsumption coverage** — a clause covers example ``e`` iff it θ-subsumes
  the ground bottom clause of ``e``.  This is Castor's (and ProGolem's)
  strategy; saturations are built once per example and cached, and so is
  every (clause, example) decision.  One rule picks the decision procedure:
  a ``covered_examples`` question about more than one example goes to a
  :class:`~repro.database.sqlite_backend.SaturationStore` (one SQL statement
  tests the clause against every example's saturation) when the instance's
  backend declares ``supports_compiled_queries``; ``covers``, and every
  question on a backend without compiled queries, uses the Python kernel.
* **Query coverage** — a clause covers ``e`` iff the body, with head
  variables bound to ``e``'s values, is satisfiable in the database.  This is
  the join-based evaluation that top-down learners with short clauses use.

Both engines additionally answer **batched** requests — N candidate clauses
against one example set — through :class:`BatchCoverageEngine`, which the
learners use to score a whole generation of refinements in one call.
Coverage runs on the caller's thread; the one fan-out is the query engine's
``parallelism`` on the ``sqlite-pooled`` backend, which spreads a batch over
snapshot connections.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..database.delta import Delta, FootprintIndex
from ..database.instance import DatabaseInstance
from ..database.query import QueryEvaluator
from ..database.sqlite_backend import (
    BackendValueError,
    CompilationNotSupported,
    SaturationStore,
)
from ..logic.clauses import HornClause
from ..logic.subsumption import GroundClauseIndex, InternTable, SubsumptionEngine
from ..logic.terms import Constant
from .bottom_clause import BottomClauseBuilder, BottomClauseConfig
from .examples import Example
from ..obs import Counter, registry as obs_registry


def _engine_counter(name: str) -> Counter:
    """One engine's own count, feeding the shared process-wide series.

    A fresh engine reads zero (tests and benchmarks read the counts as plain
    attributes, which stay the stable surface), and creating engines adds no
    registry series.
    """
    return Counter(parent=obs_registry().counter(name))


def _footprint(example: Example, saturation: HornClause) -> Iterator[object]:
    """The values a delta must touch to change ``saturation``: the example's
    head values and every constant of its ground body."""
    yield from example.values
    for atom in saturation.body:
        for term in atom.terms:
            if isinstance(term, Constant):
                yield term.value


def examples_mask(covered: Iterable[Example], examples: Sequence[Example]) -> int:
    """Bitmask of ``examples`` positions present in ``covered``.

    Bit ``i`` is set when ``examples[i]`` is covered — coverage vectors are
    always *positional* in the caller's example order, so masks from the
    same example list compose with plain int operations (``|``, ``&``,
    ``bit_count``) instead of Python set algebra over ``Example`` objects.
    """
    covered_set = set(covered)
    mask = 0
    bit = 1
    for example in examples:
        if example in covered_set:
            mask |= bit
        bit <<= 1
    return mask


def mask_to_examples(mask: int, examples: Sequence[Example]) -> List[Example]:
    """The examples whose positional bits are set in ``mask``, in order."""
    return [example for i, example in enumerate(examples) if (mask >> i) & 1]


class CoverageResult:
    """Counts of covered positive and negative examples for one clause.

    When produced by a batched evaluation, ``positive_mask`` /
    ``negative_mask`` additionally carry the positional coverage bitmasks
    (bit ``i`` = example ``i`` of the scored list), letting downstream
    consumers combine clause coverages with int operations.
    """

    __slots__ = (
        "positives_covered",
        "negatives_covered",
        "covered_positive_examples",
        "positive_mask",
        "negative_mask",
    )

    def __init__(
        self,
        positives_covered: int,
        negatives_covered: int,
        covered_positive_examples: Optional[List[Example]] = None,
        positive_mask: Optional[int] = None,
        negative_mask: Optional[int] = None,
    ):
        self.positives_covered = positives_covered
        self.negatives_covered = negatives_covered
        self.covered_positive_examples = covered_positive_examples or []
        self.positive_mask = positive_mask
        self.negative_mask = negative_mask

    def precision(self) -> float:
        """Training precision of the clause: covered positives over all covered."""
        total = self.positives_covered + self.negatives_covered
        if total == 0:
            return 0.0
        return self.positives_covered / total

    def coverage_score(self) -> int:
        """ProGolem/Castor's default score: positives minus negatives covered."""
        return self.positives_covered - self.negatives_covered

    def __repr__(self) -> str:
        return (
            f"CoverageResult(+{self.positives_covered}, -{self.negatives_covered})"
        )


class SubsumptionCoverageEngine:
    """θ-subsumption-based coverage with saturation and coverage caching.

    Parameters
    ----------
    instance:
        The background database.
    saturation_config:
        Limits for ground bottom-clause construction of examples.
    saturation_store:
        An existing :class:`~repro.database.sqlite_backend.SaturationStore`
        to materialize into (re-added examples are deduplicated), so several
        engines over the *same instance* — e.g. cross-validation folds —
        share one warm store instead of re-materializing.

    When the instance's backend declares ``supports_compiled_queries``, a
    ``covered_examples`` question about more than one example is answered
    by one statement over the store, into which saturations are then also
    materialized; every other question runs the Python kernel.  Examples or
    clauses the store cannot express fall back to the kernel, with one
    caveat: the SQL path has no backtrack budget, so clauses whose Python
    search would exhaust ``max_backtracks`` are decided exactly instead of
    conservatively reported uncovered.
    """

    def __init__(
        self,
        instance: DatabaseInstance,
        saturation_config: Optional[BottomClauseConfig] = None,
        saturation_store: Optional[SaturationStore] = None,
    ):
        self.instance = instance
        self._saturation_cache: Dict[Example, HornClause] = {}
        self._saturation_index_cache: Dict[Example, GroundClauseIndex] = {}
        self._coverage_cache: Dict[Tuple[HornClause, Example], bool] = {}
        self._compiled_ids: Dict[Example, int] = {}
        self._compiled_failed: Set[Example] = set()
        # Caches must exist before the builder property setter runs (it
        # clears them on rebind).
        self.builder = self._make_builder(instance, saturation_config)
        self.subsumption = SubsumptionEngine()
        # One table for every saturation index: a candidate clause is
        # encoded once, not once per saturation it is tested against.
        self._intern = InternTable()
        self._compiled = instance.backend.supports_compiled_queries
        self._compiled_store: Optional[SaturationStore] = saturation_store
        self._lock = threading.Lock()
        # Serializes store creation + materialization so the saturation
        # prefetcher's thread and the caller never race to create two stores
        # (whose independent id sequences would collide in _compiled_ids).
        self._materialize_lock = threading.Lock()
        self._c_tests = _engine_counter("coverage.subsumption.tests")
        self._c_cache_hits = _engine_counter("coverage.subsumption.cache_hits")
        self._c_compiled_statements = _engine_counter(
            "coverage.subsumption.compiled_statements"
        )

    @property
    def coverage_tests_performed(self) -> int:
        return self._c_tests.value

    @property
    def cache_hits(self) -> int:
        return self._c_cache_hits.value

    @property
    def compiled_statements(self) -> int:
        return self._c_compiled_statements.value

    @property
    def builder(self) -> BottomClauseBuilder:
        return self._builder

    @builder.setter
    def builder(self, value: BottomClauseBuilder) -> None:
        # Callers (and some tests) rebind ``engine.builder`` to swap
        # construction semantics.  Already-cached saturations (and the
        # coverage decisions derived from them) describe the OLD builder's
        # semantics, so they are dropped.
        self._builder = value
        self._saturation_cache.clear()
        self._saturation_index_cache.clear()
        self._coverage_cache.clear()
        self._compiled_ids.clear()
        self._compiled_failed.clear()
        # Footprints of cached saturations, filed lazily by apply_delta.
        self._footprints: FootprintIndex[Example] = FootprintIndex()

    def _make_builder(
        self,
        instance: DatabaseInstance,
        saturation_config: Optional[BottomClauseConfig],
    ) -> BottomClauseBuilder:
        """Factory hook for the engine's bottom-clause builder.

        Subclasses (Castor) override it to supply an IND-aware builder;
        the base constructor installs whatever this returns, so overriding
        here never needs a post-hoc rebind.
        """
        return BottomClauseBuilder(
            instance, saturation_config or BottomClauseConfig(max_depth=3)
        )

    # ------------------------------------------------------------------ #
    # Saturations
    # ------------------------------------------------------------------ #
    def saturation(self, example: Example) -> HornClause:
        """Ground bottom clause of an example (cached)."""
        cached = self._saturation_cache.get(example)
        if cached is None:
            cached = self.builder.build_ground(example)
            self._saturation_cache[example] = cached
        return cached

    def saturation_index(self, example: Example) -> GroundClauseIndex:
        """Hash index over the example's saturation (cached, built on demand).

        Every index shares the engine's intern table, and so its clause
        encodings.
        """
        cached = self._saturation_index_cache.get(example)
        if cached is None:
            cached = GroundClauseIndex(self.saturation(example), self._intern)
            self._saturation_index_cache[example] = cached
        return cached

    def prepare(self, examples: Iterable[Example]) -> None:
        """Pre-build saturations for a whole example generation — one call.

        The builder constructs the missing saturations of the whole
        generation level-synchronously (one frontier lookup per depth level)
        instead of a per-example construction loop here.
        """
        missing = [
            example
            for example in dict.fromkeys(examples)
            if example not in self._saturation_cache
        ]
        if not missing:
            return
        if len(missing) == 1:
            self.saturation(missing[0])
            return
        clauses = self.builder.build_ground_many(missing)
        for example, clause in zip(missing, clauses):
            self._saturation_cache[example] = clause

    # ------------------------------------------------------------------ #
    # Coverage
    # ------------------------------------------------------------------ #
    def covers(self, clause: HornClause, example: Example) -> bool:
        """True when ``clause`` covers ``example`` (θ-subsumes its saturation).

        Always the Python kernel; the decision is cached per (clause,
        example).
        """
        key = (clause, example)
        with self._lock:
            cached = self._coverage_cache.get(key)
        if cached is not None:
            self._c_cache_hits.inc()
            return cached
        result = self.subsumption.covers_example(
            clause, self.saturation(example), self.saturation_index(example)
        )
        with self._lock:
            self._c_tests.inc()
            self._coverage_cache[key] = result
        return result

    def covered_examples(
        self, clause: HornClause, examples: Sequence[Example]
    ) -> List[Example]:
        """The subset of ``examples`` covered by ``clause``.

        On a backend with compiled queries, a question about more than one
        example is one SQL statement over the saturation store; otherwise
        the examples are tested one by one with :meth:`covers`.
        """
        if len(examples) > 1:
            if self._compiled:
                # The compiled route batch-prepares inside _materialize.
                compiled = self._covered_examples_compiled(clause, examples)
                if compiled is not None:
                    return compiled
            self.prepare(examples)
        return [e for e in examples if self.covers(clause, e)]

    def covered_examples_batch(
        self, clauses: Sequence[HornClause], examples: Sequence[Example]
    ) -> List[List[Example]]:
        """Covered subsets for N clauses against one example list, in order.

        Saturations are materialized once for the whole batch; each clause
        then costs one compiled statement (or the cached/Python fallback).
        """
        return [self.covered_examples(c, examples) for c in clauses]

    def covered_mask(self, clause: HornClause, examples: Sequence[Example]) -> int:
        """Positional coverage bitmask of ``clause`` over ``examples``.

        Same decision procedure as :meth:`covered_examples`, packaged as an
        int whose bit ``i`` is the coverage of ``examples[i]``.
        """
        return examples_mask(self.covered_examples(clause, examples), examples)

    def covered_masks_batch(
        self, clauses: Sequence[HornClause], examples: Sequence[Example]
    ) -> List[int]:
        """Positional coverage bitmasks for N clauses, in input order."""
        covered_lists = self.covered_examples_batch(clauses, examples)
        return [examples_mask(covered, examples) for covered in covered_lists]

    # ------------------------------------------------------------------ #
    # Compiled (SQL) subsumption coverage
    # ------------------------------------------------------------------ #
    def _materialize(self, examples: Sequence[Example]) -> None:
        """Add any not-yet-stored saturations to the compiled store.

        Missing saturations are built for the whole batch in one
        :meth:`prepare` call before the per-example store inserts; examples
        the store rejects (unstorable values) are remembered and answered by
        the Python engine.
        """
        with self._materialize_lock:
            store = self._compiled_store
            if store is None:
                store = self._compiled_store = SaturationStore()
            pending = [
                example
                for example in dict.fromkeys(examples)
                if example not in self._compiled_ids
                and example not in self._compiled_failed
            ]
            if not pending:
                return
            # Claim saturations another engine already materialized into
            # this (possibly shared) store — a previous fold, the harness
            # presaturation pass — without rebuilding them; add_example
            # would dedup on the same key anyway, but only after paying for
            # construction.
            remaining: List[Example] = []
            for example in pending:
                existing = store.existing_id(example.target, example.values)
                if existing is not None:
                    self._compiled_ids[example] = existing
                else:
                    remaining.append(example)
            if not remaining:
                return
            self.prepare(remaining)
            for example in remaining:
                try:
                    self._compiled_ids[example] = store.add_example(
                        example.target, example.values, self.saturation(example).body
                    )
                except BackendValueError:
                    self._compiled_failed.add(example)

    def materialize(self, examples: Sequence[Example]) -> None:
        """Public entry point: saturate + store a whole example set in batch.

        Used by the experiment harness to pre-warm a shared
        :class:`~repro.database.sqlite_backend.SaturationStore` before
        cross-validation folds; a no-op for already-materialized examples.
        """
        if self._compiled:
            self._materialize(examples)
        else:
            self.prepare(examples)

    def _covered_examples_compiled(
        self, clause: HornClause, examples: Sequence[Example]
    ) -> Optional[List[Example]]:
        """Set-at-a-time coverage via the saturation store.

        Returns ``None`` when the clause itself cannot be compiled (the
        caller falls through to the Python path).  Examples the store
        rejected are tested individually through :meth:`covers`.
        """
        self._materialize(examples)
        store = self._compiled_store
        assert store is not None

        # Partition first, query second: bits already cached never touch
        # SQL, and the store query is scoped to exactly the uncached ids.
        # Under delta maintenance this is the difference between re-joining
        # the clause against every stored saturation and re-scoring only
        # the examples apply_delta() actually invalidated.
        flags: Dict[Example, bool] = {}
        pending: List[Example] = []
        uncached: List[Tuple[Example, int]] = []
        with self._lock:
            for example in dict.fromkeys(examples):
                cached = self._coverage_cache.get((clause, example))
                if cached is not None:
                    self._c_cache_hits.inc()
                    flags[example] = cached
                    continue
                example_id = self._compiled_ids.get(example)
                if example_id is None:
                    pending.append(example)
                else:
                    uncached.append((example, example_id))
        if uncached:
            try:
                covered_ids = store.covered_ids(
                    clause, only_ids=[example_id for _, example_id in uncached]
                )
            except CompilationNotSupported:
                return None
            self._c_compiled_statements.inc()
            with self._lock:
                for example, example_id in uncached:
                    flag = example_id in covered_ids
                    self._coverage_cache[(clause, example)] = flag
                    self._c_tests.inc()
                    flags[example] = flag
        for example in pending:
            flags[example] = self.covers(clause, example)
        return [example for example in examples if flags[example]]

    def evaluate(
        self,
        clause: HornClause,
        positives: Sequence[Example],
        negatives: Sequence[Example],
    ) -> CoverageResult:
        """Coverage counts of a clause over positive and negative example lists."""
        covered_positives = self.covered_examples(clause, positives)
        covered_negatives = self.covered_examples(clause, negatives)
        return CoverageResult(
            len(covered_positives), len(covered_negatives), covered_positives
        )

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #
    def apply_delta(self, delta: Delta) -> Set[Example]:
        """Repair this engine's caches after ``delta`` hit the instance.

        A saturation can only change when the delta's touched values
        intersect its *footprint* — the example's head values plus every
        constant in the ground body (frontier expansion, including Castor's
        IND chase, only ever probes the database with values drawn from that
        set).  Exactly the intersecting examples are evicted from the
        saturation caches, the compiled store, and the per-(clause, example)
        coverage cache; everything else stays warm, and the bits cached for
        untouched examples remain valid because their saturations are
        provably unchanged.  Evicted examples rebuild lazily (or on the next
        :meth:`prepare`/:meth:`materialize`) against the updated instance,
        which makes the repaired state byte-identical to a cold rebuild.

        The intersecting examples come from a :class:`FootprintIndex` over
        the cached saturations, matching values by Python equality.  It is
        filed here, not while learning: the first delta files every cached
        saturation, later ones only those rebuilt since.  The builder first
        evicts the lookups and literals the delta can change, so the
        rebuilds reuse everything else it looked up.

        Returns the set of invalidated examples.
        """
        self.builder.apply_delta(delta)
        touched = delta.touched_values()
        if not touched:
            return set()
        with self._materialize_lock:
            footprints = self._footprints
            for example, saturation in self._saturation_cache.items():
                if example not in footprints:
                    footprints.add(example, _footprint(example, saturation))
            invalidated = footprints.touching(touched)
            store = self._compiled_store
            if store is not None:
                # Drop intersecting saturations store-wide (idempotent: a
                # second engine sharing the store finds nothing left to
                # drop), then resync compiled ids against what survived —
                # this also catches rows another engine already dropped.
                store.invalidate_touching(touched)
                for example, example_id in self._compiled_ids.items():
                    if not store.has_id(example_id):
                        invalidated.add(example)
            with self._lock:
                for example in invalidated:
                    self._saturation_cache.pop(example, None)
                    self._saturation_index_cache.pop(example, None)
                    self._compiled_ids.pop(example, None)
                    footprints.discard(example)
                if invalidated:
                    stale = [
                        key for key in self._coverage_cache if key[1] in invalidated
                    ]
                    for key in stale:
                        del self._coverage_cache[key]
        return invalidated


class QueryCoverageEngine:
    """Join-based coverage: bind head variables to the example and test the body.

    ``covered_examples`` is set-at-a-time: the whole example list is handed
    to the evaluator in one call, which backends with compiled queries (the
    SQLite backend) answer with a single SQL statement — the Python analogue
    of the paper's stored-procedure coverage path (Section 7.5.2).

    ``parallelism`` is how many snapshot connections one batched call fans
    its clauses out over on the ``sqlite-pooled`` backend; every other
    backend answers a batch on the caller's thread and ignores it.  Results
    are identical for every value.
    """

    def __init__(self, instance: DatabaseInstance, parallelism: int = 1):
        self.instance = instance
        self.evaluator = QueryEvaluator(instance)
        self.parallelism = max(1, int(parallelism))
        self._c_tests = _engine_counter("coverage.query.tests")

    @property
    def coverage_tests_performed(self) -> int:
        return self._c_tests.value

    def covers(self, clause: HornClause, example: Example) -> bool:
        """True when the clause derives the example tuple from the database."""
        self._c_tests.inc()
        return self.evaluator.clause_covers_tuple(clause, example.values)

    def covered_examples(
        self, clause: HornClause, examples: Sequence[Example]
    ) -> List[Example]:
        covered = self.evaluator.covered_tuples(
            clause, [example.values for example in examples]
        )
        self._c_tests.inc(len(examples))
        return [example for example in examples if example.values in covered]

    def covered_examples_batch(
        self, clauses: Sequence[HornClause], examples: Sequence[Example]
    ) -> List[List[Example]]:
        """Covered subsets for N clauses against one example list, in order.

        The whole batch is handed to the evaluator in one call; SQLite-family
        backends amortize the candidate temp table across the batch, and the
        pooled backend additionally fans clauses out over snapshot
        connections when ``parallelism > 1``.
        """
        clause_list = list(clauses)
        values = [example.values for example in examples]
        covered_sets = self.evaluator.covered_tuples_batch(
            clause_list, values, parallelism=self.parallelism
        )
        self._c_tests.inc(len(examples) * len(clause_list))
        return [
            [example for example in examples if example.values in covered]
            for covered in covered_sets
        ]

    def covered_mask(self, clause: HornClause, examples: Sequence[Example]) -> int:
        """Positional coverage bitmask of ``clause`` over ``examples``."""
        return examples_mask(self.covered_examples(clause, examples), examples)

    def covered_masks_batch(
        self, clauses: Sequence[HornClause], examples: Sequence[Example]
    ) -> List[int]:
        """Positional coverage bitmasks for N clauses, in input order."""
        covered_lists = self.covered_examples_batch(clauses, examples)
        return [examples_mask(covered, examples) for covered in covered_lists]

    def evaluate(
        self,
        clause: HornClause,
        positives: Sequence[Example],
        negatives: Sequence[Example],
    ) -> CoverageResult:
        covered_positives = self.covered_examples(clause, positives)
        covered_negatives = self.covered_examples(clause, negatives)
        return CoverageResult(
            len(covered_positives), len(covered_negatives), covered_positives
        )


class BatchCoverageEngine:
    """Score N candidate clauses against one example set in a single call.

    Wraps either coverage engine and dispatches to its batched entry point;
    ProGolem's and FOIL's generation scoring use it.  Results always come
    back in input order.
    """

    def __init__(self, engine):
        self.engine = engine

    def covered_examples_batch(
        self, clauses: Sequence[HornClause], examples: Sequence[Example]
    ) -> List[List[Example]]:
        """Per-clause covered subsets of ``examples``, in input order."""
        return self.engine.covered_examples_batch(list(clauses), examples)

    def covered_masks_batch(
        self, clauses: Sequence[HornClause], examples: Sequence[Example]
    ) -> List[int]:
        """Positional coverage bitmasks for N clauses, in input order: one
        int per clause, bit ``i`` = example ``i``."""
        return self.engine.covered_masks_batch(list(clauses), examples)

    def evaluate_batch(
        self,
        clauses: Sequence[HornClause],
        positives: Sequence[Example],
        negatives: Sequence[Example],
    ) -> List[CoverageResult]:
        """One :class:`CoverageResult` per clause, in input order.

        Scores are merged as positional bitmasks: counting covered examples
        is one ``int.bit_count()`` per clause instead of building and
        measuring Python lists of ``Example`` objects, and the masks ride
        along on the results for downstream int-algebra consumers.
        """
        clause_list = list(clauses)
        positive_masks = self.covered_masks_batch(clause_list, positives)
        negative_masks = self.covered_masks_batch(clause_list, negatives)
        return [
            CoverageResult(
                pos.bit_count(),
                neg.bit_count(),
                mask_to_examples(pos, positives),
                positive_mask=pos,
                negative_mask=neg,
            )
            for pos, neg in zip(positive_masks, negative_masks)
        ]

    def apply_delta(self, delta: Delta) -> Set[Example]:
        """Forward a data delta to the wrapped engine's cache repair.

        Engines without incremental maintenance (the stateless query
        engine) need none — their answers always read the live instance —
        so this returns an empty set for them.
        """
        repair = getattr(self.engine, "apply_delta", None)
        if repair is None:
            return set()
        return repair(delta)
