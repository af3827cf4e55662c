"""Coverage testing: does a candidate clause cover an example?

Two strategies are provided, mirroring Section 7.5:

* **Subsumption coverage** — a clause covers example ``e`` iff it θ-subsumes
  the ground bottom clause of ``e``.  This is Castor's (and ProGolem's)
  strategy; saturations are built once per example and cached.  Coverage of
  independent examples can be tested in parallel with a thread pool, and a
  per-(clause, example) cache plus a generality shortcut ("if C covers e then
  any generalization of C covers e") avoids repeated work.  When enabled,
  the **compiled** path materializes saturations into a
  :class:`~repro.database.sqlite_backend.SaturationStore` and tests a clause
  against every example's saturation with one SQL statement.
* **Query coverage** — a clause covers ``e`` iff the body, with head
  variables bound to ``e``'s values, is satisfiable in the database.  This is
  the join-based evaluation that top-down learners with short clauses use.

Both engines additionally answer **batched** requests — N candidate clauses
against one example set — through :class:`BatchCoverageEngine`, which the
covering loop uses to score a whole generation of refinements in one call
(fanned out across a connection pool on the ``sqlite-pooled`` backend).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..database.delta import Delta
from ..database.instance import DatabaseInstance
from ..database.query import QueryEvaluator
from ..database.sqlite_backend import CompilationNotSupported, SaturationStore
from ..logic.clauses import HornClause
from ..logic.subsumption import GroundClauseIndex, SubsumptionEngine
from ..logic.terms import Constant
from .bottom_clause import (
    BatchSaturationEngine,
    BottomClauseBuilder,
    BottomClauseConfig,
)
from .examples import Example
from ..obs import Counter, registry as obs_registry


def _engine_counter(name: str) -> Counter:
    """One engine's own count, feeding the shared process-wide series.

    A fresh engine reads zero (tests and benchmarks read the counts as plain
    attributes, which stay the stable surface), and creating engines adds no
    registry series.
    """
    return Counter(parent=obs_registry().counter(name))


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
    """θ-subsumption-based coverage with saturation caching and parallelism.

    Parameters
    ----------
    instance:
        The background database.
    saturation_config:
        Limits for ground bottom-clause construction of examples.
    threads:
        Number of worker threads used for coverage tests (Figure 2 studies
        the effect of this knob); 1 means fully sequential.
    compiled:
        ``True`` pushes set-at-a-time coverage into SQL: saturations are
        additionally materialized into a
        :class:`~repro.database.sqlite_backend.SaturationStore` and
        ``covered_examples`` tests the clause against every saturation with
        one statement.  ``False`` disables it; ``None`` (default) enables it
        when the instance lives on a SQLite-family backend.  Examples or
        clauses the store cannot express silently fall back to the Python
        engine, with one caveat: the SQL path has no backtrack budget, so
        clauses whose Python search would exhaust ``max_backtracks`` are
        decided exactly instead of conservatively reported uncovered.
    saturation_store:
        An existing :class:`~repro.database.sqlite_backend.SaturationStore`
        to materialize into (re-added examples are deduplicated), so several
        engines over the *same instance* — e.g. cross-validation folds —
        share one warm store instead of re-materializing.
    """

    #: Below this many examples a compiled set-at-a-time statement does not
    #: pay for itself; single tests stay on the Python engine.
    COMPILED_MIN_EXAMPLES = 4

    def __init__(
        self,
        instance: DatabaseInstance,
        saturation_config: Optional[BottomClauseConfig] = None,
        threads: int = 1,
        compiled: Optional[bool] = None,
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
        self.threads = max(1, int(threads))
        if compiled is None:
            compiled = instance.backend_name.startswith("sqlite")
        self.compiled_enabled = bool(compiled)
        self._compiled_store: Optional[SaturationStore] = saturation_store
        self._lock = threading.Lock()
        # Serializes store creation + materialization so concurrent batch
        # workers never race to create two stores (whose independent id
        # sequences would collide in _compiled_ids).
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
        # Keep the batch saturator wired to the live builder: callers (and
        # some tests) rebind ``engine.builder`` to swap construction
        # semantics, and the batched prepare() path must follow — a stale
        # saturator would silently cache clauses from the old builder.
        # Already-cached saturations (and the coverage decisions derived
        # from them) describe the OLD builder's semantics, so they are
        # dropped alongside.
        self._builder = value
        self.saturator = BatchSaturationEngine(value)
        self._saturation_cache.clear()
        self._saturation_index_cache.clear()
        self._coverage_cache.clear()
        self._compiled_ids.clear()
        self._compiled_failed.clear()

    def _make_builder(
        self,
        instance: DatabaseInstance,
        saturation_config: Optional[BottomClauseConfig],
    ) -> BottomClauseBuilder:
        """Factory hook for the engine's bottom-clause builder.

        Subclasses (Castor) override it to supply an IND-aware builder;
        the base constructor wires the batch saturator around whatever
        this returns, so overriding here never needs a post-hoc rebind.
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
        """Hash index over the example's saturation (cached, built on demand)."""
        cached = self._saturation_index_cache.get(example)
        if cached is None:
            cached = GroundClauseIndex(self.saturation(example))
            self._saturation_index_cache[example] = cached
        return cached

    def prepare(self, examples: Iterable[Example]) -> None:
        """Pre-build saturations for a whole example generation — one call.

        Missing saturations are built through the
        :class:`~repro.learning.bottom_clause.BatchSaturationEngine`, which
        constructs the whole generation level-synchronously instead of a
        per-example construction loop here.
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
        clauses = self.saturator.build_ground_batch(missing)
        for example, clause in zip(missing, clauses):
            self._saturation_cache[example] = clause

    # ------------------------------------------------------------------ #
    # Coverage
    # ------------------------------------------------------------------ #
    def covers(self, clause: HornClause, example: Example, use_cache: bool = True) -> bool:
        """True when ``clause`` covers ``example`` (θ-subsumes its saturation)."""
        key = (clause, example)
        if use_cache:
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
            if use_cache:
                self._coverage_cache[key] = result
        return result

    def covered_examples(
        self, clause: HornClause, examples: Sequence[Example]
    ) -> List[Example]:
        """The subset of ``examples`` covered by ``clause``.

        On the compiled path one SQL statement tests the clause against every
        materialized saturation; otherwise the examples are tested one by one
        (optionally across the engine's thread pool).
        """
        if self.compiled_enabled and len(examples) >= self.COMPILED_MIN_EXAMPLES:
            # The compiled route batch-prepares inside _materialize.
            compiled = self._covered_examples_compiled(clause, examples)
            if compiled is not None:
                return compiled
        if len(examples) > 1:
            self.prepare(examples)
        if self.threads == 1 or len(examples) < 4:
            return [e for e in examples if self.covers(clause, e)]
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            flags = list(pool.map(lambda e: self.covers(clause, e), examples))
        return [example for example, flag in zip(examples, flags) if flag]

    def covered_examples_batch(
        self,
        clauses: Sequence[HornClause],
        examples: Sequence[Example],
        parallelism: int = 1,
    ) -> List[List[Example]]:
        """Covered subsets for N clauses against one example list, in order.

        Saturations are materialized once for the whole batch; each clause
        then costs one compiled statement (or the cached/Python fallback).
        ``parallelism`` fans clauses out across threads — results are
        identical and in input order for any value.
        """
        clause_list = list(clauses)
        if parallelism <= 1 or len(clause_list) < 2:
            return [self.covered_examples(c, examples) for c in clause_list]
        workers = min(int(parallelism), len(clause_list))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(
                pool.map(lambda c: self.covered_examples(c, examples), clause_list)
            )

    def covered_mask(self, clause: HornClause, examples: Sequence[Example]) -> int:
        """Positional coverage bitmask of ``clause`` over ``examples``.

        Same decision procedure as :meth:`covered_examples` (compiled /
        cached / Python fallback), packaged as an int whose bit ``i`` is the
        coverage of ``examples[i]``.
        """
        return examples_mask(self.covered_examples(clause, examples), examples)

    def covered_masks_batch(
        self,
        clauses: Sequence[HornClause],
        examples: Sequence[Example],
        parallelism: int = 1,
    ) -> List[int]:
        """Positional coverage bitmasks for N clauses, in input order."""
        covered_lists = self.covered_examples_batch(
            clauses, examples, parallelism=parallelism
        )
        return [examples_mask(covered, examples) for covered in covered_lists]

    # ------------------------------------------------------------------ #
    # Compiled (SQL) subsumption coverage
    # ------------------------------------------------------------------ #
    def _materialize(self, examples: Sequence[Example]) -> None:
        """Add any not-yet-stored saturations to the compiled store.

        Missing saturations are built for the whole batch in one
        :meth:`prepare` call before the per-example store inserts.
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
            ids = self.saturator.materialize_into(
                store, remaining, saturation_fn=self.saturation
            )
            self._compiled_ids.update(ids)
            self._compiled_failed.update(
                example for example in remaining if example not in ids
            )

    def materialize(self, examples: Sequence[Example]) -> None:
        """Public entry point: saturate + store a whole example set in batch.

        Used by the experiment harness to pre-warm a shared
        :class:`~repro.database.sqlite_backend.SaturationStore` before
        cross-validation folds; a no-op for already-materialized examples.
        """
        if self.compiled_enabled:
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

        Returns the set of invalidated examples.
        """
        touched = delta.touched_values()
        if not touched:
            return set()
        invalidated: Set[Example] = set()
        with self._materialize_lock:
            for example, clause in self._saturation_cache.items():
                if self._footprint_intersects(example, clause, touched):
                    invalidated.add(example)
            store = self._compiled_store
            if store is not None:
                # Drop intersecting saturations store-wide (idempotent: a
                # second engine sharing the store finds nothing left to
                # drop), then resync compiled ids against what survived —
                # this also catches rows another engine already dropped.
                store.invalidate_touching(touched)
                for example, example_id in list(self._compiled_ids.items()):
                    if store.existing_id(example.target, example.values) != example_id:
                        invalidated.add(example)
            with self._lock:
                for example in invalidated:
                    self._saturation_cache.pop(example, None)
                    self._saturation_index_cache.pop(example, None)
                    self._compiled_ids.pop(example, None)
                if invalidated:
                    stale = [
                        key for key in self._coverage_cache if key[1] in invalidated
                    ]
                    for key in stale:
                        del self._coverage_cache[key]
        return invalidated

    @staticmethod
    def _footprint_intersects(
        example: Example, saturation: HornClause, touched: frozenset
    ) -> bool:
        """True when any touched value occurs in the saturation's footprint."""
        for value in example.values:
            if value in touched:
                return True
        for atom in saturation.body:
            for term in atom.terms:
                if isinstance(term, Constant) and term.value in touched:
                    return True
        return False

    def mark_generalization_covers(
        self, general_clause: HornClause, covered: Iterable[Example]
    ) -> None:
        """Record that a generalization covers everything its parent covered.

        Castor's optimization (Section 7.5.4): if clause C covers e and C'' is
        more general than C, C'' also covers e — so seed the cache instead of
        re-testing.
        """
        with self._lock:
            for example in covered:
                self._coverage_cache[(general_clause, example)] = True


class QueryCoverageEngine:
    """Join-based coverage: bind head variables to the example and test the body.

    ``covered_examples`` is set-at-a-time: the whole example list is handed
    to the evaluator in one call, which backends with compiled queries (the
    SQLite backend) answer with a single SQL statement — the Python analogue
    of the paper's stored-procedure coverage path (Section 7.5.2).
    """

    def __init__(self, instance: DatabaseInstance):
        self.instance = instance
        self.evaluator = QueryEvaluator(instance)
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
        self,
        clauses: Sequence[HornClause],
        examples: Sequence[Example],
        parallelism: int = 1,
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
            clause_list, values, parallelism=parallelism
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
        self,
        clauses: Sequence[HornClause],
        examples: Sequence[Example],
        parallelism: int = 1,
    ) -> List[int]:
        """Positional coverage bitmasks for N clauses, in input order."""
        covered_lists = self.covered_examples_batch(
            clauses, examples, parallelism=parallelism
        )
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


class CoverageBatch:
    """One generation of candidate clauses to score against shared examples.

    A convenience value object for callers that assemble scoring work in one
    place (the covering loop's beam expansion, FOIL's refinement scoring)
    before handing it to :class:`BatchCoverageEngine`.
    """

    __slots__ = ("clauses", "positives", "negatives")

    def __init__(
        self,
        clauses: Iterable[HornClause],
        positives: Sequence[Example] = (),
        negatives: Sequence[Example] = (),
    ):
        self.clauses: List[HornClause] = list(clauses)
        self.positives: List[Example] = list(positives)
        self.negatives: List[Example] = list(negatives)

    def __len__(self) -> int:
        return len(self.clauses)

    def __repr__(self) -> str:
        return (
            f"CoverageBatch({len(self.clauses)} clauses, "
            f"+{len(self.positives)}/-{len(self.negatives)} examples)"
        )


class BatchCoverageEngine:
    """Score N candidate clauses against one example set in a single call.

    Wraps either coverage engine and dispatches to its batched entry point,
    so the covering loop stays agnostic of the subsumption-vs-query
    distinction.  Results always come back in input order and are identical
    for every ``parallelism`` value — parallelism only changes wall-clock
    time, never which examples a clause covers.
    """

    def __init__(self, engine, parallelism: int = 1):
        self.engine = engine
        self.parallelism = max(1, int(parallelism))

    def covered_examples_batch(
        self, clauses: Sequence[HornClause], examples: Sequence[Example]
    ) -> List[List[Example]]:
        """Per-clause covered subsets of ``examples``, in input order."""
        clause_list = list(clauses)
        batch = getattr(self.engine, "covered_examples_batch", None)
        if batch is not None:
            return batch(clause_list, examples, parallelism=self.parallelism)
        if self.parallelism > 1 and len(clause_list) > 1:
            workers = min(self.parallelism, len(clause_list))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(
                    pool.map(
                        lambda c: self.engine.covered_examples(c, examples),
                        clause_list,
                    )
                )
        return [self.engine.covered_examples(c, examples) for c in clause_list]

    def covered_masks_batch(
        self, clauses: Sequence[HornClause], examples: Sequence[Example]
    ) -> List[int]:
        """Positional coverage bitmasks for N clauses, in input order.

        Routes through the same pooled/batched machinery as
        :meth:`covered_examples_batch`, one int per clause (bit ``i`` =
        example ``i``).
        """
        clause_list = list(clauses)
        masks = getattr(self.engine, "covered_masks_batch", None)
        if masks is not None:
            return masks(clause_list, examples, parallelism=self.parallelism)
        return [
            examples_mask(covered, examples)
            for covered in self.covered_examples_batch(clause_list, examples)
        ]

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

    def run(self, batch: CoverageBatch) -> List[CoverageResult]:
        """Evaluate a pre-assembled :class:`CoverageBatch`."""
        return self.evaluate_batch(batch.clauses, batch.positives, batch.negatives)

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


def make_coverage_engine(
    instance: DatabaseInstance,
    strategy: str = "subsumption",
    saturation_config: Optional[BottomClauseConfig] = None,
    threads: int = 1,
    backend: Optional[str] = None,
    saturation_store: Optional[SaturationStore] = None,
):
    """Build a coverage engine, optionally re-materializing on another backend.

    ``strategy`` selects subsumption (Castor/ProGolem, with
    ``"subsumption-compiled"`` forcing the SQL saturation-store path and
    ``"subsumption-python"`` forcing the pure-Python engine) or query
    (join-based) coverage; ``backend`` converts the instance first when it
    differs from the instance's current backend (the ``--backend`` knob of
    the experiment harness and benchmarks).
    """
    if backend is not None and backend != instance.backend_name:
        instance = instance.with_backend(backend)
    if strategy == "subsumption":
        return SubsumptionCoverageEngine(
            instance,
            saturation_config,
            threads=threads,
            saturation_store=saturation_store,
        )
    if strategy == "subsumption-compiled":
        return SubsumptionCoverageEngine(
            instance,
            saturation_config,
            threads=threads,
            compiled=True,
            saturation_store=saturation_store,
        )
    if strategy == "subsumption-python":
        return SubsumptionCoverageEngine(
            instance, saturation_config, threads=threads, compiled=False
        )
    if strategy == "query":
        return QueryCoverageEngine(instance)
    raise ValueError(
        f"unknown coverage strategy {strategy!r}; expected 'subsumption', "
        "'subsumption-compiled', 'subsumption-python', or 'query'"
    )
