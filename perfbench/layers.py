"""Outside-in per-layer tracing for the benchmark.

The program under test is never edited: :class:`LayerTracer` replaces a
fixed list of public functions and methods of each layer with timing
wrappers, and only in a traced run.  Every wrapper times a span on the
main thread; a metric's layer is the first dotted part of its name.
Work on helper threads (the saturation prefetcher) passes through untimed;
the main thread's wait for it is the ``learning.prefetch.wait_s`` span.

From the spans the tracer derives, per dataset:

* the inclusive time and call count of each metric, counting only the
  outermost span when a metric nests inside itself;
* the self time of each layer (span time minus child-span time) during the
  measured phase, so that the layer self times plus ``unattributed_s`` add
  up to the measured wall time.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import registry as obs_registry

#: Counters the program already keeps in the ``repro.obs`` registry.
REGISTRY_COUNTERS = {
    "subsumption_tests": "coverage.subsumption.tests",
    "subsumption_cache_hits": "coverage.subsumption.cache_hits",
    "compiled_statements": "coverage.subsumption.compiled_statements",
    "query_tests": "coverage.query.tests",
    "budget_exhausted": "subsumption.budget_exhausted",
    "snapshots": "sqlite.pool.snapshots",
}


def registry_totals() -> Dict[str, int]:
    registry = obs_registry()
    return {key: registry.total(name) for key, name in REGISTRY_COUNTERS.items()}


def _span_targets() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, metric)`` for every timed entry point."""
    from repro.castor.castor import CastorClauseLearner, CastorLearner
    from repro.database.backend import MemoryBackend
    from repro.database.instance import DatabaseInstance
    from repro.database.query import QueryEvaluator
    from repro.database.sqlite_backend import (
        PooledSQLiteBackend,
        SaturationStore,
        SQLiteBackend,
    )
    from repro.datasets import uwcse
    from repro.foil.foil import FoilLearner, _FoilClauseLearner
    from repro.learning import evaluation
    from repro.learning.coverage import (
        BatchCoverageEngine,
        QueryCoverageEngine,
        SubsumptionCoverageEngine,
    )
    from repro.learning.covering import CoveringLearner
    from repro.learning.prefetch import SaturationPrefetcher
    from repro.logic.subsumption import SubsumptionEngine
    from repro.session.session import LearningSession
    from repro.transform import equivalence
    from repro.transform.transformation import SchemaTransformation

    targets: List[Tuple[object, str, str]] = [
        (uwcse, "load", "datasets.generate_s"),
        (SchemaTransformation, "apply", "transform.materialize_s"),
        (equivalence, "definition_results", "transform.definition_results_s"),
        (LearningSession, "prepare", "session.prepare_s"),
        (LearningSession, "update", "session.update_s"),
        (CastorLearner, "learn", "castor.learn_s"),
        (CastorClauseLearner, "build_seed_clause", "castor.seed_s"),
        (CastorClauseLearner, "generalize", "castor.generalize_s"),
        (CastorClauseLearner, "reduce", "castor.reduce_s"),
        (FoilLearner, "learn", "foil.learn_s"),
        (_FoilClauseLearner, "learn_clause", "foil.learn_clause_s"),
        (CoveringLearner, "learn", "learning.covering_s"),
        (SubsumptionCoverageEngine, "prepare", "learning.saturate_s"),
        (SubsumptionCoverageEngine, "materialize", "learning.saturate_s"),
        (SaturationPrefetcher, "wait", "learning.prefetch.wait_s"),
        (BatchCoverageEngine, "evaluate_batch", "learning.score_s"),
        (SubsumptionCoverageEngine, "apply_delta", "learning.apply_delta_s"),
        (evaluation, "evaluate_definition", "learning.evaluate_s"),
        (SubsumptionEngine, "subsumes", "logic.subsumption_s"),
        (SubsumptionEngine, "covers_example", "logic.subsumption_s"),
        (DatabaseInstance, "apply_delta", "database.delta.apply_s"),
        (MemoryBackend, "neighbors_of_batch", "database.memory_s"),
    ]
    for method in ("covers", "covered_examples", "covered_examples_batch",
                   "covered_mask", "covered_masks_batch"):
        targets.append((SubsumptionCoverageEngine, method, "learning.coverage_s"))
        targets.append((QueryCoverageEngine, method, "learning.coverage_s"))
    for method in ("evaluate_clause", "body_is_satisfiable", "covered_tuples",
                   "covered_tuples_batch", "count_bindings"):
        targets.append((QueryEvaluator, method, "database.query_s"))
    for method in ("neighbors_of_batch", "covered_head_tuples_batch",
                   "covered_head_tuples", "satisfiable", "head_tuples",
                   "count_bindings"):
        targets.append((SQLiteBackend, method, "database.sqlite_s"))
    targets.append((PooledSQLiteBackend, "covered_head_tuples_batch",
                    "database.sqlite_s"))
    for method in ("add_example", "covered_ids", "invalidate_touching"):
        targets.append((SaturationStore, method, "database.sqlite_s"))
    return targets


class LayerTracer:
    """Installs the layer wrappers and accumulates their spans."""

    def __init__(self) -> None:
        self._main = threading.get_ident()
        # One [child seconds] frame per open span.
        self._stack: List[list] = []
        self._open: Dict[str, int] = defaultdict(int)
        self.measuring = False
        self.reset()

    def reset(self) -> None:
        """Start a fresh dataset."""
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._registry_start = registry_totals()

    def registry_delta(self) -> Dict[str, int]:
        now = registry_totals()
        return {key: now[key] - self._registry_start[key] for key in now}

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        for owner, attribute, metric in _span_targets():
            original = _lookup(owner, attribute)
            if original is not None:
                _replace(owner, attribute, original, self._span(original, metric))
        self._install_counters()

    def _install_counters(self) -> None:
        from repro.database.instance import DatabaseInstance, RelationInstance
        from repro.database.sqlite_backend import SaturationStore
        from repro.learning.coverage import BatchCoverageEngine
        from repro.logic.subsumption import GroundClauseIndex

        def count_candidates(args, kwargs, result) -> None:
            clauses = args[1] if len(args) > 1 else kwargs["clauses"]
            self.counts["learning.score.candidates"] += len(clauses)

        def count_encodings(args, kwargs, result) -> None:
            self.counts["logic.subsumption.encodings"] += 1

        def count_rows(args, kwargs, result) -> None:
            # Rows the Python join reads, only while a query is open (the
            # same relation index also serves saturation lookups).
            if self._open["database.query_s"]:
                self.counts["database.query.rows_examined"] += len(result)

        def count_delta(args, kwargs, result) -> None:
            self.counts["database.delta.rows"] += result.row_count

        def count_invalidated(args, kwargs, result) -> None:
            self.counts["database.store.invalidated"] += len(result)

        hooks = [
            (BatchCoverageEngine, "evaluate_batch", count_candidates),
            (GroundClauseIndex, "encode", count_encodings),
            (RelationInstance, "tuples_matching", count_rows),
            (DatabaseInstance, "apply_delta", count_delta),
            (SaturationStore, "invalidate_touching", count_invalidated),
        ]
        for owner, attribute, hook in hooks:
            original = _lookup(owner, attribute)
            _replace(owner, attribute, original, self._counted(original, hook))

    # ------------------------------------------------------------------ #
    def _span(self, original: Callable, metric: str) -> Callable:
        layer = metric.split(".", 1)[0]
        stack = self._stack
        open_spans = self._open
        main = self._main
        clock = time.perf_counter
        get_ident = threading.get_ident

        def wrapper(*args, **kwargs):
            if get_ident() != main:
                return original(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            open_spans[metric] += 1
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                open_spans[metric] -= 1
                if stack:
                    stack[-1][0] += elapsed
                if self.measuring:
                    self.self_time[layer] += elapsed - frame[0]
                if not open_spans[metric]:
                    self.inclusive[metric] += elapsed
                    self.calls[metric] += 1

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    def _counted(self, original: Callable, hook: Callable) -> Callable:
        main = self._main
        get_ident = threading.get_ident

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if get_ident() == main:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper


def _lookup(owner: object, attribute: str) -> Optional[Callable]:
    """The attribute as defined on ``owner`` itself (not inherited)."""
    namespace = vars(owner)
    return namespace.get(attribute)


def _replace(owner: object, attribute: str, original: Callable, wrapper: Callable) -> None:
    """Swap ``original`` for ``wrapper`` on its owner and on every loaded
    ``repro`` module that imported it by name."""
    setattr(owner, attribute, wrapper)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, attribute, None) is original:
            setattr(module, attribute, wrapper)
