"""Castor's stored-procedure optimization on the backend seam (Section 7.5.2).

In the paper Castor compiles bottom-clause construction into a VoltDB stored
procedure so that each bottom clause costs a single RDBMS API call instead of
one call per lookup.  The reproduction now has that seam for real: backends
expose a *saturation capability* (``neighbors_of_batch`` — one set-at-a-time
statement per (relation, depth level) over a temp frontier-values table on
the SQLite family, one cross-relation dict hit per value on ``memory``), and
the builders ride it.

* **With stored procedures** (:class:`StoredProcedureRunner` with
  ``use_stored_procedures=True``) the IND/inclusion-class metadata is
  compiled once per schema, frontier expansion goes through the compiled
  backend capability, and whole example batches are saturated in one
  :class:`~repro.learning.bottom_clause.BatchSaturationEngine` call.
* **Without stored procedures** the runner re-derives the schema metadata for
  every example and issues one client-side ``tuples_containing`` round-trip
  per frontier constant — the tuple-at-a-time client path the paper's
  baseline pays.

Table 13 is regenerated by timing the same workload through both paths; the
relative speedup (paper: 1.25×–1.9×) is the quantity of interest, not the
absolute numbers.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

from ..database.instance import DatabaseInstance
from ..database.schema import Schema
from ..learning.bottom_clause import BatchSaturationEngine
from ..learning.examples import Example
from ..logic.clauses import HornClause
from .bottom_clause import CastorBottomClauseBuilder, CastorBottomClauseConfig


class StoredProcedureRunner:
    """Build bottom clauses with or without the stored-procedure optimization."""

    def __init__(
        self,
        instance: DatabaseInstance,
        schema: Optional[Schema] = None,
        config: Optional[CastorBottomClauseConfig] = None,
        use_stored_procedures: bool = True,
        backend: Optional[str] = None,
        parallelism: int = 1,
    ):
        if backend is not None and backend != instance.backend_name:
            instance = instance.with_backend(backend)
        self.instance = instance
        self.schema = schema or instance.schema
        self.config = config or CastorBottomClauseConfig()
        self.use_stored_procedures = bool(use_stored_procedures)
        # Bottom clauses of independent examples are built concurrently when
        # parallelism > 1 (lookups on SQLite-family backends release the GIL);
        # output order always matches input order.
        self.parallelism = max(1, int(parallelism))
        self._compiled_builder: Optional[CastorBottomClauseBuilder] = None
        self._batch_engine: Optional[BatchSaturationEngine] = None
        if self.use_stored_procedures:
            # Compile once: this is the "create the stored procedure the first
            # time Castor runs on a schema" step.  Frontier lookups go through
            # the backend's set-at-a-time saturation capability.
            self._compiled_builder = CastorBottomClauseBuilder(
                self.instance, self.schema, self.config, use_compiled_lookups=True
            )
            self._batch_engine = BatchSaturationEngine(
                self._compiled_builder, parallelism=self.parallelism
            )

    # ------------------------------------------------------------------ #
    def build_bottom_clause(self, example: Example) -> HornClause:
        """Bottom clause of one example through the selected execution path."""
        if self.use_stored_procedures:
            return self._compiled_builder.build_ground(example)
        # Without stored procedures: re-derive metadata per example and issue
        # one client-side lookup per frontier constant.
        builder = CastorBottomClauseBuilder(
            self.instance, self.schema, self.config, use_compiled_lookups=False
        )
        return builder.build_ground(example)

    def build_many(self, examples: Sequence[Example]) -> List[HornClause]:
        """Bottom clauses for a batch of examples (in input order).

        The stored-procedure path saturates the whole batch in one
        :class:`~repro.learning.bottom_clause.BatchSaturationEngine` call;
        the client path pays per example, as the real client would.
        """
        if self.use_stored_procedures:
            return self._batch_engine.build_ground_batch(examples)
        if self.parallelism == 1 or len(examples) < 2:
            return [self.build_bottom_clause(example) for example in examples]
        workers = min(self.parallelism, len(examples))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(self.build_bottom_clause, examples))

    def timed_run(self, examples: Sequence[Example]) -> Dict[str, float]:
        """Build bottom clauses for all examples and report elapsed seconds."""
        start = time.perf_counter()
        clauses = self.build_many(examples)
        elapsed = time.perf_counter() - start
        return {
            "seconds": elapsed,
            "examples": float(len(examples)),
            "mean_clause_length": (
                sum(len(c.body) for c in clauses) / len(clauses) if clauses else 0.0
            ),
        }


def compare_stored_procedure_modes(
    instance: DatabaseInstance,
    examples: Sequence[Example],
    schema: Optional[Schema] = None,
    config: Optional[CastorBottomClauseConfig] = None,
    backend: Optional[str] = None,
    parallelism: int = 1,
) -> Dict[str, float]:
    """Run the same workload with and without stored procedures (Table 13)."""
    with_sp = StoredProcedureRunner(
        instance,
        schema,
        config,
        use_stored_procedures=True,
        backend=backend,
        parallelism=parallelism,
    ).timed_run(examples)
    without_sp = StoredProcedureRunner(
        instance,
        schema,
        config,
        use_stored_procedures=False,
        backend=backend,
        parallelism=parallelism,
    ).timed_run(examples)
    speedup = (
        without_sp["seconds"] / with_sp["seconds"] if with_sp["seconds"] > 0 else 0.0
    )
    return {
        "with_stored_procedures_seconds": with_sp["seconds"],
        "without_stored_procedures_seconds": without_sp["seconds"],
        "speedup": speedup,
    }
