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
  level-synchronous ``build_ground_many`` call.
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
from typing import Dict, List, Optional, Sequence

from ..database.instance import DatabaseInstance
from ..database.schema import Schema
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
    ):
        self.instance = instance
        self.schema = schema or instance.schema
        self.config = config or CastorBottomClauseConfig()
        self.use_stored_procedures = bool(use_stored_procedures)
        self._compiled_builder: Optional[CastorBottomClauseBuilder] = None
        if self.use_stored_procedures:
            # Compile once: this is the "create the stored procedure the first
            # time Castor runs on a schema" step.  Frontier lookups go through
            # the backend's set-at-a-time saturation capability.
            self._compiled_builder = CastorBottomClauseBuilder(
                self.instance, self.schema, self.config, use_compiled_lookups=True
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
        level-synchronous call; the client path pays per example, as the
        real client would.
        """
        if self.use_stored_procedures:
            return self._compiled_builder.build_ground_many(examples)
        return [self.build_bottom_clause(example) for example in examples]

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
    repeats: int = 1,
) -> Dict[str, float]:
    """Run the same workload with and without stored procedures (Table 13).

    Each of ``repeats`` rounds times both modes, one after the other, on
    fresh runners; each mode reports its fastest round.  Both run on
    ``instance``'s own backend.
    """
    seconds = {True: float("inf"), False: float("inf")}
    for _ in range(max(1, repeats)):
        for use_stored_procedures in (True, False):
            run = StoredProcedureRunner(
                instance, schema, config, use_stored_procedures
            ).timed_run(examples)
            seconds[use_stored_procedures] = min(
                seconds[use_stored_procedures], run["seconds"]
            )
    with_sp, without_sp = seconds[True], seconds[False]
    return {
        "with_stored_procedures_seconds": with_sp,
        "without_stored_procedures_seconds": without_sp,
        "speedup": without_sp / with_sp if with_sp > 0 else 0.0,
    }
