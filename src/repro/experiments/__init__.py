"""Experiment harness, learner specs, Figure 3's driver, and text reporting.

Tables 9–13 are driven from ``benchmarks/bench_table*.py``; those of
Tables 9–12 combine :func:`run_schema_sweep` with the specs exported here.
"""

from .figures import figure3_query_complexity
from .harness import (
    LearnerSpec,
    SchemaIndependenceReport,
    VariantResult,
    check_schema_independence,
    run_schema_sweep,
    run_variant,
)
from .reporting import (
    format_dataset_statistics,
    format_paper_table,
    format_table,
    results_as_matrix,
)
from .tables import (
    aleph_foil_spec,
    aleph_progol_spec,
    castor_spec,
    foil_spec,
    progolem_spec,
)

__all__ = [
    "LearnerSpec",
    "SchemaIndependenceReport",
    "VariantResult",
    "aleph_foil_spec",
    "aleph_progol_spec",
    "castor_spec",
    "check_schema_independence",
    "figure3_query_complexity",
    "foil_spec",
    "format_dataset_statistics",
    "format_paper_table",
    "format_table",
    "progolem_spec",
    "results_as_matrix",
    "run_schema_sweep",
    "run_variant",
]
