"""Experiment harness, per-table/figure drivers, and text reporting."""

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
    render_table,
    table9_hiv,
    table10_uwcse,
    table11_imdb,
    table12_general_inds,
    table13_stored_procedures,
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
    "render_table",
    "results_as_matrix",
    "run_schema_sweep",
    "run_variant",
    "table9_hiv",
    "table10_uwcse",
    "table11_imdb",
    "table12_general_inds",
    "table13_stored_procedures",
]
