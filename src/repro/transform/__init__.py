"""Schema transformations: (de)composition, instance maps τ, definition maps δτ."""

from .decomposition import (
    ComposeOperation,
    DecomposeOperation,
    apply_compose_to_schema,
    apply_decompose_to_schema,
    compose_rows,
    decompose_rows,
)
from .equivalence import (
    clauses_are_variants,
    definition_results,
    definitions_are_variants,
)
from .transformation import SchemaTransformation, identity_transformation

__all__ = [
    "ComposeOperation",
    "DecomposeOperation",
    "SchemaTransformation",
    "apply_compose_to_schema",
    "apply_decompose_to_schema",
    "clauses_are_variants",
    "compose_rows",
    "decompose_rows",
    "definition_results",
    "definitions_are_variants",
    "identity_transformation",
]
