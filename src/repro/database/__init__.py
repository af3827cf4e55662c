"""In-memory relational database engine (the paper's VoltDB substrate).

Provides schemas with FD/IND constraints, indexed relation instances,
relational algebra over named rows, conjunctive-query evaluation, and CSV
persistence.
"""

from .backend import (
    Backend,
    MemoryBackend,
    RelationBackend,
    backend_names,
    create_backend,
    register_backend,
)
from .algebra import (
    join_is_globally_consistent,
    join_is_pairwise_consistent,
    named_rows,
    natural_join_many,
    natural_join_rows,
    project_rows,
    rows_to_tuples,
    select_rows,
)
from .constraints import (
    FunctionalDependency,
    InclusionClass,
    InclusionDependency,
    compute_inclusion_classes,
    inds_are_cyclic,
)
from .csv_io import load_instance, load_schema, relation_counts, save_instance
from .delta import Delta
from .instance import DatabaseInstance, RelationInstance
from .query import QueryEvaluator, evaluate_clause, evaluate_definition
from .schema import RelationSchema, Schema

from .sqlite_backend import (
    PooledSQLiteBackend,
    SaturationStore,
    SQLiteBackend,
    SQLiteReadPool,
    SQLiteRelation,
)

__all__ = [
    "Backend",
    "DatabaseInstance",
    "Delta",
    "MemoryBackend",
    "PooledSQLiteBackend",
    "RelationBackend",
    "SQLiteBackend",
    "SQLiteReadPool",
    "SQLiteRelation",
    "SaturationStore",
    "backend_names",
    "create_backend",
    "register_backend",
    "FunctionalDependency",
    "InclusionClass",
    "InclusionDependency",
    "QueryEvaluator",
    "RelationInstance",
    "RelationSchema",
    "Schema",
    "compute_inclusion_classes",
    "evaluate_clause",
    "evaluate_definition",
    "inds_are_cyclic",
    "join_is_globally_consistent",
    "join_is_pairwise_consistent",
    "load_instance",
    "load_schema",
    "named_rows",
    "natural_join_many",
    "natural_join_rows",
    "project_rows",
    "relation_counts",
    "rows_to_tuples",
    "save_instance",
    "select_rows",
]
