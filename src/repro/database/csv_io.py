"""CSV import/export for database instances.

Datasets generated by :mod:`repro.datasets` can be persisted to a directory
of CSV files (one per relation, header row = attribute names) and reloaded —
useful for inspecting the synthetic data and for running the examples against
saved snapshots.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Union

from .constraints import FunctionalDependency, InclusionDependency
from .instance import DatabaseInstance
from .schema import RelationSchema, Schema

PathLike = Union[str, Path]

_SCHEMA_FILE = "_schema.json"


def save_instance(instance: DatabaseInstance, directory: PathLike) -> None:
    """Write one CSV per relation plus a ``_schema.json`` with the
    constraints and the declared constant attributes."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for relation in instance.relations():
        path = directory / f"{relation.schema.name}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(relation.schema.attributes)
            for row in sorted(relation.rows, key=lambda r: tuple(map(str, r))):
                writer.writerow(row)
    metadata = {
        "name": instance.schema.name,
        "relations": [
            {"name": r.name, "attributes": list(r.attributes)}
            for r in instance.schema.relations
        ],
        "functional_dependencies": [
            {"relation": fd.relation, "lhs": list(fd.lhs), "rhs": list(fd.rhs)}
            for fd in instance.schema.functional_dependencies
        ],
        "inclusion_dependencies": [
            {
                "left": ind.left,
                "left_attrs": list(ind.left_attrs),
                "right": ind.right,
                "right_attrs": list(ind.right_attrs),
                "with_equality": ind.with_equality,
            }
            for ind in instance.schema.inclusion_dependencies
        ],
        "constant_attributes": sorted(instance.schema.constant_attributes),
    }
    (directory / _SCHEMA_FILE).write_text(json.dumps(metadata, indent=2))


def load_schema(directory: PathLike) -> Schema:
    """Load a schema previously written by :func:`save_instance`."""
    directory = Path(directory)
    metadata = json.loads((directory / _SCHEMA_FILE).read_text())
    relations = [
        RelationSchema(entry["name"], entry["attributes"])
        for entry in metadata["relations"]
    ]
    fds = [
        FunctionalDependency(entry["relation"], entry["lhs"], entry["rhs"])
        for entry in metadata.get("functional_dependencies", [])
    ]
    inds = [
        InclusionDependency(
            entry["left"],
            entry["left_attrs"],
            entry["right"],
            entry["right_attrs"],
            entry.get("with_equality", False),
        )
        for entry in metadata.get("inclusion_dependencies", [])
    ]
    return Schema(
        relations,
        fds,
        inds,
        name=metadata.get("name", "schema"),
        constant_attributes=metadata.get("constant_attributes", ()),
    )


def load_instance(directory: PathLike) -> DatabaseInstance:
    """Load a database instance (schema + CSVs) written by :func:`save_instance`."""
    directory = Path(directory)
    schema = load_schema(directory)
    instance = DatabaseInstance(schema)
    for relation in schema.relations:
        path = directory / f"{relation.name}.csv"
        if not path.exists():
            continue
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                continue
            instance.add_tuples(
                relation.name, (tuple(row) for row in reader)
            )
    return instance


def relation_counts(instance: DatabaseInstance) -> Dict[str, int]:
    """Tuple counts per relation — handy for dataset statistics tables."""
    return {r.schema.name: len(r) for r in instance.relations()}
