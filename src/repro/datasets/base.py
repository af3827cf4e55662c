"""Common dataset machinery: bundles of schema variants, instances, and examples.

Each dataset module (UW-CSE, HIV, IMDb) defines:

* a *base schema* with its FDs and INDs,
* a seeded generator producing a :class:`DatabaseInstance` of the base schema,
* the ground-truth labeling rule for the target relation (positives), with
  closed-world negative sampling,
* a set of named *schema variants*, each a :class:`SchemaTransformation` from
  the base schema (compositions and decompositions), mirroring the schemas of
  Tables 1, 3, 6 and 7.

The :class:`DatasetBundle` packages everything the experiment harness needs:
for a chosen variant it exposes the transformed schema, the transformed
instance, and the (schema-independent) example set.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..database.instance import DatabaseInstance
from ..database.schema import Schema
from ..learning.examples import ExampleSet
from ..transform.transformation import SchemaTransformation, identity_transformation


class SchemaVariant:
    """A named schema variant: the base schema plus a transformation to apply."""

    def __init__(self, name: str, transformation: SchemaTransformation):
        self.name = str(name)
        self.transformation = transformation

    @property
    def schema(self) -> Schema:
        return self.transformation.target_schema

    def materialize(self, base_instance: DatabaseInstance) -> DatabaseInstance:
        """Transform the base instance into this variant's instance."""
        return self.transformation.apply(base_instance)

    def __repr__(self) -> str:
        return f"SchemaVariant({self.name!r})"


class DatasetBundle:
    """A dataset ready for experiments: base instance, examples, and variants."""

    def __init__(
        self,
        name: str,
        base_instance: DatabaseInstance,
        examples: ExampleSet,
        variants: Sequence[SchemaVariant],
        target: str,
        backend: str = "memory",
    ):
        self.name = str(name)
        self.base_instance = base_instance
        self.examples = examples
        self.target = str(target)
        # Storage/evaluation backend variant instances are materialized on.
        self.backend = str(backend)
        self._variants: Dict[str, SchemaVariant] = {v.name: v for v in variants}
        self._materialized: Dict[str, DatabaseInstance] = {}

    # ------------------------------------------------------------------ #
    @property
    def variant_names(self) -> List[str]:
        return list(self._variants.keys())

    def variant(self, name: str) -> SchemaVariant:
        try:
            return self._variants[name]
        except KeyError as exc:
            raise KeyError(
                f"unknown schema variant {name!r}; available: {self.variant_names}"
            ) from exc

    def schema(self, variant_name: str) -> Schema:
        return self.variant(variant_name).schema

    def instance(self, variant_name: str) -> DatabaseInstance:
        """The dataset instance under the named schema variant (cached).

        Schema transformations are applied in memory; the result is then
        re-materialized on the bundle's configured backend when it differs.
        """
        cached = self._materialized.get(variant_name)
        if cached is None:
            cached = self.variant(variant_name).materialize(self.base_instance)
            if cached.backend_name != self.backend:
                cached = cached.with_backend(self.backend)
            self._materialized[variant_name] = cached
        return cached

    def with_backend(self, backend: str) -> "DatasetBundle":
        """A view of the same dataset materializing instances on ``backend``."""
        if backend == self.backend:
            return self
        return DatasetBundle(
            self.name,
            self.base_instance,
            self.examples,
            list(self._variants.values()),
            self.target,
            backend=backend,
        )

    def close(self) -> None:
        """Release every materialized variant instance.

        Owners of a converted bundle (e.g. a `LearningSession`) call this so
        the instances — and their SQLite connections — are freed without
        waiting for the owner itself to be collected.  Instances
        re-materialize lazily afterwards.
        """
        self._materialized.clear()

    def transformation(self, variant_name: str) -> SchemaTransformation:
        return self.variant(variant_name).transformation

    def statistics(self) -> Dict[str, Dict[str, int]]:
        """#relations and #tuples per variant plus example counts (Table 2 style)."""
        stats: Dict[str, Dict[str, int]] = {}
        for name in self.variant_names:
            instance = self.instance(name)
            stats[name] = {
                "relations": len(instance.schema),
                "tuples": instance.total_tuples(),
                "positives": len(self.examples.positives),
                "negatives": len(self.examples.negatives),
            }
        return stats

    def __repr__(self) -> str:
        return (
            f"DatasetBundle({self.name!r}, target={self.target!r}, "
            f"variants={self.variant_names})"
        )


def base_variant(schema: Schema, name: Optional[str] = None) -> SchemaVariant:
    """The identity variant (the dataset in its base schema)."""
    return SchemaVariant(name or schema.name, identity_transformation(schema))
