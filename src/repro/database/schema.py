"""Relation schemas and database schemas.

A :class:`RelationSchema` is a relation symbol with an ordered attribute list
(``sort(R)`` in the paper).  A :class:`Schema` is a pair ``(R, Σ)`` of
relation schemas and constraints (functional and inclusion dependencies).
The schema object also knows how to compute its inclusion classes, which is
the metadata Castor consumes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .constraints import (
    FunctionalDependency,
    InclusionClass,
    InclusionDependency,
    compute_inclusion_classes,
)


class RelationSchema:
    """A relation symbol with its ordered attribute names."""

    __slots__ = ("name", "attributes")

    def __init__(self, name: str, attributes: Sequence[str]):
        self.name = str(name)
        self.attributes: Tuple[str, ...] = tuple(str(a) for a in attributes)
        if not self.name:
            raise ValueError("relation name must be non-empty")
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError(f"duplicate attribute names in relation {self.name!r}")

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def position_of(self, attribute: str) -> int:
        """Index of ``attribute`` within the relation's sort."""
        try:
            return self.attributes.index(attribute)
        except ValueError as exc:
            raise KeyError(
                f"attribute {attribute!r} not in relation {self.name!r}"
            ) from exc

    def positions_of(self, attributes: Sequence[str]) -> Tuple[int, ...]:
        """Indexes of several attributes, in the given order."""
        return tuple(self.position_of(a) for a in attributes)

    def shares_attributes_with(self, other: "RelationSchema") -> Tuple[str, ...]:
        """Attributes common to both relations (in this relation's order)."""
        other_attrs = set(other.attributes)
        return tuple(a for a in self.attributes if a in other_attrs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RelationSchema)
            and other.name == self.name
            and other.attributes == self.attributes
        )

    def __hash__(self) -> int:
        return hash((self.name, self.attributes))

    def __repr__(self) -> str:
        return f"RelationSchema({self.name!r}, {list(self.attributes)!r})"

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.attributes)})"


class Schema:
    """A database schema: relation schemas plus constraints.

    The schema exposes the metadata the learning algorithms rely on:

    * relation lookup by name (used by bottom-clause construction);
    * the INDs involving each relation (used by Castor);
    * inclusion classes (Definition 7.1), computed lazily and cached.
    """

    def __init__(
        self,
        relations: Iterable[RelationSchema],
        functional_dependencies: Iterable[FunctionalDependency] = (),
        inclusion_dependencies: Iterable[InclusionDependency] = (),
        name: str = "schema",
    ):
        self.name = str(name)
        self._relations: Dict[str, RelationSchema] = {}
        for relation in relations:
            if relation.name in self._relations:
                raise ValueError(f"duplicate relation {relation.name!r} in schema")
            self._relations[relation.name] = relation
        self.functional_dependencies: List[FunctionalDependency] = list(
            functional_dependencies
        )
        self.inclusion_dependencies: List[InclusionDependency] = list(
            inclusion_dependencies
        )
        self._validate_constraints()
        self._inclusion_classes_cache: Dict[bool, List[InclusionClass]] = {}

    # ------------------------------------------------------------------ #
    # Relation access
    # ------------------------------------------------------------------ #
    @property
    def relations(self) -> List[RelationSchema]:
        """All relation schemas, in insertion order."""
        return list(self._relations.values())

    @property
    def relation_names(self) -> List[str]:
        return list(self._relations.keys())

    def relation(self, name: str) -> RelationSchema:
        """Look up a relation schema by name."""
        try:
            return self._relations[name]
        except KeyError as exc:
            raise KeyError(f"relation {name!r} not in schema {self.name!r}") from exc

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def __contains__(self, name: str) -> bool:
        return self.has_relation(name)

    def __len__(self) -> int:
        return len(self._relations)

    # ------------------------------------------------------------------ #
    # Constraints
    # ------------------------------------------------------------------ #
    def _validate_constraints(self) -> None:
        for fd in self.functional_dependencies:
            relation = self.relation(fd.relation)
            for attribute in (*fd.lhs, *fd.rhs):
                relation.position_of(attribute)
        for ind in self.inclusion_dependencies:
            left, right = self.relation(ind.left), self.relation(ind.right)
            left.positions_of(ind.left_attrs)
            right.positions_of(ind.right_attrs)

    def inds_involving(self, relation: str) -> List[InclusionDependency]:
        """All INDs mentioning ``relation`` on either side."""
        return [ind for ind in self.inclusion_dependencies if ind.involves(relation)]

    def equality_inds(self) -> List[InclusionDependency]:
        """INDs with equality only."""
        return [ind for ind in self.inclusion_dependencies if ind.with_equality]

    def inclusion_classes(self, include_subset_inds: bool = False) -> List[InclusionClass]:
        """Inclusion classes of the schema (Definition 7.1 / Section 7.4)."""
        cached = self._inclusion_classes_cache.get(include_subset_inds)
        if cached is None:
            cached = compute_inclusion_classes(
                self.relation_names,
                self.inclusion_dependencies,
                include_subset_inds=include_subset_inds,
            )
            self._inclusion_classes_cache[include_subset_inds] = cached
        return cached

    def inclusion_class_of(
        self, relation: str, include_subset_inds: bool = False
    ) -> Optional[InclusionClass]:
        """The inclusion class containing ``relation`` (None for singletons)."""
        for inclusion_class in self.inclusion_classes(include_subset_inds):
            if inclusion_class.contains(relation) and len(inclusion_class) > 1:
                return inclusion_class
        return None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def with_constraints(
        self,
        functional_dependencies: Optional[Iterable[FunctionalDependency]] = None,
        inclusion_dependencies: Optional[Iterable[InclusionDependency]] = None,
        name: Optional[str] = None,
    ) -> "Schema":
        """Return a copy of this schema with different constraint sets."""
        return Schema(
            self.relations,
            functional_dependencies
            if functional_dependencies is not None
            else self.functional_dependencies,
            inclusion_dependencies
            if inclusion_dependencies is not None
            else self.inclusion_dependencies,
            name=name or self.name,
        )

    def with_subset_inds_only(self, name: Optional[str] = None) -> "Schema":
        """Return a copy where every IND with equality is downgraded to subset form.

        Used by the Table 12 experiment (general decomposition/composition).
        """
        downgraded = [ind.as_subset() for ind in self.inclusion_dependencies]
        return self.with_constraints(
            inclusion_dependencies=downgraded, name=name or f"{self.name}-subset-inds"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return (
            set(self.relations) == set(other.relations)
            and set(self.functional_dependencies) == set(other.functional_dependencies)
            and set(self.inclusion_dependencies) == set(other.inclusion_dependencies)
        )

    def __repr__(self) -> str:
        return f"Schema({self.name!r}, {len(self)} relations)"

    def __str__(self) -> str:
        lines = [f"schema {self.name}:"]
        lines.extend(f"  {relation}" for relation in self.relations)
        if self.functional_dependencies:
            lines.append("  FDs:")
            lines.extend(f"    {fd}" for fd in self.functional_dependencies)
        if self.inclusion_dependencies:
            lines.append("  INDs:")
            lines.extend(f"    {ind}" for ind in self.inclusion_dependencies)
        return "\n".join(lines)
