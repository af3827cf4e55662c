"""Vertical decomposition and composition of schemas (Section 4).

A *decomposition* replaces one relation ``R`` with relations ``S1..Sn`` whose
attribute sets cover ``sort(R)``; the transformed schema gains INDs with
equality between the parts over their shared attributes (Definition 4.1) and
the instance transformation is projection.  A *composition* is the inverse:
the listed relations are replaced by their natural join.  Neither renames an
attribute, so the schema's declared constant attributes carry over as they
are.

Both operations are represented as small declarative objects so that a
:class:`repro.transform.transformation.SchemaTransformation` can apply them
to schemas, to database instances (τ and τ⁻¹), and to Horn definitions (δτ).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..database.algebra import named_rows, natural_join_many
from ..database.constraints import FunctionalDependency, InclusionDependency
from ..database.instance import DatabaseInstance
from ..database.schema import RelationSchema, Schema


class DecomposeOperation:
    """Decompose one relation into several projections.

    Parameters
    ----------
    relation:
        Name of the relation (in the source schema) being decomposed.
    parts:
        Sequence of ``(new_relation_name, attribute_list)`` pairs.  The union
        of the attribute lists must equal the source relation's attributes,
        and consecutive parts must be connectable through shared attributes
        (otherwise the join back would be a Cartesian product, which
        Definition 4.1 excludes).
    """

    def __init__(self, relation: str, parts: Sequence[Tuple[str, Sequence[str]]]):
        self.relation = str(relation)
        self.parts: List[Tuple[str, Tuple[str, ...]]] = [
            (str(name), tuple(attrs)) for name, attrs in parts
        ]
        if len(self.parts) < 2:
            raise ValueError("a decomposition needs at least two parts")

    def part_names(self) -> List[str]:
        return [name for name, _ in self.parts]

    def validate_against(self, schema: Schema) -> None:
        """Check the operation is well formed for ``schema``; raise ValueError otherwise."""
        source = schema.relation(self.relation)
        covered: Set[str] = set()
        for _name, attrs in self.parts:
            for attribute in attrs:
                source.position_of(attribute)
            covered |= set(attrs)
        if covered != set(source.attributes):
            missing = set(source.attributes) - covered
            raise ValueError(
                f"decomposition of {self.relation!r} does not cover attributes {sorted(missing)}"
            )
        if not self._parts_connected():
            raise ValueError(
                f"decomposition of {self.relation!r} has disconnected parts "
                "(the re-join would be a Cartesian product)"
            )

    def _parts_connected(self) -> bool:
        """True when the parts form a connected graph via shared attributes."""
        if len(self.parts) == 1:
            return True
        remaining = list(range(1, len(self.parts)))
        connected_attrs = set(self.parts[0][1])
        connected = {0}
        progressed = True
        while remaining and progressed:
            progressed = False
            for index in list(remaining):
                attrs = set(self.parts[index][1])
                if attrs & connected_attrs:
                    connected.add(index)
                    connected_attrs |= attrs
                    remaining.remove(index)
                    progressed = True
        return not remaining

    def generated_inds(self) -> List[InclusionDependency]:
        """INDs with equality between every pair of parts sharing attributes."""
        inds: List[InclusionDependency] = []
        for (name_a, attrs_a), (name_b, attrs_b) in itertools.combinations(self.parts, 2):
            shared = tuple(a for a in attrs_a if a in set(attrs_b))
            if shared:
                inds.append(
                    InclusionDependency(name_a, shared, name_b, shared, with_equality=True)
                )
        return inds

    def __repr__(self) -> str:
        return f"DecomposeOperation({self.relation!r}, {self.parts!r})"


class ComposeOperation:
    """Compose (natural-join) several relations into one.

    Parameters
    ----------
    relations:
        Names of the relations (in the source schema) to join.  They must be
        pairwise connectable through shared attributes.
    new_name:
        Name of the composed relation in the target schema.
    attribute_order:
        Optional explicit attribute order for the composed relation; defaults
        to the order of first appearance across the listed relations.
    """

    def __init__(
        self,
        relations: Sequence[str],
        new_name: str,
        attribute_order: Optional[Sequence[str]] = None,
    ):
        self.relations: List[str] = [str(r) for r in relations]
        self.new_name = str(new_name)
        self.attribute_order: Optional[Tuple[str, ...]] = (
            tuple(attribute_order) if attribute_order is not None else None
        )
        if len(self.relations) < 2:
            raise ValueError("a composition needs at least two relations")

    def composed_attributes(self, schema: Schema) -> Tuple[str, ...]:
        """Attribute list of the composed relation."""
        if self.attribute_order is not None:
            return self.attribute_order
        seen: List[str] = []
        for name in self.relations:
            for attribute in schema.relation(name).attributes:
                if attribute not in seen:
                    seen.append(attribute)
        return tuple(seen)

    def validate_against(self, schema: Schema) -> None:
        """Check relations exist, are connected, and the attribute order is complete."""
        for name in self.relations:
            schema.relation(name)
        attributes = self.composed_attributes(schema)
        union: Set[str] = set()
        for name in self.relations:
            union |= set(schema.relation(name).attributes)
        if set(attributes) != union:
            raise ValueError(
                f"attribute order for composed relation {self.new_name!r} must cover "
                "exactly the union of member attributes"
            )
        if not self._members_connected(schema):
            raise ValueError(
                f"composition {self.new_name!r} has disconnected members "
                "(natural join would be a Cartesian product)"
            )

    def _members_connected(self, schema: Schema) -> bool:
        member_attrs = [set(schema.relation(name).attributes) for name in self.relations]
        connected = {0}
        connected_attrs = set(member_attrs[0])
        remaining = list(range(1, len(member_attrs)))
        progressed = True
        while remaining and progressed:
            progressed = False
            for index in list(remaining):
                if member_attrs[index] & connected_attrs:
                    connected.add(index)
                    connected_attrs |= member_attrs[index]
                    remaining.remove(index)
                    progressed = True
        return not remaining

    def inverse(self, schema: Schema) -> DecomposeOperation:
        """The decomposition that undoes this composition (on the target schema)."""
        parts = [
            (name, tuple(schema.relation(name).attributes)) for name in self.relations
        ]
        return DecomposeOperation(self.new_name, parts)

    def __repr__(self) -> str:
        return f"ComposeOperation({self.relations!r} -> {self.new_name!r})"


def apply_decompose_to_schema(schema: Schema, operation: DecomposeOperation) -> Schema:
    """Build the schema resulting from applying a decomposition operation."""
    operation.validate_against(schema)
    new_relations: List[RelationSchema] = []
    for relation in schema.relations:
        if relation.name == operation.relation:
            for name, attrs in operation.parts:
                new_relations.append(RelationSchema(name, attrs))
        else:
            new_relations.append(relation)

    new_fds: List[FunctionalDependency] = []
    for fd in schema.functional_dependencies:
        if fd.relation != operation.relation:
            new_fds.append(fd)
            continue
        # The FD survives on every part that contains its left-hand side,
        # restricted to the right-hand-side attributes the part carries.
        for name, attrs in operation.parts:
            attr_set = set(attrs)
            surviving_rhs = tuple(a for a in fd.rhs if a in attr_set)
            if set(fd.lhs) <= attr_set and surviving_rhs:
                new_fds.append(FunctionalDependency(name, fd.lhs, surviving_rhs))

    new_inds: List[InclusionDependency] = []
    for ind in schema.inclusion_dependencies:
        new_inds.extend(_rewrite_ind_for_decomposition(ind, operation))
    new_inds.extend(operation.generated_inds())

    return Schema(
        new_relations,
        new_fds,
        new_inds,
        name=f"{schema.name}-decomposed",
        constant_attributes=schema.constant_attributes,
    )


def _rewrite_ind_for_decomposition(
    ind: InclusionDependency, operation: DecomposeOperation
) -> List[InclusionDependency]:
    """Rewrite an existing IND when one of its sides is being decomposed.

    The IND survives on any part that contains all the referenced attributes;
    when neither side is affected it is kept verbatim, and when a side's
    attributes end up split across parts the IND is dropped (it can no longer
    be stated as a single IND).
    """
    def sides_for(relation: str, attrs: Tuple[str, ...]) -> List[Tuple[str, Tuple[str, ...]]]:
        if relation != operation.relation:
            return [(relation, attrs)]
        matches = []
        for name, part_attrs in operation.parts:
            if set(attrs) <= set(part_attrs):
                matches.append((name, attrs))
        return matches

    rewritten: List[InclusionDependency] = []
    for left, left_attrs in sides_for(ind.left, ind.left_attrs):
        for right, right_attrs in sides_for(ind.right, ind.right_attrs):
            rewritten.append(
                InclusionDependency(left, left_attrs, right, right_attrs, ind.with_equality)
            )
    return rewritten


def apply_compose_to_schema(schema: Schema, operation: ComposeOperation) -> Schema:
    """Build the schema resulting from applying a composition operation."""
    operation.validate_against(schema)
    composed_attrs = operation.composed_attributes(schema)
    members = set(operation.relations)

    new_relations: List[RelationSchema] = []
    inserted = False
    for relation in schema.relations:
        if relation.name in members:
            if not inserted:
                new_relations.append(RelationSchema(operation.new_name, composed_attrs))
                inserted = True
        else:
            new_relations.append(relation)

    new_fds: List[FunctionalDependency] = []
    for fd in schema.functional_dependencies:
        if fd.relation in members:
            new_fds.append(FunctionalDependency(operation.new_name, fd.lhs, fd.rhs))
        else:
            new_fds.append(fd)

    new_inds: List[InclusionDependency] = []
    for ind in schema.inclusion_dependencies:
        left_member = ind.left in members
        right_member = ind.right in members
        if left_member and right_member:
            # IND between two members becomes trivial inside the composed relation.
            continue
        left = operation.new_name if left_member else ind.left
        right = operation.new_name if right_member else ind.right
        new_inds.append(
            InclusionDependency(left, ind.left_attrs, right, ind.right_attrs, ind.with_equality)
        )
    deduplicated = list(dict.fromkeys(new_inds))
    return Schema(
        new_relations,
        new_fds,
        deduplicated,
        name=f"{schema.name}-composed",
        constant_attributes=schema.constant_attributes,
    )


def decompose_rows(
    source: DatabaseInstance, operation: DecomposeOperation
) -> Dict[str, Set[Tuple[object, ...]]]:
    """Project the source relation's tuples onto each part (τ for decomposition)."""
    relation = source.relation(operation.relation)
    result: Dict[str, Set[Tuple[object, ...]]] = {}
    for name, attrs in operation.parts:
        positions = relation.schema.positions_of(attrs)
        result[name] = {tuple(row[p] for p in positions) for row in relation.rows}
    return result


def compose_rows(
    source: DatabaseInstance, operation: ComposeOperation
) -> Set[Tuple[object, ...]]:
    """Natural-join the member relations' tuples (τ for composition)."""
    member_instances = [source.relation(name) for name in operation.relations]
    joined = natural_join_many([named_rows(instance) for instance in member_instances])
    attributes = operation.composed_attributes(source.schema)
    return {tuple(row[a] for a in attributes) for row in joined}
