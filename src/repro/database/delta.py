"""First-class change vocabulary for incremental maintenance.

A :class:`Delta` is an ordered batch of tuple-level changes against a
:class:`~repro.database.instance.DatabaseInstance`: each op is an
``(op, relation, rows)`` triple where ``op`` is ``"add"`` or ``"remove"``,
``relation`` names a relation symbol, and ``rows`` is a tuple of value
tuples.  It gives every layer — instances, backends, the
saturation/coverage engines, and :meth:`LearningSession.update` — one
shared vocabulary for "what changed".

Semantics (the contract every consumer relies on):

* **Ordered.** Ops apply first-to-last; ``add`` then ``remove`` of the
  same row deletes it, the reverse order inserts it.
* **Set-based.** ``add`` of a row already present is a no-op; ``remove``
  of an absent row is a no-op (idempotent retraction — this is what makes
  replaying a delta onto an already-updated instance safe).
* **Conservative footprint.** :meth:`touched_values` reports every value
  in every listed row regardless of whether the op was effective.
  Invalidation built on it may therefore over-approximate, never
  under-approximate.  :class:`FootprintIndex` looks those values up
  against the footprints of derived state.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Generic,
    Hashable,
    Iterable,
    List,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

Row = Tuple[object, ...]
DeltaOp = Tuple[str, str, Tuple[Row, ...]]

_VALID_OPS = ("add", "remove")

K = TypeVar("K", bound=Hashable)


class Delta:
    """An immutable, ordered batch of tuple insertions and retractions."""

    __slots__ = ("_ops",)

    def __init__(self, ops: Iterable[Sequence[object]] = ()):
        normalized: List[DeltaOp] = []
        for entry in ops:
            try:
                op, relation, rows = entry
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"delta op must be an (op, relation, rows) triple: {entry!r}"
                ) from exc
            if op not in _VALID_OPS:
                raise ValueError(f"delta op must be 'add' or 'remove', got {op!r}")
            if not isinstance(relation, str) or not relation:
                raise ValueError(f"delta relation must be a non-empty string: {relation!r}")
            row_tuples = tuple(tuple(row) for row in rows)
            if not row_tuples:
                continue
            normalized.append((op, relation, row_tuples))
        self._ops: Tuple[DeltaOp, ...] = tuple(normalized)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def add(cls, relation: str, rows: Iterable[Sequence[object]]) -> "Delta":
        """A delta inserting ``rows`` into ``relation``."""
        return cls([("add", relation, tuple(rows))])

    @classmethod
    def remove(cls, relation: str, rows: Iterable[Sequence[object]]) -> "Delta":
        """A delta retracting ``rows`` from ``relation``."""
        return cls([("remove", relation, tuple(rows))])

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def ops(self) -> Tuple[DeltaOp, ...]:
        """The ordered ``(op, relation, rows)`` triples."""
        return self._ops

    @property
    def row_count(self) -> int:
        """Total rows listed across all ops (duplicates counted)."""
        return sum(len(rows) for _, _, rows in self._ops)

    def touched_values(self) -> FrozenSet[object]:
        """Every value appearing in any listed row (the delta's footprint).

        A saturation whose constants are disjoint from this set — and whose
        example head values are too — cannot be affected by applying the
        delta; this is the invalidation key the incremental engines use.
        """
        values: set = set()
        for _, _, rows in self._ops:
            for row in rows:
                values.update(row)
        return frozenset(values)

    def coalesced(self) -> "Delta":
        """Merge runs of same-op, same-relation entries into single ops.

        Order across differing (op, relation) boundaries is preserved, so
        applying the coalesced delta is observationally identical to
        applying the original.  Adjacent duplicate rows within a run are
        deduplicated (set semantics make them no-ops anyway).
        """
        merged: List[List[object]] = []
        for op, relation, rows in self._ops:
            if merged and merged[-1][0] == op and merged[-1][1] == relation:
                merged[-1][2].extend(rows)  # type: ignore[union-attr]
            else:
                merged.append([op, relation, list(rows)])
        out: List[DeltaOp] = []
        for op, relation, rows in merged:  # type: ignore[assignment]
            seen: Dict[Row, None] = {}
            for row in rows:  # type: ignore[union-attr]
                seen.setdefault(row, None)
            out.append((op, relation, tuple(seen)))
        return Delta(out)

    # ------------------------------------------------------------------ #
    # Value semantics
    # ------------------------------------------------------------------ #
    def __bool__(self) -> bool:
        return bool(self._ops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Delta):
            return NotImplemented
        return self._ops == other._ops

    def __hash__(self) -> int:
        return hash(self._ops)

    def __repr__(self) -> str:
        return f"Delta({len(self._ops)} ops, {self.row_count} rows)"


class FootprintIndex(Generic[K]):
    """Inverted index from values to the keys whose footprint holds them.

    A key is one piece of derived state (a stored saturation, a cached
    one) and its footprint is the set of values a delta must touch to
    change it.  :meth:`touching` looks up only the values it is given, so
    finding what a delta invalidates costs O(touched values + keys found),
    however many footprints are filed.  Values compare by Python equality
    and hashing; a caller that needs another equality files and looks up
    values already mapped into it.  Not thread-safe: the owner serializes
    access.
    """

    __slots__ = ("_keys", "_footprints")

    def __init__(self) -> None:
        self._keys: Dict[object, Set[K]] = {}
        # Each footprint once, deduplicated, so discard() finds every entry.
        self._footprints: Dict[K, Tuple[object, ...]] = {}

    def __contains__(self, key: object) -> bool:
        return key in self._footprints

    def add(self, key: K, values: Iterable[object]) -> None:
        """File ``key``, not filed yet, under every value of its footprint."""
        footprint = tuple(dict.fromkeys(values))
        self._footprints[key] = footprint
        for value in footprint:
            keys = self._keys.get(value)
            if keys is None:
                self._keys[value] = {key}
            else:
                keys.add(key)

    def discard(self, key: K) -> None:
        """Forget ``key``'s footprint; a no-op for a key never filed."""
        for value in self._footprints.pop(key, ()):
            keys = self._keys[value]
            keys.discard(key)
            if not keys:
                del self._keys[value]

    def touching(self, values: Iterable[object]) -> Set[K]:
        """Every filed key whose footprint holds at least one of ``values``."""
        found: Set[K] = set()
        for value in values:
            keys = self._keys.get(value)
            if keys is not None:
                found.update(keys)
        return found
