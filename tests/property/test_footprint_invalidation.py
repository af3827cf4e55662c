"""Property: footprint-index invalidation drops exactly what a full scan would.

A :class:`~repro.database.sqlite_backend.SaturationStore` and the
:class:`~repro.learning.coverage.SubsumptionCoverageEngine` both answer
"which saturations does this delta invalidate" from a
:class:`~repro.database.delta.FootprintIndex`.  The oracle here is the
brute-force scan they replace: walk every footprint (head values plus every
body constant) and test each value against the delta's touched values.

The store matches values by SQLite's equality over storable values
(``True`` is stored as ``1``, ``1 == 1.0``, ``"1" != b"1"``); the engine
matches raw values by Python equality.  Values are drawn from a pool with
distinct values that are equal (``1``, ``1.0``, ``True``) and equal-looking
values that are not (``"1"``, ``b"1"``), plus plain strings.  Each round
interleaves re-adds (materializing through either of two engines sharing
the store), invalidation from the store's side (what
``LearningSession.update`` does) or from an engine's, and the engines' own
``apply_delta``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Delta
from repro.database.instance import DatabaseInstance
from repro.database.schema import RelationSchema, Schema
from repro.database.sqlite_backend import SaturationStore
from repro.learning.bottom_clause import BottomClauseConfig
from repro.learning.coverage import SubsumptionCoverageEngine
from repro.learning.examples import Example
from repro.logic.clauses import HornClause
from repro.logic.terms import Constant

POOL = [1, 1.0, True, "1", b"1", "u", "v"]
VALUES = st.sampled_from(POOL)
ROWS = st.tuples(VALUES, VALUES)
EXAMPLES = [Example("q", (value,), True) for value in POOL] + [
    Example("p", ("u", 1), False),
    Example("p", (b"1", "v"), False),
]
OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.sampled_from(["r", "s"]),
        st.lists(ROWS, min_size=1, max_size=2),
    ),
    min_size=1,
    max_size=3,
)
ROUNDS = st.lists(
    st.tuples(
        OPS,
        st.lists(st.sampled_from(EXAMPLES), max_size=4),  # engine a (re-)adds
        st.lists(st.sampled_from(EXAMPLES), max_size=4),  # engine b (re-)adds
        st.booleans(),  # invalidate from the store first, as a session does
    ),
    min_size=1,
    max_size=4,
)

StoreKey = Tuple[str, Tuple[object, ...]]


def _schema() -> Schema:
    return Schema(
        [RelationSchema("r", ["a", "b"]), RelationSchema("s", ["a", "c"])],
        name="footprint-invalidation",
    )


def _as_stored(value: object) -> object:
    """The store's SQLite value for a pool value: booleans become ints."""
    return int(value) if isinstance(value, bool) else value


def _intersects(footprint: List[object], touched: List[object]) -> bool:
    """Brute force: does any footprint value equal any touched value?"""
    return any(value == other for value in footprint for other in touched)


def _stored_oracle(
    contents: Dict[StoreKey, FrozenSet[Tuple[str, Tuple[object, ...]]]],
    touched: FrozenSet[object],
) -> Set[StoreKey]:
    stored_touched = [_as_stored(value) for value in touched]
    dropped = set()
    for key, body in contents.items():
        footprint = list(key[1])
        for _predicate, row in body:
            footprint.extend(row)
        if _intersects(footprint, stored_touched):
            dropped.add(key)
    return dropped


def _footprint_intersects(
    example: Example, saturation: HornClause, touched: FrozenSet[object]
) -> bool:
    """The engine's scan before the index: raw values, Python equality."""
    for value in example.values:
        if value in touched:
            return True
    for atom in saturation.body:
        for term in atom.terms:
            if isinstance(term, Constant) and term.value in touched:
                return True
    return False


def _engine_oracle(
    saturations: Dict[Example, HornClause],
    compiled: Iterable[Example],
    touched: FrozenSet[object],
    dropped: Set[StoreKey],
) -> Set[Example]:
    stale = {
        example
        for example, saturation in saturations.items()
        if _footprint_intersects(example, saturation, touched)
    }
    stale.update(
        example
        for example in compiled
        if (example.target, tuple(_as_stored(v) for v in example.values)) in dropped
    )
    return stale


def _engine(instance: DatabaseInstance, store: SaturationStore):
    return SubsumptionCoverageEngine(
        instance,
        BottomClauseConfig(max_depth=2),
        saturation_store=store,
    )


@pytest.mark.parametrize("backend", ["memory", "sqlite", "sqlite-pooled"])
@settings(max_examples=30, deadline=None)
@given(
    initial_r=st.lists(ROWS, max_size=6),
    initial_s=st.lists(ROWS, max_size=6),
    rounds=ROUNDS,
)
def test_index_invalidation_matches_a_full_footprint_scan(
    backend, initial_r, initial_s, rounds
):
    instance = DatabaseInstance(_schema(), backend=backend)
    instance.add_tuples("r", initial_r)
    instance.add_tuples("s", initial_s)
    store = SaturationStore()
    engines = (_engine(instance, store), _engine(instance, store))
    engines[0].materialize(EXAMPLES)

    for ops, adds_a, adds_b, store_first in rounds:
        engines[0].materialize(adds_a)
        engines[1].materialize(adds_b)
        delta = Delta(ops)
        touched = delta.touched_values()
        contents = store.contents()
        expected_dropped = _stored_oracle(contents, touched)
        snapshots = [
            (dict(engine._saturation_cache), list(engine._compiled_ids))
            for engine in engines
        ]
        instance.apply_delta(delta)

        if store_first:
            dropped = store.invalidate_touching(touched)
            assert len(dropped) == len(set(dropped))
            assert set(dropped) == expected_dropped
        for engine, (saturations, compiled) in zip(engines, snapshots):
            expected = _engine_oracle(saturations, compiled, touched, expected_dropped)
            assert engine.apply_delta(delta) == expected
        assert store.invalidate_touching(touched) == []
        assert set(store.contents()) == set(contents) - expected_dropped
