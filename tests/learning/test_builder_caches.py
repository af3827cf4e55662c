"""The bottom-clause builder's lifetime caches and its truncation counter.

A builder keeps each value's frontier neighbours, each ground literal and
(Castor) each IND-chase join for its whole life.  These tests pin what the
caches save (a rebuild after a delta that changes no chased relation runs
no chase lookup), what they must never hold (anything of a removed row),
how eviction may touch them (by key, never by iterating), and when a
construction drops them (the instance changed behind the builder's back).
The ``saturation.truncated{cap}`` counter is tested on tiny instances where
each cap binds in turn.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.castor.bottom_clause import CastorBottomClauseBuilder, CastorBottomClauseConfig
from repro.castor.castor import CastorCoverageEngine
from repro.database import Delta, InclusionDependency
from repro.database.instance import DatabaseInstance
from repro.database.schema import RelationSchema, Schema
from repro.datasets import uwcse
from repro.learning.bottom_clause import BottomClauseBuilder, BottomClauseConfig
from repro.learning.examples import Example
from repro.obs import registry

CAPS = (
    "max_total_literals",
    "max_literals_per_relation_per_tuple",
    "max_joining_tuples_per_ind",
)
X = Example("q", ("x",), True)


def _schema(inds=()) -> Schema:
    return Schema(
        [RelationSchema("r", ["a", "b"]), RelationSchema("s", ["b", "c"])],
        [],
        list(inds),
        name="builder-caches",
    )


def _truncations() -> Dict[str, int]:
    return {
        cap: registry().counter("saturation.truncated", cap=cap).value for cap in CAPS
    }


def _counted(build) -> Dict[str, int]:
    """How much ``build()`` moved each cap's counter."""
    before = _truncations()
    build()
    after = _truncations()
    return {cap: after[cap] - before[cap] for cap in CAPS}


# --------------------------------------------------------------------- #
# saturation.truncated{cap}
# --------------------------------------------------------------------- #
class TestTruncationCounter:
    def _fan(self, fan_out: int) -> DatabaseInstance:
        """``x`` appears in ``fan_out`` tuples of ``r``."""
        instance = DatabaseInstance(_schema())
        instance.add_tuples("r", [("x", f"y{i}") for i in range(fan_out)])
        return instance

    def test_no_cap_binds(self):
        builder = BottomClauseBuilder(self._fan(2), BottomClauseConfig(max_depth=2))
        assert _counted(lambda: builder.build_ground(X)) == dict.fromkeys(CAPS, 0)

    def test_total_literal_cap(self):
        config = BottomClauseConfig(
            max_depth=1, max_literals_per_relation_per_tuple=10, max_total_literals=2
        )
        builder = BottomClauseBuilder(self._fan(4), config)
        clause = None

        def build():
            nonlocal clause
            clause = builder.build_ground(X)

        assert _counted(build) == {**dict.fromkeys(CAPS, 0), "max_total_literals": 1}
        assert len(clause.body) == 2

    def test_per_relation_cap_counts_once_per_clause(self):
        config = BottomClauseConfig(
            max_depth=1, max_literals_per_relation_per_tuple=2, max_total_literals=100
        )
        instance = self._fan(4)
        instance.add_tuples("r", [("z", f"y{i}") for i in range(4)])
        builder = BottomClauseBuilder(instance, config)
        examples = [X, Example("q", ("z",), True)]
        counted = _counted(lambda: builder.build_many(examples))
        assert counted == {
            **dict.fromkeys(CAPS, 0),
            "max_literals_per_relation_per_tuple": 2,
        }

    def test_joining_tuple_cap(self):
        ind = InclusionDependency("r", ["b"], "s", ["b"], with_equality=True)
        instance = DatabaseInstance(_schema([ind]))
        instance.add_tuple("r", ("x", "k"))
        instance.add_tuples("s", [("k", f"c{i}") for i in range(3)])
        config = CastorBottomClauseConfig(
            max_depth=1, max_distinct_variables=None, max_joining_tuples_per_ind=1
        )
        builder = CastorBottomClauseBuilder(instance, config=config)
        clause = None

        def build():
            nonlocal clause
            clause = builder.build_ground(X)

        assert _counted(build) == {
            **dict.fromkeys(CAPS, 0),
            "max_joining_tuples_per_ind": 1,
        }
        assert [str(atom) for atom in clause.body] == ["r(x, k)", "s(k, c0)"]


# --------------------------------------------------------------------- #
# A rebuild after a delta reuses what the delta did not touch
# --------------------------------------------------------------------- #
def _uwcse(backend: str):
    bundle = uwcse.load(
        uwcse.UwCseConfig(num_students=8, num_professors=3, num_courses=5), seed=2
    )
    return bundle, bundle.instance("4nf").with_backend(backend)


def _count_chase_lookups(monkeypatch, instance) -> List[str]:
    """Names of the relations ``tuples_matching`` reads from now on."""
    calls: List[str] = []
    for relation in instance.relations():
        original = relation.tuples_matching
        name = relation.schema.name

        def counting(bindings, original=original, name=name):
            calls.append(name)
            return original(bindings)

        monkeypatch.setattr(relation, "tuples_matching", counting)
    return calls


class TestRebuildReusesLookups:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_publication_delta_runs_no_chase_lookup(self, monkeypatch, backend):
        bundle, instance = _uwcse(backend)
        # No variable budget: the rebuild reaches the same chased tuples.
        config = CastorBottomClauseConfig(max_depth=2, max_distinct_variables=None)
        engine = CastorCoverageEngine(instance, bundle.schema("4nf"), config)
        examples = bundle.examples.all_examples()
        engine.prepare(examples)
        student = examples[0].values[0]

        delta = Delta.add("publication", [("fresh_paper", student)])
        instance.apply_delta(delta)
        invalidated = engine.apply_delta(delta)
        assert examples[0] in invalidated
        calls = _count_chase_lookups(monkeypatch, instance)
        engine.prepare(examples)

        rebuilt = engine.saturation(examples[0])
        assert "publication(fresh_paper, %s)" % student in map(str, rebuilt.body)
        chased = {"taughtBy", "ta", "courseLevel", "professor"}
        assert chased & {atom.predicate for atom in rebuilt.body}
        assert calls == []


# --------------------------------------------------------------------- #
# The caches hold nothing of a removed row, and eviction never iterates
# --------------------------------------------------------------------- #
class _NoIteration(dict):
    """A cache another thread may be growing: iterating it is an error."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("eviction iterated a cache")

    __iter__ = keys = values = items = copy = _refuse


class TestEviction:
    def _warm(self):
        bundle, instance = _uwcse("memory")
        config = CastorBottomClauseConfig(max_depth=3, max_distinct_variables=None)
        builder = CastorBottomClauseBuilder(instance, bundle.schema("4nf"), config)
        examples = bundle.examples.all_examples()
        builder.build_ground_many(examples)
        return instance, builder, examples

    def test_caches_hold_nothing_of_removed_rows(self):
        instance, builder, examples = self._warm()
        removed = {
            name: sorted(instance.relation(name).rows, key=repr)[:2]
            for name in ("taughtBy", "ta", "courseLevel", "professor", "publication")
        }
        delta = Delta([("remove", name, rows) for name, rows in removed.items()])
        instance.apply_delta(delta)
        builder.apply_delta(delta)

        gone = {(name, row) for name, rows in removed.items() for row in rows}
        assert not gone & set(builder._literals)
        for found in builder._neighbors.values():
            assert not gone & set(found)
        # Every join answer is current, and keyed by a live row's chase.
        live_keys = {
            (other, other_positions, tuple(row[p] for p in own))
            for relation in instance.relations()
            for other, own, other_positions in builder._chase_plan_for(
                relation.schema.name
            )
            for row in relation.rows
        }
        for key, matches in builder._joins.items():
            assert not {(key[0], match) for match in matches} & gone
            assert key in live_keys

        # ...and rebuilding after the eviction gives a fresh builder's clauses.
        fresh = CastorCoverageEngine(instance, builder.schema, builder.config).builder
        assert builder.build_ground_many(examples) == fresh.build_ground_many(examples)

    def test_eviction_pops_keys_without_iterating(self):
        instance, builder, _ = self._warm()
        for name in ("_neighbors", "_literals", "_joins"):
            setattr(builder, name, _NoIteration(getattr(builder, name)))
        row = min(instance.relation("taughtBy").rows, key=repr)
        delta = Delta.remove("taughtBy", [row])
        instance.apply_delta(delta)
        builder.apply_delta(delta)
        assert ("taughtBy", row) not in builder._literals


# --------------------------------------------------------------------- #
# The data-token check
# --------------------------------------------------------------------- #
class TestTokenCheck:
    def test_standalone_builder_sees_direct_writes(self):
        instance = DatabaseInstance(_schema())
        instance.add_tuples("r", [("x", "y0"), ("y0", "z0")])
        builder = BottomClauseBuilder(instance, BottomClauseConfig(max_depth=2))
        assert str(builder.build_ground(X)) == "q(x) :- r(x, y0), r(y0, z0)."
        instance.relation("r").remove(("y0", "z0"))
        instance.relation("r").add(("y0", "z1"))
        assert str(builder.build_ground(X)) == "q(x) :- r(x, y0), r(y0, z1)."

    def test_builder_sees_a_direct_write_before_a_delta(self, backend):
        """The delta touches ``s`` only; the lookups it would leave alone
        are stale from the write to ``r`` that came first."""
        instance = DatabaseInstance(_schema(), backend=backend)
        instance.add_tuples("r", [("x", "y0"), ("y0", "z0")])
        builder = BottomClauseBuilder(instance, BottomClauseConfig(max_depth=2))
        assert str(builder.build_ground(X)) == "q(x) :- r(x, y0), r(y0, z0)."
        instance.relation("r").add(("y0", "z1"))
        delta = Delta.add("s", [("k", "c0")])
        instance.apply_delta(delta)
        builder.apply_delta(delta)
        want = "q(x) :- r(x, y0), r(y0, z0), r(y0, z1)."
        assert str(builder.build_ground(X)) == want

    def test_castor_chase_sees_a_direct_write_before_a_delta(self, backend):
        """A chase join cached before a direct write to the chased
        relation is dropped by the delta after it."""
        ind = InclusionDependency("r", ["b"], "s", ["b"], with_equality=True)
        instance = DatabaseInstance(_schema([ind]), backend=backend)
        instance.add_tuple("r", ("x", "k"))
        instance.add_tuple("s", ("k", "c0"))
        builder = CastorBottomClauseBuilder(
            instance, config=CastorBottomClauseConfig(max_depth=1)
        )
        assert str(builder.build_ground(X)) == "q(x) :- r(x, k), s(k, c0)."
        instance.relation("s").add(("k", "c1"))
        delta = Delta.add("r", [("w", "m")])
        instance.apply_delta(delta)
        builder.apply_delta(delta)
        want = "q(x) :- r(x, k), s(k, c0), s(k, c1)."
        assert str(builder.build_ground(X)) == want

    def test_no_token_means_no_reuse(self, monkeypatch):
        ind = InclusionDependency("r", ["b"], "s", ["b"], with_equality=True)
        instance = DatabaseInstance(_schema([ind]))
        instance.add_tuple("r", ("x", "k"))
        instance.add_tuple("s", ("k", "c0"))
        monkeypatch.setattr(instance, "data_token", lambda: None)
        builder = CastorBottomClauseBuilder(instance, config=CastorBottomClauseConfig())
        calls = _count_chase_lookups(monkeypatch, instance)
        builder.build_ground(X)
        first = len(calls)
        builder.build_ground(X)
        assert first > 0
        assert len(calls) == 2 * first
