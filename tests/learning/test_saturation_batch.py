"""Saturation construction on the backend seam: parity + batching.

The acceptance property of the saturation capability: bottom clauses are
**byte-identical** whichever lookup path produced them — compiled
set-at-a-time frontier queries (``neighbors_of_batch``) vs per-constant
Python lookups — on every backend, one example at a time or a whole
generation per call.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.castor.bottom_clause import CastorBottomClauseBuilder, CastorBottomClauseConfig
from repro.database.instance import DatabaseInstance
from repro.database.schema import RelationSchema, Schema
from repro.database.sqlite_backend import SaturationStore
from repro.learning.bottom_clause import (
    BottomClauseBuilder,
    BottomClauseConfig,
    compute_theory_constants,
)
from repro.learning.coverage import SubsumptionCoverageEngine

BACKENDS = ("memory", "sqlite", "sqlite-pooled")


def clause_strings(clauses):
    return [str(clause) for clause in clauses]


@pytest.fixture(scope="module")
def uwcse_workload(uwcse_bundle):
    instance = uwcse_bundle.instance(uwcse_bundle.variant_names[0])
    return instance, uwcse_bundle.examples.positives


# --------------------------------------------------------------------- #
# The backend capability itself
# --------------------------------------------------------------------- #
def test_neighbors_of_batch_matches_per_value_lookups(uwcse_workload):
    instance, _examples = uwcse_workload
    values = sorted(
        {v for relation in instance.relations() for row in relation for v in row},
        key=str,
    )[:30] + ["no-such-value"]
    reference = None
    for backend in BACKENDS:
        converted = instance.with_backend(backend)
        assert converted.backend.supports_saturation_queries
        batch = {
            value: sorted(found)
            for value, found in converted.neighbors_of_batch(values).items()
        }
        per_value = {
            value: sorted(converted.tuples_containing(value)) for value in values
        }
        assert batch == per_value, backend
        if reference is None:
            reference = batch
        else:
            assert batch == reference, backend


# --------------------------------------------------------------------- #
# Builder parity: compiled vs python lookups, batch vs one-at-a-time
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("variablize", [False, True])
def test_builder_parity_across_backends_and_lookup_paths(uwcse_workload, variablize):
    instance, examples = uwcse_workload
    config = BottomClauseConfig(max_depth=3)
    reference = None
    for backend in BACKENDS:
        converted = instance.with_backend(backend)
        for compiled in (False, True):
            builder = BottomClauseBuilder(
                converted, config, use_compiled_lookups=compiled
            )
            single = [
                builder.build(e) if variablize else builder.build_ground(e)
                for e in examples
            ]
            batched = (
                builder.build_many(examples)
                if variablize
                else builder.build_ground_many(examples)
            )
            assert clause_strings(batched) == clause_strings(single), (
                backend,
                compiled,
            )
            if reference is None:
                reference = clause_strings(single)
            else:
                assert clause_strings(single) == reference, (backend, compiled)


def test_castor_builder_parity_across_backends_and_lookup_paths(uwcse_bundle):
    instance = uwcse_bundle.instance(uwcse_bundle.variant_names[0])
    examples = uwcse_bundle.examples.positives
    schema = uwcse_bundle.schema(uwcse_bundle.variant_names[0])
    config = CastorBottomClauseConfig()
    reference = None
    for backend in BACKENDS:
        converted = instance.with_backend(backend)
        for compiled in (False, True):
            builder = CastorBottomClauseBuilder(
                converted, schema, config, use_compiled_lookups=compiled
            )
            got = clause_strings(builder.build_ground_many(examples))
            assert got == clause_strings(
                [builder.build_ground(e) for e in examples]
            ), (backend, compiled)
            if reference is None:
                reference = got
            else:
                assert got == reference, (backend, compiled)


def test_theory_constants_identical_across_backends(uwcse_workload):
    instance, _examples = uwcse_workload
    reference = None
    for backend in BACKENDS:
        converted = instance.with_backend(backend)
        constants = compute_theory_constants(converted, threshold=12)
        if reference is None:
            reference = constants
        else:
            assert constants == reference, backend


# --------------------------------------------------------------------- #
# Batched materialization in the coverage engine
# --------------------------------------------------------------------- #
def test_materialize_matches_per_example_adds(uwcse_workload):
    """One batched ``materialize`` call stores exactly what per-example
    construction and ``add_example`` calls store."""
    instance, examples = uwcse_workload
    instance = instance.with_backend("sqlite")
    builder = BottomClauseBuilder(instance, BottomClauseConfig(max_depth=3))

    batched_store = SaturationStore()
    engine = SubsumptionCoverageEngine(
        instance,
        BottomClauseConfig(max_depth=3),
        saturation_store=batched_store,
    )
    engine.materialize(examples)
    assert set(engine._compiled_ids) == set(examples)

    manual_store = SaturationStore()
    for example in examples:
        manual_store.add_example(
            example.target, example.values, builder.build_ground(example).body
        )
    assert batched_store.contents() == manual_store.contents()
    assert len(batched_store) == len(manual_store)


def test_coverage_engine_prepare_fills_cache_in_one_batch(uwcse_workload):
    instance, examples = uwcse_workload
    lazy = SubsumptionCoverageEngine(instance, BottomClauseConfig(max_depth=3))
    prepared = SubsumptionCoverageEngine(instance, BottomClauseConfig(max_depth=3))
    prepared.prepare(examples)
    assert set(prepared._saturation_cache) >= set(examples)
    for example in examples:
        assert str(prepared.saturation(example)) == str(lazy.saturation(example))


# --------------------------------------------------------------------- #
# Property: the capability agrees with brute force on random instances
# --------------------------------------------------------------------- #
VALUES = st.sampled_from(["a", "b", "c", 0, 1, 2])
R1_ROWS = st.lists(st.tuples(VALUES, VALUES), max_size=12)
R2_ROWS = st.lists(st.tuples(VALUES, VALUES, VALUES), max_size=12)


@settings(max_examples=40, deadline=None)
@given(r1=R1_ROWS, r2=R2_ROWS, frontier=st.lists(VALUES, min_size=1, max_size=6))
def test_neighbors_of_batch_matches_brute_force(r1, r2, frontier):
    schema = Schema(
        [RelationSchema("r1", ["a", "b"]), RelationSchema("r2", ["a", "b", "c"])],
        name="prop",
    )
    for backend in ("memory", "sqlite"):
        instance = DatabaseInstance(schema, backend=backend)
        instance.add_tuples("r1", r1)
        instance.add_tuples("r2", r2)
        got = instance.neighbors_of_batch(frontier)
        assert set(got) == set(frontier)
        for value in frontier:
            expected = {
                (name, tuple(row))
                for name, relation in (("r1", instance.relation("r1")),
                                       ("r2", instance.relation("r2")))
                for row in relation.rows
                if value in row
            }
            assert set(got[value]) == expected, (backend, value)


def test_shared_store_skips_reconstruction_in_later_engines(uwcse_workload):
    """An engine handed an already-warm shared store (later folds, the
    harness presaturation pass) claims stored saturations by key instead
    of rebuilding every clause."""
    instance, examples = uwcse_workload
    sqlite_instance = instance.with_backend("sqlite")
    store = SaturationStore()
    first = SubsumptionCoverageEngine(
        sqlite_instance, BottomClauseConfig(max_depth=3), saturation_store=store
    )
    first.materialize(examples)
    assert len(store) == len(set(examples))

    second = SubsumptionCoverageEngine(
        sqlite_instance, BottomClauseConfig(max_depth=3), saturation_store=store
    )
    second.materialize(examples)
    # Claimed by store key: ids assigned, but no saturation was rebuilt.
    assert set(second._compiled_ids) == set(examples)
    assert not second._saturation_cache
    assert second._compiled_ids == first._compiled_ids


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_engine_builder_is_fixed_at_construction(uwcse_workload, backend):
    """Every saturation, decision and store row an engine holds was made by
    its one builder, so the builder cannot be swapped afterwards."""
    instance, _examples = uwcse_workload
    engine = SubsumptionCoverageEngine(instance.with_backend(backend))
    builder = engine.builder
    with pytest.raises(AttributeError):
        engine.builder = BottomClauseBuilder(
            engine.instance, BottomClauseConfig(max_total_literals=1)
        )
    assert engine.builder is builder


def test_memory_tuples_containing_uses_the_backend_value_index(uwcse_workload):
    """The instance-level lookup must answer from the memory backend's
    cross-relation index, not the per-relation scan (the O(relations)
    hazard this PR removed) — results alone cannot tell the paths apart."""
    instance, _examples = uwcse_workload
    converted = instance.with_backend("memory")
    value = next(iter(converted.relations()[0].rows))[0]
    expected = converted.tuples_containing(value)

    calls = []
    original = converted.backend.neighbors_of

    def spy(v):
        calls.append(v)
        return original(v)

    converted.backend.neighbors_of = spy
    try:
        assert converted.tuples_containing(value) == expected
    finally:
        del converted.backend.neighbors_of
    assert calls == [value]
