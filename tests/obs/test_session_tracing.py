"""Session-level tracing and metrics: one learner run, one trace tree.

A harness call on a traced session records the run's root span and every
learner-phase span under one trace id, parented into one tree; an untraced
session records nothing; ``metrics()`` and ``trace_dump`` expose both.
"""

from __future__ import annotations

import json

import pytest

from repro import LearningSession, SessionConfig
from repro.datasets import uwcse
from repro.experiments.harness import (
    LearnerSpec,
    check_schema_independence,
    run_schema_sweep,
    run_variant,
)
from repro.learning.bottom_clause import BottomClauseConfig
from repro.obs import tracer
from repro.obs.report import load_spans, phase_table
from repro.progolem.progolem import ProGolemLearner, ProGolemParameters


@pytest.fixture(scope="module")
def tiny_bundle():
    return uwcse.load(
        uwcse.UwCseConfig(num_students=10, num_professors=3, num_courses=5), seed=5
    )


def progolem_spec() -> LearnerSpec:
    def factory(schema):
        return ProGolemLearner(
            schema,
            ProGolemParameters(
                sample_size=2,
                beam_width=2,
                max_armg_rounds=2,
                max_clauses=4,
                bottom_clause=BottomClauseConfig(max_depth=2, max_total_literals=20),
            ),
        )

    return LearnerSpec("ProGolem", factory)


BACKENDS = ["memory", "sqlite", "sqlite-pooled"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_one_run_yields_one_trace_tree(tiny_bundle, backend):
    variant = tiny_bundle.variant_names[0]
    with LearningSession(SessionConfig(backend=backend, trace=True)) as session:
        run_variant(tiny_bundle, variant, progolem_spec(), folds=2, session=session)
    records = tracer().records()

    roots = [r for r in records if r.name == "session.run"]
    assert len(roots) == 1, "exactly one root span per run_variant"
    root = roots[0]
    assert root.parent_id is None
    assert root.attrs["learner"] == "ProGolem"

    stray = [r.name for r in records if r.trace_id != root.trace_id]
    assert not stray, f"spans outside the run's trace: {stray}"
    assert any(r.name.startswith("learn.") for r in records)
    span_ids = {r.span_id for r in records}
    orphans = [
        r.name for r in records if r.parent_id is not None and r.parent_id not in span_ids
    ]
    assert not orphans, f"spans with a missing parent: {orphans}"


def test_a_sweep_is_one_tree_with_one_run_per_cell(tiny_bundle):
    variants = tiny_bundle.variant_names[:2]
    with LearningSession(SessionConfig(trace=True)) as session:
        run_schema_sweep(
            tiny_bundle, [progolem_spec()], variants=variants, folds=1,
            session=session,
        )
    records = tracer().records()
    roots = [r for r in records if r.parent_id is None]
    assert [r.name for r in roots] == ["session.sweep"]
    runs = [r for r in records if r.name == "session.run"]
    assert sorted(r.attrs["variant"] for r in runs) == sorted(variants)
    assert {r.parent_id for r in runs} == {roots[0].span_id}
    assert {r.trace_id for r in records} == {roots[0].trace_id}


def test_a_schema_independence_check_is_one_tree(tiny_bundle):
    with LearningSession(SessionConfig(trace=True)) as session:
        check_schema_independence(
            tiny_bundle, progolem_spec(), variants=tiny_bundle.variant_names[:2],
            session=session,
        )
    records = tracer().records()
    roots = [r for r in records if r.parent_id is None]
    assert [r.name for r in roots] == ["session.sweep"]
    assert any(r.name.startswith("learn.") for r in records)
    assert {r.trace_id for r in records} == {roots[0].trace_id}


@pytest.mark.parametrize("backend", BACKENDS)
def test_untraced_sessions_record_nothing(tiny_bundle, backend):
    variant = tiny_bundle.variant_names[0]
    with LearningSession(SessionConfig(backend=backend)) as session:
        run_variant(tiny_bundle, variant, progolem_spec(), folds=2, session=session)
    assert tracer().records() == []


def test_session_metrics_snapshot_the_local_registry(tiny_bundle):
    variant = tiny_bundle.variant_names[0]
    with LearningSession(SessionConfig()) as session:
        run_variant(tiny_bundle, variant, progolem_spec(), folds=2, session=session)
        metrics = session.metrics()
    assert set(metrics) == {"local"}
    local = metrics["local"]
    assert {"counters", "gauges", "histograms"} <= set(local)
    assert any(
        name.startswith("coverage.subsumption.tests") for name in local["counters"]
    ), local["counters"]


def test_trace_dump_from_a_run(tiny_bundle, tmp_path):
    variant = tiny_bundle.variant_names[0]
    with LearningSession(SessionConfig(trace=True)) as session:
        run_variant(tiny_bundle, variant, progolem_spec(), folds=2, session=session)
        json_path = session.trace_dump(str(tmp_path / "trace.json"))
        chrome_path = session.trace_dump(
            str(tmp_path / "trace_chrome.json"), chrome=True
        )
    spans = load_spans(json_path)
    assert spans, "dump holds the run's spans"
    assert any(row["name"] == "session.run" for row in phase_table(spans))
    with open(chrome_path) as handle:
        assert json.load(handle)["traceEvents"], "chrome dump holds events"
