"""Tracer semantics: nesting, the disabled fast path, and dumps."""

from __future__ import annotations

import json

from repro.obs import provenance, span, tracer
from repro.obs.report import load_spans, phase_table, render_tree
from repro.obs.trace import _NULL_SPAN, Tracer


def test_disabled_tracer_returns_the_shared_null_span():
    assert not tracer().enabled
    assert tracer().span("anything") is _NULL_SPAN
    # The null span is inert and reusable.
    with span("learn.cover", n=1) as inert:
        inert.set(covered=3)
    assert tracer().records() == []


def test_spans_nest_through_context():
    local = Tracer(process="test")
    local.enable()
    with local.span("outer") as outer:
        with local.span("inner"):
            pass
    records = {record.name: record for record in local.records()}
    assert set(records) == {"outer", "inner"}
    assert records["outer"].parent_id is None
    assert records["inner"].parent_id == records["outer"].span_id
    assert records["inner"].trace_id == records["outer"].trace_id
    assert records["inner"].process == "test"
    assert outer.trace_id == records["outer"].trace_id


def test_sibling_roots_get_distinct_trace_ids():
    local = Tracer()
    local.enable()
    with local.span("first"):
        pass
    with local.span("second"):
        pass
    first, second = local.records()
    assert first.trace_id != second.trace_id


def test_span_attrs_and_exception_marking():
    local = Tracer()
    local.enable()
    try:
        with local.span("work", items=3) as active:
            active.set(result="partial")
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    (record,) = local.records()
    assert record.attrs["items"] == 3
    assert record.attrs["result"] == "partial"
    assert record.attrs["error"] == "RuntimeError"
    assert record.duration >= 0


def test_dump_json_and_report_round_trip(tmp_path):
    local = Tracer(process="bench")
    local.enable()
    with local.span("phase.outer"):
        with local.span("phase.inner"):
            pass
    path = str(tmp_path / "trace.json")
    local.dump_json(path)
    data = json.loads(open(path).read())
    assert data["format"] == "repro-trace" and data["version"] == 1
    spans = load_spans(path)
    assert {record.name for record in spans} == {"phase.outer", "phase.inner"}
    rows = phase_table(spans)
    assert rows[0]["count"] == 1 and rows[0]["processes"] == "bench"
    tree = render_tree(spans)
    assert "phase.outer" in tree.splitlines()[0]
    assert tree.splitlines()[1].startswith("  phase.inner")


def test_chrome_dump_shape(tmp_path):
    local = Tracer(process="bench")
    local.enable()
    with local.span("work"):
        pass
    path = str(tmp_path / "chrome.json")
    local.dump_chrome(path)
    data = json.loads(open(path).read())
    names = [event["name"] for event in data["traceEvents"]]
    assert "process_name" in names and "work" in names
    complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
    assert complete and all("ts" in e and "dur" in e for e in complete)


def test_provenance_block_has_the_shared_fields():
    block = provenance(benchmark="x", parallelism=2)
    for key in ("python", "implementation", "platform", "machine", "pid"):
        assert key in block
    assert block["benchmark"] == "x" and block["parallelism"] == 2
