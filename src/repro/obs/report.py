"""Render a per-phase time breakdown from a trace dump.

Usage::

    python -m repro.obs.report TRACE.json [--tree] [--process NAME]

The default view aggregates spans by name: call count, total/mean wall
time, and share of traced time (the sum of root spans).  ``--tree`` prints
the span forest instead, one line per span, children indented under their
parents.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.trace import SpanRecord


def load_spans(path: str) -> List[SpanRecord]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict) and data.get("format") == "repro-trace":
        raw = data.get("spans", [])
    elif isinstance(data, list):
        raw = data
    else:
        raise ValueError(
            f"{path}: not a repro-trace dump (expected format='repro-trace')"
        )
    return [SpanRecord.from_dict(entry) for entry in raw]


def phase_table(spans: Sequence[SpanRecord]) -> List[Dict[str, Any]]:
    """Aggregate spans by name, heaviest first."""
    by_name: Dict[str, Dict[str, Any]] = {}
    for record in spans:
        row = by_name.setdefault(
            record.name,
            {"name": record.name, "count": 0, "total": 0.0,
             "processes": set()},
        )
        row["count"] += 1
        row["total"] += record.duration
        row["processes"].add(record.process)
    roots_total = sum(r.duration for r in spans if r.parent_id is None)
    rows = sorted(by_name.values(), key=lambda row: -row["total"])
    for row in rows:
        row["mean"] = row["total"] / row["count"]
        row["share"] = (row["total"] / roots_total) if roots_total else None
        row["processes"] = ",".join(sorted(row["processes"]))
    return rows


def render_table(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [
        f"{'span':<36} {'count':>6} {'total ms':>10} {'mean ms':>9} "
        f"{'share':>6}  processes"
    ]
    for row in rows:
        share = f"{row['share'] * 100:5.1f}%" if row["share"] is not None else "     -"
        lines.append(
            f"{row['name']:<36} {row['count']:>6} "
            f"{row['total'] * 1000:>10.1f} {row['mean'] * 1000:>9.2f} "
            f"{share}  {row['processes']}"
        )
    return "\n".join(lines)


def render_tree(spans: Sequence[SpanRecord]) -> str:
    by_parent: Dict[Optional[str], List[SpanRecord]] = {}
    known = {record.span_id for record in spans}
    for record in spans:
        # A parent missing from the dump (a dropped record) must not hide
        # the subtree: treat it as a root.
        parent = record.parent_id if record.parent_id in known else None
        by_parent.setdefault(parent, []).append(record)
    for children in by_parent.values():
        children.sort(key=lambda record: record.start)

    lines: List[str] = []

    def walk(parent: Optional[str], depth: int) -> None:
        for record in by_parent.get(parent, []):
            indent = "  " * depth
            attrs = ""
            if record.attrs:
                rendered = ", ".join(
                    f"{k}={v}" for k, v in sorted(record.attrs.items())
                )
                attrs = f"  [{rendered}]"
            lines.append(
                f"{indent}{record.name:<{max(1, 40 - len(indent))}} "
                f"{record.duration * 1000:>9.1f} ms  "
                f"({record.process}){attrs}"
            )
            walk(record.span_id, depth + 1)

    walk(None, 0)
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dump", help="trace dump written by trace_dump()/--trace")
    parser.add_argument(
        "--tree", action="store_true", help="print the span forest instead"
    )
    parser.add_argument(
        "--process", default=None,
        help="only spans recorded in this process label",
    )
    args = parser.parse_args(argv)

    spans = load_spans(args.dump)
    if args.process:
        spans = [record for record in spans if record.process == args.process]
    if not spans:
        print("no spans in dump", file=sys.stderr)
        return 1

    trace_ids = {record.trace_id for record in spans}
    processes = {record.process for record in spans}
    print(
        f"{len(spans)} spans, {len(trace_ids)} trace(s), "
        f"processes: {', '.join(sorted(processes))}\n"
    )
    if args.tree:
        print(render_tree(spans))
    else:
        print(render_table(phase_table(spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
