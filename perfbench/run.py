"""End-to-end learning benchmark over the paper's UW-CSE workloads.

Run from the repository root::

    python3 perfbench/run.py --workload castor-uwcse --seed 1 --seconds 55 --trace 0

``--trace 0`` measures with the program untouched and prints the
end-to-end metrics.  ``--trace 1`` first runs one untraced repetition,
then installs the per-layer wrappers of ``layers.py`` and prints the
per-layer metrics.  Either way the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Layers, in report order; a metric's layer is its first dotted part.
LAYERS = ("datasets", "transform", "session", "castor", "foil", "learning",
          "logic", "database")

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("learn_s", "s"),
    ("eval_s", "s"),
    ("f1", "ratio"),
    ("schema_agreement", "ratio"),
    ("refresh_s.p50", "s"),
    ("refresh_s.p90", "s"),
    ("peak_rss_mb", "MB"),
]

#: Inclusive span times (outermost spans of each metric), in seconds.
SPAN_METRICS = [
    "datasets.generate_s",
    "transform.materialize_s",
    "transform.definition_results_s",
    "session.prepare_s",
    "session.update_s",
    "castor.learn_s",
    "castor.seed_s",
    "castor.generalize_s",
    "castor.reduce_s",
    "foil.learn_s",
    "foil.learn_clause_s",
    "learning.covering_s",
    "learning.saturate_s",
    "learning.prefetch.wait_s",
    "learning.score_s",
    "learning.apply_delta_s",
    "learning.coverage_s",
    "learning.evaluate_s",
    "logic.subsumption_s",
    "database.memory_s",
    "database.query_s",
    "database.sqlite_s",
    "database.delta.apply_s",
]

#: Call counts of spans (outermost only).
CALL_METRICS = {
    "castor.generalize.calls": "castor.generalize_s",
    "foil.learn_clause.calls": "foil.learn_clause_s",
    "learning.coverage.calls": "learning.coverage_s",
    "logic.subsumption.calls": "logic.subsumption_s",
    "database.query.calls": "database.query_s",
    "database.sqlite.calls": "database.sqlite_s",
}

#: (name, unit) of every per-layer metric, printed with ``--trace 1``.
PER_LAYER: List[Tuple[str, str]] = (
    [(name, "s") for name in SPAN_METRICS]
    + [(name, "count") for name in CALL_METRICS]
    + [
        ("learning.score.candidates", "count"),
        ("learning.coverage.cache_hit_ratio", "ratio"),
        ("learning.clauses", "count"),
        ("learning.empty_definitions", "count"),
        ("logic.subsumption.encodings", "count"),
        ("logic.subsumption.budget_exhausted", "count"),
        ("database.query.rows_examined", "count"),
        ("database.query.rows_per_call", "rows/call"),
        ("database.sqlite.compiled_statements", "count"),
        ("database.sqlite.snapshots", "count"),
        ("database.delta.rows", "count"),
        ("database.store.invalidated", "count"),
    ]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("unattributed_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: List[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[rank - 1]


def passes(runs) -> List[list]:
    """The runs grouped by corpus dataset: the passes that did each one."""
    groups: Dict[int, list] = {}
    for run in runs:
        groups.setdefault(run.data_seed, []).append(run)
    return list(groups.values())


def by_dataset(runs, parts) -> float:
    """Median over the corpus datasets of the sum of each part's fastest
    pass; ``parts`` splits one pass's time into parts."""
    return statistics.median(
        sum(min(times) for times in zip(*(parts(run) for run in group)))
        for group in passes(runs)
    )


def round_percentile(runs, p: int) -> float:
    """Nearest-rank percentile over the update rounds of the corpus, each
    round timed by its fastest pass."""
    return percentile(
        [
            min(times)
            for group in passes(runs)
            for times in zip(*(run.refresh_s for run in group))
        ],
        p,
    )


def agreement(runs) -> float:
    """Share of agreeing variant pairs over the run (Definition 3.10)."""
    pairs = sum(run.pairs for run in runs)
    return sum(run.pairs_agreeing for run in runs) / pairs if pairs else 0.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(runs) -> Dict[str, float]:
    """Timings keep the fastest pass of each part of a corpus dataset's
    work: the passes do the same work on the same inputs, and on a shared
    host noise only adds time.  F1 values are pooled over the run."""
    rounds = any(run.refresh_s for run in runs)
    f1 = [value for run in runs for value in run.f1]
    return {
        "setup_s": by_dataset(runs, lambda run: [run.setup_s]),
        "wall_s": by_dataset(runs, lambda run: run.parts()),
        "learn_s": by_dataset(runs, lambda run: run.learn_calls),
        "eval_s": by_dataset(runs, lambda run: run.eval_calls),
        "f1": statistics.fmean(f1) if f1 else 0.0,
        "schema_agreement": agreement(runs),
        "refresh_s.p50": round_percentile(runs, 50) if rounds else 0.0,
        "refresh_s.p90": round_percentile(runs, 90) if rounds else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_snapshot(tracer, run) -> Dict[str, float]:
    """Per-layer numbers of one traced dataset."""
    registry = tracer.registry_delta()
    values: Dict[str, float] = {name: tracer.inclusive.get(name, 0.0)
                                for name in SPAN_METRICS}
    for name, span in CALL_METRICS.items():
        values[name] = tracer.calls.get(span, 0)
    for name in ("learning.score.candidates", "logic.subsumption.encodings",
                 "database.query.rows_examined", "database.delta.rows",
                 "database.store.invalidated"):
        values[name] = tracer.counts.get(name, 0)
    hits = registry["subsumption_cache_hits"]
    tests = registry["subsumption_tests"]
    values["learning.coverage.cache_hit_ratio"] = hits / (hits + tests) if hits + tests else 0.0
    values["learning.clauses"] = run.clauses
    values["learning.empty_definitions"] = run.empty_definitions
    values["logic.subsumption.budget_exhausted"] = registry["budget_exhausted"]
    queries = values["database.query.calls"]
    values["database.query.rows_per_call"] = (
        values["database.query.rows_examined"] / queries if queries else 0.0
    )
    values["database.sqlite.compiled_statements"] = registry["compiled_statements"]
    values["database.sqlite.snapshots"] = registry["snapshots"]
    attributed = 0.0
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.self_time.get(layer, 0.0)
        attributed += values[f"{layer}.self_s"]
    values["unattributed_s"] = run.wall_s - attributed
    values["trace.wall_s"] = run.wall_s
    return values


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Work through the workload's corpus for about ``seconds``.

    ``seed`` orders the corpus and draws each dataset's update stream.
    Every dataset is done at least twice, in passes over the corpus; time
    left over goes to further passes.  Before the measured passes, the
    first dataset is learned once to warm the process up; its definitions
    are checked against the measured pass's, so the same inputs must give
    the same definitions.
    Traced, the first dataset is then done untraced once more (for the
    tracing overhead on identical inputs) before the wrappers go in.
    """
    from workloads import Operations, dataset_seeds

    ops = Operations()
    order = list(workload.corpus)
    random.Random(seed).shuffle(order)
    streams = dict(zip(order, dataset_seeds(seed)))
    first = order[0]
    runs = []
    snapshots: List[Dict[str, float]] = []
    tracer = None
    start = time.perf_counter()
    again = workload.dataset(ops, first, streams[first], learn_only=not trace)
    if trace:
        from layers import LayerTracer

        untraced = workload.dataset(ops, first, streams[first])
        report(untraced, "untraced")
        tracer = LayerTracer()
        tracer.install()
    while True:
        data_seed = order[len(runs) % len(order)]
        gc.collect()
        if tracer is not None:
            tracer.reset()
        run = workload.dataset(ops, data_seed, streams[data_seed], tracer)
        runs.append(run)
        report(run, "traced" if tracer else "")
        if tracer is not None:
            snapshots.append(layer_snapshot(tracer, run))
        elapsed = time.perf_counter() - start
        per_dataset = elapsed / (len(runs) + 1 + int(trace))
        if len(runs) >= 2 * len(order) and elapsed + per_dataset > seconds:
            break
    ops.check(
        again.definitions == runs[0].definitions,
        "learning twice on the same inputs gave different definitions",
    )
    if workload.learner == "foil":
        ops.check(
            agreement(runs) < 1,
            "FOIL returned the same result relation on every variant",
        )
    if trace:
        metrics = {
            name: statistics.fmean(snapshot[name] for snapshot in snapshots)
            for name, _ in PER_LAYER
            if name not in ("trace.untraced_wall_s", "trace.overhead_s")
        }
        metrics["trace.untraced_wall_s"] = untraced.wall_s
        metrics["trace.overhead_s"] = runs[0].wall_s - untraced.wall_s
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(runs)
        units = dict(END_TO_END)
    for message in ops.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def report(run, label: str) -> None:
    print(
        f"dataset {run.data_seed}{' ' + label if label else ''}: "
        f"setup {run.setup_s:.4f}s, wall {run.wall_s:.4f}s, "
        f"learn {run.learn_s:.4f}s, eval {run.eval_s:.4f}s, "
        f"f1 {statistics.fmean(run.f1) if run.f1 else 0.0:.4f}, "
        f"agreement {run.pairs_agreeing}/{run.pairs}, "
        f"clauses {run.clauses}, rounds {len(run.refresh_s)}",
        flush=True,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"benchmark: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    provenance = {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "trace": bool(args.trace),
        "seconds": args.seconds,
        **workload.describe(args.seed),
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True), flush=True)
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
