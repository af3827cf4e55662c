"""Delta-maintained saturation/coverage vs cold rebuild under an update stream.

Measures what the update API (``Delta`` + ``session.update`` +
``engine.apply_delta``) buys when the database changes *between* learning
runs — the streaming / continually-updated-EDB pattern:

* **delta-maintain** — one warm engine + saturation store survive the whole
  stream; each round replays the delta, drops exactly the saturations whose
  footprint the delta touches, rebuilds those lazily, and patches cached
  coverage bits in place;
* **cold-rebuild** — the old world: every round rebuilds the instance, the
  store, every saturation, and every coverage bit from scratch.

Each round mutates ~1% of the tuples (half fresh inserts joined onto
existing constants, half retractions of live rows) of a quick UW-CSE
instance, then evaluates a fixed candidate-clause set over every example.

Parity is the hard gate: after every round the warm store's contents and
the warm engine's coverage bitsets must be **identical** to the cold
rebuild's, or the exit status is non-zero.  So is a stream that never
invalidates an example (the parity would then compare untouched state).
Run standalone::

    PYTHONPATH=src python benchmarks/bench_incremental_updates.py
        [--quick] [--rounds N] [--churn FRACTION] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Dict, List, Optional, Sequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.database import Delta  # noqa: E402
from repro.database.sqlite_backend import SaturationStore  # noqa: E402
from repro.datasets import uwcse  # noqa: E402
from repro.learning.bottom_clause import (  # noqa: E402
    BottomClauseBuilder,
    BottomClauseConfig,
)
from repro.learning.coverage import SubsumptionCoverageEngine  # noqa: E402
from repro.obs import provenance, span as obs_span, tracer as obs_tracer  # noqa: E402


def load_workload(quick: bool):
    # Larger than the other quick benchmarks on purpose: targeted
    # invalidation only has structure to exploit when an example's
    # footprint is a small slice of the database — on a toy instance every
    # delta touches every footprint and both modes rebuild everything.
    config = (
        uwcse.UwCseConfig(num_students=120, num_professors=30, num_courses=40)
        if quick
        else uwcse.UwCseConfig(num_students=240, num_professors=60, num_courses=80)
    )
    bundle = uwcse.load(config, seed=5)
    instance = bundle.instance(bundle.variant_names[0]).with_backend("sqlite")
    examples = bundle.examples.all_examples()
    builder = BottomClauseBuilder(instance, ENGINE_CONFIG)
    clauses = [builder.build(e) for e in bundle.examples.positives[:6]]
    clauses = [c for c in clauses if c.body]
    if not clauses:
        raise RuntimeError("workload produced no usable candidate clauses")
    return bundle, instance, examples, clauses


#: The repo's standard quick saturation config (same as the test suite and
#: the session benchmarks): depth 2 with a literal cap keeps bodies — and
#: therefore footprints — local to the example instead of transitively
#: swallowing the whole (tiny, hub-dense) synthetic instance.
ENGINE_CONFIG = BottomClauseConfig(max_depth=2, max_total_literals=20)


def make_engine(instance, store: SaturationStore) -> SubsumptionCoverageEngine:
    return SubsumptionCoverageEngine(instance, ENGINE_CONFIG, saturation_store=store)


def coverage_bits(engine, clauses, examples) -> List[frozenset]:
    return [
        frozenset(engine.covered_examples(clause, examples)) for clause in clauses
    ]


#: The stream models *student* publication activity — new papers by
#: students show up, recently added papers get retracted.  Students are
#: the natural churn for the ``advisedBy`` target (the learned signal IS
#: student/advisor co-authorship).  Mutating professor rows instead
#: touches entities named by a dozen examples each, and mutating
#: categorical relations (inPhase, courseLevel) touches hub constants like
#: ``phase_pre_quals`` that occur in EVERY footprint — the conservative
#: invalidation would then (correctly, but uninterestingly) rebuild
#: everything each round.
STREAM_RELATION = "publication"
#: How many example footprints a streamed-over student may appear in.
#: Heavily co-published students sit inside their co-authors' depth-2
#: saturations, so churning them (truthfully) invalidates half the example
#: set and neither mode has structure to exploit.  The stream instead
#: follows the junior cohort — students whose publication record doesn't
#: yet reach into other people's footprints — which is exactly the regime
#: where delta maintenance is meant to win.
COHORT_MAX_FOOTPRINTS = 4


def select_cohort(instance, examples) -> List[str]:
    """Students whose footprint influence is small, worst-influence last.

    Influence is measured from a throwaway materialization: a student is
    *in* an example's footprint when they appear in its head tuple or its
    stored saturation body (``SaturationStore.contents()`` — the same data
    ``invalidate_touching`` consults), i.e. exactly when a delta naming
    them forces that example to rebuild.
    """
    probe = instance.with_backend("sqlite")
    store = SaturationStore()
    make_engine(probe, store).materialize(examples)
    membership: Dict[str, int] = {}
    for (_, head), body in store.contents().items():
        footprint = set(head)
        for _, row in body:
            footprint.update(row)
        for value in footprint:
            if isinstance(value, str):
                membership[value] = membership.get(value, 0) + 1
    students = sorted(str(row[0]) for row in instance.relation("student").rows)
    cohort = [
        s for s in students if membership.get(s, 0) <= COHORT_MAX_FOOTPRINTS
    ]
    if not cohort:
        raise RuntimeError("no low-influence students to stream over")
    return sorted(cohort, key=lambda s: (membership.get(s, 0), s))


def make_stream(
    instance, cohort: Sequence[str], rounds: int, churn: float, seed: int
) -> List[Delta]:
    """``rounds`` deltas, each touching ~``churn`` of the total tuples.

    Inserts mint a fresh solo-authored title for a cohort student;
    retractions take back titles minted in earlier rounds (a preprint
    being withdrawn).  The minted-row pool is threaded through so the
    deltas compose exactly like the real mutation sequence.
    """
    rng = random.Random(seed)
    total = instance.total_tuples()
    minted: List[tuple] = []
    deltas: List[Delta] = []
    for round_index in range(rounds):
        budget = max(2, int(total * churn))
        ops = []
        removals = min(budget // 2, len(minted))
        for _ in range(removals):
            row = minted.pop(rng.randrange(len(minted)))
            ops.append(("remove", STREAM_RELATION, (row,)))
        for i in range(budget - removals):
            row = (f"new_{round_index}_{i}", rng.choice(cohort))
            ops.append(("add", STREAM_RELATION, (row,)))
            minted.append(row)
        deltas.append(Delta(ops).coalesced())
    return deltas


def run_stream(instance, examples, clauses, deltas) -> Dict[str, object]:
    """Both modes over one stream, with per-round parity checks."""
    warm = instance.with_backend("sqlite")
    warm_store = SaturationStore()
    warm_engine = make_engine(warm, warm_store)
    # Warm-up is off the clock for BOTH modes: the stream measures steady
    # state, not the initial materialization everyone pays once.
    warm_engine.materialize(examples)
    coverage_bits(warm_engine, clauses, examples)

    maintain_seconds: List[float] = []
    cold_seconds: List[float] = []
    rows_changed: List[int] = []
    invalidated: List[int] = []
    parity_failures: List[str] = []

    for round_index, delta in enumerate(deltas):
        rows_changed.append(delta.row_count)

        start = time.perf_counter()
        warm.apply_delta(delta)
        stale = warm_engine.apply_delta(delta)
        warm_engine.materialize(examples)
        warm_bits = coverage_bits(warm_engine, clauses, examples)
        maintain_seconds.append(time.perf_counter() - start)
        invalidated.append(len(stale))

        start = time.perf_counter()
        cold = warm.with_backend("sqlite")
        cold_store = SaturationStore()
        cold_engine = make_engine(cold, cold_store)
        cold_engine.materialize(examples)
        cold_bits = coverage_bits(cold_engine, clauses, examples)
        cold_seconds.append(time.perf_counter() - start)

        if warm_store.contents() != cold_store.contents():
            parity_failures.append(
                f"round {round_index}: store contents diverged from cold rebuild"
            )
        if warm_bits != cold_bits:
            parity_failures.append(
                f"round {round_index}: coverage bitsets diverged from cold rebuild"
            )

    maintain_total, cold_total = sum(maintain_seconds), sum(cold_seconds)
    return {
        "maintain_seconds": [round(s, 4) for s in maintain_seconds],
        "cold_seconds": [round(s, 4) for s in cold_seconds],
        "maintain_total": round(maintain_total, 4),
        "cold_total": round(cold_total, 4),
        "speedup": round(cold_total / maintain_total, 3) if maintain_total else None,
        "rows_changed": rows_changed,
        "examples_invalidated": invalidated,
        "parity_failures": parity_failures,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small workload")
    parser.add_argument("--rounds", type=int, default=8, help="update rounds")
    parser.add_argument(
        "--churn", type=float, default=0.01,
        help="fraction of tuples changed per round (default 1%%)",
    )
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--json", metavar="PATH", default=None)
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        default=None,
        help="record spans over the update stream and write a repro-trace "
        "JSON dump to OUT.json",
    )
    parser.add_argument(
        "--trace-chrome",
        metavar="OUT.json",
        default=None,
        help="also/instead write the trace as Chrome trace_event JSON",
    )
    args = parser.parse_args(argv)
    if args.trace or args.trace_chrome:
        obs_tracer().enable(process="bench")

    bundle, instance, examples, clauses = load_workload(args.quick)
    total = instance.total_tuples()
    print(
        f"workload: UW-CSE[{bundle.variant_names[0]}], {total} tuples, "
        f"{len(examples)} examples, {len(clauses)} clauses, "
        f"{args.rounds} rounds x {args.churn:.1%} churn"
    )
    cohort = select_cohort(instance, examples)
    deltas = make_stream(instance, cohort, args.rounds, args.churn, args.seed)
    with obs_span(
        "bench.stream", benchmark="incremental_updates", rounds=args.rounds
    ):
        report = run_stream(instance, examples, clauses, deltas)
    print(
        f"delta-maintain: {report['maintain_total']:.2f}s total "
        f"{report['maintain_seconds']}"
    )
    print(
        f"cold-rebuild:   {report['cold_total']:.2f}s total "
        f"{report['cold_seconds']}"
    )
    print(
        f"rows changed per round: {report['rows_changed']}, "
        f"examples invalidated: {report['examples_invalidated']}"
    )
    print(f"delta-maintain speedup: {report['speedup']}x")

    failures: List[str] = list(report["parity_failures"])
    for failure in failures:
        print(f"PARITY FAILURE: {failure}", file=sys.stderr)
    vacuous = not any(report["examples_invalidated"])
    if vacuous:
        print(
            "VACUOUS: no round invalidated an example, so parity compared "
            "untouched state",
            file=sys.stderr,
        )

    summary: Dict[str, object] = {
        "benchmark": "incremental_updates",
        "workload": f"uwcse[{bundle.variant_names[0]}]",
        "total_tuples": total,
        "examples": len(examples),
        "clauses": len(clauses),
        "rounds": args.rounds,
        "churn": args.churn,
        **{k: v for k, v in report.items() if k != "parity_failures"},
        "parity_ok": not failures,
        "provenance": provenance(benchmark="incremental_updates"),
    }
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if args.trace:
        print(f"wrote trace to {obs_tracer().dump_json(args.trace)}")
    if args.trace_chrome:
        print(f"wrote Chrome trace to {obs_tracer().dump_chrome(args.trace_chrome)}")
    return 1 if failures or vacuous else 0


if __name__ == "__main__":
    raise SystemExit(main())
