"""Backend parity + speed benchmark across all registered backends.

Times the two coverage hot paths of the covering loop (Section 7.5) on the
UW-CSE and HIV workloads:

* **query coverage, sequential** — one ``covered_examples`` call per clause:
  one compiled join plan per clause, tested example by example, on
  ``memory``; one compiled SQL statement per clause on the SQLite backends;
* **query coverage, batched** — the whole candidate-clause generation in one
  ``BatchCoverageEngine`` call: SQLite backends share one candidate temp
  table per head signature across the batch, ``sqlite-pooled`` fans the
  clauses out over snapshot connections (``--parallelism``);
* **refinement coverage, sequential and batched** — the same two paths over
  FOIL's first two scoring generations (every refinement of the initial
  clause, then every refinement of the first one-literal clause that
  covers at least two examples), whose clauses cover several
  examples each; batched, ``memory`` plans each generation's shared body
  once and tests every refinement's last literal against its solutions;
* **subsumption coverage** — the Python θ-subsumption kernel (the engine on
  a ``memory`` copy) vs the compiled saturation-store path (the engine on a
  ``sqlite`` copy: one statement tests a clause against every example's
  saturation at once), whatever ``--backend`` selects.

The script asserts that every backend and every path covers **identical**
example sets for every candidate clause (parity).  On every workload some
bottom clause must cover some but not all of the examples, and some
refinement must cover at least two examples but not all, so the parity
compares sets that could differ.  Run it standalone::

    PYTHONPATH=src python benchmarks/bench_backend_parity.py [--quick]
        [--backend {memory,sqlite,sqlite-pooled,both,all}]
        [--repeats N] [--seed N] [--parallelism N] [--json PATH]

``--json`` writes a machine-readable summary (CI uploads it as the
per-commit benchmark artifact).  Exit status is non-zero on any parity
mismatch or vacuous workload, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.castor.bottom_clause import CastorBottomClauseBuilder, CastorBottomClauseConfig
from repro.database.instance import DatabaseInstance
from repro.datasets import hiv, uwcse
from repro.foil import RefinementOperator, initial_clause
from repro.learning.coverage import (
    BatchCoverageEngine,
    QueryCoverageEngine,
    SubsumptionCoverageEngine,
)
from repro.learning.examples import Example
from repro.logic.clauses import HornClause
from repro.obs import provenance, span as obs_span, tracer as obs_tracer

QUERY_BACKENDS = ("memory", "sqlite", "sqlite-pooled")


def materialize(base_instance: DatabaseInstance, backend: str) -> DatabaseInstance:
    """The workload instance on ``backend``."""
    if backend == base_instance.backend_name:
        return base_instance
    return base_instance.with_backend(backend)


def candidate_clauses(
    instance: DatabaseInstance, examples: Sequence[Example], count: int
) -> List[HornClause]:
    """Variablized Castor bottom clauses of the first ``count`` positives.

    These are exactly the clauses the covering loop would submit to coverage
    testing; their bodies are kept below the SQL join limit by the config.
    """
    builder = CastorBottomClauseBuilder(
        instance,
        config=CastorBottomClauseConfig(
            max_depth=2, max_distinct_variables=12, max_total_literals=25
        ),
    )
    clauses: List[HornClause] = []
    for example in examples[:count]:
        clause = builder.build(example)
        if clause.body:
            clauses.append(clause)
    return clauses


def refinement_clauses(
    bundle, instance: DatabaseInstance, examples: Sequence[Example]
) -> List[HornClause]:
    """FOIL's first two scoring generations on ``instance``.

    Every refinement of the initial clause ``T(x0, ...) :- true``, then
    every refinement of the first of them that covers at least two of
    ``examples``.  Each generation shares one body, the shape
    ``covered_tuples_batch`` groups on ``memory``.
    """
    seed = bundle.examples.positives[0]
    initial = initial_clause(seed.target, len(seed.values))
    operator = RefinementOperator(bundle.schema(bundle.variant_names[0]), instance)
    first = [
        initial.add_literal(literal)
        for literal in operator.candidate_literals_for_clause(initial)
    ]
    engine = QueryCoverageEngine(instance)
    parent = next(
        clause
        for clause in first
        if len(engine.covered_examples(clause, examples)) >= 2
    )
    return first + [
        parent.add_literal(literal)
        for literal in operator.candidate_literals_for_clause(parent)
    ]


def time_sequential(
    instance: DatabaseInstance,
    clauses: Sequence[HornClause],
    examples: Sequence[Example],
    repeats: int,
) -> Tuple[float, List[frozenset]]:
    """Best-of-``repeats`` wall time of one covered_examples call per clause."""
    covered: List[frozenset] = []
    best = float("inf")
    for _ in range(repeats):
        engine = QueryCoverageEngine(instance)
        start = time.perf_counter()
        covered = [
            frozenset(e.values for e in engine.covered_examples(clause, examples))
            for clause in clauses
        ]
        best = min(best, time.perf_counter() - start)
    return best, covered


def time_batched(
    instance: DatabaseInstance,
    clauses: Sequence[HornClause],
    examples: Sequence[Example],
    repeats: int,
    parallelism: int,
) -> Tuple[float, List[frozenset]]:
    """Best-of-``repeats`` wall time of the whole clause batch in one call."""
    covered: List[frozenset] = []
    best = float("inf")
    for _ in range(repeats):
        batch = BatchCoverageEngine(
            QueryCoverageEngine(instance, parallelism=parallelism)
        )
        start = time.perf_counter()
        covered = [
            frozenset(e.values for e in per_clause)
            for per_clause in batch.covered_examples_batch(clauses, examples)
        ]
        best = min(best, time.perf_counter() - start)
    return best, covered


def time_subsumption(
    instance: DatabaseInstance,
    clauses: Sequence[HornClause],
    examples: Sequence[Example],
    saturation_cache: Dict[Example, HornClause],
    saturation_store=None,
) -> Tuple[float, List[frozenset]]:
    """Wall time of subsumption coverage over all clauses (fresh engine).

    The instance's backend picks the procedure: the Python kernel on
    ``memory``, one compiled statement per clause on ``sqlite``.
    Saturations are shared between the compared engines (building them is
    identical work for both paths, and they are byte-identical across
    backends).  For the compiled path, passing a pre-materialized
    ``saturation_store`` measures the warm steady state a learning run
    reaches after its first generation; without it the timing includes
    one-off store materialization.
    """
    engine = SubsumptionCoverageEngine(instance, saturation_store=saturation_store)
    engine._saturation_cache = saturation_cache
    start = time.perf_counter()
    covered = [
        frozenset(e.values for e in engine.covered_examples(clause, examples))
        for clause in clauses
    ]
    return time.perf_counter() - start, covered


def time_query_coverage(
    title: str,
    instances: Dict[str, DatabaseInstance],
    clauses: Sequence[HornClause],
    examples: Sequence[Example],
    repeats: int,
    parallelism: int,
) -> Tuple[Dict[str, float], Dict[str, float], List[int], bool]:
    """Sequential and batched timings of ``clauses`` on every backend.

    Returns both timings per backend, the covered-set sizes on the first
    backend, and whether every backend and path covered the same sets.
    """
    sequential_seconds: Dict[str, float] = {}
    batched_seconds: Dict[str, float] = {}
    sequential: Dict[str, List[frozenset]] = {}
    batched: Dict[str, List[frozenset]] = {}
    print(f"  {title} (sequential, one call per clause):")
    for backend, instance in instances.items():
        seconds, sequential[backend] = time_sequential(
            instance, clauses, examples, repeats
        )
        sequential_seconds[backend] = seconds
        print(f"    {backend:>13}: {seconds * 1000:8.1f} ms")

    print(f"  {title} (batched, parallelism={parallelism}):")
    for backend, instance in instances.items():
        seconds, batched[backend] = time_batched(
            instance, clauses, examples, repeats, parallelism
        )
        batched_seconds[backend] = seconds
        print(f"    {backend:>13}: {seconds * 1000:8.1f} ms")

    reference_backend = next(iter(instances))
    reference = sequential[reference_backend]
    sizes = [len(covered) for covered in reference]
    histogram = dict(sorted(Counter(sizes).items()))
    print(
        f"  covered-set sizes ({reference_backend}, of {len(examples)} "
        f"examples; size: clauses): {histogram}"
    )
    parity = True
    for backend, results in list(sequential.items()) + list(batched.items()):
        for index, (expected, actual) in enumerate(zip(reference, results)):
            if expected != actual:
                parity = False
                print(
                    f"  PARITY MISMATCH [{backend} {title} clause {index}]: "
                    f"{sorted(expected ^ actual)} differ from {reference_backend}"
                )
    if parity:
        print(
            "  parity: identical covered sets across "
            f"{'/'.join(instances)} (sequential and batched)"
        )
    return sequential_seconds, batched_seconds, sizes, parity


def run_workload(
    name: str,
    bundle,
    backends: Sequence[str],
    repeats: int,
    parallelism: int,
    clause_count: int,
) -> Tuple[Dict[str, object], bool]:
    """Benchmark one dataset; returns the result record and a parity flag."""
    variant = bundle.variant_names[0]
    base_instance = bundle.instance(variant)
    examples = bundle.examples.all_examples()
    clauses = candidate_clauses(
        base_instance, bundle.examples.positives, count=clause_count
    )
    refinements = refinement_clauses(bundle, base_instance, examples)
    print(
        f"\n[{name}] variant={variant} tuples={base_instance.total_tuples()} "
        f"examples={len(examples)} clauses={len(clauses)} "
        "(mean body length "
        f"{sum(len(c.body) for c in clauses) / max(1, len(clauses)):.1f}) "
        f"refinements={len(refinements)}"
    )

    record: Dict[str, object] = {
        "workload": name,
        "variant": variant,
        "tuples": base_instance.total_tuples(),
        "examples": len(examples),
        "clauses": len(clauses),
        "refinements": len(refinements),
    }
    instances = {backend: materialize(base_instance, backend) for backend in backends}
    (
        record["query_sequential_seconds"],
        record["query_batched_seconds"],
        record["covered_set_sizes"],
        parity,
    ) = time_query_coverage(
        "query coverage", instances, clauses, examples, repeats, parallelism
    )
    (
        record["refinement_sequential_seconds"],
        record["refinement_batched_seconds"],
        record["refinement_covered_set_sizes"],
        refinement_parity,
    ) = time_query_coverage(
        "refinement coverage", instances, refinements, examples, repeats, parallelism
    )
    parity &= refinement_parity

    # Subsumption coverage: the Python kernel on memory vs the compiled
    # saturation store on sqlite, over one shared saturation cache.
    from repro.database.sqlite_backend import SaturationStore

    python_instance = instances.get("memory") or materialize(base_instance, "memory")
    compiled_instance = instances.get("sqlite") or materialize(base_instance, "sqlite")
    saturation_cache: Dict[Example, HornClause] = {}
    python_seconds, python_sets = time_subsumption(
        python_instance, clauses, examples, saturation_cache
    )
    shared_store = SaturationStore()
    compiled_cold_seconds, compiled_sets = time_subsumption(
        compiled_instance,
        clauses,
        examples,
        saturation_cache,
        saturation_store=shared_store,
    )
    compiled_warm_seconds, compiled_warm_sets = time_subsumption(
        compiled_instance,
        clauses,
        examples,
        saturation_cache,
        saturation_store=shared_store,
    )
    record["subsumption_seconds"] = {
        "python": python_seconds,
        "compiled_cold": compiled_cold_seconds,
        "compiled_warm": compiled_warm_seconds,
    }
    print(
        f"  subsumption coverage: python {python_seconds * 1000:8.1f} ms | "
        f"compiled cold {compiled_cold_seconds * 1000:8.1f} ms | "
        f"warm {compiled_warm_seconds * 1000:8.1f} ms"
    )
    if compiled_warm_sets != compiled_sets:
        parity = False
        print("  PARITY MISMATCH: warm and cold compiled subsumption disagree")
    for index, (expected, actual) in enumerate(zip(python_sets, compiled_sets)):
        if expected != actual:
            parity = False
            print(
                f"  PARITY MISMATCH [subsumption clause {index}]: "
                f"{sorted(expected ^ actual)} differ between python and compiled"
            )
    if python_sets == compiled_sets:
        print("  parity: python and compiled subsumption coverage agree")

    speedups: Dict[str, float] = {}
    seq = record["query_sequential_seconds"]
    bat = record["query_batched_seconds"]
    if "memory" in seq and "sqlite" in seq and seq["sqlite"] > 0:
        speedups["sqlite_vs_memory_sequential"] = seq["memory"] / seq["sqlite"]
    if "sqlite" in seq and "sqlite-pooled" in bat and bat["sqlite-pooled"] > 0:
        speedups["pooled_batched_vs_sqlite_sequential"] = (
            seq["sqlite"] / bat["sqlite-pooled"]
        )
    if "sqlite" in seq and "sqlite" in bat and bat["sqlite"] > 0:
        speedups["sqlite_batched_vs_sqlite_sequential"] = seq["sqlite"] / bat["sqlite"]
    if compiled_warm_seconds > 0:
        speedups["compiled_warm_vs_python_subsumption"] = (
            python_seconds / compiled_warm_seconds
        )
    refined_seq = record["refinement_sequential_seconds"]
    refined_bat = record["refinement_batched_seconds"]
    if "memory" in refined_bat and refined_bat["memory"] > 0:
        speedups["refinement_memory_batched_vs_memory_sequential"] = (
            refined_seq["memory"] / refined_bat["memory"]
        )
    record["speedups"] = speedups
    for label, value in speedups.items():
        print(f"  speedup {label}: {value:.2f}x")
    return record, parity


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        choices=["memory", "sqlite", "sqlite-pooled", "both", "all"],
        default="all",
        help="which storage/evaluation backend(s) to run (default: all)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="small datasets, one repeat (CI smoke)"
    )
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--parallelism",
        type=int,
        default=4,
        help="snapshot connections the batched query path fans clauses out "
        "over on sqlite-pooled (default: 4)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write a machine-readable result summary to PATH",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        default=None,
        help="record spans and write a repro-trace JSON dump to OUT.json "
        "(inspect with `python -m repro.obs.report OUT.json`)",
    )
    parser.add_argument(
        "--trace-chrome",
        metavar="OUT.json",
        default=None,
        help="also/instead write the trace as Chrome trace_event JSON "
        "(load in chrome://tracing or Perfetto)",
    )
    args = parser.parse_args(argv)
    if args.trace or args.trace_chrome:
        obs_tracer().enable(process="bench")

    if args.backend == "all":
        backends = list(QUERY_BACKENDS)
    elif args.backend == "both":
        backends = ["memory", "sqlite"]
    else:
        backends = [args.backend]
    repeats = args.repeats or (1 if args.quick else 3)

    if args.quick:
        uwcse_config = uwcse.UwCseConfig(num_students=15, num_professors=5, num_courses=8)
        hiv_config = hiv.HivConfig(num_compounds=20, min_atoms=3, max_atoms=4)
        clause_count = 8
    else:
        uwcse_config = uwcse.UwCseConfig(num_students=40, num_professors=12, num_courses=18)
        hiv_config = hiv.HivConfig(num_compounds=60, min_atoms=3, max_atoms=6)
        clause_count = 12

    records: List[Dict[str, object]] = []
    all_parity = True
    # One root span per workload: with --trace, every coverage span nests
    # under it.
    with obs_span("bench.workload", benchmark="backend_parity", workload="uwcse"):
        uwcse_record, parity = run_workload(
            "uwcse",
            uwcse.load(uwcse_config, seed=args.seed),
            backends,
            repeats,
            args.parallelism,
            clause_count,
        )
    records.append(uwcse_record)
    all_parity &= parity
    with obs_span("bench.workload", benchmark="backend_parity", workload="hiv"):
        hiv_record, parity = run_workload(
            "hiv",
            hiv.load(hiv_config, seed=args.seed),
            backends,
            repeats,
            args.parallelism,
            clause_count,
        )
    records.append(hiv_record)
    all_parity &= parity

    if args.json:
        summary = {
            "benchmark": "backend_parity",
            "config": {
                "backends": backends,
                "quick": bool(args.quick),
                "repeats": repeats,
                "seed": args.seed,
                "parallelism": args.parallelism,
            },
            "parity_ok": bool(all_parity),
            "workloads": records,
            "provenance": provenance(benchmark="backend_parity"),
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"\nwrote JSON summary to {args.json}")
    if args.trace:
        print(f"wrote trace to {obs_tracer().dump_json(args.trace)}")
    if args.trace_chrome:
        print(f"wrote Chrome trace to {obs_tracer().dump_chrome(args.trace_chrome)}")

    if not all_parity:
        print("\nFAIL: coverage paths disagree on covered examples")
        return 1
    vacuous = [
        record["workload"]
        for record in records
        if not any(0 < size < record["examples"] for size in record["covered_set_sizes"])
    ]
    if vacuous:
        print(
            "\nFAIL: no candidate clause covers some but not all examples on "
            f"{', '.join(vacuous)}; parity compared nothing that could differ"
        )
        return 1
    vacuous = [
        record["workload"]
        for record in records
        if not any(
            1 < size < record["examples"]
            for size in record["refinement_covered_set_sizes"]
        )
    ]
    if vacuous:
        print(
            "\nFAIL: no refinement covers several but not all examples on "
            f"{', '.join(vacuous)}; the refinement parity compared only "
            "singletons or full sets"
        )
        return 1
    label = "pooled_batched_vs_sqlite_sequential"
    target = uwcse_record["speedups"].get(label)
    if target is not None and target < 2.0:
        print(
            f"\nWARN: parity holds but {label} was only {target:.2f}x "
            "on UW-CSE (target: >= 2x; expect less on few cores)"
        )
    else:
        print("\nPASS: parity holds across all backends and coverage paths")
    return 0


if __name__ == "__main__":
    sys.exit(main())
