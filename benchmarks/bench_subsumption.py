"""θ-subsumption microbench: interned kernel vs the reference engine.

Times the two decision procedures in ``repro.logic.subsumption`` — the
interned, explicit-stack :class:`~repro.logic.subsumption.SubsumptionEngine`
and the original recursive
:class:`~repro.logic.subsumption.ReferenceSubsumptionEngine` — on the
library's actual hot-path workload: LGG candidate clauses tested against
recorded UW-CSE saturations (the same clause-vs-ground-bottom-clause shape
the coverage engine runs millions of times per learn).

The kernel's indexes share one
:class:`~repro.logic.subsumption.InternTable` per sweep, as a coverage
engine's saturation indexes do; the reference engine keeps its own indexes.

Parity is the hard gate: both engines must return the same verdict on every
(candidate, saturation) pair, and some but not all verdicts must be
positive, or the exit status is non-zero.  The speed gate requires the
kernel to beat the reference by ``--min-speedup`` (default 3x).  Run
standalone::

    PYTHONPATH=src python benchmarks/bench_subsumption.py [--quick] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.datasets import uwcse  # noqa: E402
from repro.learning.bottom_clause import (  # noqa: E402
    BottomClauseBuilder,
    BottomClauseConfig,
)
from repro.logic.lgg import lgg_clauses  # noqa: E402
from repro.logic.subsumption import (  # noqa: E402
    GroundClauseIndex,
    InternTable,
    ReferenceSubsumptionEngine,
    SubsumptionEngine,
    budget_exhausted_count,
)
from repro.obs import provenance  # noqa: E402

#: Generous budget: keep both engines inside exact territory so verdicts are
#: uniquely determined (exhaustion still counts identically for both).
BUDGET = 2_000_000


def load_workload(quick: bool):
    """LGG candidates × recorded saturations from a seeded UW-CSE instance."""
    config = (
        uwcse.UwCseConfig(num_students=14, num_professors=6, num_courses=9)
        if quick
        else uwcse.UwCseConfig(num_students=25, num_professors=8, num_courses=12)
    )
    bundle = uwcse.load(config, seed=3)
    instance = bundle.instance(bundle.variant_names[0])
    builder = BottomClauseBuilder(
        instance, BottomClauseConfig(max_depth=2, max_total_literals=18)
    )
    # The default sweep takes every example and 66 candidates (2,178 pairs,
    # about 0.2 s of kernel time), so the speedup's run-to-run spread fits
    # inside the CI gate's 25%; --quick stays small for pytest.
    example_cap = 10 if quick else None
    saturations = [
        clause
        for clause in (
            builder.build_ground(e)
            for e in bundle.examples.all_examples()[:example_cap]
        )
        if clause.body
    ]
    candidate_pool = 5 if quick else 12
    candidates = []
    for i in range(min(candidate_pool, len(saturations))):
        for j in range(i + 1, min(candidate_pool, len(saturations))):
            generalized = lgg_clauses(saturations[i], saturations[j])
            if generalized is not None and generalized.body:
                candidates.append(generalized)
    if not saturations or not candidates:
        raise RuntimeError("workload produced no usable clause pairs")
    return bundle, saturations, candidates


def run_engine(
    engine, candidates, saturations, indexes
) -> Tuple[float, List[bool]]:
    """Time one full candidate×saturation probe sweep against warm indexes.

    Indexes are prebuilt (and fresh per sweep) to mirror the coverage
    engine's cost profile: it builds ONE
    :class:`~repro.logic.subsumption.GroundClauseIndex` per example, over
    the engine's one intern table, caches it, and then probes it once per
    candidate clause for the rest of the learn — the probe loop is the hot
    path, index construction is amortized across thousands of probes.
    One-time costs that the sweep itself triggers stay on the clock: the
    kernel encodes each candidate once against the shared table, on its
    first probe, and the reference engine builds its Term-level
    predicate/position maps once per index.
    """
    start = time.perf_counter()
    verdicts: List[bool] = []
    for candidate in candidates:
        for saturation, index in zip(saturations, indexes):
            verdicts.append(engine.subsumes(candidate, saturation, index))
    return time.perf_counter() - start, verdicts


def run_bench(quick: bool, repeats: int = 3) -> Dict[str, object]:
    bundle, saturations, candidates = load_workload(quick)
    kernel = SubsumptionEngine(max_backtracks=BUDGET)
    reference = ReferenceSubsumptionEngine(max_backtracks=BUDGET)

    exhausted_before = budget_exhausted_count()
    kernel_seconds: List[float] = []
    reference_seconds: List[float] = []
    index_seconds: List[float] = []
    kernel_verdicts: List[bool] = []
    reference_verdicts: List[bool] = []
    for _ in range(max(1, repeats)):
        # Fresh indexes each sweep: no engine sees the other's warm caches.
        start = time.perf_counter()
        table = InternTable()
        indexes = [GroundClauseIndex(s, table) for s in saturations]
        index_seconds.append(time.perf_counter() - start)
        elapsed, kernel_verdicts = run_engine(
            kernel, candidates, saturations, indexes
        )
        kernel_seconds.append(elapsed)
        indexes = [GroundClauseIndex(s) for s in saturations]
        elapsed, reference_verdicts = run_engine(
            reference, candidates, saturations, indexes
        )
        reference_seconds.append(elapsed)

    kernel_best = min(kernel_seconds)
    reference_best = min(reference_seconds)
    pairs = len(candidates) * len(saturations)
    return {
        "workload": f"uwcse[{bundle.variant_names[0]}]",
        "candidates": len(candidates),
        "saturations": len(saturations),
        "pairs": pairs,
        "positive_verdicts": sum(kernel_verdicts),
        "kernel_seconds": round(kernel_best, 4),
        "reference_seconds": round(reference_best, 4),
        "index_build_seconds": round(min(index_seconds), 4),
        "speedup": round(reference_best / kernel_best, 2) if kernel_best else None,
        "kernel_pairs_per_second": round(pairs / kernel_best, 1)
        if kernel_best
        else None,
        "budget_exhaustions": budget_exhausted_count() - exhausted_before,
        "parity_ok": kernel_verdicts == reference_verdicts,
    }


# --------------------------------------------------------------------- #
# pytest entry point
# --------------------------------------------------------------------- #
def test_subsumption_kernel_speedup(benchmark):
    from .conftest import run_once

    report = run_once(benchmark, run_bench, quick=True, repeats=2)
    print(
        f"\nsubsumption kernel: {report['speedup']}x over reference "
        f"({report['kernel_seconds']}s vs {report['reference_seconds']}s, "
        f"{report['pairs']} pairs)"
    )
    assert report["parity_ok"], "kernel and reference verdicts diverged"
    assert 0 < report["positive_verdicts"] < report["pairs"]
    # Looser than the CLI gate: a loaded CI worker must not flake the unit
    # run; the perf job's CLI invocation enforces the real 3x floor.
    assert report["speedup"] >= 1.5


# --------------------------------------------------------------------- #
# CLI entry point
# --------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small workload")
    parser.add_argument("--repeats", type=int, default=3, help="best-of timing runs")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="fail unless kernel beats reference by this factor (default 3x)",
    )
    parser.add_argument("--json", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    report = run_bench(args.quick, repeats=args.repeats)
    print(
        f"workload: {report['workload']}, {report['candidates']} candidates x "
        f"{report['saturations']} saturations = {report['pairs']} pairs "
        f"({report['positive_verdicts']} positive)"
    )
    print(
        f"kernel:    {report['kernel_seconds']:.3f}s "
        f"({report['kernel_pairs_per_second']:.0f} pairs/s)"
    )
    print(f"reference: {report['reference_seconds']:.3f}s")
    print(f"speedup:   {report['speedup']}x (floor {args.min_speedup}x)")

    failures: List[str] = []
    if not report["parity_ok"]:
        failures.append("kernel and reference verdicts diverged")
    if not 0 < report["positive_verdicts"] < report["pairs"]:
        failures.append(
            f"{report['positive_verdicts']} of {report['pairs']} verdicts are "
            "positive: parity needs both verdicts to mean anything"
        )
    if report["speedup"] is not None and report["speedup"] < args.min_speedup:
        failures.append(
            f"speedup {report['speedup']}x below the {args.min_speedup}x floor"
        )
    for failure in failures:
        print(f"GATE FAILURE: {failure}", file=sys.stderr)

    summary: Dict[str, object] = {
        "benchmark": "subsumption",
        "min_speedup": args.min_speedup,
        **report,
        "gates_ok": not failures,
        "provenance": provenance(benchmark="subsumption"),
    }
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
