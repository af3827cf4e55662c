"""Regression gates over benchmark JSON artifacts, one subcommand per gate.

CI runs each gate after the benchmark that writes its input::

    PYTHONPATH=src python benchmarks/compare.py overhead \\
        --trace TRACE_parity.json --untraced BENCH_parity_untraced.json
    python benchmarks/compare.py subsumption \\
        --tracked BENCH_subsumption.json --current BENCH_subsumption_ci.json
    python benchmarks/compare.py incremental BENCH_incremental_updates.json

* ``overhead`` — a disabled tracing span costs under 20 µs per call, and
  that cost times the traced parity run's span count stays under 2% of the
  untraced run's timed work (``bench_backend_parity.py``);
* ``subsumption`` — the interned kernel agrees with the reference engine,
  and its speedup is at least 0.75x the tracked ``BENCH_subsumption.json``
  value (``bench_subsumption.py``);
* ``incremental`` — delta maintenance agrees with a cold rebuild and is at
  least 1.5x faster (``bench_incremental_updates.py``).

Each gate prints what it compared; the exit status is 0 when the gate
holds, 1 when it fails and 2 on bad usage.  Only ``overhead`` imports
``repro`` (it times the library's own disabled span).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, Optional, Sequence

#: Disabled spans timed to measure the cost of one.
DISABLED_SPAN_ITERATIONS = 200_000
#: Largest cost of one disabled span, in seconds.
MAX_DISABLED_SPAN_SECONDS = 20e-6
#: Largest share of the untraced run's timed work that disabled spans may cost.
MAX_OVERHEAD_RATIO = 0.02
#: The parity benchmark's timed-work sections, summed over its workloads.
TIMED_SECTIONS = (
    "query_sequential_seconds",
    "query_batched_seconds",
    "subsumption_seconds",
)
#: A tracked subsumption speedup may drop to this fraction of itself.
SUBSUMPTION_TOLERANCE = 0.75
#: Delta maintenance must beat a cold rebuild by at least this factor.
MIN_INCREMENTAL_SPEEDUP = 1.5


class GateFailure(Exception):
    """A gate did not hold; the message says why."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


def _load(path: str) -> Dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def overhead(args: argparse.Namespace) -> None:
    from repro.obs import span, tracer

    _check(not tracer().enabled, "tracing must start disabled")
    start = time.perf_counter()
    for _ in range(DISABLED_SPAN_ITERATIONS):
        with span("gate.noop"):
            pass
    per_call = (time.perf_counter() - start) / DISABLED_SPAN_ITERATIONS
    _check(tracer().records() == [], "disabled spans must record nothing")

    spans = _load(args.trace)["spans"]
    report = _load(args.untraced)
    timed = sum(
        sum(workload[section].values())
        for workload in report["workloads"]
        for section in TIMED_SECTIONS
    )
    _check(timed > 0, "the untraced run timed no work")
    disabled_cost = per_call * len(spans)
    ratio = disabled_cost / timed
    print(
        f"disabled span: {per_call * 1e6:.3f} us/call x {len(spans)} "
        f"spans = {disabled_cost * 1e3:.3f} ms over {timed:.2f}s "
        f"timed work ({ratio:.5%})"
    )
    _check(
        per_call < MAX_DISABLED_SPAN_SECONDS,
        f"disabled span too slow: {per_call * 1e6:.1f} us",
    )
    _check(
        ratio < MAX_OVERHEAD_RATIO,
        f"disabled-path overhead {ratio:.2%} >= {MAX_OVERHEAD_RATIO:.0%}",
    )


def subsumption(args: argparse.Namespace) -> None:
    tracked = _load(args.tracked)
    current = _load(args.current)
    _check(current["parity_ok"] is True, "kernel/reference verdicts diverged")
    floor = tracked["speedup"] * SUBSUMPTION_TOLERANCE
    print(
        f"subsumption speedup: {current['speedup']}x "
        f"(tracked {tracked['speedup']}x, regression floor {floor:.2f}x)"
    )
    _check(
        current["speedup"] >= floor,
        f"subsumption speedup {current['speedup']}x regressed more than "
        f"{1 - SUBSUMPTION_TOLERANCE:.0%} below the tracked {tracked['speedup']}x",
    )


def incremental(args: argparse.Namespace) -> None:
    report = _load(args.report)
    _check(report["parity_ok"] is True, "delta maintenance diverged from cold rebuild")
    speedup = report["speedup"]
    print(f"delta maintenance speedup: {speedup}x (floor {MIN_INCREMENTAL_SPEEDUP}x)")
    _check(
        bool(speedup) and speedup >= MIN_INCREMENTAL_SPEEDUP,
        f"delta maintenance speedup {speedup}x below the "
        f"{MIN_INCREMENTAL_SPEEDUP}x floor",
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    gates = parser.add_subparsers(dest="gate", required=True)

    gate = gates.add_parser("overhead", help="disabled tracing stays cheap")
    gate.add_argument("--trace", required=True, help="traced run's repro-trace JSON")
    gate.add_argument(
        "--untraced", required=True, help="untraced parity benchmark's --json summary"
    )
    gate.set_defaults(run=overhead)

    gate = gates.add_parser("subsumption", help="kernel speedup against the baseline")
    gate.add_argument("--tracked", required=True, help="tracked baseline JSON")
    gate.add_argument("--current", required=True, help="this run's JSON")
    gate.set_defaults(run=subsumption)

    gate = gates.add_parser("incremental", help="delta maintenance parity and speedup")
    gate.add_argument("report", help="bench_incremental_updates.py --json output")
    gate.set_defaults(run=incremental)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    run: Callable[[argparse.Namespace], None] = args.run
    try:
        run(args)
    except GateFailure as failure:
        print(f"FAIL ({args.gate}): {failure}")
        return 1
    print(f"PASS ({args.gate})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
