"""Regression gates over benchmark JSON artifacts, one subcommand per gate;
``pairs``, which measures a change against its parent; and ``diff``, which
sets two artifacts side by side.

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

``pairs`` runs the repository benchmark (``perfbench/run.py --trace 0``)
on two revisions of the git repository in the working directory::

    python benchmarks/compare.py pairs --parent HEAD~1 --change HEAD \
        --workload foil-uwcse --pairs 10

It extracts each revision with ``git archive`` into a temporary directory,
which it removes afterwards (also on Ctrl-C or SIGTERM), and runs the two
alternately, the parent first in odd pairs and the change first in even
ones, with seed ``i`` for both runs of pair ``i``.  Every run lasts the ``run_seconds`` of the
parent's ``BENCHMARK.json``.  For every end-to-end metric of that file it
prints both medians and quartiles, how many pairs the change won (by the
metric's ``better``; ties count for neither side), whether the medians
differ by more than the parent's interquartile range, and whether the
change's median stays within the metric's ``bound`` of the parent's.  It
exits 1 when any run is not correct.

``diff`` compares two ``BENCH_*.json`` artifacts of one benchmark::

    python benchmarks/compare.py diff OLD/BENCH_subsumption.json BENCH_subsumption.json

It prints one row for every number found at the same dotted path in both
files (lists and the ``provenance`` block left out) with A, B and B/A,
then both artifacts' ``git_sha``.  It refuses, with exit status 2, two
artifacts of different benchmarks, an artifact without ``provenance``, and
two artifacts measured on different CPU counts.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

#: Disabled spans timed to measure the cost of one.
DISABLED_SPAN_ITERATIONS = 200_000
#: Largest cost of one disabled span, in seconds.
MAX_DISABLED_SPAN_SECONDS = 20e-6
#: Largest share of the untraced run's timed work that disabled spans may cost.
MAX_OVERHEAD_RATIO = 0.02
#: The parity benchmark's bottom-clause and subsumption timings, summed
#: over its workloads.
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


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive count")
    return value


def _git(root: str, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout.strip()


def _checkout(root: str, sha: str, directory: str) -> None:
    """Extract the tree of commit ``sha`` into ``directory``."""
    os.makedirs(directory)
    tree = subprocess.run(
        ["git", "archive", "--format=tar", sha], cwd=root, check=True,
        capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", directory], input=tree, check=True)


def _bench(directory: str, workload: str, seed: int, seconds: float) -> Dict:
    """One ``--trace 0`` benchmark run in ``directory``: its result line,
    or a result marked not correct when the run produced none."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(
        command, cwd=directory, env=env, capture_output=True, text=True
    )
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "failed": None, "metrics": {}}
    if completed.returncode != 0:
        result["correct"] = False
    return result


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def _pair_rows(
    metrics: Sequence[Dict], runs: List[Tuple[Dict, Dict]]
) -> List[List[str]]:
    """One printed row per end-to-end metric both sides reported."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        values = [
            (parent["metrics"][name]["value"], change["metrics"][name]["value"])
            for parent, change in runs
            if name in parent["metrics"] and name in change["metrics"]
        ]
        if not values:
            continue
        sign = 1 if metric["better"] == "lower" else -1
        parent_q = _quartiles([p for p, _ in values])
        change_q = _quartiles([c for _, c in values])
        won = sum(1 for p, c in values if sign * (p - c) > 0)
        gap = abs(change_q[1] - parent_q[1]) > parent_q[2] - parent_q[0]
        bound = parent_q[1] * (1 + sign * metric["bound"])
        inside = sign * (bound - change_q[1]) >= 0
        rows.append([
            name, metric["unit"],
            f"{parent_q[1]:.4g} [{parent_q[0]:.4g}, {parent_q[2]:.4g}]",
            f"{change_q[1]:.4g} [{change_q[0]:.4g}, {change_q[2]:.4g}]",
            f"{won}/{len(values)}", "yes" if gap else "no",
            "yes" if inside else "no",
        ])
    return rows


def _print_table(rows: List[List[str]]) -> None:
    """``rows`` (the first one a header) in left-aligned columns."""
    widths = [max(len(row[column]) for row in rows) for column in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def _exit_on_sigterm(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def pairs(args: argparse.Namespace) -> None:
    # SIGTERM unwinds like Ctrl-C: subprocess.run kills the running
    # benchmark and TemporaryDirectory removes both checkouts.
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        _pairs(args)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _pairs(args: argparse.Namespace) -> None:
    try:
        root = _git(os.getcwd(), "rev-parse", "--show-toplevel")
        shas = {
            side: _git(root, "rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in (("parent", args.parent), ("change", args.change))
        }
    except subprocess.CalledProcessError as error:
        print(f"compare.py pairs: error: {error.stderr.strip()}", file=sys.stderr)
        raise SystemExit(2) from error
    runs: List[Tuple[Dict, Dict]] = []
    incorrect = 0
    with tempfile.TemporaryDirectory(prefix="compare-pairs-") as scratch:
        directories = {side: os.path.join(scratch, side) for side in shas}
        for side, sha in shas.items():
            _checkout(root, sha, directories[side])
        with open(os.path.join(directories["parent"], "BENCHMARK.json")) as handle:
            benchmark = json.load(handle)
        metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
        print(
            f"pairs: parent {shas['parent'][:12]} vs change {shas['change'][:12]}, "
            f"workload {args.workload}, {args.pairs} pairs, --seconds {seconds}"
        )
        for index in range(1, args.pairs + 1):
            order = ("parent", "change") if index % 2 else ("change", "parent")
            results = {}
            for side in order:
                result = results[side] = _bench(
                    directories[side], args.workload, index, seconds
                )
                correct = result["correct"] is True and result["failed"] == 0
                incorrect += not correct
                values = " ".join(
                    f"{name}={metric['value']:.4g}"
                    for name, metric in sorted(result["metrics"].items())
                )
                print(
                    f"pair {index} seed {index} {side}: "
                    f"{'correct' if correct else 'NOT CORRECT'} {values}",
                    flush=True,
                )
            runs.append((results["parent"], results["change"]))
    header = ["metric", "unit", "parent median [q1, q3]", "change median [q1, q3]",
              "won", "gap > IQR", "in bound"]
    _print_table([header, *_pair_rows(metrics, runs)])
    _check(not incorrect, f"{incorrect} of {2 * args.pairs} runs were not correct")


def _numbers(data: Dict, prefix: str = "") -> Dict[str, float]:
    """Every number in ``data`` by its dotted path; lists, booleans and the
    top-level ``provenance`` block are left out."""
    found: Dict[str, float] = {}
    for key, value in data.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            if path != "provenance":
                found.update(_numbers(value, f"{path}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            found[path] = value
    return found


def _refuse(message: str) -> NoReturn:
    print(f"compare.py diff: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def diff(args: argparse.Namespace) -> None:
    first, second = _load(args.first), _load(args.second)
    for path, artifact in ((args.first, first), (args.second, second)):
        if not isinstance(artifact.get("provenance"), dict):
            _refuse(f"{path} has no provenance")
    if first.get("benchmark") != second.get("benchmark"):
        _refuse(
            f"different benchmarks: {first.get('benchmark')!r} and "
            f"{second.get('benchmark')!r}"
        )
    cpus = [artifact["provenance"].get("cpu_count") for artifact in (first, second)]
    if cpus[0] != cpus[1]:
        _refuse(f"measured on {cpus[0]} and {cpus[1]} CPUs")
    numbers = _numbers(second)
    rows = [["field", "A", "B", "B/A"]]
    for path, old in _numbers(first).items():
        if path in numbers:
            new = numbers[path]
            ratio = f"{new / old:.4g}" if old else "-"
            rows.append([path, f"{old:.6g}", f"{new:.6g}", ratio])
    _print_table(rows)
    print(f"A git_sha: {first['provenance'].get('git_sha')}")
    print(f"B git_sha: {second['provenance'].get('git_sha')}")


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

    gate = gates.add_parser("pairs", help="alternating parent/change benchmark runs")
    gate.add_argument("--parent", required=True, help="parent revision")
    gate.add_argument("--change", required=True, help="changed revision")
    gate.add_argument("--workload", required=True, help="a BENCHMARK.json workload")
    gate.add_argument(
        "--pairs", type=_positive, required=True, help="parent/change pairs"
    )
    gate.set_defaults(run=pairs)

    gate = gates.add_parser("diff", help="two artifacts of one benchmark side by side")
    gate.add_argument("first", help="artifact A")
    gate.add_argument("second", help="artifact B")
    gate.set_defaults(run=diff)
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
