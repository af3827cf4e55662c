"""The CI regression gates of ``benchmarks/compare.py``: each subcommand
passes on an artifact that meets its threshold and fails on one that
misses it."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

COMPARE = Path(__file__).resolve().parents[2] / "benchmarks" / "compare.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("benchmark_compare", COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def parity_report(seconds: float) -> dict:
    """An untraced parity summary whose timed work adds up to ``seconds``."""
    third = seconds / 3
    return {
        "workloads": [
            {
                "query_sequential_seconds": {"memory": third},
                "query_batched_seconds": {"sqlite": third},
                "subsumption_seconds": {"python": third},
            }
        ]
    }


@pytest.mark.parametrize(
    "spans,timed,max_per_call,status,verdict",
    [
        (10, 5.0, None, 0, "PASS"),
        (1000, 1e-9, None, 1, "disabled-path overhead"),
        (10, 0.0, None, 1, "timed no work"),
        (10, 5.0, 0.0, 1, "disabled span too slow"),
    ],
    ids=["cheap", "costly", "no-timed-work", "slow-span"],
)
def test_overhead_gate(
    compare, tmp_path, capsys, monkeypatch, spans, timed, max_per_call, status, verdict
):
    """Each way the gate can fail is reached by its own fixture; the
    per-call ceiling is lowered to zero so that any span is too slow."""
    if max_per_call is not None:
        monkeypatch.setattr(compare, "MAX_DISABLED_SPAN_SECONDS", max_per_call)
    trace = write(tmp_path, "trace.json", {"spans": [{}] * spans})
    untraced = write(tmp_path, "untraced.json", parity_report(timed))
    argv = ["overhead", "--trace", trace, "--untraced", untraced]
    assert compare.main(argv) == status
    assert verdict in capsys.readouterr().out


@pytest.mark.parametrize(
    "current,status",
    [
        ({"parity_ok": True, "speedup": 4.1}, 0),
        ({"parity_ok": True, "speedup": 4.0}, 1),
        ({"parity_ok": False, "speedup": 5.4}, 1),
    ],
    ids=["within-tolerance", "regressed", "diverged"],
)
def test_subsumption_gate(compare, tmp_path, current, status):
    tracked = write(tmp_path, "tracked.json", {"parity_ok": True, "speedup": 5.4})
    argv = ["subsumption", "--tracked", tracked, "--current"]
    assert compare.main([*argv, write(tmp_path, "current.json", current)]) == status


@pytest.mark.parametrize(
    "report,status",
    [
        ({"parity_ok": True, "speedup": 1.5}, 0),
        ({"parity_ok": True, "speedup": 1.49}, 1),
        ({"parity_ok": False, "speedup": 7.0}, 1),
    ],
    ids=["at-floor", "below-floor", "diverged"],
)
def test_incremental_gate(compare, tmp_path, report, status):
    assert compare.main(["incremental", write(tmp_path, "r.json", report)]) == status


def test_unknown_gate_is_a_usage_error(compare):
    with pytest.raises(SystemExit) as exit_info:
        compare.main(["latency"])
    assert exit_info.value.code == 2
