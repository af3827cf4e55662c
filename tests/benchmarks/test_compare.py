"""The CI regression gates of ``benchmarks/compare.py``: each subcommand
passes on an artifact that meets its threshold and fails on one that
misses it.  ``pairs`` runs against a temporary git repository whose
commits hold fake benchmarks; ``diff`` against artifacts written to a
temporary directory."""

from __future__ import annotations

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
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


#: A stand-in for ``perfbench/run.py``: it logs its label, seed, run
#: length and directory, then prints a result line.  ``learn_s`` falls as ``SPEED``
#: rises; ``f1`` is the same on every run.
FAKE_BENCHMARK = """
import json, os, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
seconds = sys.argv[sys.argv.index("--seconds") + 1]
with open(LOG, "a") as log:
    log.write(" ".join([LABEL, str(seed), seconds, os.getcwd()]) + "\\n")
metrics = {
    "learn_s": {"value": 1.0 / SPEED + seed / 1000, "unit": "s"},
    "f1": {"value": 1.0, "unit": "ratio"},
}
print("dataset 1: learned")
print(json.dumps({"correct": CORRECT, "attempted": 3, "failed": 0, "metrics": metrics}))
"""

BENCHMARK = {
    "run_seconds": 7,
    "end_to_end": [
        {"name": "learn_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "f1", "unit": "ratio", "better": "higher", "bound": 0.25},
        {"name": "eval_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
}


def _commit(repo: Path, log: Path, label: str, speed: float, correct: bool) -> None:
    script = FAKE_BENCHMARK
    for name, value in (("LOG", str(log)), ("LABEL", label), ("SPEED", speed),
                        ("CORRECT", correct)):
        script = script.replace(name, repr(value))
    (repo / "perfbench" / "run.py").write_text(script)
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org"]
    subprocess.run([*git, "add", "-A"], cwd=repo, check=True)
    subprocess.run([*git, "commit", "-q", "-m", label], cwd=repo, check=True)
    subprocess.run(["git", "tag", label], cwd=repo, check=True)


@pytest.fixture
def bench_repo(tmp_path, monkeypatch):
    """A git repository with commits ``parent`` and ``change`` (twice as
    fast) and ``broken`` (its runs are not correct); the working directory
    is inside it."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    log = tmp_path / "runs.log"
    _commit(repo, log, "parent", 1.0, True)
    _commit(repo, log, "change", 2.0, True)
    _commit(repo, log, "broken", 2.0, False)
    monkeypatch.chdir(repo / "perfbench")
    return log


def _logged(log: Path):
    return [line.split(" ", 3) for line in log.read_text().splitlines()]


def test_pairs_alternate_with_one_seed_per_pair(compare, bench_repo, capsys):
    argv = ["pairs", "--parent", "parent", "--change", "change",
            "--workload", "w", "--pairs", "3"]
    assert compare.main(argv) == 0
    runs = _logged(bench_repo)
    assert [(label, seed) for label, seed, _, _ in runs] == [
        ("parent", "1"), ("change", "1"),
        ("change", "2"), ("parent", "2"),
        ("parent", "3"), ("change", "3"),
    ]
    # Every run lasted the BENCHMARK.json run length.
    assert {seconds for _, _, seconds, _ in runs} == {"7"}
    # Each revision ran from its own checkout, removed afterwards.
    directories = {label: directory for label, _, _, directory in runs}
    assert len(set(directories.values())) == 2
    assert not any(Path(directory).exists() for directory in directories.values())
    out = capsys.readouterr().out
    rows = {line.split()[0]: line.split() for line in out.splitlines() if line}
    assert rows["learn_s"][-3:] == ["3/3", "yes", "yes"]
    assert rows["f1"][-3:] == ["0/3", "no", "yes"]
    assert "eval_s" not in rows
    assert "PASS (pairs)" in out


def test_pairs_report_a_regression_outside_the_bound(compare, bench_repo, capsys):
    argv = ["pairs", "--parent", "change", "--change", "parent",
            "--workload", "w", "--pairs", "2"]
    assert compare.main(argv) == 0
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
    assert rows["learn_s"][-3:] == ["0/2", "yes", "no"]


def test_pairs_fail_when_a_run_is_not_correct(compare, bench_repo, capsys):
    argv = ["pairs", "--parent", "parent", "--change", "broken",
            "--workload", "w", "--pairs", "1"]
    assert compare.main(argv) == 1
    out = capsys.readouterr().out
    assert "NOT CORRECT" in out
    assert "FAIL (pairs): 1 of 2 runs were not correct" in out


def test_pairs_reject_an_unknown_revision(compare, bench_repo):
    argv = ["pairs", "--parent", "nowhere", "--change", "change",
            "--workload", "w", "--pairs", "1"]
    with pytest.raises(SystemExit) as exit_info:
        compare.main(argv)
    assert exit_info.value.code == 2


def test_pairs_give_back_the_sigterm_handler(compare, bench_repo):
    """``pairs`` owns SIGTERM only while it runs, also when it fails."""
    before = signal.getsignal(signal.SIGTERM)
    argv = ["pairs", "--parent", "parent", "--change", "change",
            "--workload", "w", "--pairs", "1"]
    assert compare.main(argv) == 0
    assert signal.getsignal(signal.SIGTERM) is before
    with pytest.raises(SystemExit):
        compare.main([*argv[:2], "nowhere", *argv[3:]])
    assert signal.getsignal(signal.SIGTERM) is before


#: A stand-in for ``perfbench/run.py`` that creates its log file and then
#: sleeps until it is killed.
SLEEPING_BENCHMARK = """
import time
open(LOG, "w").close()
time.sleep(120)
"""


def test_pairs_remove_their_checkouts_on_sigterm(bench_repo, tmp_path):
    repo = bench_repo.parent / "repo"
    (repo / "perfbench" / "run.py").write_text(
        SLEEPING_BENCHMARK.replace("LOG", repr(str(bench_repo)))
    )
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org"]
    subprocess.run([*git, "commit", "-q", "-am", "sleeping"], cwd=repo, check=True)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    process = subprocess.Popen(
        [sys.executable, str(COMPARE), "pairs", "--parent", "HEAD",
         "--change", "HEAD", "--workload", "w", "--pairs", "1"],
        cwd=repo, env={**os.environ, "TMPDIR": str(scratch)},
        stdout=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while not bench_repo.exists():
            assert process.poll() is None, "pairs exited before its first run"
            assert time.monotonic() < deadline, "the first run never started"
            time.sleep(0.05)
        assert list(scratch.glob("compare-pairs-*"))
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert not list(scratch.glob("compare-pairs-*"))


def artifact(benchmark="subsumption", cpu_count=2, git_sha="a" * 40, speedup=5.0):
    """A ``BENCH_*.json``-shaped artifact."""
    return {
        "benchmark": benchmark,
        "speedup": speedup,
        "parity_ok": True,
        "pairs": 100,
        "candidates": [1, 2, 3],
        "workload": {"dataset": "uwcse", "seconds": {"kernel": 0.5}},
        "provenance": {"git_sha": git_sha, "cpu_count": cpu_count, "pid": 7},
    }


def test_diff_sets_every_shared_number_side_by_side(compare, tmp_path, capsys):
    first = write(tmp_path, "a.json", artifact())
    later = artifact(git_sha="b" * 40, speedup=6.0)
    del later["pairs"]
    second = write(tmp_path, "b.json", later)
    assert compare.main(["diff", first, second]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in lines if line}
    assert rows["speedup"] == ["5", "6", "1.2"]
    assert rows["workload.seconds.kernel"] == ["0.5", "0.5", "1"]
    # Only in A, a list, a boolean, a string, the provenance block: no row.
    for left_out in ("pairs", "candidates", "parity_ok", "workload.dataset",
                     "provenance.cpu_count", "provenance.pid"):
        assert left_out not in rows
    assert f"A git_sha: {'a' * 40}" in lines
    assert f"B git_sha: {'b' * 40}" in lines


@pytest.mark.parametrize(
    "second,message",
    [
        (artifact(benchmark="incremental_updates"), "different benchmarks"),
        (artifact(cpu_count=8), "measured on 2 and 8 CPUs"),
        ({k: v for k, v in artifact().items() if k != "provenance"}, "no provenance"),
    ],
    ids=["other-benchmark", "other-cpu-count", "no-provenance"],
)
def test_diff_refuses_artifacts_it_cannot_compare(
    compare, tmp_path, capsys, second, message
):
    argv = ["diff", write(tmp_path, "a.json", artifact()),
            write(tmp_path, "b.json", second)]
    with pytest.raises(SystemExit) as exit_info:
        compare.main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
