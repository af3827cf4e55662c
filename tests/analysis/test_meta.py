"""The analyzer gate on this repository itself, the CLI, and the ratchet."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import default_rules, run_analysis
from repro.analysis.__main__ import main as cli_main
from repro.analysis.ratchet import (
    compare,
    load_baseline,
    module_for_path,
    parse_report,
    main as ratchet_main,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: At most this many justified inline suppressions repo-wide.
MAX_SUPPRESSIONS = 2


# --------------------------------------------------------------------- #
# Meta: the full battery over the real tree
# --------------------------------------------------------------------- #


def test_repository_is_clean_under_full_battery():
    paths = [
        str(REPO_ROOT / "src" / "repro"),
        str(REPO_ROOT / "tests"),
        str(REPO_ROOT / "benchmarks"),
    ]
    result = run_analysis(paths, default_rules())
    assert result.unsuppressed == [], "\n" + "\n".join(
        f.render() for f in result.unsuppressed
    )
    assert len(result.suppressed) <= MAX_SUPPRESSIONS
    for finding in result.suppressed:
        assert finding.reason, f"suppression without reason: {finding.render()}"


def test_battery_covers_all_five_rules():
    assert [r.rule_id for r in default_rules()] == [
        "REP001",
        "REP002",
        "REP003",
        "REP004",
        "REP006",
    ]


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


def test_cli_exit_zero_and_json_report_on_clean_tree(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n")
    report = tmp_path / "report.json"
    code = cli_main(
        [str(target), "--format", "json", "--output", str(report)]
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["version"] == 1
    assert payload["summary"]["unsuppressed"] == 0
    assert json.loads(capsys.readouterr().out)["version"] == 1


def test_cli_exit_one_on_findings(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("import pickle\n")
    assert cli_main([str(target)]) == 1
    assert "REP001" in capsys.readouterr().out


def test_cli_rule_filter_and_unknown_rule(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("import pickle\n")
    assert cli_main([str(target), "--rule", "REP006"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        cli_main([str(target), "--rule", "REP42"])
    assert excinfo.value.code == 2


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("REP001", "REP006"):
        assert rule_id in out


def test_cli_module_entry_point(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("import marshal\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(target)],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "REP001" in proc.stdout


# --------------------------------------------------------------------- #
# mypy ratchet (exercised on canned reports: no mypy needed)
# --------------------------------------------------------------------- #

CANNED_REPORT = """\
src/repro/session/session.py:10: error: Incompatible return value  [return-value]
src/repro/session/config.py:20:5: error: Missing type parameters  [type-arg]
src/repro/learning/coverage.py:30: error: Argument 1 has incompatible type  [arg-type]
src/repro/learning/coverage.py:31: note: See https://example.invalid
tests/analysis/test_meta.py: note: not an error line
"""


def test_module_for_path_buckets_by_subpackage():
    assert module_for_path("src/repro/session/session.py") == "repro.session"
    assert module_for_path("src/repro/version.py") == "repro"
    assert module_for_path("src\\repro\\learning\\coverage.py") == "repro.learning"


def test_parse_report_counts_errors_only():
    counts = parse_report(CANNED_REPORT)
    assert counts == {"repro.session": 2, "repro.learning": 1}


def test_compare_flags_regressions_and_hints_improvements():
    regressions, improvements = compare(
        {"repro.learning": 5, "repro.obs": 1},
        {"repro.learning": 3, "repro.obs": 4},
    )
    assert len(regressions) == 1 and "repro.learning" in regressions[0]
    assert len(improvements) == 1 and "repro.obs" in improvements[0]


def test_ratchet_cli_passes_within_budget(tmp_path, capsys):
    report = tmp_path / "mypy.out"
    report.write_text(CANNED_REPORT)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {"modules": {"repro.session": 2, "repro.learning": 1}}
        )
    )
    code = ratchet_main(
        ["--from-report", str(report), "--baseline", str(baseline)]
    )
    assert code == 0
    assert "ok" in capsys.readouterr().out


def test_ratchet_cli_fails_on_regression(tmp_path, capsys):
    report = tmp_path / "mypy.out"
    report.write_text(CANNED_REPORT)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"modules": {"repro.session": 1}}))
    code = ratchet_main(
        ["--from-report", str(report), "--baseline", str(baseline)]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "repro.learning" in out


def test_ratchet_update_writes_baseline(tmp_path):
    report = tmp_path / "mypy.out"
    report.write_text(CANNED_REPORT)
    baseline = tmp_path / "baseline.json"
    code = ratchet_main(
        [
            "--from-report",
            str(report),
            "--baseline",
            str(baseline),
            "--update",
        ]
    )
    assert code == 0
    assert load_baseline(baseline) == {
        "repro.session": 2,
        "repro.learning": 1,
    }
    payload = json.loads(baseline.read_text())
    assert payload["total"] == 3


def test_committed_baseline_is_well_formed():
    baseline = load_baseline(REPO_ROOT / "analysis" / "mypy_ratchet.json")
    assert baseline, "committed ratchet baseline must not be empty"
    assert all(v >= 0 for v in baseline.values())
    assert all(k == "repro" or k.startswith("repro.") for k in baseline)
