"""The experiment scripts run end to end and print one JSON report."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["limit_survey.py"],
    ["adjunction_battery.py", "--trials", "4"],
])
def test_script_exits_0_with_a_json_report(argv):
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    if argv[0] == "limit_survey.py":
        assert report["adversarial_verdict"] == "inconclusive"


def test_bench_record_alternates_checkouts_and_takes_medians(tmp_path, monkeypatch):
    """``bench_record.py`` with the harness replaced: every workload runs once
    per round in each checkout, odd rounds in reverse order, and the file
    holds every result line and each metric's median."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_record", SCRIPTS / "bench_record.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    calls = []

    def fake_run(checkout, workload):
        calls.append((checkout.name, workload))
        value = 1.0 + len(calls) if checkout.name == "new" else 10.0
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": {"value": value, "unit": "s"}}}

    monkeypatch.setattr(bench, "run_once", fake_run)
    out = tmp_path / "BENCH_0.json"
    assert bench.main([str(out), f"old={tmp_path / 'old'}", f"new={tmp_path / 'new'}", "--rounds", "3"]) == 0
    workloads = [w["name"] for w in json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())["workloads"]]
    assert calls == [(c, w) for order in (("old", "new"), ("new", "old"), ("old", "new"))
                     for w in workloads for c in order]
    record = json.loads(out.read_text())
    assert record["rounds"] == 3 and set(record["runs"]) == {"old", "new"}
    first = workloads[0]
    new_walls = [r["metrics"]["wall_s"]["value"] for r in record["runs"]["new"][first]]
    assert len(new_walls) == 3
    assert record["median"]["new"][first]["wall_s"] == sorted(new_walls)[1]
    assert record["median"]["old"][first]["wall_s"] == 10.0
