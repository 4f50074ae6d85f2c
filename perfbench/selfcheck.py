#!/usr/bin/env python3
"""Check the benchmark itself, quickly.

    python3 perfbench/selfcheck.py

1. Every workload runs in quick mode, untraced and traced, and prints the
   end-to-end or per-layer metrics BENCHMARK.json names, each a number.
2. The correctness gate can fire: a corrupted pinned answer raises the
   failed count and clears ``correct``.
3. Without the program's sources the benchmark exits non-zero and prints
   no result.

Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(*args, cwd=ROOT) -> tuple[int, list]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_quick_runs(spec: dict) -> list:
    problems = []
    for wl in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_bench("--workload", wl["name"], "--seed", "1", "--seconds", "1",
                                    "--trace", str(trace), "--quick")
            label = f"{wl['name']} --trace {trace}"
            if code != 0 or not lines:
                problems.append(f"{label}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result["attempted"] < 1 or not result["correct"]:
                problems.append(f"{label}: attempted {result['attempted']}, correct {result['correct']}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json {kind}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{label}: a metric value is not a number")
            print(f"ok  {label}: {result['attempted']} attempted, {result['failed']} failed")
    return problems


def check_gate_fires() -> list:
    """Run readme_cli once as pinned and once with one answer corrupted."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import run
    import workloads

    wl = workloads.get("readme_cli", quick=True)
    work = HERE / "work" / "selfcheck-gate"
    try:
        wl.prepare(work)
        honest = run.cli_sets(wl, work, 0)
        corrupt = copy.deepcopy(wl)
        corrupt.jobs[1].expect["report"]["dim"] += 1  # hom: 3 -> 4
        broken = run.cli_sets(corrupt, work, 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def failed(sets):
        return [j["outcome"] for s in sets for j in s["jobs"] if j["outcome"]]

    before, after = failed(honest), failed(broken)
    print(f"ok  gate: {len(before)} failed as pinned, {len(after)} with one answer corrupted")
    if len(after) != len(before) + 1 or not any(o.startswith("wrong") for o in after):
        return [f"gate did not fire: {before} -> {after}"]
    return []


def check_bare_directory() -> list:
    bare = HERE / "work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines = run_bench("--workload", "readme_cli", "--seed", "1", "--seconds", "1",
                                "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"ok  bare directory: exit {code}, {len(lines)} lines on stdout")
    if code == 0 or any(line.startswith("{") for line in lines):
        return [f"bare directory: exit {code}, stdout {lines[-1:]}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_quick_runs(spec) + check_gate_fires() + check_bare_directory()
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
