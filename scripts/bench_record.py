#!/usr/bin/env python3
"""Record benchmark figures of one or more checkouts in a BENCH_<pr>.json file.

    python3 scripts/bench_record.py BENCH_34.json 20df976=../parent HEAD=. --rounds 5

Each ``label=path`` names a checkout.  For every workload of this checkout's
BENCHMARK.json, every round runs

    python3 perfbench/run.py --workload <w> --seed 1 --seconds 20 --trace 0

once in each checkout, one run after another, so that all checkouts see the
same host; odd rounds take the checkouts in reverse order.  The output file
holds each run's last output line (``correct``, ``attempted``, ``failed`` and
``metrics``) and, per checkout and workload, the median of each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARGS = ["--seed", "1", "--seconds", "20", "--trace", "0"]


def run_once(checkout: Path, workload: str) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, *ARGS]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if out.returncode:
        raise SystemExit(f"{checkout}: {workload} exited {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Record alternating benchmark runs of checkouts.")
    ap.add_argument("out", help="the BENCH_<pr>.json file to write")
    ap.add_argument("checkouts", nargs="+", metavar="label=path")
    ap.add_argument("--rounds", type=int, default=1, help="runs of each workload in each checkout")
    args = ap.parse_args(argv)
    checkouts = dict(c.split("=", 1) for c in args.checkouts)
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

    runs = {label: {w: [] for w in workloads} for label in checkouts}
    for rnd in range(args.rounds):
        order = list(checkouts.items())[::-1 if rnd % 2 else 1]
        for w in workloads:
            for label, path in order:
                runs[label][w].append(run_once(Path(path), w))
                print(f"round {rnd + 1}/{args.rounds} {w} {label}: "
                      f"{runs[label][w][-1]['metrics']['wall_s']['value']:.4f} s wall", file=sys.stderr)
    medians = {label: {w: {name: statistics.median(r["metrics"][name]["value"] for r in rs)
                           for name in rs[0]["metrics"]}
                       for w, rs in per.items()}
               for label, per in runs.items()}
    record = {
        "command": "python3 perfbench/run.py --workload <w> " + " ".join(ARGS),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "rounds": args.rounds,
        "median": medians,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
