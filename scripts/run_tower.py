#!/usr/bin/env python3
"""Tower stabilization experiment: build the twisted tensor tower for a
weight, restrict each stage to its Frobenius kernel, and tabulate the Cohom
dimensions against the character multiplicity oracle.

    python3 scripts/run_tower.py --lam 0 --mmax 3
    python3 scripts/run_tower.py --lam 1 --mmax 3 --battery L0 L1 L2 L3 "L1*L1"
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contramod.sl2 import battery_module, build_tower
from contramod.towers import cohom_tower


@dataclass
class TowerConfig:
    p: int = 2
    lam: int = 0
    m_max: int = 3
    battery: list = field(default_factory=lambda: ["L0", "L1", "L2", "L3", "L1*L1"])


def run(cfg: TowerConfig) -> dict:
    tower = build_tower(cfg.lam, cfg.p, cfg.m_max)
    modules = [battery_module(cfg.p, expr) for expr in cfg.battery]
    t0 = time.time()
    reports = cohom_tower(modules, tower, cfg.lam, cfg.p)
    return {"lambda": cfg.lam, "p": cfg.p, "stage_dims": [s.dim for s in tower.stages],
            "seconds": round(time.time() - t0, 3),
            "modules": [{**rep.to_json(), "module": expr} for expr, rep in zip(cfg.battery, reports)]}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--lam", type=int, default=0)
    ap.add_argument("--mmax", type=int, default=3)
    ap.add_argument("--battery", nargs="*", default=None)
    args = ap.parse_args()
    cfg = TowerConfig(p=args.p, lam=args.lam, m_max=args.mmax)
    if args.battery:
        cfg.battery = args.battery
    report = run(cfg)
    print(json.dumps(report, indent=2, sort_keys=True))
    ok = all(m["match"] for m in report["modules"])
    print(f"\nall modules match the multiplicity oracle: {ok}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
