#!/usr/bin/env python3
"""Induction/restriction adjunction battery over random triples: random
surjections out of catalog coalgebras, random source and target
contramodules, certified by ``functors.adjunction_check``: dimension
equality and the round trips of the adjunction isomorphism.  Exits 1 when
any trial fails.

    python3 scripts/adjunction_battery.py --trials 30 --seed 7
"""

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contramod.coalgebra import divided_power_dual, grouplike, matrix_coalgebra
from contramod.fields import GF, QQ
from contramod.functors import adjunction_check
from contramod.randomgen import random_contramodule, random_surjection


@dataclass
class BatteryConfig:
    trials: int = 20
    seed: int = 7
    characteristic: int = 0  # 0 for the rationals


def run(cfg: BatteryConfig) -> dict:
    field = QQ if cfg.characteristic == 0 else GF(cfg.characteristic)
    rng = random.Random(cfg.seed)
    sources = [
        grouplike(field, 3), divided_power_dual(field, 3),
        divided_power_dual(field, 4), matrix_coalgebra(field, 2),
    ]
    rows = []
    for trial in range(cfg.trials):
        c = sources[trial % len(sources)]
        rho = random_surjection(rng, c)
        w = random_contramodule(rng, rho.target)
        v = random_contramodule(rng, rho.source)
        rep = adjunction_check(rho, w, v)
        rows.append({
            "trial": trial,
            "source": c.name,
            "target_dim": rho.target.dim,
            "dim_W": w.dim,
            "dim_V": v.dim,
            "lhs_dim": rep.lhs_dim,
            "rhs_dim": rep.rhs_dim,
            "roundtrip_ok": rep.roundtrip_ok,
            "ok": rep.ok,
        })
    return {"field": str(field), "seed": cfg.seed, "trials": rows,
            "all_ok": all(r["ok"] for r in rows)}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--char", type=int, default=0, help="0 for Q, else a prime")
    args = ap.parse_args()
    report = run(BatteryConfig(trials=args.trials, seed=args.seed, characteristic=args.char))
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["all_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
