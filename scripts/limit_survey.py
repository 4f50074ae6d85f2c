#!/usr/bin/env python3
"""Survey the inverse-limit machinery on random towers: Mittag-Leffler
detection rates over a window, and four-term limit verdicts including the
adversarial shrinking fixture that must stay inconclusive.

    python3 scripts/limit_survey.py --towers 40 --stages 5 --seed 3
"""

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contramod.fields import GF, QQ
from contramod.matrix import Mat
from limits import FourTermSystem, InverseSystem, is_mittag_leffler, limit_four_term


@dataclass
class SurveyConfig:
    towers: int = 40
    stages: int = 5
    max_dim: int = 6
    seed: int = 3
    characteristic: int = 2


def random_tower(rng, field, stages, max_dim):
    dims = [rng.randint(1, max_dim) for _ in range(stages)]
    transitions = []
    for t in range(stages - 1):
        entries = [
            (i, j, field.random(rng))
            for i in range(dims[t]) for j in range(dims[t + 1])
            if rng.random() < 0.6
        ]
        transitions.append(Mat.from_entries(dims[t], dims[t + 1], field, entries))
    return InverseSystem(dims, transitions)


def adversarial_fixture(stages):
    """B/A image chain strictly shrinking through the whole window: the
    hypotheses can never be confirmed, whatever the window length."""
    field = QQ
    n = stages  # big enough that the chain never repeats inside the window

    def rank_proj(r):
        return Mat.from_entries(n, n, field, [(i, i, 1) for i in range(r)])

    shrink = [rank_proj(n - 1 - t) for t in range(stages - 1)]
    return FourTermSystem(
        InverseSystem([0] * stages, [Mat(0, 0, field)] * (stages - 1)),
        InverseSystem([n] * stages, shrink),
        InverseSystem([n] * stages, shrink),
        InverseSystem([0] * stages, [Mat(0, 0, field)] * (stages - 1)),
        [Mat(n, 0, field)] * stages,
        [Mat.identity(n, field)] * stages,
        [Mat(0, n, field)] * stages,
    )


def run(cfg: SurveyConfig) -> dict:
    field = QQ if cfg.characteristic == 0 else GF(cfg.characteristic)
    rng = random.Random(cfg.seed)
    detected = 0
    indices = []
    for _ in range(cfg.towers):
        sys_ = random_tower(rng, field, cfg.stages, cfg.max_dim)
        res = is_mittag_leffler(sys_, 0)
        detected += res.stabilized
        indices.append(res.stabilization_index)
    adv = limit_four_term(adversarial_fixture(cfg.stages))
    return {
        "field": str(field),
        "towers": cfg.towers,
        "window_stages": cfg.stages,
        "stabilization_detected": detected,
        "stabilization_indices": indices,
        "adversarial_verdict": adv.status,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--towers", type=int, default=40)
    ap.add_argument("--stages", type=int, default=5)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--char", type=int, default=2)
    args = ap.parse_args()
    report = run(SurveyConfig(towers=args.towers, stages=args.stages,
                              seed=args.seed, characteristic=args.char))
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["adversarial_verdict"] == "inconclusive" else 1


if __name__ == "__main__":
    sys.exit(main())
