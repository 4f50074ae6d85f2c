#!/usr/bin/env python3
"""battery_q: a seeded library battery over Q, run in a process of its own.

Every trial input is drawn from the seed before anything is timed.  A trial
then runs three certified checks on its inputs:

- ``adjunction_check`` on random contramodules W and V along a random
  surjection out of one of four source coalgebras, taken in rotation;
- ``exactness_probe`` on a random short exact sequence over the target;
- ``duality_check`` on two random comodules over the source.

The sources are small, so one run holds 800 trials of small, square-ish
systems and its figures depend little on the seed.  With the larger sources
matrix_coalgebra(3), divided_power_dual(10), divided_power_dual(14) and
grouplike(6), a trial took 0.005 s to 2.3 s on a 2-core host, and the
figures of the 60 to 100 trials a run can hold spread 20 to 30 % across
seeds.

    python3 perfbench/battery.py --seed 1 --seconds 20   # one JSON line
    python3 perfbench/battery.py --setup                 # import and build only
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import contramod.cli  # noqa: E402,F401  (the same import a CLI job pays)
from contramod import contramodule, functors, randomgen  # noqa: E402
from contramod.coalgebra import divided_power_dual, grouplike, matrix_coalgebra  # noqa: E402
from contramod.fields import QQ  # noqa: E402

TRIALS = 800
QUICK_TRIALS = 8


def sources() -> list:
    return [
        matrix_coalgebra(QQ, 2), divided_power_dual(QQ, 3),
        divided_power_dual(QQ, 4), grouplike(QQ, 3),
    ]


def draw_trials(seed: int, quick: bool = False) -> list:
    """Inputs of every trial, all drawn from one seeded generator."""
    rng = random.Random(seed)
    srcs = sources()
    trials = []
    for i in range(QUICK_TRIALS if quick else TRIALS):
        c = srcs[i % len(srcs)]
        rho = randomgen.random_surjection(rng, c)
        w = randomgen.random_contramodule(rng, rho.target, max_free=3)
        v = randomgen.random_contramodule(rng, rho.source, max_free=3)
        ses = randomgen.random_contra_ses(rng, rho.target)
        m1 = randomgen.random_comodule(rng, c)
        m2 = randomgen.random_comodule(rng, c)
        trials.append((rho, w, v, ses, m1, m2))
    return trials


def run_trial(trial) -> list:
    """Run one trial's checks; the names of those that did not certify.

    Induction is a left adjoint, hence right exact, so a correct probe can
    fail only at the left position.
    """
    rho, w, v, ses, m1, m2 = trial
    bad = []
    if not functors.adjunction_check(rho, w, v).ok:
        bad.append("adjunction")
    if ses is not None:
        ex = functors.exactness_probe(rho, ses)
        a, b, c = ex.dims
        if (set(ex.failures) - {"left"} or ex.exact == bool(ex.failures)
                or (ex.exact and a + c != b)):
            bad.append("exactness")
    if not contramodule.duality_check(m1, m2).ok:
        bad.append("duality")
    return bad


def run_set(trials: list, before_trial=None) -> dict:
    """Time every trial once: per-trial wall times and the set's CPU.
    ``before_trial(i)``, when given, runs untimed before trial ``i``."""
    walls, wrong, crashed = [], [], []
    before = resource.getrusage(resource.RUSAGE_SELF)
    for i, trial in enumerate(trials):
        if before_trial is not None:
            before_trial(i)
        t0 = perf_counter()
        try:
            bad = run_trial(trial)
        except Exception:  # a crash is a failed trial, reported with its traceback
            crashed.append({"trial": i, "traceback": traceback.format_exc(limit=3)})
            bad = None
        walls.append(perf_counter() - t0)
        if bad:
            wrong.append({"trial": i, "checks": bad})
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"wall": sum(walls), "cpu": cpu, "trial_walls": walls, "wrong": wrong, "crashed": crashed}


def run(seed: int, seconds: float, quick: bool) -> dict:
    """Draw the trials, then run the whole set again while another fits."""
    trials = draw_trials(seed, quick)
    sets = []
    start = perf_counter()
    while True:
        sets.append(run_set(trials))
        if quick or perf_counter() - start + sets[-1]["wall"] > seconds:
            break
    return {"trials": len(trials), "sets": sets}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup", action="store_true", help="import and build the sources, then exit")
    args = ap.parse_args(argv)
    if args.setup:
        sources()
        return 0
    print(json.dumps(run(args.seed, args.seconds, args.quick)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
