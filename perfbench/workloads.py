"""The benchmark's workloads: inputs, job lines and pinned expected answers.

A CLI job is one ``contramod ...`` command line, run from a work directory
that holds its inputs.  Each job carries the answer it must give: its exit
code and the fields of its JSON report that certify the verdict.  The
``battery_q`` workload is a library battery instead; it lives in
``battery.py`` and its trials certify themselves.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Every command line of the README's "Command line" section, exactly as
# written (the one continued line joined).  The ``--seed 11`` line is
# rejected by argparse today, because global flags are only accepted before
# the subcommand; its pinned answer is what the line asks for, so it counts
# as failed until the CLI accepts it.
README_LINES = [
    "contramod verify examples_io/coalgebra_grouplike3.json",
    "contramod --field Fp:2 hom examples_io/comodule_regular_dpd3.json "
    "examples_io/comodule_cofree_dpd3.json",
    "contramod --field Fp:2 cotensor examples_io/comodule_regular_dpd3_right.json "
    "examples_io/comodule_regular_dpd3.json",
    "contramod --field Fp:2 cohom examples_io/comodule_regular_dpd3.json "
    "examples_io/contramodule_free_dpd3.json",
    "contramod --field Fp:2 induce --rho examples_io/rho_dpd32.json "
    "--W examples_io/contramodule_free_target.json",
    "contramod --field Fp:2 adjoint-check --rho examples_io/rho_dpd32.json "
    "--W examples_io/contramodule_free_target.json --V examples_io/contramodule_free_source.json",
    "contramod --field Fp:2 exactness --rho examples_io/rho_dpd32.json "
    "--ses examples_io/ses_witness.json",
    "contramod --field Fp:2 exactness --rho examples_io/rho_dpd32.json --samples 20 --seed 11",
    "contramod --field Fp:2 duality --V examples_io/comodule_regular_dpd3.json "
    "--W examples_io/comodule_cofree_dpd3.json",
    "contramod tower --p 2 --lambda 0 --mmax 3 --battery examples_io/battery_std.json",
]


def _tower_row(module: str, f_v: int, dims: list, stabilized_at: int) -> dict:
    return {
        "module": module, "lambda": 0, "p": 2, "f_V": f_v, "match": True,
        "stabilized_at": stabilized_at,
        "stages": [{"m": m, "dim_cohom": d} for m, d in enumerate(dims, start=1)],
    }


def _tower_answer(rows: list) -> dict:
    return {"exit": 0, "report": {"all_match": True, "towers": rows}}


def _verify_answer(kind: str) -> dict:
    return {"exit": 0, "report": {"kind": kind, "ok": True, "failures": []}}


# Stable values match the character multiplicities: L0 -> 1, L1*L1 -> 2 at
# lambda = 0, and the simples L1, L3 never occur.
_README_TOWER = [
    _tower_row("L0", 1, [1, 1, 1], 1),
    _tower_row("L1", 0, [0, 0, 0], 1),
    _tower_row("L2", 0, [2, 0, 0], 2),
    _tower_row("L3", 0, [0, 0, 0], 1),
    _tower_row("L1*L1", 2, [4, 2, 2], 2),
]

README_ANSWERS = {
    README_LINES[0]: _verify_answer("coalgebra"),
    README_LINES[1]: {"exit": 0, "report": {"dim": 3}},
    README_LINES[2]: {"exit": 0, "report": {"dim": 3}},
    README_LINES[3]: {"exit": 0, "report": {"dim": 3}},
    README_LINES[4]: {"exit": 0, "report": {"dim_W": 2, "dim_induced": 3, "axioms_ok": True}},
    README_LINES[5]: {"exit": 0, "report": {
        "adjunction": {"lhs_dim": 3, "rhs_dim": 3}, "roundtrip_ok": True}},
    README_LINES[6]: {"exit": 1, "report": {"exactness": {
        "total": 1, "failures": [{"probe": 0, "positions": ["left"], "dims": [2, 3, 2]}]}}},
    README_LINES[7]: {"exit": 1, "report": {"seed": 11, "exactness": {"total": 20}}},
    README_LINES[8]: {"exit": 0, "report": {
        "cohom_dim": 3, "hom_dim": 3, "pairing_rank": 3, "ok": True}},
    README_LINES[9]: _tower_answer(_README_TOWER),
}


@dataclass
class Job:
    line: str
    expect: dict

    @property
    def argv(self) -> list:
        return self.line.split()[1:]


@dataclass
class Workload:
    name: str
    seeded: bool
    quick: bool = False
    timeout: float = 60.0
    jobs: list = field(default_factory=list)

    def prepare(self, work: Path):
        """Write this workload's inputs into ``work``."""
        work.mkdir(parents=True, exist_ok=True)
        PREPARE[self.name](self, work)


def _prepare_readme(wl: Workload, work: Path):
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_cli_examples.py"), str(work / "examples_io")],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )


def _prepare_tower(wl: Workload, work: Path):
    (work / "battery_g4.json").write_text(json.dumps(["L0", "L1*L1"]) + "\n")


def _triples(m, inner: int) -> list:
    out = []
    for (row, k), v in sorted(m.data.items()):
        i, j = divmod(row, inner)
        out.append([i, j, k, str(v)])
    return out


def _prepare_verify(wl: Workload, work: Path):
    """k[G_r] with its delta inlined, the stage P(0,r) as a left and as a right
    comodule over k[G_r], and its contramodule over k[G_(r-1)], all inline;
    plus that contramodule over k[G_1] referring to the coalgebra by name."""
    from contramod import io as cio
    from contramod.comodule import dual_comodule
    from contramod.contramodule import contra_from_comodule
    from contramod.sl2 import build_tower, frob_kernel_coalgebra, restrict_to_kernel

    r = 2 if wl.quick else 3
    stage = build_tower(0, 2, r).stages[-1]
    right = restrict_to_kernel(stage, r)

    def contra_over(s):
        return contra_from_comodule(dual_comodule(restrict_to_kernel(stage, s)))

    named = contra_over(1)
    docs = {
        "kG_coalgebra.json": cio.coalgebra_to_json(frob_kernel_coalgebra(2, r)),
        "stage_left.json": cio.comodule_to_json(dual_comodule(right)),
        "stage_right.json": cio.comodule_to_json(right),
        "stage_contra.json": cio.contramodule_to_json(contra_over(r - 1)),
        "stage_contra_named.json": {
            "coalgebra": "sl2_kernel(1)", "dim": named.dim, "theta": _triples(named.theta, named.dim),
        },
    }
    for name, doc in docs.items():
        (work / name).write_text(json.dumps(doc))


PREPARE = {
    "readme_cli": _prepare_readme,
    "tower_g4": _prepare_tower,
    "verify_g3": _prepare_verify,
    "battery_q": lambda wl, work: None,
}


def _tower_jobs(quick: bool) -> list:
    mmax = 3 if quick else 4
    rows = [
        _tower_row("L0", 1, [1] * mmax, 1),
        _tower_row("L1*L1", 2, [4] + [2] * (mmax - 1), 2),
    ]
    line = f"contramod tower --p 2 --lambda 0 --mmax {mmax} --battery battery_g4.json"
    return [Job(line, _tower_answer(rows))]


def _verify_jobs(quick: bool) -> list:
    # The loader cannot parse the catalog name "sl2_kernel(r)" today (its
    # name pattern admits no digits), so the inputs inline k[G_r]; the one
    # named input keeps that defect visible at the cost of a small job.
    lines = {
        "kG_coalgebra.json": "coalgebra",
        "stage_left.json": "comodule",
        "stage_right.json": "comodule",
        "stage_contra.json": "contramodule",
        "stage_contra_named.json": "contramodule",
    }
    return [Job(f"contramod --field Fp:2 verify {name}", _verify_answer(kind))
            for name, kind in lines.items()]


def get(name: str, quick: bool = False) -> Workload:
    if name == "readme_cli":
        jobs = [Job(line, README_ANSWERS[line]) for line in README_LINES]
        return Workload(name, False, quick, 60.0, jobs)
    if name == "tower_g4":
        return Workload(name, False, quick, 150.0, _tower_jobs(quick))
    if name == "verify_g3":
        return Workload(name, False, quick, 60.0, _verify_jobs(quick))
    if name == "battery_q":
        return Workload(name, True, quick)
    raise KeyError(name)


def check(expect: dict, code, report) -> str | None:
    """None when the job gave its pinned answer, else why not."""
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    return _mismatch(expect["report"], report, "report")


def _mismatch(want, got, where: str) -> str | None:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return f"{where}: expected an object"
        for key, val in want.items():
            if key not in got:
                return f"{where}.{key}: missing"
            bad = _mismatch(val, got[key], f"{where}.{key}")
            if bad:
                return bad
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: expected a list of {len(want)}"
        for i, (w, g) in enumerate(zip(want, got)):
            bad = _mismatch(w, g, f"{where}[{i}]")
            if bad:
                return bad
        return None
    return None if want == got else f"{where}: {got!r}, expected {want!r}"
