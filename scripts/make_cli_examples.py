#!/usr/bin/env python3
"""Write sample JSON inputs for the command-line interface into a directory
(default examples_io/), then print a few ready-to-run invocations.

    python3 scripts/make_cli_examples.py
    contramod verify examples_io/coalgebra_grouplike3.json
    contramod --field Fp:2 exactness --rho examples_io/rho_dpd32.json --ses examples_io/ses_witness.json
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contramod import io as cio
from contramod.coalgebra import divided_power_dual, divided_power_surjection, grouplike
from contramod.comodule import (
    cofree, comodule_closure, comodule_over_self, quotient_comodule, sub_comodule,
)
from contramod.contramodule import free_contramodule
from contramod.fields import GF2, QQ


def main():
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "examples_io")
    outdir.mkdir(exist_ok=True)

    def dump(name, payload):
        (outdir / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return outdir / name

    files = []
    files.append(dump("coalgebra_grouplike3.json", cio.coalgebra_to_json(grouplike(QQ, 3))))
    c3 = divided_power_dual(GF2, 3)
    files.append(dump("comodule_regular_dpd3.json", cio.comodule_to_json(comodule_over_self(c3))))
    files.append(dump("comodule_regular_dpd3_right.json",
                      cio.comodule_to_json(comodule_over_self(c3, side="right"))))
    files.append(dump("comodule_cofree_dpd3.json", cio.comodule_to_json(cofree(c3, 1))))
    files.append(dump("contramodule_free_dpd3.json",
                      cio.contramodule_to_json(free_contramodule(c3, 1))))
    rho = divided_power_surjection(GF2, 3, 2, 2)
    files.append(dump("rho_dpd32.json", cio.morphism_to_json(rho)))
    files.append(dump("contramodule_free_target.json",
                      cio.contramodule_to_json(free_contramodule(rho.target, 1))))
    files.append(dump("contramodule_free_source.json",
                      cio.contramodule_to_json(free_contramodule(rho.source, 1))))
    # the short exact sequence whose induction fails to be exact
    breg = free_contramodule(rho.target, 1)
    rad = comodule_closure(breg, [{1: GF2.one()}])
    sub, incl = sub_comodule(breg, rad)
    quot, proj = quotient_comodule(breg, rad)
    files.append(dump("ses_witness.json", {
        "sub": cio.contramodule_to_json(sub),
        "mid": cio.contramodule_to_json(breg),
        "quot": cio.contramodule_to_json(quot),
        "incl": cio.mat_to_json(incl),
        "proj": cio.mat_to_json(proj),
    }))
    files.append(dump("battery_std.json", ["L0", "L1", "L2", "L3", "L1*L1"]))

    print(f"wrote {len(files)} files to {outdir}/")
    print("\ntry:")
    print(f"  contramod verify {outdir}/coalgebra_grouplike3.json")
    print(f"  contramod --field Fp:2 hom {outdir}/comodule_regular_dpd3.json "
          f"{outdir}/comodule_cofree_dpd3.json")
    print(f"  contramod --field Fp:2 cohom {outdir}/comodule_regular_dpd3.json "
          f"{outdir}/contramodule_free_dpd3.json")
    print(f"  contramod --field Fp:2 induce --rho {outdir}/rho_dpd32.json "
          f"--W {outdir}/contramodule_free_target.json")
    print(f"  contramod --field Fp:2 adjoint-check --rho {outdir}/rho_dpd32.json "
          f"--W {outdir}/contramodule_free_target.json --V {outdir}/contramodule_free_source.json")
    print(f"  contramod --field Fp:2 exactness --rho {outdir}/rho_dpd32.json "
          f"--ses {outdir}/ses_witness.json   # exits 1: the witness is not exact")
    print(f"  contramod tower --p 2 --lambda 0 --mmax 3 --battery {outdir}/battery_std.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
