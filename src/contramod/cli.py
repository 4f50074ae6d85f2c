"""Batch command-line entry point: load JSON inputs, run one verification or
computation job, emit a machine-readable JSON report.

Exit codes: 0 when every asserted check passes, 1 on a check failure, 2 on
an input/schema error.  Reports are deterministic for a fixed seed; --pretty
only re-indents the identical payload.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field as dc_field

from . import io as cio
from .coalgebra import check_coalgebra, check_morphism
from .comodule import Comodule, cotensor, hom_comodules
from .contramodule import (
    Contramodule, check_contramodule, cohom, contratensor, duality_check,
)
from .functors import ShortExactSeq, adjunction_check, exactness_probe, induce
from .io import SchemaError, parse_field_flag

DEFAULT_SEED = 20240

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


@dataclass
class JobSpec:
    command: str
    inputs: dict = dc_field(default_factory=dict)
    out: str | None = None
    seed: int = DEFAULT_SEED
    field: str = "Q"
    pretty: bool = False
    params: dict = dc_field(default_factory=dict)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"input file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON: {e}") from None


def _load(path: str, loader, field):
    return loader(_load_json(path), field)


def _run_verify(job: JobSpec, report: dict) -> int:
    field = parse_field_flag(job.field)
    obj = cio.detect_and_load(_load_json(job.inputs["input"]), field)
    if isinstance(obj, Comodule):
        from .comodule import check_comodule

        kind, verdict = "comodule", check_comodule(obj)
    elif isinstance(obj, Contramodule):
        kind, verdict = "contramodule", check_contramodule(obj)
    elif hasattr(obj, "matrix"):
        kind, verdict = "morphism", check_morphism(obj)
    else:
        kind, verdict = "coalgebra", check_coalgebra(obj)
    report.update({"kind": kind, "ok": verdict.ok, "failures": verdict.failures})
    return EXIT_OK if verdict.ok else EXIT_CHECK_FAILED


def _run_hom(job: JobSpec, report: dict) -> int:
    field = parse_field_flag(job.field)
    m = _load(job.inputs["first"], cio.comodule_from_json, field)
    n = _load(job.inputs["second"], cio.comodule_from_json, field)
    if m.coalgebra != n.coalgebra:
        raise SchemaError("hom: the two comodules live over different coalgebras")
    report["dim"] = hom_comodules(m, n).dim
    return EXIT_OK


def _run_cotensor(job: JobSpec, report: dict) -> int:
    field = parse_field_flag(job.field)
    m = _load(job.inputs["first"], cio.comodule_from_json, field)
    n = _load(job.inputs["second"], cio.comodule_from_json, field)
    if m.coalgebra != n.coalgebra:
        raise SchemaError("cotensor: coalgebra mismatch between inputs")
    report["dim"] = cotensor(m, n).dim
    return EXIT_OK


def _run_contratensor(job: JobSpec, report: dict) -> int:
    field = parse_field_flag(job.field)
    m = _load(job.inputs["first"], cio.comodule_from_json, field)
    b = _load(job.inputs["second"], cio.contramodule_from_json, field)
    if m.coalgebra != b.coalgebra:
        raise SchemaError("contratensor: coalgebra mismatch between inputs")
    report["dim"] = contratensor(m, b).dim
    return EXIT_OK


def _run_cohom(job: JobSpec, report: dict) -> int:
    field = parse_field_flag(job.field)
    m = _load(job.inputs["first"], cio.comodule_from_json, field)
    b = _load(job.inputs["second"], cio.contramodule_from_json, field)
    if m.coalgebra != b.coalgebra:
        raise SchemaError("cohom: coalgebra mismatch between inputs")
    report["dim"] = cohom(m, b).dim
    return EXIT_OK


def _run_induce(job: JobSpec, report: dict) -> int:
    field = parse_field_flag(job.field)
    rho = _load(job.inputs["rho"], cio.morphism_from_json, field)
    w = _load(job.inputs["W"], cio.contramodule_from_json, field)
    if w.coalgebra != rho.target:
        raise SchemaError("induce: W must live over the target of rho")
    if not check_morphism(rho).ok:
        raise SchemaError("induce: rho is not a valid surjective coalgebra map")
    res = induce(rho, w)
    report.update({
        "dim_W": w.dim,
        "dim_induced": res.dim,
        "axioms_ok": check_contramodule(res.induced).ok,
    })
    return EXIT_OK if report["axioms_ok"] else EXIT_CHECK_FAILED


def _run_adjoint_check(job: JobSpec, report: dict) -> int:
    field = parse_field_flag(job.field)
    rho = _load(job.inputs["rho"], cio.morphism_from_json, field)
    w = _load(job.inputs["W"], cio.contramodule_from_json, field)
    v = _load(job.inputs["V"], cio.contramodule_from_json, field)
    if w.coalgebra != rho.target or v.coalgebra != rho.source:
        raise SchemaError("adjoint-check: W must live over the target, V over the source")
    if not check_morphism(rho).ok:
        raise SchemaError("adjoint-check: rho is not a valid surjective coalgebra map")
    rep = adjunction_check(rho, w, v)
    report["adjunction"] = {"lhs_dim": rep.lhs_dim, "rhs_dim": rep.rhs_dim}
    report["roundtrip_ok"] = rep.roundtrip_ok
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


def _ses_from_json(data, field) -> ShortExactSeq:
    for key in ("sub", "mid", "quot", "incl", "proj"):
        if key not in data:
            raise SchemaError(f"ses: missing {key}")
    sub = cio.contramodule_from_json(data["sub"], field)
    mid = cio.contramodule_from_json(data["mid"], field)
    quot = cio.contramodule_from_json(data["quot"], field)
    incl = cio.mat_from_json(data["incl"], sub.field, where="ses.incl")
    proj = cio.mat_from_json(data["proj"], sub.field, where="ses.proj")
    return ShortExactSeq(sub, mid, quot, incl, proj)


def _run_exactness(job: JobSpec, report: dict) -> int:
    field = parse_field_flag(job.field)
    rho = _load(job.inputs["rho"], cio.morphism_from_json, field)
    if not check_morphism(rho).ok:
        raise SchemaError("exactness: rho is not a valid surjective coalgebra map")
    probes = []
    if "ses" in job.inputs:
        probes.append(_ses_from_json(_load_json(job.inputs["ses"]), field))
    else:
        from .randomgen import random_contra_ses

        rng = random.Random(job.seed)
        wanted = int(job.params.get("samples", 10))
        guard = 0
        while len(probes) < wanted and guard < wanted * 50:
            guard += 1
            ses = random_contra_ses(rng, rho.target)
            if ses is not None:
                probes.append(ses)
        if len(probes) < wanted:
            raise SchemaError("exactness: could not draw enough nondegenerate sequences")
    failures = []
    for idx, ses in enumerate(probes):
        verdict = exactness_probe(rho, ses)
        if not verdict.exact:
            failures.append({"probe": idx, "positions": verdict.failures, "dims": list(verdict.dims)})
    report["exactness"] = {"total": len(probes), "failures": failures}
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def _run_duality(job: JobSpec, report: dict) -> int:
    field = parse_field_flag(job.field)
    v = _load(job.inputs["V"], cio.comodule_from_json, field)
    w = _load(job.inputs["W"], cio.comodule_from_json, field)
    if v.coalgebra != w.coalgebra:
        raise SchemaError("duality: coalgebra mismatch between inputs")
    rep = duality_check(v, w)
    report.update({
        "cohom_dim": rep.cohom_dim,
        "hom_dim": rep.hom_dim,
        "pairing_rank": rep.pairing_rank,
        "ok": rep.ok,
    })
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


def _run_tower(job: JobSpec, report: dict) -> int:
    from .sl2 import battery_module, build_tower
    from .towers import cohom_tower

    p = int(job.params["p"])
    lam = int(job.params["lambda"])
    m_max = int(job.params["mmax"])
    battery = _load_json(job.inputs["battery"])
    if not isinstance(battery, list) or not all(isinstance(x, str) for x in battery):
        raise SchemaError("battery: expected a JSON list of module expressions")
    tower = build_tower(lam, p, m_max)
    reports = []
    for expr in battery:
        data = cohom_tower(battery_module(p, expr), tower, lam, p).to_json()
        data["module"] = expr
        reports.append(data)
    report["towers"] = reports
    ok = all(r["match"] for r in reports)
    report["all_match"] = ok
    return EXIT_OK if ok else EXIT_CHECK_FAILED


_HANDLERS = {
    "verify": _run_verify,
    "hom": _run_hom,
    "cotensor": _run_cotensor,
    "contratensor": _run_contratensor,
    "cohom": _run_cohom,
    "induce": _run_induce,
    "adjoint-check": _run_adjoint_check,
    "exactness": _run_exactness,
    "duality": _run_duality,
    "tower": _run_tower,
}


def run(job: JobSpec) -> tuple[int, dict]:
    """Execute one job; returns (exit code, report payload).  Malformed or
    out-of-range input, wherever it is detected, ends the job with exit 2."""
    report = {"command": job.command, "seed": job.seed}
    try:
        code = _HANDLERS[job.command](job, report)
    except (ValueError, ZeroDivisionError, KeyError, NotImplementedError) as e:
        report["error"] = str(e) or type(e).__name__
        return EXIT_INPUT_ERROR, report
    return code, report


def _emit(job: JobSpec, report: dict):
    text = json.dumps(report, indent=2 if job.pretty else None, sort_keys=True)
    if job.out:
        with open(job.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    # the global flags parse before or after the subcommand; their defaults
    # are JobSpec's, so an absent flag never overwrites one given elsewhere
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, help="seed for randomized probes")
    common.add_argument("--field", help="scalar field: Q or Fp:<p>")
    common.add_argument("--pretty", action="store_true", help="indent the JSON report")
    common.add_argument("--out", help="write the report to a file instead of stdout")
    ap = argparse.ArgumentParser(
        prog="contramod", parents=[common],
        description="Exact computations with coalgebras, comodules and contramodules.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, doc):
        return sub.add_parser(name, help=doc, parents=[common])

    sp = command("verify", "check the axioms of a serialized object")
    sp.add_argument("input")

    for name, doc in (
        ("hom", "dimension of the comodule hom space"),
        ("cotensor", "cotensor of a right and a left comodule"),
        ("contratensor", "contratensor of a right comodule and a contramodule"),
        ("cohom", "Cohom of a left comodule and a contramodule"),
    ):
        sp = command(name, doc)
        sp.add_argument("first")
        sp.add_argument("second")

    sp = command("induce", "induce a contramodule along a surjection")
    sp.add_argument("--rho", required=True)
    sp.add_argument("--W", required=True)

    sp = command("adjoint-check", "induction/restriction adjunction report")
    sp.add_argument("--rho", required=True)
    sp.add_argument("--W", required=True)
    sp.add_argument("--V", required=True)

    sp = command("exactness", "probe exactness of induction on sequences")
    sp.add_argument("--rho", required=True)
    sp.add_argument("--ses", help="explicit short exact sequence file")
    sp.add_argument("--samples", type=int, default=10, help="random probes when no --ses")

    sp = command("duality", "Cohom against the dual hom space")
    sp.add_argument("--V", required=True)
    sp.add_argument("--W", required=True)

    sp = command("tower", "stabilization table for the twisted tensor tower")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=int, required=True)
    sp.add_argument("--mmax", type=int, required=True)
    sp.add_argument("--battery", required=True)

    return ap


def job_from_args(args) -> JobSpec:
    inputs = {}
    params = {}
    if args.command == "verify":
        inputs["input"] = args.input
    elif args.command in ("hom", "cotensor", "contratensor", "cohom"):
        inputs["first"], inputs["second"] = args.first, args.second
    elif args.command == "induce":
        inputs["rho"], inputs["W"] = args.rho, args.W
    elif args.command == "adjoint-check":
        inputs.update({"rho": args.rho, "W": args.W, "V": args.V})
    elif args.command == "exactness":
        inputs["rho"] = args.rho
        if args.ses:
            inputs["ses"] = args.ses
        params["samples"] = args.samples
    elif args.command == "duality":
        inputs.update({"V": args.V, "W": args.W})
    elif args.command == "tower":
        inputs["battery"] = args.battery
        params.update({"p": args.p, "lambda": args.lam, "mmax": args.mmax})
    flags = {k: v for k, v in vars(args).items() if k in ("seed", "field", "pretty", "out")}
    return JobSpec(command=args.command, inputs=inputs, params=params, **flags)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    job = job_from_args(args)
    code, report = run(job)
    _emit(job, report)
    return code


if __name__ == "__main__":
    sys.exit(main())
