"""Batch command-line entry point: load JSON inputs, run one verification or
computation job, emit a machine-readable JSON report.

``COMMANDS`` has one row per subcommand: its help text, its input files (an
argparse spelling and a loader each), its integer options, and a job function
from the loaded objects to (report fields, all checks passed).  The parser,
the ``JobSpec`` built by ``main`` and the loading in ``run`` all read it.

Exit codes: 0 when every asserted check passes, 1 on a check failure, 2 on
an input/schema error, including the library's ``ValueError`` for inputs
over different coalgebras, and on a report that cannot be written to
``--out``.  A reader that closes stdout early leaves the exit code as it
is.  Reports are deterministic for a fixed seed;
--pretty only re-indents the identical payload.

A job loads only what its subcommand runs: this module imports ``io`` and
the layers ``io`` is built on; the jobs that induce import ``functors`` when
they run, and ``tower`` imports ``towers``, which loads ``sl2`` and guards
the tower's size and weight window itself.  The package's records are
plain classes (:class:`fields.Record`), so a job imports neither the
standard library's record decorator nor the ``inspect`` it loads.
``main(argv)`` is the in-process API and returns the exit code; ``entry``,
the process entry, ends the process once the report is flushed, without
interpreter teardown.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Callable, NamedTuple

from . import io as cio
from .coalgebra import check_coalgebra, check_morphism
from .comodule import Comodule, check_comodule, cotensor, hom_comodules
from .contramodule import (
    Contramodule, check_contramodule, cohom, contratensor, duality_check,
)
from .fields import Record
from .io import SchemaError, parse_field_flag

DEFAULT_SEED = 20240
# 1000 sampled probes along the README's rho take about 2 s; without a bound
# a count like 10^7 would run for hours
MAX_SAMPLES = 1000

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


class JobSpec(Record):
    def __init__(self, command: str, inputs: dict | None = None, out: str | None = None,
                 seed: int = DEFAULT_SEED, field: str = "Q", pretty: bool = False,
                 params: dict | None = None):
        self.command = command
        self.inputs = {} if inputs is None else inputs
        self.out = out
        self.seed = seed
        self.field = field
        self.pretty = pretty
        self.params = {} if params is None else params


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"input file not found: {path}") from None
    except OSError as e:
        raise SchemaError(f"{path}: cannot read input: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON: {e}") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply to parse") from None


# -- loaders: (JSON data, field) -> object ---------------------------------------


def _rho(data, field):
    rho = cio.morphism_from_json(data, field)
    if not check_morphism(rho).ok:
        raise SchemaError("rho is not a valid surjective coalgebra map")
    return rho


def _contramodule(name: str):
    """The loader of input name: a contramodule that passes its axioms."""
    def load(data, field):
        b = cio.contramodule_from_json(data, field)
        if not (verdict := check_contramodule(b)).ok:
            raise SchemaError(f"{name}: not a contramodule: {', '.join(verdict.failures)}")
        return b
    return load


def _ses_from_json(data, field):
    from .functors import ShortExactSeq

    if not isinstance(data, dict):
        raise SchemaError("ses: expected an object")
    for key in ("sub", "mid", "quot", "incl", "proj"):
        if key not in data:
            raise SchemaError(f"ses: missing {key}")
    sub, mid, quot = (_contramodule(f"ses.{k}")(data[k], field) for k in ("sub", "mid", "quot"))
    incl, proj = (cio.mat_from_json(data[k], sub.field, where=f"ses.{k}") for k in ("incl", "proj"))
    for key, mat, tgt, src in (("incl", incl, mid, sub), ("proj", proj, quot, mid)):
        if (mat.rows, mat.cols) != (tgt.dim, src.dim):
            raise SchemaError(f"ses.{key}: expected a {tgt.dim}x{src.dim} matrix, "
                              f"got {mat.rows}x{mat.cols}")
    return ShortExactSeq(sub, mid, quot, incl, proj)


def _battery(data, field):
    if not isinstance(data, list) or not all(isinstance(x, str) for x in data):
        raise SchemaError("battery: expected a JSON list of module expressions")
    if not data:
        raise SchemaError("battery: empty, so there is nothing to check")
    return data


# -- jobs: (job, *loaded inputs) -> (report fields, every check passed) ---------


def _verify(job, obj):
    if isinstance(obj, Contramodule):  # a Comodule too
        kind, verdict = "contramodule", check_contramodule(obj)
    elif isinstance(obj, Comodule):
        kind, verdict = "comodule", check_comodule(obj)
    elif hasattr(obj, "matrix"):
        kind, verdict = "morphism", check_morphism(obj)
    else:
        kind, verdict = "coalgebra", check_coalgebra(obj)
    return {"kind": kind, "ok": verdict.ok, "failures": verdict.failures}, verdict.ok


def _check_size(job, dims: str, size: int):
    """Refuse a job, before it builds anything, whose largest flattened space
    has dimension above ``io.MAX_DIM``, the rule the tower applies to its
    Cohoms."""
    if size > cio.MAX_DIM:
        raise SchemaError(f"{job.command}: {dims} give a space of dimension {size}, above {cio.MAX_DIM}")


def _induce(job, rho, w):
    from .functors import Induction

    # inducing W along rho: C -> D works in Hom(C, W) = C* (x) W
    c = rho.source.dim
    _check_size(job, f"dim C {c} and dim W {w.dim}", c * w.dim)
    # induce asserts the contramodule axioms of what it returns
    res = Induction(rho).induce(w)
    return {"dim_W": w.dim, "dim_induced": res.dim, "axioms_ok": True}, True


def _adjoint_check(job, rho, w, v):
    from .functors import adjunction_check

    # Hom(Ind W, V) lies inside Hom(C* (x) W, V)
    c = rho.source.dim
    _check_size(job, f"dim C {c}, dim W {w.dim} and dim V {v.dim}", c * w.dim * v.dim)
    rep = adjunction_check(rho, w, v)
    dims = {"lhs_dim": rep.lhs_dim, "rhs_dim": rep.rhs_dim}
    return {"adjunction": dims, "roundtrip_ok": rep.roundtrip_ok}, rep.ok


def _exactness(job, rho, ses):
    from .functors import Induction

    # the middle term is the largest one induced; random_contra_ses draws
    # middle terms of dim at most 2 dim D
    c = rho.source.dim
    what, mid = ("dim mid", ses.mid.dim) if ses is not None else ("drawn dim mid up to", 2 * rho.target.dim)
    _check_size(job, f"dim C {c} and {what} {mid}", c * mid)
    probes = [ses]
    if ses is None:
        from .randomgen import random_contra_ses

        wanted = job.params["samples"]
        if wanted < 1:
            raise SchemaError("exactness: --samples must be at least 1")
        if wanted > MAX_SAMPLES:
            raise SchemaError(f"exactness: --samples must be at most {MAX_SAMPLES}")
        rng = random.Random(job.seed)
        probes = []
        guard = 0
        while len(probes) < wanted and guard < wanted * 50:
            guard += 1
            ses = random_contra_ses(rng, rho.target)
            if ses is not None:
                probes.append(ses)
        if len(probes) < wanted:
            raise SchemaError("exactness: could not draw enough nondegenerate sequences")
    # rho is checked surjective, and C pushed to a D-comodule, once per job
    induction = Induction(rho)
    failures = []
    for idx, ses in enumerate(probes):
        verdict = induction.exactness_probe(ses)
        if not verdict.exact:
            failures.append({"probe": idx, "positions": verdict.failures, "dims": list(verdict.dims)})
    return {"exactness": {"total": len(probes), "failures": failures}}, not failures


def _sized(fn):
    """A two-object job, which works in the flattened space X* (x) Y."""
    def guarded(job, x, y):
        _check_size(job, f"dims {x.dim} and {y.dim}", x.dim * y.dim)
        return fn(job, x, y)
    return guarded


def _duality(job, v, w):
    rep = duality_check(v, w)
    return {"cohom_dim": rep.cohom_dim, "hom_dim": rep.hom_dim,
            "pairing_rank": rep.pairing_rank, "ok": rep.ok}, rep.ok


def _tower(job, battery):
    from .towers import cohom_tower

    # cohom_tower refuses a tower too large to build, or one that compares
    # nothing, before it builds anything
    p, lam, mmax = job.params["p"], job.params["lambda"], job.params["mmax"]
    reports = cohom_tower(battery, lam, p, mmax)
    ok = all(rep.match for rep in reports)
    return {"towers": [rep.to_json() for rep in reports], "all_match": ok}, ok


class Command(NamedTuple):
    help: str
    inputs: tuple     # (spelling, loader): "first" positional, "--rho" required, "[--ses]" optional
    job: Callable     # (JobSpec, *loaded inputs) -> (report fields, every check passed)
    ints: tuple = ()  # (spelling, default) per integer option; no default: required


def _name(spelling: str) -> str:
    return spelling.strip("[]-")


_COMODULES = (("first", cio.comodule_from_json), ("second", cio.comodule_from_json))
_COMODULE_CONTRA = (("first", cio.comodule_from_json), ("second", cio.contramodule_from_json))

COMMANDS = {
    "verify": Command("check the axioms of a serialized object",
                      (("input", cio.detect_and_load),), _verify),
    "hom": Command("dimension of the comodule hom space", _COMODULES,
                   _sized(lambda job, m, n: ({"dim": hom_comodules(m, n).dim}, True))),
    "cotensor": Command("cotensor of a right and a left comodule", _COMODULES,
                        _sized(lambda job, m, n: ({"dim": cotensor(m, n).dim}, True))),
    "contratensor": Command("contratensor of a right comodule and a contramodule", _COMODULE_CONTRA,
                            _sized(lambda job, m, b: ({"dim": contratensor(m, b).dim}, True))),
    "cohom": Command("Cohom of a left comodule and a contramodule", _COMODULE_CONTRA,
                     _sized(lambda job, m, b: ({"dim": cohom(m, b).dim}, True))),
    "induce": Command("induce a contramodule along a surjection",
                      (("--rho", _rho), ("--W", _contramodule("W"))), _induce),
    "adjoint-check": Command("induction/restriction adjunction report",
                             (("--rho", _rho), ("--W", _contramodule("W")), ("--V", _contramodule("V"))),
                             _adjoint_check),
    "exactness": Command("probe exactness of induction on sequences",
                         (("--rho", _rho), ("[--ses]", _ses_from_json)), _exactness,
                         (("--samples", 10),)),
    "duality": Command("Cohom against the dual hom space",
                       (("--V", cio.comodule_from_json), ("--W", cio.comodule_from_json)),
                       _sized(_duality)),
    "tower": Command("stabilization table for the twisted tensor tower",
                     (("--battery", _battery),), _tower,
                     (("--p", None), ("--lambda", None), ("--mmax", None))),
}


def run(job: JobSpec) -> tuple[int, dict]:
    """Execute one job; returns (exit code, report payload).  Malformed or
    out-of-range input, wherever it is detected, ends the job with exit 2."""
    report = {"command": job.command, "seed": job.seed}
    try:
        row = COMMANDS[job.command]
        field = parse_field_flag(job.field)
        loaded = []
        for spelling, load in row.inputs:
            name = _name(spelling)
            absent = name not in job.inputs and spelling.startswith("[")
            loaded.append(None if absent else load(_load_json(job.inputs[name]), field))
        fields, ok = row.job(job, *loaded)
    except (ValueError, ZeroDivisionError, KeyError, NotImplementedError) as e:
        # str() of a KeyError is the repr of its message
        message = e.args[0] if isinstance(e, KeyError) and e.args else e
        report["error"] = str(message) or type(e).__name__
        return EXIT_INPUT_ERROR, report
    report.update(fields)
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), report


def _emit(job: JobSpec, report: dict):
    text = json.dumps(report, indent=2 if job.pretty else None, sort_keys=True)
    if job.out:
        with open(job.out, "w") as fh:
            fh.write(text + "\n")
    else:
        # flushed here, so a closed pipe fails inside main's handler and
        # not in the interpreter's flush at exit
        print(text, flush=True)


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
    for name, row in COMMANDS.items():
        sp = sub.add_parser(name, help=row.help, parents=[common])
        for spelling, _ in row.inputs:
            if spelling.startswith("--"):
                sp.add_argument(spelling, required=True)
            else:
                sp.add_argument(spelling.strip("[]"))
        for spelling, default in row.ints:
            sp.add_argument(spelling, type=int, default=default, required=default is None)
    return ap


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    row = COMMANDS[command]
    inputs = {_name(s): args.pop(_name(s)) for s, _ in row.inputs}
    params = {_name(s): args.pop(_name(s)) for s, _ in row.ints}
    # what is left in args are the global flags given on the command line
    job = JobSpec(command, {k: v for k, v in inputs.items() if v is not None}, params=params, **args)
    code, report = run(job)
    try:
        _emit(job, report)
    except OSError as e:
        if isinstance(e, BrokenPipeError) and not job.out:
            # the reader of stdout went away, which does not change the
            # verdict; stdout goes to devnull so the flush at exit cannot
            # fail on the pipe again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return code
        error = f"cannot write the report to {job.out}: {e.strerror or e}"
        _emit(job.replace(out=None), {"command": job.command, "seed": job.seed, "error": error})
        return EXIT_INPUT_ERROR
    return code


def entry():
    """The process entry of the console script and ``python -m
    contramod.cli``: run ``main``, flush the report, and end the process
    without interpreter teardown, which would only free objects the exiting
    process drops anyway.  An exception, or argparse's exit on ``--help`` or
    a bad flag, leaves the usual way."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the process started with it closed
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
