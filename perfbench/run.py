#!/usr/bin/env python3
"""The contramod benchmark: run one workload, print its metrics.

    python3 perfbench/run.py --workload tower_g4 --seed 1 --seconds 20 --trace 0

Users run one CLI job per process, or a library battery, and wait for a
certified verdict; so a run reports how long a job takes, how much CPU and
memory it needs, and whether every verdict is right.  Every workload is a
closed loop with one client: jobs run one after another from this process,
never more than one job process at a time.

- ``readme_cli``: every README command line exactly as written, each in its
  own process.  Interpreter start, import and JSON I/O dominate.
- ``tower_g4``: ``tower --mmax 4`` on the battery L0, L1*L1.  The scale
  point: Cohom coequalizers of 1M and 4M columns, about 2 GB peak.
- ``verify_g3``: ``verify`` on k[G_3] and the 64-dimensional stage P(0,3):
  the column-by-column axiom checkers, per-scalar field arithmetic.
- ``battery_q``: a seeded library battery over Q in a child process of its
  own (``battery.py``): the generic echelon engine and Fraction arithmetic.

Only ``battery_q`` uses ``--seed``; the other three are deterministic.  A run
repeats its job set while another set fits in ``--seconds`` (at least once)
and reports medians over sets.  The run and its jobs share one CPU, and every
time is scaled to a reference host speed measured alongside (``calib.py``);
the unscaled times are printed above the result.  ``--trace 1`` runs the job set in this
process twice, untraced and then traced, and reports per-layer metrics and
the tracing overhead; the spans go to ``perfbench/out/``.  ``--quick`` runs
each workload once at its smallest size.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A job fails when it crashes,
prints a traceback, times out, or its exit code or report differs from the
pinned answer; ``correct`` is false when a job gave a wrong answer rather
than no answer.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

import calib
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SPAWNS = 11
NO_WAIT_NOTE = ("no wait-time metrics: every job is single-threaded and runs alone, "
                "with no queue in front of it")


# -- host ---------------------------------------------------------------------


def host_state() -> dict:
    steal = None
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        steal = int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except OSError:
        pass
    return {"loadavg": os.getloadavg(), "steal_ticks": steal}


# -- child processes ------------------------------------------------------------


def child_env() -> dict:
    # the checkout's sources, and one string hash order on every run
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("PYTHONSTARTUP", None)
    return env


def spawn(argv, cwd, timeout, out_path, err_path) -> dict:
    """Run one process to its end; wall time, its own rusage, exit code."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "timed_out": killed.is_set(),
        "stdout": Path(out_path).read_text(errors="replace"),
        "stderr": Path(err_path).read_text(errors="replace"),
    }


def setup_seconds(work: Path, workload: str) -> float:
    """Median wall time from a fresh interpreter to the program ready."""
    if workload == "battery_q":
        argv = [sys.executable, str(HERE / "battery.py"), "--setup"]
    else:
        argv = [sys.executable, "-c", "import contramod.cli"]
    times = []
    for _ in range(SETUP_SPAWNS):
        res = spawn(argv, work, 60, work / "setup.out", work / "setup.err")
        if res["code"] != 0:
            raise RuntimeError(f"set-up failed: {res['stderr'][-500:]}")
        times.append(res["wall"])
    return statistics.median(times)


# -- outcomes -------------------------------------------------------------------


def outcome(job, code, stdout: str, stderr: str, timed_out: bool) -> str | None:
    """None for the pinned answer; 'refused: ...' for no answer (crash,
    traceback, timeout, input error); 'wrong: ...' for a different answer."""
    if timed_out:
        return "refused: timed out"
    if "Traceback (most recent call last)" in stderr:
        return "refused: traceback"
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    if code not in (0, 1) or report is None:
        return f"refused: exit {code}" + ("" if report else ", no report")
    bad = workloads.check(job.expect, code, report)
    return None if bad is None else f"wrong: {bad}"


# -- untraced runs ----------------------------------------------------------------


def run_sets(run_set, seconds: float, quick: bool) -> list:
    sets = []
    start = perf_counter()
    while True:
        sets.append(run_set())
        if quick or perf_counter() - start + sets[-1]["wall"] > seconds:
            return sets


def cli_sets(wl, work: Path, seconds: float) -> list:
    def one_set():
        jobs = []
        for i, job in enumerate(wl.jobs):
            argv = [sys.executable, "-m", "contramod.cli", *job.argv]
            res = spawn(argv, work, wl.timeout, work / f"job{i}.out", work / f"job{i}.err")
            res["outcome"] = outcome(job, res["code"], res["stdout"], res["stderr"], res["timed_out"])
            res["line"] = job.line
            del res["stdout"], res["stderr"]
            jobs.append(res)
        return {"wall": sum(j["wall"] for j in jobs), "jobs": jobs}

    return run_sets(one_set, seconds, wl.quick)


def battery_sets(wl, work: Path, seed: int, seconds: float) -> tuple[list, float]:
    argv = [sys.executable, str(HERE / "battery.py"), "--seed", str(seed), "--seconds", str(seconds)]
    if wl.quick:
        argv.append("--quick")
    res = spawn(argv, work, 170, work / "battery.out", work / "battery.err")
    if res["code"] != 0 or res["timed_out"]:
        raise RuntimeError(f"battery_q child failed (exit {res['code']}): {res['stderr'][-800:]}")
    data = json.loads(res["stdout"].strip().splitlines()[-1])
    sets = []
    for s in data["sets"]:
        bad = {w["trial"]: "wrong: " + ",".join(w["checks"]) for w in s["wrong"]}
        bad.update({c["trial"]: "refused: crashed" for c in s["crashed"]})
        jobs = [{"wall": t, "outcome": bad.get(i), "line": f"trial {i}"}
                for i, t in enumerate(s["trial_walls"])]
        sets.append({"wall": s["wall"], "cpu": s["cpu"], "jobs": jobs})
    return sets, res["rss_mb"]


def tail(samples: list) -> tuple[float, int, int]:
    """The highest whole percentile with at least ten samples beyond it:
    (value, percentile, samples beyond).  Under 11 samples, the maximum."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100, 0
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)  # nearest rank
    return xs[rank - 1], pct, n - rank


def job_samples(sets: list) -> list:
    """One wall time per distinct job (or battery trial): its median over the
    run's sets.  Raw samples would put the median and tail at a different job
    whenever the number of sets that fit in a run changes."""
    return [statistics.median(s["jobs"][i]["wall"] for s in sets) for i in range(len(sets[0]["jobs"]))]


def end_to_end(sets: list, setup_s: float, peak_mb: float, samples: list,
               cal: list) -> tuple[dict, dict]:
    """Metrics of an untraced run, plus notes for the report.  Times are
    scaled to the reference host speed (see calib.py)."""
    walls = [s["wall"] for s in sets]
    cpus = [s["cpu"] if "cpu" in s else sum(j["cpu"] for j in s["jobs"]) for s in sets]
    value, pct, beyond = tail(samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_s": (statistics.median(samples), "s"),
        "job_tail_s": (value, "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = {"sets": len(sets), "jobs_per_set": len(sets[0]["jobs"]),
             "job_tail": f"p{pct} of {len(samples)} jobs, {beyond} beyond"}
    speed = calib.REF_S / statistics.median(cal)
    notes["host_speed"] = (f"reference loop median {statistics.median(cal) * 1e3:.3f} ms CPU over "
                           f"{len(cal)} samples; times scaled by {speed:.4f}")
    notes["unscaled"] = {k: round(v, 6) for k, (v, u) in metrics.items() if u == "s"}
    return {k: {"value": v * speed if u == "s" else v, "unit": u}
            for k, (v, u) in metrics.items()}, notes


# -- traced runs (in this process) ---------------------------------------------------


def clear_caches():
    for name, mod in list(sys.modules.items()):
        if name.startswith("contramod"):
            for obj in list(vars(mod).values()):
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def inprocess_job(job, work: Path) -> tuple[float, str | None]:
    from contramod import cli

    out, err = io.StringIO(), io.StringIO()
    clear_caches()
    here = os.getcwd()
    os.chdir(work)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(job.argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
            except Exception:  # a crash is a failed job, with its traceback
                traceback.print_exc()
                code = None
    finally:
        wall = perf_counter() - start
        os.chdir(here)
    return wall, outcome(job, code, out.getvalue(), err.getvalue(), False)


def inprocess_set(wl, work: Path, tracer=None, trials=None) -> dict:
    """One job set in this process; with a tracer, each job's spans carry
    the job's index."""
    def mark(i):
        if tracer is not None:
            tracer.job = i

    if trials is not None:
        import battery

        res = battery.run_set(trials, mark)
        bad = {w["trial"] for w in res["wrong"]} | {c["trial"] for c in res["crashed"]}
        jobs = [{"outcome": "failed" if i in bad else None, "line": f"trial {i}"}
                for i in range(len(trials))]
        return {"wall": res["wall"], "jobs": jobs}
    jobs = []
    for i, job in enumerate(wl.jobs):
        mark(i)
        wall, why = inprocess_job(job, work)
        jobs.append({"wall": wall, "outcome": why, "line": job.line})
    return {"wall": sum(j["wall"] for j in jobs), "jobs": jobs}


def traced_run(wl, work: Path, seed: int, per_layer: list):
    from tracer import Tracer, layer_metrics

    import contramod.cli  # noqa: F401  (import the layers before wrapping them)

    trials = None
    if wl.name == "battery_q":
        import battery

        trials = battery.draw_trials(seed, wl.quick)
    plain = inprocess_set(wl, work, trials=trials)
    tracer = Tracer()
    tracer.install()
    try:
        traced = inprocess_set(wl, work, tracer, trials)
    finally:
        tracer.uninstall()
    overhead = traced["wall"] - plain["wall"]
    metrics = layer_metrics(tracer, overhead, per_layer)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.dump(spans_path)
    self_s, _ = tracer.self_times()
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:8]
    notes = {
        "untraced_wall_s": round(plain["wall"], 4),
        "traced_wall_s": round(traced["wall"], 4),
        "trace_overhead_s": round(overhead, 4),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "top_self_s": {k: round(v, 4) for k, v in top},
        "cohom_maps_inclusive_s": round(tracer.inclusive("contramodule.cohom_maps"), 4),
    }
    return [plain, traced], metrics, notes


# -- main ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one contramod benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="each workload once, at its smallest size")
    args = ap.parse_args(argv)

    if not (SRC / "contramod" / "cli.py").is_file() or not (ROOT / "scripts" / "make_cli_examples.py").is_file():
        print(f"perfbench: no contramod sources under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(why)}",
              file=sys.stderr)
        return 2
    wl = workloads.get(args.workload, args.quick)
    # One CPU for this process and every job: the two CPUs of a shared host
    # can differ in speed by a third, and a job should not change CPU midway.
    cpu = min(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        cpu = "none (not permitted)"
    work = HERE / "work" / f"{wl.name}-{os.getpid()}"
    try:
        wl.prepare(work)
        before = host_state()
        if args.trace:
            sets, metrics, notes = traced_run(wl, work, args.seed, spec["per_layer"])
        else:
            with calib.SpeedSampler() as speed:
                setup_s = setup_seconds(work, wl.name)
                if wl.name == "battery_q":
                    sets, peak = battery_sets(wl, work, args.seed, args.seconds)
                else:
                    sets = cli_sets(wl, work, args.seconds)
                    peak = max(j["rss_mb"] for s in sets for j in s["jobs"])
            metrics, notes = end_to_end(sets, setup_s, peak, job_samples(sets),
                                        speed.samples)
        after = host_state()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jobs = [j for s in sets for j in s["jobs"]]
    failed = [j for j in jobs if j["outcome"]]
    wrong = [j for j in failed if j["outcome"].startswith("wrong")]
    print(f"workload {wl.name}: {why[wl.name]}; closed loop, one client, one job at a time; "
          + (f"inputs drawn from seed {args.seed}" if wl.seeded else "deterministic, seed unused"))
    print(f"host: nproc {os.cpu_count()}, pinned to cpu {cpu}, python {platform.python_version()}, "
          f"loadavg {before['loadavg'][0]:.2f} -> {after['loadavg'][0]:.2f}, "
          f"cpu steal ticks {before['steal_ticks']} -> {after['steal_ticks']}")
    for key, val in notes.items():
        print(f"  {key}: {val}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':36s} {len(failed) / len(jobs):.6g} ratio ({len(failed)}/{len(jobs)})")
    for line in sorted({f"{j['line']}: {j['outcome']}" for j in failed}):
        print(f"    failed: {line}")
    print(f"  {NO_WAIT_NOTE}")
    print(json.dumps({"correct": not wrong, "attempted": len(jobs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
