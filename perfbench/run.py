"""csdesign benchmark: the design -> measure -> OMP recovery -> score pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lambda-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each workload is a closed loop with one sequential caller in this one
process: a job (a fixed list of library calls on inputs generated from
``--seed``) is repeated until ``--seconds`` have passed, each job
starting when the previous one returns.  The BLAS thread variables are
set to 1 before numpy loads: on a machine of a few shared cores,
OpenBLAS's default threads make every mid-sized product wait for the
busiest core, and a run then measures its neighbours rather than the
program.  ``--default-blas-threads`` leaves the variables as the
environment has them, for a diagnostic run that is reported beside the
gated numbers and never gated.

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run (see ``tracing.py``), which first
repeats the job untraced for half the time so that the tracing overhead
can be given.  The lines before it record the machine and a readable
report, including the figures that are not gated (failed operations,
unconverged designs, sample counts).  The full result, with the spans
of a traced run, is written once at the end to ``perfbench/out/``.

Exit status 0 means a result was printed, whether or not it is correct;
2 means the benchmark could not start (for example, no ``src/csdesign``
next to it).
"""

from __future__ import annotations

import os
import sys
import time

LOAD_AT_START = os.getloadavg()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference.json"

#: seed whose outputs are compared with ``reference.json``
DEFAULT_SEED = 1
#: seed kept out of development, for confirming a claimed gain
HELD_OUT_SEED = 7919
#: the set-up runs before every job, and at least this many times per run;
#: its median is reported
SETUP_REPS = 7
#: a reference rho_mse may be exceeded by at most this share
REFERENCE_REL_TOL = 0.05

MODULES = ("streams", "matio", "coherence", "objective", "solver", "recovery",
           "synth", "experiments", "cli")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_library() -> SimpleNamespace:
    """Import csdesign afresh from the ``src`` directory beside the benchmark."""
    for name in [m for m in sys.modules if m == "csdesign" or m.startswith("csdesign.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("csdesign")
    location = Path(package.__file__).resolve().parent.parent
    if location != SRC:
        raise ImportError(f"csdesign was imported from {location}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"csdesign.{m}") for m in MODULES})


def machine_record() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "loadavg_at_start": list(LOAD_AT_START),
        "machine": platform.machine(),
    }


def slowest_point(jobs: list) -> float:
    """The job's slowest operation, timed as the median of its repetitions.

    A job repeats the same few operations (at most 11), so the highest
    percentile with ten samples beyond it would move with the number of
    repetitions that happen to fit in a run.  The slowest operation is
    the tail that does not.
    """
    width = min(len(job.point_ms) for job in jobs)
    return max(statistics.median(job.point_ms[i] for job in jobs) for i in range(width))


def run_jobs(wl, seconds: float, setup, tracer=None) -> tuple[list, object, dict]:
    """Repeat the job until `seconds` have passed (at least once).

    ``setup()`` returns (lib, inputs).  Untraced, it runs before every
    job, so that set-up is sampled across the whole run as the jobs are;
    traced, it runs once and the jobs share its library.  Returns the
    jobs and the last (lib, inputs).
    """
    from workloads import Job

    jobs = []
    start = time.perf_counter()
    if tracer is not None:
        lib, inputs = setup()
    while True:
        if tracer is None:
            lib, inputs = setup()
        job = Job()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                wl.run_job(lib, inputs, job)
            else:
                with tracer.span(tracing.JOB_SPAN):
                    wl.run_job(lib, inputs, job)
        except Exception as exc:  # a failing operation must not stop the run
            traceback.print_exc(file=sys.stderr)
            job.fail("job", f"raised {type(exc).__name__}: {exc}")
        job.wall_s = time.perf_counter() - t0
        job.cpu_s = time.process_time() - c0
        if jobs:  # only the first job's designs are checked; drop the rest
            job.designs.clear()
            job.records.clear()
        jobs.append(job)
        if time.perf_counter() - start >= seconds:
            return jobs, lib, inputs


def reference_for(wl, seed: int) -> dict | None:
    """Reference rho_mse values, when this run's inputs are those of the reference."""
    if seed != DEFAULT_SEED or wl != type(wl)() or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text())["workloads"].get(wl.name)


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = str(OUT_DIR)
    setup_times = []

    def timed_setup():
        t0 = time.perf_counter()
        lib = load_library()
        inputs = wl.prepare(lib, seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        return lib, inputs

    jobs, lib, inputs = run_jobs(wl, seconds / 2 if trace else seconds, timed_setup)
    while len(setup_times) < SETUP_REPS:
        timed_setup()
    tracer = None
    traced_jobs = []
    if trace:
        tracer = tracing.Tracer()

        def traced_setup():
            with tracer.span(tracing.SETUP_SPAN):
                return lib, wl.prepare(lib, seed, workdir)

        with tracer.patched(lib):
            traced_jobs, _, _ = run_jobs(wl, seconds / 2, traced_setup, tracer)

    failures = {}
    attempted = 0
    first = jobs[0]
    for i, job in enumerate(jobs + traced_jobs):
        attempted += job.attempted
        for key, message in job.failures.items():
            failures[(i, key)] = message
        for key, value in job.outputs.items():
            if i and first.outputs.get(key) != value:
                failures[(i, key)] = "output differs from the first job's"
    finish = wl.finish(lib, inputs, first)
    attempted += finish.attempted
    for key, message in finish.failures.items():
        failures[("finish", key)] = message

    reference = reference_for(wl, seed)
    if reference is not None:
        got = {key: rho for key, rho, _ in finish.quality}
        for key, ref in reference.items():
            if key not in got or not got[key] <= ref * (1.0 + REFERENCE_REL_TOL):
                failures[("reference", key)] = (
                    f"rho_mse {got.get(key)!r} exceeds the reference {ref!r} "
                    f"by more than {REFERENCE_REL_TOL:.0%}")

    points = [p for job in jobs for p in job.point_ms]
    quality = finish.quality
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(j.wall_s for j in jobs), "s"),
        "cpu_s": (statistics.median(j.cpu_s for j in jobs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "point_ms_p50": (statistics.median(points), "ms"),
        "point_ms_tail": (slowest_point(jobs), "ms"),
        "rho_mse_mean": (statistics.fmean(q[1] for q in quality), "mse"),
        "mu_av_mean": (statistics.fmean(q[2] for q in quality), "1"),
    }
    failed = len(failures)
    report = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "jobs": len(jobs),
        "job_wall_s": [round(j.wall_s, 4) for j in jobs],
        "point_samples": len(points),
        "points_per_job": len(first.point_ms),
        "setup_reps": SETUP_REPS,
        # null where the designs stay inside the CLI
        "unconverged": (sum(not d.result.converged for _, d in first.designs)
                        if first.designs else None),
        "ops_attempted": attempted,
        "ops_failed": failed,
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "reference_checked": reference is not None,
        "failures": [f"{k[0]}:{k[1]}: {m}" for k, m in sorted(
            failures.items(), key=lambda kv: str(kv[0]))][:20],
    }
    if trace:
        metrics = tracing.layer_metrics(tracer, e2e["wall_s"][0])
    else:
        metrics = e2e
    return {
        "report": report,
        "point_ms_by_job": [job.point_ms for job in jobs],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "spans": tracer.dump() if tracer else [],
    }


def write_reference() -> None:
    """Record the outputs of every workload at DEFAULT_SEED (one job each)."""
    from workloads import WORKLOADS, Job

    lib = load_library()
    OUT_DIR.mkdir(exist_ok=True)
    table = {}
    for cls in WORKLOADS.values():
        wl = cls()
        inputs = wl.prepare(lib, DEFAULT_SEED, str(OUT_DIR))
        job = Job()
        wl.run_job(lib, inputs, job)
        finish = wl.finish(lib, inputs, job)
        if job.failures or finish.failures:
            raise RuntimeError(f"{wl.name} failed: {job.failures} {finish.failures}")
        table[wl.name] = {key: rho for key, rho, _ in finish.quality}
    REFERENCE.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "rel_tol": REFERENCE_REL_TOL, "workloads": table},
        indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--default-blas-threads", action="store_true",
                        help="diagnostic: leave the BLAS thread variables as they are "
                             "(never gated)")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"rewrite {REFERENCE.name} from seed {DEFAULT_SEED}")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.default_blas_threads:  # before numpy is imported
        for var in BLAS_THREAD_VARS:
            os.environ[var] = "1"
    try:
        load_library()
    except ImportError as exc:
        print(f"perfbench: cannot import csdesign from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.write_reference:
        write_reference()
        return 0
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    machine = machine_record()
    machine["default_blas_threads_diagnostic"] = args.default_blas_threads
    print("machine " + json.dumps(machine), flush=True)
    for name in names:
        out = run_workload(WORKLOADS[name](), args.seed, args.seconds, bool(args.trace))
        out["machine"] = machine
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        if args.default_blas_threads:
            stem += "-blasdefault"
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(out, indent=1) + "\n")
        print("report " + json.dumps(out["report"]))
        print("end_to_end " + "  ".join(
            f"{k}={m['value']:.6g} {m['unit']}" for k, m in out["end_to_end"].items()))
        print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
