"""The benchmark's workloads: inputs, one job, and the output checks.

Each workload is a closed loop with one sequential caller: a *job* is a
fixed list of library calls on inputs generated from the run's seed,
and the run repeats the job until its time is up.  Every repetition
does identical work, so repeated jobs must give bit-identical outputs.

A workload has three parts:

* ``prepare(lib, seed, workdir)`` builds the inputs from the seed with
  the library's own generators (this is timed as set-up);
* ``run_job(lib, inputs, job)`` runs one job, filling a :class:`Job`
  with per-point times, comparable outputs and failed operations;
* ``finish(lib, inputs, first)`` runs after the measured loop: the
  checks against independent oracles and any scoring the job itself
  does not do.  It returns the quality rows (key, rho_mse, mu_av).

Field defaults are the benchmark's sizes; tests pass smaller ones.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

#: the records CSV schema, written out here so that a schema change is caught
RECORDS_HEADER = (
    "method,param_name,param_value,seed,rho_mse,rho_psnr,mu,mu_av,"
    "phi_energy,proj_noise_energy,wall_time_ms"
)
RECORD_FLOATS = ("param_value", "rho_mse", "rho_psnr", "mu", "mu_av",
                 "phi_energy", "proj_noise_energy", "wall_time_ms")

#: |z| bound of the projected-noise law, as in acceptance criterion 3
LEMMA1_Z_BOUND = 4.0


@dataclass
class Job:
    """What one job produced."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    point_ms: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # op key -> value compared across jobs
    records: list = field(default_factory=list)  # (key, record)
    designs: list = field(default_factory=list)  # (key, Design)
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # op key -> message

    def fail(self, key: str, message: str) -> None:
        self.failures.setdefault(key, message)


@dataclass
class Design:
    """A design kept for the post-run checks, with the point it was made at."""

    method: str
    lam: float
    result: object
    point: dict  # params, seed, dataset, phi0

    @property
    def psi(self) -> np.ndarray:
        return self.point["dataset"].psi

    @property
    def phi0(self) -> np.ndarray:
        return self.point["phi0"]

    @property
    def sre(self) -> np.ndarray | None:
        return self.point["dataset"].train_sre() if self.method.startswith("lh") else None


@dataclass
class Finish:
    """Outcome of the post-run checks."""

    quality: list = field(default_factory=list)  # (key, rho_mse, mu_av)
    attempted: int = 0
    failures: dict = field(default_factory=dict)

    def fail(self, key: str, message: str) -> None:
        self.failures.setdefault(key, message)


def _key(method: str, name: str, value: float) -> str:
    return f"{method}|{name}={value:g}"


def _digest(a: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(a).tobytes(), digest_size=16).hexdigest()


def record_problems(rec: dict) -> list[str]:
    """Independent sanity checks of one record (a dict of floats)."""
    bad = [k for k in RECORD_FLOATS if not math.isfinite(rec[k])]
    if bad:
        return [f"non-finite {', '.join(bad)}"]
    problems = []
    if not rec["rho_mse"] > 0.0:
        problems.append(f"rho_mse {rec['rho_mse']!r} is not positive")
    if not 0.0 <= rec["mu_av"] <= rec["mu"] <= 1.0 + 1e-9:
        problems.append(f"coherences out of order: mu_av={rec['mu_av']}, mu={rec['mu']}")
    if rec["phi_energy"] < 0.0 or rec["proj_noise_energy"] < 0.0:
        problems.append("negative energy")
    return problems


def record_dict(rec) -> dict:
    return {k: float(getattr(rec, k)) for k in RECORD_FLOATS}


def design_problems(lib, design: Design, spec, grad_tol: float) -> list[str]:
    """Recompute the objective at the design with ``value_and_gradient``.

    Every design must lower the objective below its random start; a
    design that reports convergence must have a relative gradient norm
    at most ``grad_tol``, the solver's own stopping rule.
    """
    phi = np.asarray(design.result.phi)
    if not np.all(np.isfinite(phi)):
        return ["non-finite phi"]
    f, g = lib.objective.value_and_gradient(phi, spec)
    f0, _ = lib.objective.value_and_gradient(design.phi0, spec)
    problems = []
    if not f < f0:
        problems.append(f"objective {f:.6g} not below the start {f0:.6g}")
    if design.result.converged:
        rel = float(np.linalg.norm(g)) / max(1.0, float(np.linalg.norm(phi)))
        if rel > grad_tol:
            problems.append(f"converged but relative gradient norm {rel:.3g} > {grad_tol:g}")
    return problems


def _noise_scale(dataset) -> float:
    """sigma^2 * P: the factor between the training-free and SRE weights."""
    return dataset.sigma**2 * dataset.p


def _timed(job: Job, fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    job.point_ms.append(1e3 * (time.perf_counter() - start))
    return result


def _point(lib, params, seed: int) -> dict:
    """A dataset and a random start, drawn as ``run_lambda_sweep`` draws them."""
    return dict(params=params, seed=seed, dataset=lib.experiments.make_dataset(params, seed),
                phi0=lib.solver.random_projection(
                    params.m, params.n, lib.streams.derive_seed(seed, "phi0")))


def _check_designs(lib, first: Job, out: Finish, grad_tol: float) -> None:
    """Descent and stationarity of identity-target designs."""
    for key, d in first.designs:
        out.attempted += 1
        spec = lib.objective.ObjectiveSpec(psi=d.psi, lam=d.lam, sre=d.sre)
        for problem in design_problems(lib, d, spec, grad_tol):
            out.fail(key, problem)


def _score(lib, key, d: Design, out: Finish) -> None:
    """Score a design the job did not score (outside the timed loop)."""
    out.attempted += 1
    point = d.point
    rec = lib.experiments.evaluate_system(d.result.phi, point["dataset"], point["params"].k,
                                          d.method, "lambda", d.lam, point["seed"])
    _add_record(key, record_dict(rec), out)


def _add_record(key, values: dict, out: Finish) -> None:
    for problem in record_problems(values):
        out.fail(key, problem)
    out.quality.append((key, values["rho_mse"], values["mu_av"]))


@dataclass
class LambdaSweep:
    """The lambda sweep of acceptance criterion 4: each sweep seed has one
    dataset and one start, shared by every grid point."""

    name = "lambda-sweep"
    m: int = 20
    n: int = 60
    l: int = 80
    k: int = 4
    p: int = 1000
    snr_db: float = 15.0
    grid: tuple = tuple(np.linspace(0.0, 1.0, 11).tolist())
    sweeps: int = 2

    def prepare(self, lib, seed, workdir):
        params = lib.experiments.ExperimentParams(m=self.m, n=self.n, l=self.l, k=self.k,
                                                  p=self.p, snr_db=self.snr_db)
        return dict(points=[_point(lib, params, lib.streams.derive_seed(seed, f"{self.name}:{i}"))
                            for i in range(self.sweeps)])

    def run_job(self, lib, inputs, job):
        ex = lib.experiments
        for i, point in enumerate(inputs["points"]):
            params, ds = point["params"], point["dataset"]
            for lam in self.grid:
                key = f"{_key('mt', 'lambda', lam)}|sweep={i}"
                job.attempted += 1
                start = time.perf_counter()
                result = ex.design_for_method("mt", params, ds.psi, point["phi0"], float(lam),
                                              sre=ds.train_sre())
                rec = ex.evaluate_system(result.phi, ds, params.k, "mt", "lambda", float(lam),
                                         point["seed"], mu_bar=params.mu_bar)
                job.point_ms.append(1e3 * (time.perf_counter() - start))
                job.outputs[key] = (_digest(result.phi), rec.rho_mse)
                job.records.append((key, rec))
                job.designs.append((key, Design("mt", float(lam), result, point)))

    def finish(self, lib, inputs, first):
        out = Finish()
        _check_designs(lib, first, out, lib.solver.SolverConfig().grad_tol)
        for key, rec in first.records:
            _add_record(key, record_dict(rec), out)
        expected = self.sweeps * len(self.grid)
        if len(first.records) != expected:
            out.fail("records", f"{len(first.records)} records, expected {expected}")
        return out


@dataclass
class SnrSweepCli:
    """An SNR sweep and the noise-law check, driven through the CLI in process."""

    name = "snr-sweep-cli"
    m: int = 20
    n: int = 60
    l: int = 80
    k: int = 4
    p: int = 1000
    lam: float = 0.05
    snr_grid: tuple = (5.0, 15.0, 25.0, 35.0, 45.0)
    methods: tuple = ("randn", "mt", "lh")
    lemma1_p: int = 100000

    def prepare(self, lib, seed, workdir):
        sweep_seed = lib.streams.derive_seed(seed, self.name) % 2**31
        sweep = ["sweep", "--axis", "snr",
                 "--grid", ",".join(f"{s:g}" for s in self.snr_grid),
                 "--methods", ",".join(self.methods), "--seeds", str(sweep_seed),
                 "--m", str(self.m), "--n", str(self.n), "--l", str(self.l),
                 "--k", str(self.k), "--p", str(self.p), "--lambda", f"{self.lam:g}",
                 "--timing"]
        lemma1 = ["lemma1", "--random", f"{self.m},{self.n}", "--p", str(self.lemma1_p),
                  "--seed", str(sweep_seed)]
        return dict(sweep=sweep, lemma1=lemma1, workdir=workdir)

    def run_job(self, lib, inputs, job):
        expected = [_key(m, "snr", s) for s in self.snr_grid for m in self.methods]
        job.attempted += len(expected) + 1
        out_dir = tempfile.mkdtemp(prefix="sweep-", dir=inputs["workdir"])
        try:
            code, text = _call_cli(lib, inputs["sweep"] + ["--out", out_dir])
            if code != 0:
                for key in expected:
                    job.fail(key, f"sweep exited {code}: {text.strip()[-200:]}")
            else:
                self._read_records(f"{out_dir}/records.csv", expected, job)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        code, text = _call_cli(lib, inputs["lemma1"])
        report = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
        try:
            z = float(report["z_score"])
            trials = int(report["trials"])
        except (KeyError, ValueError):
            job.fail("lemma1", f"lemma1 exited {code} without a report: {text[-200:]!r}")
            return
        job.outputs["lemma1"] = z
        if code != 0 or trials != self.lemma1_p or not abs(z) <= LEMMA1_Z_BOUND:
            job.fail("lemma1", f"exit {code}, trials {trials}, z-score {z:.3g} "
                               f"(bound {LEMMA1_Z_BOUND:g})")

    def _read_records(self, path, expected, job):
        with open(path, encoding="ascii") as fh:
            header = fh.readline().strip()
            if header != RECORDS_HEADER:
                for key in expected:
                    job.fail(key, f"records header {header!r}")
                return
            rows = list(csv.DictReader(fh, fieldnames=RECORDS_HEADER.split(",")))
        found = {}
        for row in rows:
            key = _key(row["method"], row["param_name"], float(row["param_value"]))
            found[key] = {k: float(row[k]) for k in RECORD_FLOATS}
        for key in set(found) - set(expected):
            job.fail(key, "unexpected record")
        for key in expected:
            if key not in found:
                job.fail(key, "record missing")
                continue
            rec = found[key]
            job.records.append((key, rec))
            job.outputs[key] = rec["rho_mse"]
        # a point is one SNR of the sweep: the design time of its methods,
        # as the CLI's --timing records it
        for snr in self.snr_grid:
            job.point_ms.append(sum(rec["wall_time_ms"] for key, rec in job.records
                                    if rec["param_value"] == snr))
        if len(rows) != len(expected):
            job.fail("records", f"{len(rows)} records, expected {len(expected)}")

    def finish(self, lib, inputs, first):
        out = Finish()
        for key, rec in first.records:
            _add_record(key, rec, out)
        return out


def _call_cli(lib, argv) -> tuple[int, str]:
    """Run ``csdesign.cli.main`` with its output captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = lib.cli.main(argv)
    return code, sink.getvalue()


@dataclass
class EtfDesign:
    """Relaxed-ETF alternating designs, one dataset per lambda; nothing is
    recovered while timed."""

    name = "etf-design"
    m: int = 20
    n: int = 60
    l: int = 80
    k: int = 4
    p: int = 1000
    snr_db: float = 15.0
    outer_iters: int = 50
    lams: tuple = (0.5, 1.0)
    methods: tuple = ("mt-etf", "lh-etf")

    def prepare(self, lib, seed, workdir):
        params = lib.experiments.ExperimentParams(
            m=self.m, n=self.n, l=self.l, k=self.k, p=self.p, snr_db=self.snr_db,
            outer_iters=self.outer_iters)
        return dict(points={lam: _point(lib, params,
                                        lib.streams.derive_seed(seed, f"{self.name}:{lam:g}"))
                            for lam in self.lams})

    def run_job(self, lib, inputs, job):
        for lam, point in inputs["points"].items():
            ds = point["dataset"]
            for method in self.methods:
                # the SRE designs run at the noise-law twin of the training-free weight
                run_lam = lam if method == "mt-etf" else lam / _noise_scale(ds)
                key = _key(method, "lambda", lam)
                job.attempted += 1
                result = _timed(job, lib.experiments.design_for_method, method,
                                point["params"], ds.psi, point["phi0"], run_lam,
                                sre=ds.train_sre())
                job.outputs[key] = _digest(result.phi)
                job.designs.append((key, Design(method, run_lam, result, point)))

    def finish(self, lib, inputs, first):
        """Check each design against the target of its last round.

        That target is the relaxed-ETF projection of the Gram at the
        previous round's matrix, which a rerun with one round fewer
        reproduces bit for bit.  Each design is then scored.
        """
        out = Finish()
        grad_tol = lib.solver.SolverConfig().grad_tol
        for key, d in first.designs:
            out.attempted += 1
            params = d.point["params"]
            rounds = len({p.outer_iter for p in d.result.trace})
            if rounds != self.outer_iters:
                out.fail(key, f"{rounds} outer rounds, expected {self.outer_iters}")
            prev = d.point["phi0"]
            if self.outer_iters > 1:
                prev = lib.experiments.design_for_method(
                    d.method, dataclasses.replace(params, outer_iters=self.outer_iters - 1),
                    d.psi, prev, d.lam, sre=d.point["dataset"].train_sre()).phi
            eq = prev @ d.psi
            target = lib.solver.project_to_relaxed_etf(eq.T @ eq, params.resolved_xi())
            spec = lib.objective.ObjectiveSpec(psi=d.psi, gram_target=target.data,
                                               lam=d.lam, sre=d.sre)
            for problem in design_problems(lib, d, spec, grad_tol):
                out.fail(key, problem)
            _score(lib, key, d, out)
        return out


@dataclass
class HighdimDesign:
    """mt and lh designs on the scaling axis L = 2N, M = N/3, with the CG
    iterations capped so that every seed does the same work."""

    name = "highdim-design"
    ns: tuple = (64, 256)
    k: int = 4
    p: int = 1000
    snr_db: float = 15.0
    lam: float = 0.5
    max_cg_iterations: int = 100

    def prepare(self, lib, seed, workdir):
        points = []
        for n in self.ns:
            params = lib.experiments.ExperimentParams(m=n // 3, n=n, l=2 * n, k=self.k,
                                                      p=self.p, snr_db=self.snr_db)
            points.append(_point(lib, params, lib.streams.derive_seed(seed, f"{self.name}:{n}")))
        return dict(points=points,
                    cfg=lib.solver.SolverConfig(max_cg_iterations=self.max_cg_iterations))

    def run_job(self, lib, inputs, job):
        ex = lib.experiments
        for point in inputs["points"]:
            params, ds = point["params"], point["dataset"]
            designs = {}
            for method in ("mt", "lh"):
                run_lam = self.lam if method == "mt" else self.lam / _noise_scale(ds)
                key = _key(method, "n", params.n)
                job.attempted += 1
                result = _timed(job, ex.design_for_method, method, params, ds.psi,
                                point["phi0"], run_lam, sre=ds.train_sre(), cfg=inputs["cfg"])
                job.outputs[key] = _digest(result.phi)
                designs[method] = result
                job.designs.append((key, Design(method, run_lam, result, point)))
            key = _key("mt", "n", params.n)
            job.attempted += 1
            rec = ex.evaluate_system(designs["mt"].phi, ds, params.k, "mt", "n", params.n,
                                     point["seed"], mu_bar=params.mu_bar)
            job.outputs[key + "|eval"] = rec.rho_mse
            job.records.append((key, rec))

    def finish(self, lib, inputs, first):
        """Check every design; score the lh designs, which the job does not."""
        out = Finish()
        _check_designs(lib, first, out, inputs["cfg"].grad_tol)
        for key, rec in first.records:
            _add_record(key, record_dict(rec), out)
        for key, d in first.designs:
            if d.method == "lh":
                _score(lib, key, d, out)
        return out


WORKLOADS = {w.name: w for w in (LambdaSweep, SnrSweepCli, EtfDesign, HighdimDesign)}
