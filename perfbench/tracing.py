"""Span tracing of csdesign from outside the library.

The traced run wraps the public functions of each module in the
namespace that calls them.  Modules import names directly (``from
.recovery import batch_recover``), so wrapping ``csdesign.recovery.
batch_recover`` alone would miss the call made by ``experiments``; the
table below names every caller.  Nothing under ``src/`` changes.

A span holds a name, a start, an end and the index of its parent span.
Spans are kept in memory and written once when the run ends.  A span's
self time is its duration minus the durations of its direct children,
which never overlap because the pipeline is sequential.

Operation counts labelled ``_computed`` are derived from array shapes
with the model in :func:`objective_cost` and :func:`omp_cost`; they are
not measured.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import os
import statistics
import time

#: (module attribute of the library namespace, function name, span name)
PATCHES = (
    ("cli", "main", "cli.main"),
    ("cli", "run_snr_sweep", "experiments.run_snr_sweep"),
    ("cli", "run_lambda_sweep", "experiments.run_lambda_sweep"),
    ("cli", "run_dimension_sweeps", "experiments.run_dimension_sweeps"),
    ("cli", "design_for_method", "experiments.design_for_method"),
    ("cli", "evaluate_system", "experiments.evaluate_system"),
    ("cli", "write_records_csv", "experiments.write_records_csv"),
    ("cli", "random_projection", "solver.random_projection"),
    ("cli", "write_trace_csv", "solver.write_trace_csv"),
    ("cli", "gen_dictionary", "synth.gen_dictionary"),
    ("cli", "gen_sparse_codes", "synth.gen_sparse_codes"),
    ("cli", "gen_signals", "synth.gen_signals"),
    ("cli", "lemma1_check", "synth.lemma1_check"),
    ("cli", "welch_bound", "coherence.welch_bound"),
    ("cli", "read_keyvalues", "matio.read_keyvalues"),
    ("cli", "read_matrix_csv", "matio.read_matrix_csv"),
    ("cli", "write_keyvalues", "matio.write_keyvalues"),
    ("cli", "write_matrix_csv", "matio.write_matrix_csv"),
    ("experiments", "make_dataset", "experiments.make_dataset"),
    ("experiments", "design_for_method", "experiments.design_for_method"),
    ("experiments", "evaluate_system", "experiments.evaluate_system"),
    ("experiments", "design_mt", "solver.design"),
    ("experiments", "alternating_design", "solver.design"),
    ("experiments", "design_lh", "solver.design"),
    ("experiments", "design_lh_etf", "solver.design"),
    ("experiments", "random_projection", "solver.random_projection"),
    ("experiments", "batch_recover", "recovery.batch_recover"),
    ("experiments", "equivalent_dictionary", "coherence.equivalent_dictionary"),
    ("experiments", "mutual_coherence", "coherence.mutual_coherence"),
    ("experiments", "average_mutual_coherence", "coherence.average_mutual_coherence"),
    ("experiments", "welch_bound", "coherence.welch_bound"),
    ("experiments", "gen_dictionary", "synth.gen_dictionary"),
    ("experiments", "gen_sparse_codes", "synth.gen_sparse_codes"),
    ("experiments", "gen_signals", "synth.gen_signals"),
    ("solver", "value_and_gradient", "objective.value_and_gradient"),
    ("solver", "objective_value", "objective.objective_value"),
    ("solver", "stream", "streams.stream"),
    ("recovery", "omp", "recovery.omp"),
    ("synth", "stream", "streams.stream"),
)

#: layers reported with a share of the traced wall time; "bench" is the
#: benchmark's own code between library calls
LAYERS = ("bench", "cli", "experiments", "solver", "objective", "recovery",
          "coherence", "synth", "matio", "streams")

SETUP_SPAN = "bench.setup"
JOB_SPAN = "bench.job"


def objective_cost(name: str, phi, spec) -> tuple[int, int]:
    """Computed (flops, bytes) of one objective call, from array shapes.

    Counts the matrix products and the elementwise passes of
    ``csdesign.objective``; bytes are float64 operands read plus
    results written, once per product.  ``objective_value`` on an SRE
    spec forms ``phi @ sre`` (M x P), the M*N*P term.
    """
    m, n = phi.shape
    l = spec.psi.shape[1]
    flops = 2 * m * n * l + 2 * m * l * l + 3 * l * l
    words = (m * n + n * l + m * l) + (m * l + l * l) + 3 * l * l
    if name == "value_and_gradient":
        flops += 2 * m * l * l + 2 * m * l * n
        words += (m * l + l * l + m * l) + (m * l + n * l + m * n)
        if spec.sre is not None:
            flops += 2 * m * n * n + 4 * m * n
            words += m * n + n * n + 2 * m * n
        else:
            flops += 4 * m * n
            words += 3 * m * n
    elif spec.sre is not None:
        p = spec.sre.shape[1]
        flops += 2 * m * n * p + 2 * m * p
        words += m * n + n * p + m * p
    else:
        flops += 2 * m * n
        words += m * n
    return flops, 8 * words


def omp_cost(m: int, l: int, steps: int) -> int:
    """Computed flops of one OMP signal: normalisation, then per step a
    correlation, a least-squares refit on j atoms and a residual."""
    flops = 3 * m * l
    for j in range(1, steps + 1):
        flops += 2 * m * l + l + 4 * m * j * j + 2 * m * j + 2 * m
    return flops


class Tracer:
    """In-memory span recorder with counters kept per root span kind."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _in_job(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[0]][0] == JOB_SPAN

    def count(self, key: str, value: float = 1) -> None:
        if self._in_job():
            self.counts[key] += value

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, lib):
        """Install the wrappers of :data:`PATCHES`; restore on exit."""
        saved = []
        try:
            for module_name, attr, span_name in PATCHES:
                module = getattr(lib, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]


def _observe_design(tracer, args, kwargs, result):
    tracer.count("solver.designs")
    tracer.count("solver.cg_iters", sum(1 for p in result.trace if p.cg_iter > 0))
    tracer.count("solver.outer_rounds", len({p.outer_iter for p in result.trace}))
    tracer.count("solver.unconverged", int(not result.converged))


def _observe_objective(name):
    def observe(tracer, args, kwargs, result):
        phi = args[0]
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        flops, nbytes = objective_cost(name, phi, spec)
        tracer.count(f"objective.{name}.flops", flops)
        tracer.count(f"objective.{name}.bytes", nbytes)
    return observe


def _observe_omp(tracer, args, kwargs, result):
    d = args[0]
    k = args[2] if len(args) > 2 else kwargs["k"]
    steps = len(result.support)
    tracer.count("recovery.rank_deficient", int(result.rank_deficient))
    tracer.count("recovery.early_stops", int(steps < k))
    tracer.count("recovery.omp.flops", omp_cost(d.shape[0], d.shape[1], steps))


def _observe_write(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("matio.bytes_written", os.path.getsize(path))


_OBSERVERS = {
    "solver.design": _observe_design,
    "objective.value_and_gradient": _observe_objective("value_and_gradient"),
    "objective.objective_value": _observe_objective("objective_value"),
    "recovery.omp": _observe_omp,
    "matio.write_matrix_csv": _observe_write,
    "matio.write_keyvalues": _observe_write,
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced run.

    Counts and times are per job, averaged over the traced jobs.  The
    figures of input generation (``synth.*``, ``experiments.make_dataset``
    and ``streams.stream.calls``) cover one traced set-up plus one job,
    so that work done in set-up shows.  Shares are of the jobs' wall
    time.
    """
    spans = tracer.spans
    n = len(spans)
    duration = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    root = [0] * n
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]
            root[i] = root[parent]
        else:
            root[i] = i
    self_time = [duration[i] - child_time[i] for i in range(n)]

    job_roots = [i for i in range(n) if spans[i][3] < 0 and spans[i][0] == JOB_SPAN]
    jobs = len(job_roots)
    job_wall = sum(duration[i] for i in job_roots)
    calls = collections.Counter()
    incl_ms = collections.Counter()
    self_ms = collections.Counter()
    setup_calls = collections.Counter()
    setup_ms = collections.Counter()
    layer_self = collections.Counter()
    for i, (name, _, _, _) in enumerate(spans):
        if spans[root[i]][0] == JOB_SPAN:
            calls[name] += 1
            incl_ms[name] += 1e3 * duration[i]
            self_ms[name] += 1e3 * self_time[i]
            layer_self[name.split(".")[0]] += self_time[i]
        else:
            setup_calls[name] += 1
            setup_ms[name] += 1e3 * duration[i]

    def per_job(value: float) -> float:
        return _ratio(value, jobs)

    def with_setup(table: collections.Counter, setup_table: collections.Counter, name: str):
        return setup_table[name] + per_job(table[name])

    c = tracer.counts
    omp_calls = calls["recovery.omp"]
    vg, ov = "objective.value_and_gradient", "objective.objective_value"
    design_ms = incl_ms["solver.design"]
    coherence = [k for k in calls if k.startswith("coherence.")]
    matio = [k for k in calls if k.startswith("matio.")]
    traced_wall = statistics.median(
        duration[i] for i in job_roots) if job_roots else 0.0
    m: dict[str, tuple[float, str]] = {
        "trace.jobs": (jobs, "count"),
        "trace.spans": (per_job(sum(calls.values())), "count"),
        "trace.overhead_s": (traced_wall - untraced_wall_s, "s"),
        "recovery.omp.calls": (per_job(omp_calls), "count"),
        "recovery.omp.self_ms": (per_job(self_ms["recovery.omp"]), "ms"),
        "recovery.us_per_signal": (
            1e3 * _ratio(incl_ms["recovery.batch_recover"], omp_calls), "us"),
        "recovery.rank_deficient": (per_job(c["recovery.rank_deficient"]), "count"),
        "recovery.early_stops": (per_job(c["recovery.early_stops"]), "count"),
        "recovery.omp.kflop_per_signal_computed": (
            _ratio(c["recovery.omp.flops"], omp_calls) / 1e3, "kflop"),
        f"{vg}.calls": (per_job(calls[vg]), "count"),
        f"{vg}.self_ms": (per_job(self_ms[vg]), "ms"),
        f"{ov}.calls": (per_job(calls[ov]), "count"),
        f"{ov}.self_ms": (per_job(self_ms[ov]), "ms"),
        "objective.ls_evals_per_cg_iter": (_ratio(calls[ov], c["solver.cg_iters"]), "1"),
        "objective.gflop_computed": (
            per_job(c[f"{vg}.flops"] + c[f"{ov}.flops"]) / 1e9, "Gflop"),
        "objective.gbyte_computed": (
            per_job(c[f"{vg}.bytes"] + c[f"{ov}.bytes"]) / 1e9, "GB"),
        f"{vg}.mflop_per_call_computed": (_ratio(c[f"{vg}.flops"], calls[vg]) / 1e6, "Mflop"),
        f"{ov}.mflop_per_call_computed": (_ratio(c[f"{ov}.flops"], calls[ov]) / 1e6, "Mflop"),
        "solver.designs": (per_job(c["solver.designs"]), "count"),
        "solver.self_ms": (per_job(self_ms["solver.design"]), "ms"),
        "solver.cg_iters": (per_job(c["solver.cg_iters"]), "count"),
        "solver.outer_rounds": (per_job(c["solver.outer_rounds"]), "count"),
        "solver.unconverged": (per_job(c["solver.unconverged"]), "count"),
        "solver.ms_per_cg_iter": (_ratio(design_ms, c["solver.cg_iters"]), "ms"),
        "coherence.calls": (per_job(sum(calls[k] for k in coherence)), "count"),
        "coherence.ms": (per_job(sum(incl_ms[k] for k in coherence)), "ms"),
        "experiments.make_dataset.ms": (
            with_setup(incl_ms, setup_ms, "experiments.make_dataset"), "ms"),
        "experiments.evaluate_system.self_ms": (
            per_job(self_ms["experiments.evaluate_system"]), "ms"),
        "experiments.write_records_csv.ms": (
            per_job(incl_ms["experiments.write_records_csv"]), "ms"),
        "matio.ms": (per_job(sum(incl_ms[k] for k in matio)), "ms"),
        "matio.bytes_written": (per_job(c["matio.bytes_written"]), "B"),
        "cli.main.self_ms": (per_job(self_ms["cli.main"]), "ms"),
        "streams.stream.calls": (with_setup(calls, setup_calls, "streams.stream"), "count"),
    }
    for fn in ("gen_dictionary", "gen_sparse_codes", "gen_signals", "lemma1_check"):
        m[f"synth.{fn}.ms"] = (with_setup(incl_ms, setup_ms, f"synth.{fn}"), "ms")
    for layer in LAYERS:
        m[f"{layer}.share_of_wall"] = (100.0 * _ratio(layer_self[layer], job_wall), "%")
    return m
