"""Experiment harnesses: design, measure, recover, score, record.

Each harness runs the full pipeline on synthetic data and emits flat
:class:`ExperimentRecord` rows with a fixed CSV schema, so sweeps are
comparable across runs and reruns with the same plan and seeds are
byte-identical.  Wall-clock timing is off by default for exactly that
reason; pass ``timing=True`` to fill the ``wall_time_ms`` column.

Within one sweep point all methods share the same dataset and the same
random starting matrix, which is also the matrix evaluated as the
``randn`` baseline.  SRE-regularized designs see only the training half
of the noise; scoring uses only the test half.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass, fields, replace
from typing import ClassVar, Iterable, Sequence

import numpy as np

# average_mutual_coherence and mutual_coherence are not called here; they
# stay bound in this namespace because perfbench's traced run wraps them by name
from .coherence import (
    DEFAULT_MU_BAR,
    _mu_av_from_gram,
    _mu_from_gram,
    average_mutual_coherence,
    equivalent_dictionary,
    gram,
    mutual_coherence,
    welch_bound,
)
from .matio import render_value, write_csv
from .recovery import batch_recover
from .solver import (
    DEFAULT_OUTER_ITERS,
    DesignResult,
    SolverConfig,
    alternating_design,
    check_xi,
    design_lh,
    design_lh_etf,
    design_mt,
    random_projection,
)
from .streams import derive_seed
from .synth import SyntheticDataset, gen_dictionary, gen_signals, gen_sparse_codes

__all__ = [
    "METHODS",
    "SRE_METHODS",
    "SWEEP_METHODS",
    "PSNR_PEAK",
    "RECORDS_HEADER",
    "LAMBDA_SEARCH_GRID",
    "ExperimentParams",
    "ExperimentRecord",
    "rho_mse",
    "rho_psnr",
    "make_dataset",
    "design_for_method",
    "evaluate_system",
    "run_convergence",
    "run_lambda_sweep",
    "run_snr_sweep",
    "run_dimension_sweeps",
    "write_records_csv",
    "write_convergence_csv",
]

logger = logging.getLogger(__name__)

#: method tags understood by the harnesses
METHODS = ("randn", "mt", "mt-etf", "lh", "lh-etf")

#: the methods whose design needs the training SRE matrix
SRE_METHODS = ("lh", "lh-etf")

#: each sweep axis and the methods its harness runs by default
SWEEP_METHODS = {
    "lambda": ("mt", "mt-etf"),
    "snr": ("randn", "mt", "lh"),
    "m": ("randn", "mt"),
    "k": ("randn", "mt"),
    "l": ("randn", "mt"),
}

#: peak value of the 8-bit pixels that rho_psnr assumes
PSNR_PEAK = 2.0**8 - 1.0


@dataclass(frozen=True)
class ExperimentParams:
    """Fixed parameters of one experiment family."""

    m: int = 20
    n: int = 60
    l: int = 80
    k: int = 4
    p: int = 1000
    lam: float = 0.5
    xi: float | None = None  # None resolves to the Welch bound of (m, l)
    outer_iters: int = DEFAULT_OUTER_ITERS
    snr_db: float = 15.0
    mu_bar: ClassVar[float] = DEFAULT_MU_BAR

    def __post_init__(self):
        if self.xi is not None:
            check_xi(self.xi)

    def resolved_xi(self) -> float:
        return welch_bound(self.m, self.l) if self.xi is None else float(self.xi)


@dataclass(frozen=True)
class ExperimentRecord:
    """One row of a sweep result."""

    method: str
    param_name: str
    param_value: float
    seed: int
    rho_mse: float
    rho_psnr: float
    mu: float
    mu_av: float
    phi_energy: float
    proj_noise_energy: float
    wall_time_ms: float = 0.0


#: the records CSV header: the record's field names, in declaration order
RECORDS_HEADER = ",".join(f.name for f in fields(ExperimentRecord))


def rho_mse(x, x_hat) -> float:
    """Mean squared reconstruction error per entry."""
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    diff = x_hat - x
    return float(np.sum(diff * diff) / x.size)


def rho_psnr(mse: float) -> float:
    """Peak signal-to-noise ratio in dB at 8 bits per pixel (peak :data:`PSNR_PEAK`).

    Nonpositive `mse` reports +inf (perfect reconstruction) rather than
    raising.
    """
    if mse <= 0.0:
        return math.inf
    return 10.0 * math.log10(PSNR_PEAK**2 / mse)


def make_dataset(
    params: ExperimentParams, seed: int, psi: np.ndarray | None = None
) -> SyntheticDataset:
    """Dictionary, codes, and noisy signals for one sweep point.

    Passing `psi` keeps an existing dictionary and redraws only the
    codes and noise (used by sweeps that vary the condition, not the
    CS system).
    """
    if psi is None:
        psi = gen_dictionary(params.n, params.l, seed)
    theta = gen_sparse_codes(params.l, params.k, 2 * params.p, seed)
    return gen_signals(psi, theta, params.snr_db, seed)


def design_for_method(
    method: str,
    params: ExperimentParams,
    psi: np.ndarray,
    phi0: np.ndarray,
    lam: float,
    sre: np.ndarray | None = None,
    cfg: SolverConfig | None = None,
) -> DesignResult:
    """Produce the projection matrix of `method` from the shared start `phi0`."""
    if method == "randn":
        return DesignResult(phi=phi0, trace=(), method="randn", stop_reason="converged")
    if method in SRE_METHODS and sre is None:
        raise ValueError(f"method {method!r} needs the training SRE matrix")
    if method == "mt":
        return design_mt(psi, lam, phi0, cfg)
    if method == "mt-etf":
        return alternating_design(psi, lam, params.resolved_xi(), params.outer_iters, phi0, cfg)
    if method == "lh":
        return design_lh(psi, lam, sre, phi0, cfg)
    if method == "lh-etf":
        return design_lh_etf(psi, lam, sre, params.resolved_xi(), params.outer_iters, phi0, cfg)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def evaluate_system(
    phi: np.ndarray,
    dataset: SyntheticDataset,
    k: int,
    method: str,
    param_name: str,
    param_value: float,
    seed: int,
    wall_time_ms: float = 0.0,
    mu_bar: float = DEFAULT_MU_BAR,
) -> ExperimentRecord:
    """Score one CS system on the test half of `dataset`.

    When some OMP refit met a rank-deficient subdictionary, one warning
    gives the count of such signals and of signals recovered with fewer
    than `k` atoms (early stops); the record does not change.
    """
    d = equivalent_dictionary(phi, dataset.psi)
    x_test = dataset.test_signals()
    y = phi @ x_test
    codes, rank_deficient = batch_recover(d, y, k)
    if rank_deficient.any():
        early_stops = np.count_nonzero(np.count_nonzero(codes, axis=0) < k)
        logger.warning("%s at %s=%s seed %d: %d of %d OMP fits rank-deficient, %d stopped "
                       "with fewer than %d atoms", method, param_name, param_value, seed,
                       np.count_nonzero(rank_deficient), codes.shape[1], early_stops, k)
    mse = rho_mse(x_test, dataset.psi @ codes)
    g = gram(d)  # built once for both coherences
    mu_av, _ = _mu_av_from_gram(g, mu_bar)
    test_noise = phi @ dataset.test_sre()
    return ExperimentRecord(
        method=method,
        param_name=param_name,
        param_value=float(param_value),
        seed=int(seed),
        rho_mse=mse,
        rho_psnr=rho_psnr(mse),
        mu=_mu_from_gram(g),
        mu_av=mu_av,
        phi_energy=float(np.sum(phi * phi)),
        proj_noise_energy=float(np.sum(test_noise * test_noise)),
        wall_time_ms=wall_time_ms,
    )


def _seed_list(seed) -> tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def _design_and_score(method, params, dataset, phi0, lam, param_name, param_value, seed, timing):
    """Design `method` on the training half of `dataset`, score it on the test half.

    A design that stopped unconverged is still scored, with a logged warning.
    """
    sre = dataset.train_sre()
    start = time.perf_counter() if timing else 0.0
    result = design_for_method(method, params, dataset.psi, phi0, lam, sre=sre)
    elapsed_ms = (time.perf_counter() - start) * 1e3 if timing else 0.0
    if not result.converged:
        logger.warning("design %s at %s=%s seed %d did not converge (%s); scoring it anyway",
                       method, param_name, param_value, seed, result.stop_reason)
    return evaluate_system(
        result.phi, dataset, params.k, method, param_name, float(param_value), seed,
        wall_time_ms=elapsed_ms, mu_bar=params.mu_bar,
    )


def run_convergence(
    params: ExperimentParams,
    lambdas: Sequence[float],
    seed: int,
    max_iterations: int = 300,
) -> list[tuple[float, int, float]]:
    """Objective traces of the identity-target design, one per lambda.

    All traces start from the same random matrix.  Returns rows
    ``(lambda, iteration, f)``.
    """
    psi = gen_dictionary(params.n, params.l, seed)
    phi0 = random_projection(params.m, params.n, derive_seed(seed, "phi0"))
    cfg = SolverConfig(max_cg_iterations=max_iterations)
    rows: list[tuple[float, int, float]] = []
    for lam in lambdas:
        result = design_mt(psi, float(lam), phi0, cfg)
        rows.extend((float(lam), point.cg_iter, point.f) for point in result.trace)
    return rows


def run_lambda_sweep(
    params: ExperimentParams,
    lambda_grid: Sequence[float],
    seed,
    methods: Sequence[str] = SWEEP_METHODS["lambda"],
    timing: bool = False,
) -> list[ExperimentRecord]:
    """Reconstruction error of the training-free designs across lambdas.

    One dataset and one starting matrix per seed, shared by every grid
    point, so the lambda axis is the only thing that varies.
    """
    records: list[ExperimentRecord] = []
    for s in _seed_list(seed):
        dataset = make_dataset(params, s)
        phi0 = random_projection(params.m, params.n, derive_seed(s, "phi0"))
        records.extend(
            _design_and_score(method, params, dataset, phi0, float(lam), "lambda", lam, s, timing)
            for lam in lambda_grid
            for method in methods
        )
    return records


#: default candidates for the per-setting trade-off search, log-spaced in (0, 1]
LAMBDA_SEARCH_GRID = (0.003, 0.01, 0.03, 0.1, 0.3, 1.0)


def run_snr_sweep(
    params: ExperimentParams,
    snr_grid: Sequence[float],
    methods: Sequence[str],
    seed,
    lambda_grid: Sequence[float] | None = LAMBDA_SEARCH_GRID,
    timing: bool = False,
    pair_lambdas: bool = False,
) -> list[ExperimentRecord]:
    """Reconstruction error of several CS systems across noise levels.

    The dictionary and the random starting matrix are drawn once per
    seed; every (snr, seed) condition redraws the codes and the noise.
    All methods at one condition share the dataset and the start, and
    the SRE-regularized designs see only the training half of the noise.

    Each designed method picks its trade-off weight from `lambda_grid`
    (values on the method's own scale), keeping the candidate whose
    seed-averaged test error is lowest at that condition: one weight
    per (method, condition), not per seed.  Pass ``lambda_grid=None``
    to skip the search and use ``params.lam`` everywhere.

    With ``pair_lambdas=True`` no search happens at all: at each
    condition both families run at one matched effective strength
    ``w = min(1, params.lam * sigma^2 * P)``, with the SRE designs at
    the native weight ``w / (sigma^2 * P)`` and the training-free
    designs at ``w`` itself, which the projected-noise law makes
    equivalent in expectation.  Matched strength is the sharpest way to compare the
    families: the paired designs differ only by the sampling
    fluctuation of the training residuals, so their error ratio is not
    drowned by selection noise.  The cap at 1 keeps the weight inside
    the recommended (0, 1] range when the noise is strong.
    """
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if lambda_grid is not None and len(lambda_grid) == 0:
        raise ValueError("lambda_grid must not be empty; pass None to skip the search")
    seeds = _seed_list(seed)
    if not seeds:
        raise ValueError("seed must name at least one seed")
    systems = {
        s: (
            gen_dictionary(params.n, params.l, s),
            random_projection(params.m, params.n, derive_seed(s, "phi0")),
        )
        for s in seeds
    }
    records: list[ExperimentRecord] = []
    for snr in snr_grid:
        point_params = replace(params, snr_db=float(snr))
        datasets = {}
        for s in seeds:
            psi, _ = systems[s]
            point_seed = derive_seed(s, f"snr={render_value(float(snr))}")
            datasets[s] = make_dataset(point_params, point_seed, psi=psi)
        for method in methods:
            if method == "randn" or pair_lambdas or lambda_grid is None:
                candidates = (params.lam,)
            else:
                candidates = tuple(float(lam) for lam in lambda_grid)
            best: list[ExperimentRecord] | None = None
            best_avg = math.inf
            for lam in candidates:
                rows = []
                for s in seeds:
                    phi0 = systems[s][1]
                    dataset = datasets[s]
                    run_lam = float(lam)
                    scale = dataset.sigma**2 * dataset.p
                    if pair_lambdas and method != "randn" and scale > 0:
                        # at scale 0 (noiseless) the SRE is zero, so its weight changes nothing
                        run_lam = min(1.0, run_lam * scale)
                        if method in SRE_METHODS:
                            run_lam /= scale
                    rows.append(
                        _design_and_score(
                            method, point_params, dataset, phi0, run_lam, "snr", snr, s, timing
                        )
                    )
                avg = float(np.mean([r.rho_mse for r in rows]))
                if avg < best_avg:
                    best, best_avg = rows, avg
            if best is None:
                raise ValueError(f"no finite mean rho_mse for method {method!r} at snr {snr:g}")
            records.extend(best)
    return records


def run_dimension_sweeps(
    base_params: ExperimentParams,
    axis: str,
    grid: Sequence[float],
    seed,
    methods: Sequence[str] | None = None,
    timing: bool = False,
) -> list[ExperimentRecord]:
    """Sweep one of the size parameters M, K, or L, holding the rest fixed.

    Every grid value must lie within 1e-9 of an integer.  `methods`
    defaults to ``SWEEP_METHODS[axis]``.  Grid points that break the
    feasibility chain ``K <= M <= N <= L`` are skipped with a logged
    reason.
    """
    axis = axis.lower()
    if axis not in ("m", "k", "l"):
        raise ValueError(f"axis must be one of m, k, l; got {axis!r}")
    bad = [v for v in grid if not (math.isfinite(v) and abs(v - round(v)) <= 1e-9)]
    if bad:
        raise ValueError(f"axis {axis!r} requires integer grid values, got {float(bad[0])!r}")
    grid = [int(round(v)) for v in grid]
    if methods is None:
        methods = SWEEP_METHODS[axis]
    records: list[ExperimentRecord] = []
    for s in _seed_list(seed):
        for value in grid:
            point_params = replace(base_params, **{axis: value})
            k, m, n, l = point_params.k, point_params.m, point_params.n, point_params.l
            if not 1 <= k <= m <= n <= l:
                logger.warning("skipping infeasible point %s=%d (need K <= M <= N <= L, have "
                               "K=%d M=%d N=%d L=%d)", axis, value, k, m, n, l)
                continue
            point_seed = derive_seed(s, f"{axis}={value}")
            dataset = make_dataset(point_params, point_seed)
            phi0 = random_projection(m, n, derive_seed(point_seed, "phi0"))
            records.extend(
                _design_and_score(
                    method, point_params, dataset, phi0, point_params.lam, axis, value, s, timing
                )
                for method in methods
            )
    return records


def write_records_csv(records: Iterable[ExperimentRecord], path: str | os.PathLike) -> None:
    """Write experiment records under the fixed schema header."""
    header = RECORDS_HEADER.split(",")
    write_csv(path, header, ([getattr(record, name) for name in header] for record in records))


def write_convergence_csv(rows: Iterable[tuple[float, int, float]], path) -> None:
    """Write convergence-trace rows as CSV (lambda,iteration,f)."""
    write_csv(path, ("lambda", "iteration", "f"), rows)
