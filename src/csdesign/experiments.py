"""Experiment harnesses: design, measure, recover, score, record.

Each harness runs the full pipeline on synthetic data and emits flat
:class:`ExperimentRecord` rows with a fixed CSV schema, so sweeps are
comparable across runs and reruns with the same plan and seeds are
byte-identical.  Each sweep record holds the time spent getting its
design, which record equality ignores and :func:`write_records_csv`
writes only on request.

All methods at one sweep point share its dataset and random start, the
``randn`` baseline.  SRE-regularized designs see only the training half
of the noise; scoring uses only the test half.  A training-free design
reads no data, so an SNR sweep makes it once per seed and weight.
"""

from __future__ import annotations

import logging
import math
import operator
import os
import time
from dataclasses import dataclass, field, fields, replace
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
from .matio import check_matrix, render_value, write_csv
from .objective import check_lam
from .recovery import batch_recover
from .solver import (
    DesignResult,
    SolverConfig,
    _check_count,
    check_xi,
    design,
    random_projection,
)
from .streams import derive_seed
from .synth import SyntheticDataset, check_snr_db, gen_dictionary, gen_signals, gen_sparse_codes

# one name per design tag, each bound to design: perfbench's traced run
# wraps them by name, so design_for_method calls each tag by its own name
design_mt = alternating_design = design_lh = design_lh_etf = design

__all__ = [
    "METHODS",
    "SRE_METHODS",
    "SWEEP_METHODS",
    "PSNR_PEAK",
    "RECORDS_HEADER",
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
    """Fixed parameters of one experiment family; when built, each scalar is checked by its
    rule and the sizes by ``1 <= K <= M <= N <= L``, the shape a CS system needs."""

    m: int = 20
    n: int = 60
    l: int = 80
    k: int = 4
    p: int = 1000
    lam: float = 0.5
    xi: float | None = None  # None resolves to the Welch bound of (m, l)
    outer_iters: int = 50  # alternating rounds of the -etf designs
    snr_db: float = 15.0
    mu_bar: ClassVar[float] = DEFAULT_MU_BAR

    def __post_init__(self):
        if self.xi is not None:
            check_xi(self.xi)
        check_lam(self.lam)
        check_snr_db(self.snr_db)
        _check_count("p", self.p)
        _check_count("outer_iters", self.outer_iters)
        k, m, n, l = self.k, self.m, self.n, self.l
        got = f"got K={k} M={m} N={n} L={l}"
        if not all(hasattr(type(v), "__index__") for v in (k, m, n, l)):
            raise ValueError(f"K, M, N and L must be integers, {got}")
        if not 1 <= k <= m <= n <= l:
            raise ValueError(f"need 1 <= K <= M <= N <= L, {got}")

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
    wall_time_ms: float = field(default=0.0, compare=False)  # a measurement, not a result


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


def _check_method(*methods: str) -> None:
    """Raise ValueError unless each of `methods` is one of :data:`METHODS`."""
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


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
    _check_method(method)
    if method == "randn":
        return DesignResult(check_matrix(phi0, "phi0").copy(), (), "randn", "converged")
    if method in SRE_METHODS and sre is None:
        raise ValueError(f"method {method!r} needs the training SRE matrix")
    if method == "mt":
        return design_mt(psi, lam, phi0, cfg=cfg)
    if method == "mt-etf":
        return alternating_design(psi, lam, phi0, xi=params.resolved_xi(),
                                  outer_iters=params.outer_iters, cfg=cfg)
    if method == "lh":
        return design_lh(psi, lam, phi0, sre=sre, cfg=cfg)
    return design_lh_etf(psi, lam, phi0, sre=sre, xi=params.resolved_xi(),
                         outer_iters=params.outer_iters, cfg=cfg)


def evaluate_system(
    phi: np.ndarray,
    dataset: SyntheticDataset,
    k: int,
    method: str,
    param_name: str,
    param_value: float,
    seed: int,
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
    )


def _seed_list(seed) -> tuple[int, ...]:
    """The seeds `seed` names, one integer or an iterable of integers, as ints."""
    seeds = tuple(seed) if isinstance(seed, Iterable) and not isinstance(seed, str) else (seed,)
    if not seeds:
        raise ValueError("seed must name at least one seed")
    for s in seeds:
        if not hasattr(type(s), "__index__"):
            raise ValueError(f"a seed must be an integer, got {s!r}")
    return tuple(operator.index(s) for s in seeds)


def _design_and_score(method, params, dataset, phi0, lam, param_name, param_value, seed,
                      designs=None):
    """Design `method` on the training half of `dataset`, score it on the test half.

    `designs`, when given, keeps each training-free design by ``(method,
    lam)`` for later points that differ only in the SNR, which it never
    reads.  The record holds the time spent getting its design, a lookup
    for a kept one.  An unconverged design is still scored, with a warning.
    """
    start = time.perf_counter()
    result = None if designs is None else designs.get((method, lam))
    if result is None:
        result = design_for_method(method, params, dataset.psi, phi0, lam, sre=dataset.train_sre())
        if designs is not None and method not in SRE_METHODS:
            designs[method, lam] = result
    elapsed_ms = (time.perf_counter() - start) * 1e3
    if not result.converged:
        logger.warning("design %s at %s=%s seed %d did not converge (%s); scoring it anyway",
                       method, param_name, param_value, seed, result.stop_reason)
    record = evaluate_system(result.phi, dataset, params.k, method, param_name,
                             float(param_value), seed, mu_bar=params.mu_bar)
    return replace(record, wall_time_ms=elapsed_ms)


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
    lambdas = [check_lam(lam) for lam in lambdas]
    psi = gen_dictionary(params.n, params.l, seed)
    phi0 = random_projection(params.m, params.n, derive_seed(seed, "phi0"))
    cfg = SolverConfig(max_cg_iterations=max_iterations)
    rows: list[tuple[float, int, float]] = []
    for lam in lambdas:
        result = design(psi, lam, phi0, cfg=cfg)
        rows.extend((lam, point.cg_iter, point.f) for point in result.trace)
    return rows


def run_lambda_sweep(
    params: ExperimentParams,
    lambda_grid: Sequence[float],
    seed,
    methods: Sequence[str] = SWEEP_METHODS["lambda"],
) -> list[ExperimentRecord]:
    """Reconstruction error of the training-free designs across lambdas.

    One dataset and one starting matrix per seed, shared by every grid
    point, so the lambda axis is the only thing that varies.
    """
    _check_method(*methods)
    lambda_grid = [check_lam(lam) for lam in lambda_grid]
    records: list[ExperimentRecord] = []
    for s in _seed_list(seed):
        dataset = make_dataset(params, s)
        phi0 = random_projection(params.m, params.n, derive_seed(s, "phi0"))
        records.extend(
            _design_and_score(method, params, dataset, phi0, lam, "lambda", lam, s)
            for lam in lambda_grid
            for method in methods
        )
    return records


def run_snr_sweep(
    params: ExperimentParams,
    snr_grid: Sequence[float],
    methods: Sequence[str],
    seed,
    lambda_grid: Sequence[float] | None = None,
    pair_lambdas: bool = False,
) -> list[ExperimentRecord]:
    """Reconstruction error of several CS systems across noise levels.

    The sweep runs one seed at a time, in the order seed, condition,
    method, candidate weight.  The dictionary and the random starting
    matrix are drawn once per seed, so a seed's designs share one
    factorisation of the dictionary; every (snr, seed) condition
    redraws the codes and the noise, and only one dataset is held at a
    time.  A training-free design reads no data, so it is made once per
    seed and weight and scored at every condition; its later records'
    ``wall_time_ms`` is the lookup.  The SRE-regularized designs, made
    at each condition, see only its training half of the noise.

    Every method runs at ``params.lam`` unless `lambda_grid` names
    candidates: then each designed method keeps, per condition, the
    records of the candidate (on the method's own scale) with the
    lowest seed-averaged test error, the first one on a tie, chosen
    once every seed has run.

    ``pair_lambdas=True``, which takes no `lambda_grid`, runs both
    families at each condition at one matched effective strength
    ``w = min(1, params.lam * sigma^2 * P)``: the SRE designs at the
    native weight ``w / (sigma^2 * P)``, the training-free ones at
    ``w``, which the projected-noise law makes equivalent in
    expectation.  The paired designs then differ only by the sampling
    fluctuation of the training residuals, so their error ratio is not
    drowned by selection noise; the cap at 1 keeps the weight inside
    the recommended (0, 1] range when the noise is strong.
    """
    _check_method(*methods)
    points = [replace(params, snr_db=float(snr)) for snr in snr_grid]  # checks each SNR
    if lambda_grid is not None and pair_lambdas:
        raise ValueError("pair_lambdas sets every weight itself; it takes no lambda_grid")
    if lambda_grid is not None and len(lambda_grid) == 0:
        raise ValueError("lambda_grid must not be empty; pass None to skip the search")
    weights = (params.lam,) if lambda_grid is None else [check_lam(lam) for lam in lambda_grid]
    seeds = _seed_list(seed)
    candidates = [(params.lam,) if method == "randn" else weights for method in methods]
    # (grid index, method index, candidate index) -> one record per seed, in seed order
    rows: dict[tuple[int, int, int], list[ExperimentRecord]] = {}
    for s in seeds:
        psi = gen_dictionary(params.n, params.l, s)
        phi0 = random_projection(params.m, params.n, derive_seed(s, "phi0"))
        designs: dict[tuple[str, float], DesignResult] = {}  # the seed's training-free designs
        for i, (snr, point_params) in enumerate(zip(snr_grid, points)):
            point_seed = derive_seed(s, f"snr={render_value(float(snr))}")
            dataset = make_dataset(point_params, point_seed, psi=psi)
            scale = dataset.sigma**2 * dataset.p
            for j, method in enumerate(methods):
                for c, lam in enumerate(candidates[j]):
                    run_lam = float(lam)
                    if pair_lambdas and scale > 0:
                        # at scale 0 (noiseless) the SRE is zero, so its weight changes nothing
                        run_lam = min(1.0, run_lam * scale)
                        if method in SRE_METHODS:
                            run_lam /= scale
                    rows.setdefault((i, j, c), []).append(_design_and_score(
                        method, point_params, dataset, phi0, run_lam, "snr", snr, s, designs))
            del dataset  # freed before the next point's is drawn
    records: list[ExperimentRecord] = []
    for i, snr in enumerate(snr_grid):
        for j, method in enumerate(methods):
            avgs = [float(np.mean([r.rho_mse for r in rows[i, j, c]]))
                    for c in range(len(candidates[j]))]
            finite = [c for c, avg in enumerate(avgs) if avg < math.inf]
            if not finite:
                raise ValueError(f"no finite mean rho_mse for method {method!r} at snr {snr:g}")
            records.extend(rows[i, j, min(finite, key=avgs.__getitem__)])  # the first lowest
    return records


def run_dimension_sweeps(
    base_params: ExperimentParams,
    axis: str,
    grid: Sequence[float],
    seed,
    methods: Sequence[str] | None = None,
) -> list[ExperimentRecord]:
    """Sweep one of the size parameters M, K, or L, holding the rest fixed.

    Every grid value must lie within 1e-9 of an integer.  `methods`
    defaults to ``SWEEP_METHODS[axis]``.  Grid points whose
    :class:`ExperimentParams` break ``1 <= K <= M <= N <= L`` are skipped
    with a logged reason; a grid with no other point is a ValueError.
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
    _check_method(*methods)
    points = []
    for value in grid:
        try:
            points.append((value, replace(base_params, **{axis: value})))
        except ValueError as exc:
            logger.warning("skipping infeasible point %s=%d: %s", axis, value, exc)
    if not points:
        raise ValueError(f"no point of the {axis!r} grid meets 1 <= K <= M <= N <= L")
    records: list[ExperimentRecord] = []
    for s in _seed_list(seed):
        for value, point_params in points:
            point_seed = derive_seed(s, f"{axis}={value}")
            dataset = make_dataset(point_params, point_seed)
            phi0 = random_projection(point_params.m, point_params.n,
                                     derive_seed(point_seed, "phi0"))
            records.extend(
                _design_and_score(method, point_params, dataset, phi0, point_params.lam, axis,
                                  value, s)
                for method in methods
            )
    return records


def write_records_csv(
    records: Iterable[ExperimentRecord], path: str | os.PathLike, timing: bool = False
) -> None:
    """Write experiment records under the fixed schema header.

    ``wall_time_ms`` is written as 0 unless `timing`, so reruns with the
    same plan and seeds write the same bytes.
    """
    header = RECORDS_HEADER.split(",")
    if not timing:
        records = (replace(record, wall_time_ms=0.0) for record in records)
    write_csv(path, header, ([getattr(record, name) for name in header] for record in records))


def write_convergence_csv(rows: Iterable[tuple[float, int, float]], path) -> None:
    """Write convergence-trace rows as CSV (lambda,iteration,f)."""
    write_csv(path, ("lambda", "iteration", "f"), rows)
