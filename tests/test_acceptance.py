"""Acceptance suite: one test per criterion, run at stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in captured output) and asserts the criterion.  Heavy end-to-end
pipelines run here at the full stated sizes; expect a few minutes total.
"""

import collections
import time

import numpy as np

from csdesign.coherence import mutual_coherence, recoverable_sparsity, welch_bound
from csdesign.experiments import (
    ExperimentParams,
    make_dataset,
    run_convergence,
    run_lambda_sweep,
    run_snr_sweep,
    write_convergence_csv,
    write_records_csv,
)
from csdesign.objective import ObjectiveSpec
from csdesign.recovery import batch_recover, omp
from csdesign.solver import design, project_to_relaxed_etf, random_projection
from csdesign.streams import derive_seed
from csdesign.synth import lemma1_check
from oracles import gradient_check


def report(number: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} ({name}): {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_01_convergence_shape():
    params = ExperimentParams(m=20, n=60, l=100, k=4, p=10)
    lambdas = (0.1, 0.5, 1.0)
    worst_tail = 0.0
    worst_time = 0.0
    monotone = True
    for lam in lambdas:
        start = time.perf_counter()
        rows = run_convergence(params, [lam], seed=1, max_iterations=300)
        elapsed = time.perf_counter() - start
        worst_time = max(worst_time, elapsed)
        fs = [f for _, _, f in rows]
        monotone = monotone and all(a >= b for a, b in zip(fs, fs[1:]))
        f250 = fs[min(250, len(fs) - 1)]
        f300 = fs[-1]
        worst_tail = max(worst_tail, (f250 - f300) / f250)
    passed = monotone and worst_tail < 1e-3 and worst_time < 30.0
    report(
        1,
        "convergence shape",
        passed,
        f"monotone={monotone}, tail decrease={worst_tail:.2e} (<1e-3), "
        f"slowest trace {worst_time:.1f}s (<30s)",
    )


def test_criterion_02_gradient_correctness():
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(50):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(max(3, m + 1), 11))
        l = int(rng.integers(n, 13))
        psi = rng.standard_normal((n, l))
        phi = rng.standard_normal((m, n))
        lam = float(rng.uniform(0.0, 2.0))
        if trial % 2 == 0:
            g = rng.standard_normal((l, l))
            spec = ObjectiveSpec(psi=psi, gram_target=(g + g.T) / 2.0, lam=lam)
        else:
            spec = ObjectiveSpec(psi=psi, lam=lam, sre=rng.standard_normal((n, 30)))
        result = gradient_check(phi, spec, step=1e-6, tol=1e-5)
        worst = max(worst, result.max_rel_deviation)
    report(2, "gradient correctness", worst <= 1e-5, f"max rel deviation {worst:.2e} (<=1e-5)")


def test_criterion_03_lemma1_laws():
    start = time.perf_counter()
    phi = random_projection(20, 60, 303)
    mean_ok = var_ok = z_ok = 0
    repeats = 100
    for i in range(repeats):
        rep = lemma1_check(phi, 1.0, 100_000, seed=1000 + i)
        if abs(rep.mean_estimate - rep.predicted_mean) / rep.predicted_mean <= 0.02:
            mean_ok += 1
        if 0.9 <= rep.variance_estimate / rep.predicted_variance <= 1.1:
            var_ok += 1
        if abs(rep.z_score) <= 4.0:
            z_ok += 1
    elapsed = time.perf_counter() - start
    passed = mean_ok >= 95 and var_ok == repeats and z_ok >= 99 and elapsed < 60.0
    report(
        3,
        "projected-noise law",
        passed,
        f"mean law {mean_ok}/100 (>=95), variance law {var_ok}/100 (all), "
        f"z-score {z_ok}/100 (>=99), runtime {elapsed:.1f}s (<60s)",
    )


def test_criterion_04_lambda_benefit():
    params = ExperimentParams(m=20, n=60, l=80, k=4, p=1000, snr_db=15.0)
    grid = [round(0.05 * i, 2) for i in range(21)]  # 0:0.05:1
    records = run_lambda_sweep(params, grid, [1, 2, 3, 4, 5], methods=("mt",))
    curve = collections.defaultdict(list)
    for rec in records:
        curve[rec.param_value].append(rec.rho_mse)
    averaged = {lam: float(np.mean(v)) for lam, v in curve.items()}
    at_zero = averaged[0.0]
    best = min(averaged.values())
    passed = best <= 0.9 * at_zero
    report(
        4,
        "lambda benefit",
        passed,
        f"avg rho_mse {at_zero:.5f} at lambda=0 vs best {best:.5f} "
        f"({100 * (1 - best / at_zero):.1f}% better, need >=10%)",
    )


def test_criterion_05_snr_ordering():
    # mt runs at the noise-law twin of lh's selected weight, so the two
    # families are compared at matched regularization strength
    params = ExperimentParams(m=20, n=60, l=80, k=4, p=1000)
    snr_grid = [5.0, 15.0, 25.0, 35.0, 45.0]
    records = run_snr_sweep(
        params, snr_grid, ("randn", "mt", "lh"), [1, 2, 3, 4, 5], pair_lambdas=True
    )
    curve = collections.defaultdict(list)
    for rec in records:
        curve[(rec.method, rec.param_value)].append(rec.rho_mse)
    beats_random = True
    tracks_lh = True
    details = []
    for snr in snr_grid:
        mt = float(np.mean(curve[("mt", snr)]))
        lh = float(np.mean(curve[("lh", snr)]))
        rn = float(np.mean(curve[("randn", snr)]))
        beats_random = beats_random and mt <= rn
        tracks_lh = tracks_lh and abs(mt / lh - 1.0) <= 0.10
        details.append(f"{snr:g}dB:{100 * (mt / lh - 1):+.1f}%")
    report(
        5,
        "snr ordering",
        beats_random and tracks_lh,
        f"mt<=randn at all points: {beats_random}; mt vs lh within 10%: "
        f"{tracks_lh} ({', '.join(details)})",
    )


def test_criterion_06_energy_and_noise_ordering():
    params = ExperimentParams(m=20, n=60, l=100, k=4, p=1000, snr_db=15.0)
    seed = 606
    dataset = make_dataset(params, seed)
    phi0 = random_projection(params.m, params.n, derive_seed(seed, "phi0"))
    designed = design(dataset.psi, 0.1, phi0).phi
    mu_designed = mutual_coherence(designed @ dataset.psi)
    mu_random = mutual_coherence(phi0 @ dataset.psi)
    e_designed = float(np.sum(designed**2))
    e_random = float(np.sum(phi0**2))
    test_sre = dataset.test_sre()
    pn_designed = float(np.sum((designed @ test_sre) ** 2))
    pn_random = float(np.sum((phi0 @ test_sre) ** 2))
    passed = (
        mu_designed < mu_random
        and e_designed < 0.1 * e_random
        and pn_designed < pn_random
    )
    report(
        6,
        "designed-vs-random orderings",
        passed,
        f"mu {mu_designed:.3f}<{mu_random:.3f}, energy {e_designed:.2f}<0.1*{e_random:.1f}, "
        f"proj noise {pn_designed:.2f}<{pn_random:.2f}",
    )


def test_criterion_07_welch_bound_invariant():
    rng = np.random.default_rng(707)
    violations = 0
    for _ in range(1000):
        m = int(rng.integers(2, 24))
        l = int(rng.integers(m + 1, m + 60))
        d = rng.standard_normal((m, l))
        if mutual_coherence(d) < welch_bound(m, l) - 1e-9:
            violations += 1
    report(7, "welch bound", violations == 0, f"{violations}/1000 violations (need 0)")


def test_criterion_08_omp_guarantee():
    successes = 0
    trials = 200
    for t in range(trials):
        rng = np.random.default_rng(8000 + t)
        d = rng.standard_normal((20, 50))
        k = max(1, recoverable_sparsity(mutual_coherence(d)))
        support = rng.choice(50, size=k, replace=False)
        theta = np.zeros(50)
        theta[support] = rng.standard_normal(k)
        code = omp(d, d @ theta, k)
        if set(code.support) == set(support) and np.max(np.abs(code.values - theta)) <= 1e-10:
            successes += 1
    report(8, "omp exact recovery", successes == trials, f"{successes}/{trials} exact (need all)")


def test_omp_exact_recovery_at_k4():
    # Criterion 8's random dictionaries only ever ask for K = 1.  The union of
    # I_64 and the normalised Sylvester Hadamard basis has mu = 1/8, so OMP
    # recovers every noiseless 4-sparse code: K = 4 < (1 + 1/mu)/2 (Tropp,
    # "Greed is good", IEEE TIT 2004), which exercises multi-atom refits.
    h = np.ones((1, 1))
    while h.shape[0] < 64:
        h = np.block([[h, h], [h, -h]])
    d = np.hstack([np.eye(64), h / 8.0])
    assert abs(mutual_coherence(d) - 1.0 / 8.0) <= 1e-15
    assert recoverable_sparsity(mutual_coherence(d)) == 4
    rng = np.random.default_rng(8100)
    p = 2000
    theta = np.zeros((128, p))
    support = np.argsort(rng.random((p, 128)), axis=1)[:, :4]
    theta[support.T, np.arange(p)] = rng.standard_normal((4, p))
    codes, flags = batch_recover(d, d @ theta, 4)
    worst = float(np.max(np.abs(codes - theta)))
    assert not flags.any(), f"{np.count_nonzero(flags)} fits flagged rank-deficient"
    assert worst <= 1e-12, f"worst coefficient error {worst:.3g}"


def test_criterion_09_etf_projection():
    rng = np.random.default_rng(909)
    clean = True
    for _ in range(1000):
        size = int(rng.integers(2, 12))
        g = rng.standard_normal((size, size)) * 2.0
        g = (g + g.T) / 2.0
        xi = float(rng.uniform(0.0, 0.99))
        once = project_to_relaxed_etf(g, xi)
        twice = project_to_relaxed_etf(once.data, xi)
        off = np.abs(once.data - np.diag(np.diag(once.data)))
        clean = (
            clean
            and np.array_equal(once.data, twice.data)
            and np.array_equal(once.data, once.data.T)
            and np.array_equal(np.diag(once.data), np.ones(size))
            and off.max() <= xi + 1e-12
        )
    report(9, "etf projection", clean, "idempotence and membership exact on 1000 inputs")


def test_criterion_10_determinism(tmp_path):
    params = ExperimentParams(m=8, n=20, l=30, k=2, p=60, lam=0.3)

    def produce(tag):
        records = run_snr_sweep(params, [10.0, 20.0], ("randn", "mt", "lh"), [1, 2])
        rec_path = tmp_path / f"records_{tag}.csv"
        write_records_csv(records, rec_path)
        rows = run_convergence(ExperimentParams(m=8, n=20, l=30, k=2, p=10), [0.2], 3,
                               max_iterations=80)
        conv_path = tmp_path / f"trace_{tag}.csv"
        write_convergence_csv(rows, conv_path)
        return rec_path.read_bytes(), conv_path.read_bytes()

    first = produce("a")
    second = produce("b")
    passed = first == second
    report(10, "byte determinism", passed, "repeated runs produced identical CSV bytes")
