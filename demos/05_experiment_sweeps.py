"""Run the desk-scale experiment harnesses end to end.

Three harnesses cover the synthetic evaluation: the solver convergence
trace, the trade-off (lambda) sweep, and the SNR sweep comparing the
designed systems against the random baseline.  Everything is seeded, so
rerunning this script reproduces the same numbers byte for byte.

Sizes here are trimmed for a quick run; the acceptance suite
(tests/test_acceptance.py) runs the full-size versions.
"""

import collections
import os
import tempfile

import numpy as np

from csdesign import (
    ExperimentParams,
    run_convergence,
    run_lambda_sweep,
    run_snr_sweep,
    write_records_csv,
)

params = ExperimentParams(m=16, n=40, l=60, k=3, p=200, snr_db=15.0)

# --- 1. convergence of the design objective ------------------------------
rows = run_convergence(params, lambdas=[0.1, 0.5, 1.0], seed=1, max_iterations=200)
by_lam = collections.defaultdict(list)
for lam, _, f in rows:
    by_lam[lam].append(f)
print("objective value along the solve (same random start):")
print(f"  {'lambda':>7s} {'start':>12s} {'iter 50':>12s} {'final':>12s} {'iters':>6s}")
for lam, fs in by_lam.items():
    mid = fs[min(50, len(fs) - 1)]
    print(f"  {lam:7.2f} {fs[0]:12.2f} {mid:12.4f} {fs[-1]:12.4f} {len(fs) - 1:6d}")

# --- 2. effect of the trade-off weight -----------------------------------
grid = [0.0, 0.05, 0.1, 0.25, 0.5, 1.0]
records = run_lambda_sweep(params, grid, seed=[1, 2, 3], methods=("mt",))
curve = collections.defaultdict(list)
for rec in records:
    curve[rec.param_value].append(rec.rho_mse)
print()
print("reconstruction error vs trade-off weight (3-seed average, 15 dB):")
for lam in grid:
    print(f"  lambda={lam:4.2f}: rho_mse = {np.mean(curve[lam]):.5f}")
print("  (lambda = 0 ignores noise robustness entirely; any reasonable")
print("   weight beats it at this noise level)")

# --- 3. SNR sweep of whole CS systems -------------------------------------
records = run_snr_sweep(
    params, [5.0, 15.0, 25.0, 35.0], ("randn", "mt", "lh"), [1, 2, 3], pair_lambdas=True
)
table = collections.defaultdict(dict)
for rec in records:
    table[rec.param_value].setdefault(rec.method, []).append(rec.rho_mse)
print()
print("rho_mse by SNR (3-seed average; designs at matched strength):")
print(f"  {'snr':>5s} {'randn':>10s} {'mt':>10s} {'lh':>10s}")
for snr in sorted(table):
    row = {m: np.mean(v) for m, v in table[snr].items()}
    print(f"  {snr:5.0f} {row['randn']:10.5f} {row['mt']:10.5f} {row['lh']:10.5f}")

path = os.path.join(tempfile.mkdtemp(prefix="csdesign-demo-"), "snr_sweep_records.csv")
write_records_csv(records, path)
print()
print(f"full records written to {path}")
