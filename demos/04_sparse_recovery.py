"""Recover sparse codes from compressed measurements with matching pursuit.

The solver picks atoms greedily by normalized correlation with the
residual and refits all coefficients by least squares after each pick.
Within the coherence bound, noiseless recovery is exact.  A batch of
signals is recovered in one vectorised pass that returns the L x P
coefficient matrix and a per-signal rank-deficiency flag.
"""

import numpy as np

from csdesign import (
    batch_recover,
    gen_dictionary,
    gen_signals,
    gen_sparse_codes,
    mutual_coherence,
    omp,
    random_projection,
    recoverable_sparsity,
    rho_mse,
    rho_psnr,
)

# --- exact recovery inside the guarantee ---------------------------------
rng = np.random.default_rng(1)
d = rng.standard_normal((20, 50))
k_safe = recoverable_sparsity(mutual_coherence(d))
support = rng.choice(50, size=k_safe, replace=False)
theta_true = np.zeros(50)
theta_true[support] = rng.standard_normal(k_safe)

code = omp(d, d @ theta_true, k_safe)
print(f"coherence {mutual_coherence(d):.3f} guarantees K <= {k_safe}")
print(f"true support {sorted(support.tolist())} -> recovered {sorted(code.support)}")
print(f"coefficient error {np.max(np.abs(code.values - theta_true)):.2e}, "
      f"residual {code.residual_norm:.2e}")

# --- the full pipeline: measure, recover, reconstruct, score -------------
m, n, l, k = 20, 60, 80, 4
psi = gen_dictionary(n, l, seed=2)
phi = random_projection(m, n, rng_seed=2)
theta = gen_sparse_codes(l, k, 400, seed=2)
dataset = gen_signals(psi, theta, snr_db=25.0, seed=2)

x_test = dataset.test_signals()
y = phi @ x_test
codes, rank_deficient = batch_recover(phi @ psi, y, k)
x_hat = psi @ codes

mse = rho_mse(x_test, x_hat)
print()
print(f"batch of {x_test.shape[1]} signals at 25 dB through a random matrix:")
print(f"  rho_mse  = {mse:.5f}")
print(f"  rho_psnr = {rho_psnr(mse):.2f} dB")
print(f"  rank-deficient refits: {int(rank_deficient.sum())}")
print(f"  single-signal recovery matches the batch column: "
      f"{np.array_equal(omp(phi @ psi, y[:, 0], k).values, codes[:, 0])}")
print(f"  single-signal reconstruction matches the batch: "
      f"{np.allclose(psi @ codes[:, 0], x_hat[:, 0])}")
