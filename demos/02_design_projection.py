"""Design projection matrices and compare them against the random baseline.

Four designs are available: the training-free pair (identity Gram
target, or an alternating relaxed-ETF target) and the SRE-regularized
pair that additionally needs a matrix of training residuals.  All four
start from the same random matrix, which doubles as the baseline.
"""

import numpy as np

from csdesign import (
    SolverConfig,
    coherence_report,
    design,
    gen_dictionary,
    gen_signals,
    gen_sparse_codes,
    random_projection,
    welch_bound,
)

m, n, l, k = 20, 60, 100, 4

psi = gen_dictionary(n, l, seed=7)
phi0 = random_projection(m, n, rng_seed=7)

# training data only matters for the SRE-regularized design: build a
# noisy dataset and hand the design its training-half residuals
theta = gen_sparse_codes(l, k, 2000, seed=7)
dataset = gen_signals(psi, theta, snr_db=15.0, seed=7)
sre = dataset.train_sre()

lam = 0.5
cfg = SolverConfig()

designs = {
    "randn (baseline)": phi0,
    "identity target": design(psi, lam, phi0, cfg=cfg).phi,
    "relaxed-ETF target": design(
        psi, lam, phi0, xi=welch_bound(m, l), outer_iters=10, cfg=cfg
    ).phi,
    "SRE-regularized": design(
        psi, lam / (dataset.sigma**2 * dataset.p), phi0, sre=sre, cfg=cfg
    ).phi,
}

print(f"{'design':20s} {'mu':>7s} {'mu_av':>7s} {'||phi||^2':>10s} {'||phi E||^2':>12s}")
for name, phi in designs.items():
    rep = coherence_report(phi, psi)
    proj_noise = float(np.sum((phi @ dataset.test_sre()) ** 2))
    print(f"{name:20s} {rep.mu:7.3f} {rep.mu_av:7.3f} {rep.phi_energy:10.2f} {proj_noise:12.2f}")

print()
print(f"welch bound for ({m}, {l}) frames: {welch_bound(m, l):.3f}")
print("designed matrices lower both the coherence and the projected noise,")
print("while using a fraction of the random baseline's energy")
