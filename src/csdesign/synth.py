"""Synthetic data generation and the Monte-Carlo check of the noise law.

A dataset holds ``2P`` signals ``x = psi @ theta + delta`` built from a
unit-column random dictionary, exactly-K-sparse codes, and i.i.d.
Gaussian noise whose variance is chosen in closed form so the expected
dataset-level SNR hits the requested target.  The first P columns are
the training half (their noise is the representation-error matrix fed
to the SRE-regularized designs); the last P columns are reserved for
testing.  The two halves never overlap.

``lemma1_check`` verifies, by simulation, the law that justifies the
training-free regularizer: for Gaussian residuals of variance sigma^2,
``||phi @ E||_F^2 / P`` concentrates on ``sigma^2 * ||phi||_F^2`` with
per-sample variance ``2 sigma^4 ||phi @ phi.T||_F^2``.  It draws in the
measurement space: ``phi @ e ~ N(0, sigma^2 phi @ phi.T)``, so
``||phi @ e||^2`` has exactly the law of ``sigma^2 sum_i c_i z_i^2``,
with ``c_i`` the eigenvalues of ``phi @ phi.T`` and ``z_i`` i.i.d.
standard normal; no N-dimensional residual is ever formed.

All generators draw from named streams (dictionary / codes / noise /
lemma1-measurement), so results are pure functions of their parameters
and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matio import check_matrix
from .streams import stream

__all__ = [
    "SyntheticDataset",
    "Lemma1Report",
    "check_snr_db",
    "gen_dictionary",
    "gen_sparse_codes",
    "gen_signals",
    "lemma1_check",
]


@dataclass(frozen=True)
class SyntheticDataset:
    """Paired train/test signals with known noise.

    ``x = psi @ theta + delta`` exactly.  Columns ``[0, P)`` are the
    training half, ``[P, 2P)`` the test half.
    """

    psi: np.ndarray
    delta: np.ndarray
    x: np.ndarray
    sigma: float
    snr_db: float

    @property
    def p(self) -> int:
        """Number of signals in each half."""
        return self.x.shape[1] // 2

    def train_sre(self) -> np.ndarray:
        """Noise of the training half (the representation-error matrix)."""
        return self.delta[:, : self.p]

    def test_signals(self) -> np.ndarray:
        return self.x[:, self.p :]

    def test_sre(self) -> np.ndarray:
        """Noise of the test half (for projection-noise reporting only)."""
        return self.delta[:, self.p :]


@dataclass(frozen=True)
class Lemma1Report:
    """Monte-Carlo estimates of the projected-noise energy law."""

    trials: int
    mean_estimate: float
    predicted_mean: float
    variance_estimate: float
    predicted_variance: float
    z_score: float


def gen_dictionary(n: int, l: int, seed: int) -> np.ndarray:
    """N x L dictionary: i.i.d. standard normal entries, unit-norm columns."""
    if n < 1 or l < 1:
        raise ValueError(f"dimensions must be positive, got {n} x {l}")
    raw = stream(seed, "dictionary").standard_normal((n, l))
    return raw / np.linalg.norm(raw, axis=0)


def gen_sparse_codes(l: int, k: int, count: int, seed: int) -> np.ndarray:
    """L x count matrix whose columns are exactly K-sparse.

    Each column's support is drawn uniformly without replacement; the
    nonzero values are i.i.d. standard normal.
    """
    if not 1 <= k <= l:
        raise ValueError(f"k must satisfy 1 <= k <= L = {l}, got {k}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    rng = stream(seed, "codes")
    theta = np.zeros((l, count))
    for j in range(count):
        support = rng.choice(l, size=k, replace=False)
        theta[support, j] = rng.standard_normal(k)
    return theta


def check_snr_db(snr_db: float) -> None:
    """Raise ValueError if `snr_db` is NaN or -inf: the SNR's rule (+inf means noiseless)."""
    if not snr_db > -math.inf:
        raise ValueError(f"snr_db must not be NaN or -inf (+inf means noiseless), got {snr_db}")


def gen_signals(psi, theta, snr_db: float, seed: int) -> SyntheticDataset:
    """Build noisy signals around ``psi @ theta`` at a target SNR.

    The per-entry noise variance is chosen in closed form so that the
    dataset-level SNR ``10 log10(||psi @ theta||_F^2 / E||delta||_F^2)`` equals
    `snr_db` in expectation; the achieved value is recorded in the
    result.  ``snr_db = inf`` yields noiseless signals; ``-inf`` is
    rejected, since no finite noise level reaches it.  The column count
    must be even (the dataset is split into equal halves).
    """
    psi = check_matrix(psi, "psi")
    theta = check_matrix(theta, "theta", rows=psi.shape[1])
    count = theta.shape[1]
    if count % 2 != 0:
        raise ValueError(f"column count must be even for the train/test split, got {count}")
    check_snr_db(snr_db)
    x0 = psi @ theta
    clean_energy = float(np.sum(x0 * x0))
    if clean_energy == 0.0:
        raise ValueError("clean signals have zero energy; SNR is undefined")
    n = psi.shape[0]
    if math.isinf(snr_db):
        sigma = 0.0
        delta = np.zeros_like(x0)
    else:
        sigma = math.sqrt(clean_energy * 10.0 ** (-snr_db / 10.0) / (n * count))
        delta = sigma * stream(seed, "noise").standard_normal((n, count))
    noise_energy = float(np.sum(delta * delta))
    achieved = math.inf if noise_energy == 0.0 else 10.0 * math.log10(clean_energy / noise_energy)
    return SyntheticDataset(
        psi=psi,
        delta=delta,
        x=x0 + delta,
        sigma=sigma,
        snr_db=achieved,
    )


def lemma1_check(phi, sigma: float, p: int, seed: int) -> Lemma1Report:
    """Monte-Carlo test of the projected-noise energy law.

    Simulates `p` residual vectors ``e ~ N(0, sigma^2 I)``, forms the
    mean of ``||phi @ e||_2^2`` and its sample variance, and compares
    both to their predicted values; the z-score is the CLT-normalized
    deviation of the mean.

    The draw is exact without forming ``e``: in the eigenbasis of
    ``phi @ phi.T = U diag(c) U.T`` the projection ``U.T @ phi @ e`` has
    independent entries of variances ``sigma^2 c``, so ``||phi @ e||^2``
    is ``sigma^2 c @ z**2`` with ``z`` standard normal.  The smaller Gram
    (``phi.T @ phi`` when M > N) has the same nonzero eigenvalues, so
    ``z`` has ``min(M, N)`` rows; eigenvalues are clipped at 0, where
    rounding leaves a rank-deficient Gram's zeros slightly negative.

    The law scales the means by ``sigma^2`` and the variances by
    ``sigma^4``, and leaves the z-score as it is, so the check runs on
    unit-variance draws and only the reported means and variances are
    scaled (by float products, which saturate to inf or 0 at an extreme
    `sigma` rather than raise).
    """
    phi = check_matrix(phi, "phi")
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if p < 2:
        raise ValueError(f"p must be >= 2 for a sample variance, got {p}")
    gram = phi @ phi.T if phi.shape[0] <= phi.shape[1] else phi.T @ phi
    predicted_variance = 2.0 * float(np.sum(gram * gram))
    if predicted_variance == 0.0:  # the z-score divides by it
        raise ValueError("the predicted variance is 0 (phi all zero, or too small)")
    c = np.maximum(np.linalg.eigvalsh(gram), 0.0)
    z = stream(seed, "lemma1-measurement").standard_normal((c.size, p))
    energies = c @ np.square(z, out=z)
    mean_estimate = float(energies.mean())
    predicted_mean = float(np.sum(phi * phi))
    z_score = (
        math.sqrt(p) * (mean_estimate - predicted_mean) / math.sqrt(predicted_variance)
    )
    s2 = sigma * sigma
    return Lemma1Report(
        trials=int(p),
        mean_estimate=mean_estimate * s2,
        predicted_mean=predicted_mean * s2,
        variance_estimate=float(energies.var(ddof=1)) * s2 * s2,
        predicted_variance=predicted_variance * s2 * s2,
        z_score=z_score,
    )
