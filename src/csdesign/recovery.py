"""Orthogonal matching pursuit and signal reconstruction.

The solver greedily adds the atom whose normalized correlation with the
current residual is largest (ties break toward the lowest column index,
so runs are deterministic), then refits all selected coefficients by
least squares on the original, unnormalized atoms.  It stops after
exactly K atoms, or earlier only when the residual is numerically zero.

All signals are recovered together (Batch-OMP, after Rubinstein,
Zibulevsky and Elad, CS Technion TR 2008): each greedy step is one
correlation product over the residuals of the signals still running, a
row-wise ``argmax``, and one stacked SVD refit.  The refit reproduces
``np.linalg.lstsq(..., rcond=None)``: the minimum-norm solution, with
singular values at or below ``eps * max(M, j) * s_max`` treated as
zero.  :func:`omp` is a batch of one.  A signal's refit and residual do
not depend on the batch around it; its correlations can, in the last
bit, because BLAS uses a matrix-vector kernel for one signal and a
matrix-matrix kernel for several.  So :func:`omp` and a column of
:func:`batch_recover` can part only where two atoms tie to within about
1e-16 relative.

:func:`batch_recover` gives the L x P coefficient matrix, one column
per signal, and a length-P boolean array flagging the signals whose
refit met a rank-deficient subdictionary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherence import DEGENERATE_COL_TOL

__all__ = ["EARLY_STOP_RESIDUAL", "SparseCode", "omp", "reconstruct", "batch_recover"]

#: residual two-norm below which the greedy loop stops early
EARLY_STOP_RESIDUAL = 1e-12


@dataclass(frozen=True)
class SparseCode:
    """Sparse coefficient vector recovered for one signal.

    Attributes
    ----------
    values : ndarray
        Length-L coefficient vector.
    support : tuple[int, ...]
        Selected atom indices, in selection order.
    residual_norm : float
        Two-norm of the final residual ``y - D @ values``.
    rank_deficient : bool
        True when some least-squares refit met a rank-deficient
        subdictionary (solved in the least-squares sense).
    """

    values: np.ndarray
    support: tuple[int, ...]
    residual_norm: float
    rank_deficient: bool = False


def _omp_batch(d, y, k: int):
    """Run K greedy OMP steps on every column of the M x P block `y`.

    Returns ``(codes, support, n_selected, residual_norm,
    rank_deficient)``: the L x P coefficients, the P x K selected atoms
    in selection order (the first ``n_selected[i]`` of row i are used),
    and per-signal final residual norms and rank-deficiency flags.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.size == 0:
        raise ValueError(f"dictionary must be a nonempty 2-D array, got shape {d.shape}")
    m, l = d.shape
    if y.shape[0] != m:
        raise ValueError(f"measurement length {y.shape[0]} does not match {m} rows")
    if not 1 <= k <= min(m, l):
        raise ValueError(f"k must satisfy 1 <= k <= min(M, L) = {min(m, l)}, got {k}")

    norms = np.linalg.norm(d, axis=0)
    usable = norms >= DEGENERATE_COL_TOL
    if not usable.any():
        raise ValueError("all dictionary columns are (near) zero")
    # selection correlates against unit-norm atoms; coefficients use the originals
    d_unit = d / np.where(usable, norms, 1.0)
    d_unit[:, ~usable] = 0.0
    atoms = np.ascontiguousarray(d.T)  # L x M, row i is atom i

    # one row per signal: norms, gathers and refits then see each signal alone
    signals = np.ascontiguousarray(y.T)
    p = signals.shape[0]
    residual = signals.copy()
    residual_norm = np.linalg.norm(residual, axis=1)
    support = np.zeros((p, k), dtype=np.intp)
    coef = np.zeros((p, k))
    n_selected = np.zeros(p, dtype=np.intp)
    rank_deficient = np.zeros(p, dtype=bool)
    available = np.tile(usable, (p, 1))
    active = np.flatnonzero(residual_norm > EARLY_STOP_RESIDUAL)
    eps = np.finfo(float).eps

    for j in range(1, k + 1):
        if active.size == 0:
            break
        corr = np.abs(residual[active] @ d_unit)  # row i is |d_unit.T @ r_i|
        corr[~available[active]] = -1.0
        atom = np.argmax(corr, axis=1)  # argmax takes the lowest index on ties
        support[active, j - 1] = atom
        available[active, atom] = False
        n_selected[active] = j

        sub = atoms[support[active, :j]].transpose(0, 2, 1)  # A x M x j
        u, s, vt = np.linalg.svd(sub, full_matrices=False)
        keep = s > eps * max(m, j) * s[:, :1]
        rank_deficient[active] |= np.count_nonzero(keep, axis=1) < j
        inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        y_active = signals[active]
        uty = (u.transpose(0, 2, 1) @ y_active[:, :, None])[:, :, 0]
        c = (vt.transpose(0, 2, 1) @ (inv_s * uty)[:, :, None])[:, :, 0]
        coef[active, :j] = c
        residual[active] = y_active - (sub @ c[:, :, None])[:, :, 0]
        residual_norm[active] = np.linalg.norm(residual[active], axis=1)
        active = active[residual_norm[active] > EARLY_STOP_RESIDUAL]

    codes = np.zeros((l, p))
    used = np.arange(k) < n_selected[:, None]
    codes[support[used], np.nonzero(used)[0]] = coef[used]
    return codes, support, n_selected, residual_norm, rank_deficient


def omp(d, y, k: int) -> SparseCode:
    """Recover a K-sparse code for `y` over the columns of `d`.

    Parameters
    ----------
    d : array_like
        M x L matrix whose columns are candidate atoms.
    y : array_like
        Length-M measurement vector.
    k : int
        Number of atoms to select, ``1 <= k <= min(M, L)``.
    """
    y = np.asarray(y, dtype=float).reshape(-1, 1)
    codes, support, n_selected, residual_norm, rank_deficient = _omp_batch(d, y, k)
    return SparseCode(
        values=codes[:, 0],
        support=tuple(int(a) for a in support[0, : n_selected[0]]),
        residual_norm=float(residual_norm[0]),
        rank_deficient=bool(rank_deficient[0]),
    )


def reconstruct(psi, code) -> np.ndarray:
    """Reconstruct a signal from its code: ``psi @ values``."""
    psi = np.asarray(psi, dtype=float)
    values = np.asarray(code.values if isinstance(code, SparseCode) else code, dtype=float)
    if psi.ndim != 2 or values.shape[0] != psi.shape[1]:
        raise ValueError(
            f"code length {values.shape[0]} does not match {psi.shape[1]} atoms"
        )
    return psi @ values


def batch_recover(d, y, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Recover every column of the M x P measurements `y` with OMP.

    Returns ``(codes, rank_deficient)``: the L x P coefficient matrix,
    column j recovered from ``y[:, j]`` as :func:`omp` recovers it, and
    a length-P boolean array of the ``rank_deficient`` flags.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"expected an M x P matrix of measurements, got shape {y.shape}")
    codes, _, _, _, rank_deficient = _omp_batch(d, y, k)
    return codes, rank_deficient
