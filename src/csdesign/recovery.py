"""Orthogonal matching pursuit and signal reconstruction.

The solver greedily adds the atom whose normalized correlation with the
current residual is largest (ties break toward the lowest column index,
so runs are deterministic), then refits all selected coefficients by
least squares on the original, unnormalized atoms.  It stops after
exactly K atoms, or earlier only when the residual is numerically zero.
The refit is recomputed from scratch each step; at the sparsity levels
used here (K <= 16) an incremental factorization would buy nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherence import DEGENERATE_COL_TOL

__all__ = ["EARLY_STOP_RESIDUAL", "SparseCode", "omp", "reconstruct", "batch_recover",
           "codes_to_matrix"]

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
    d = np.asarray(d, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
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

    residual = y.copy()
    selected: list[int] = []
    coef = np.zeros(0)
    rank_deficient = False
    available = usable.copy()
    residual_norm = float(np.linalg.norm(residual))

    while len(selected) < k and residual_norm > EARLY_STOP_RESIDUAL:
        corr = np.abs(d_unit.T @ residual)
        corr[~available] = -1.0
        atom = int(np.argmax(corr))  # argmax takes the lowest index on ties
        selected.append(atom)
        available[atom] = False
        coef, _, rank, _ = np.linalg.lstsq(d[:, selected], y, rcond=None)
        if rank < len(selected):
            rank_deficient = True
        residual = y - d[:, selected] @ coef
        residual_norm = float(np.linalg.norm(residual))

    values = np.zeros(l)
    values[selected] = coef
    return SparseCode(
        values=values,
        support=tuple(selected),
        residual_norm=residual_norm,
        rank_deficient=rank_deficient,
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


def batch_recover(d, y, k: int) -> list[SparseCode]:
    """Run :func:`omp` on every column of `y`, preserving column order."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"expected an M x P matrix of measurements, got shape {y.shape}")
    return [omp(d, y[:, j], k) for j in range(y.shape[1])]


def codes_to_matrix(codes: list[SparseCode]) -> np.ndarray:
    """Stack recovered codes into an L x P matrix (one column per signal)."""
    if not codes:
        raise ValueError("empty code list")
    return np.stack([c.values for c in codes], axis=1)
