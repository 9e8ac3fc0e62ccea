"""Orthogonal matching pursuit recovery of sparse codes.

The solver greedily adds the atom whose normalized correlation with the
current residual is largest (ties break toward the lowest column index,
so runs are deterministic), then refits all selected coefficients by
least squares on the original, unnormalized atoms.  It stops after
exactly K atoms, or earlier only when the residual is numerically zero.

All signals are recovered together (Batch-OMP, after Rubinstein,
Zibulevsky and Elad, CS Technion TR 2008): each greedy step is one
correlation product over every signal's residual, a row-wise
``argmax``, and one column of a progressive QR factorisation of each
signal's selected atoms, vectorised over signals.  The new atom is
orthogonalised against the signal's orthonormal directions by classical
Gram-Schmidt applied twice, which keeps them orthogonal to working
precision (Giraud, Langou and Rozloznik, 2005); the residual is then
deflated along the new direction.  No LAPACK call is made per signal
inside the greedy loop.  A stopped signal takes a zero step: it selects
nothing, adds a zero direction and keeps its residual's bits.

An atom whose orthogonal remainder is at or below ``eps * max(M, j)``
times the largest selected atom norm is numerically dependent: this is
``np.linalg.lstsq``'s ``rcond=None`` cutoff, read on the triangular
factor.  It flags the signal ``rank_deficient`` and takes a zero step,
so the residual stays the projection onto the span of the selected
atoms.  Full-rank fits take their coefficients from one vectorised
back-substitution on R.  Flagged fits keep ``lstsq``'s minimum-norm
answer, from one stacked SVD of their subdictionaries per support size.

:func:`omp` is a batch of one.  A signal's factorisation and residual
do not depend on the batch around it; its correlations can, in the last
bit, because BLAS uses a matrix-vector kernel for one signal and a
matrix-matrix kernel for several.  So :func:`omp` and a column of
:func:`batch_recover` can part only where two atoms tie to within about
1e-16 relative.  Both hold `d` and `y` to :func:`~csdesign.matio.check_matrix`.

:func:`batch_recover` gives the L x P coefficient matrix, one column
per signal, and a length-P boolean array flagging the signals whose
refit met a rank-deficient subdictionary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherence import normalize_columns
from .matio import check_matrix

__all__ = ["EARLY_STOP_RESIDUAL", "SparseCode", "omp", "batch_recover"]

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
    d = check_matrix(d, "d")
    m, l = d.shape
    y = check_matrix(y, "y", rows=m)
    if not 1 <= k <= min(m, l):
        raise ValueError(f"k must satisfy 1 <= k <= min(M, L) = {min(m, l)}, got {k}")

    # selection correlates against unit-norm atoms; coefficients use the originals
    d_unit, atom_norm, degenerate = normalize_columns(d)
    if len(degenerate) == l:
        raise ValueError("all dictionary columns are (near) zero")
    if k > l - len(degenerate):  # a signal would run out of atoms to select
        raise ValueError(f"k={k} exceeds the {l - len(degenerate)} usable (non-degenerate) "
                         f"dictionary columns")
    atoms = np.ascontiguousarray(d.T)  # L x M, row i is atom i

    # one row per signal: norms, gathers and updates then see each signal alone
    signals = np.ascontiguousarray(y.T)
    p = signals.shape[0]
    residual = signals.copy()
    residual_norm = np.linalg.norm(residual, axis=1)
    support = np.zeros((p, k), dtype=np.intp)
    n_selected = np.zeros(p, dtype=np.intp)
    rank_deficient = np.zeros(p, dtype=bool)
    # progressive QR of each signal's selected atoms: D_S = Q^T R, Q's rows
    # orthonormal (zero, with R_jj = 1, for a zero step) and qty = Q y
    q = np.zeros((p, k, m))
    r = np.tile(np.eye(k), (p, 1, 1))
    qty = np.zeros((p, k))
    running = residual_norm > EARLY_STOP_RESIDUAL
    eps = np.finfo(float).eps

    for j in range(k):
        if not running.any():
            break
        corr = np.abs(residual @ d_unit)  # row i is |d_unit.T @ r_i|
        corr[:, degenerate] = -1.0
        np.put_along_axis(corr, support[:, :j], -1.0, axis=1)
        atom = np.argmax(corr, axis=1)  # argmax takes the lowest index on ties
        support[:, j] = np.where(running, atom, 0)
        n_selected += running

        # classical Gram-Schmidt applied twice keeps Q orthonormal to working precision
        new = atoms[atom]
        basis = q[:, :j]
        h = np.einsum("ajm,am->aj", basis, new)
        w = new - np.einsum("aj,ajm->am", h, basis)
        h2 = np.einsum("ajm,am->aj", basis, w)
        w -= np.einsum("aj,ajm->am", h2, basis)
        r[:, :j, j] = h + h2
        rjj = np.linalg.norm(w, axis=1)
        # lstsq's rcond=None cutoff, read on the triangular factor
        independent = rjj > eps * max(m, j + 1) * atom_norm[support[:, :j + 1]].max(axis=1)
        rank_deficient |= running & ~independent
        # a stopped signal, or a dependent atom, takes a zero step: Q's row is zero
        grow = running & independent
        qj = np.divide(w, rjj[:, None], out=np.zeros_like(w), where=grow[:, None])
        q[:, j] = qj
        r[:, j, j] = np.where(grow, rjj, 1.0)
        # deflate: the residual is y minus its projection onto span(Q)
        along = np.einsum("am,am->a", qj, residual)
        qty[:, j] = along
        residual -= along[:, None] * qj
        residual_norm = np.linalg.norm(residual, axis=1)
        running = residual_norm > EARLY_STOP_RESIDUAL

    # full-rank fits: back-substitute R c = Q y; unused steps have R_ii = 1, (Q y)_i = 0
    coef = np.zeros((p, k))
    full = ~rank_deficient
    r_full, c = r[full], qty[full]
    for i in range(k - 1, -1, -1):
        c[:, i] -= np.einsum("ak,ak->a", r_full[:, i, i + 1:], c[:, i + 1:])
        c[:, i] /= r_full[:, i, i]
    coef[full] = c
    # flagged fits keep lstsq's minimum-norm answer: one stacked SVD per support size
    for j in np.unique(n_selected[rank_deficient]):
        idx = np.flatnonzero(rank_deficient & (n_selected == j))
        sub = atoms[support[idx, :j]].transpose(0, 2, 1)  # A x M x j
        u, s, vt = np.linalg.svd(sub, full_matrices=False)
        keep = s > eps * max(m, j) * s[:, :1]
        inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        uty = (u.transpose(0, 2, 1) @ signals[idx][:, :, None])[:, :, 0]
        coef[idx, :j] = (vt.transpose(0, 2, 1) @ (inv_s * uty)[:, :, None])[:, :, 0]

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
        Number of atoms to select, ``1 <= k <= min(M, L)`` and at most
        the number of columns that are not (near) zero.
    """
    y = np.asarray(y, dtype=float).reshape(-1, 1)
    codes, support, n_selected, residual_norm, rank_deficient = _omp_batch(d, y, k)
    return SparseCode(
        values=codes[:, 0],
        support=tuple(int(a) for a in support[0, : n_selected[0]]),
        residual_norm=float(residual_norm[0]),
        rank_deficient=bool(rank_deficient[0]),
    )


def batch_recover(d, y, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Recover every column of the M x P measurements `y` with OMP.

    Returns ``(codes, rank_deficient)``: the L x P coefficient matrix,
    column j recovered from ``y[:, j]`` as :func:`omp` recovers it, and
    a length-P boolean array of the ``rank_deficient`` flags.
    """
    codes, _, _, _, rank_deficient = _omp_batch(d, y, k)
    return codes, rank_deficient
