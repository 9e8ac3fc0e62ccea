"""Coherence measures of compressive-sensing systems.

A CS system is described by a projection matrix ``Phi`` (M x N), a
dictionary ``Psi`` (N x L, atoms as columns), and their product, the
equivalent dictionary ``D = Phi @ Psi`` (M x L).  Everything here is a
pure function of plain ndarrays.

All coherence statistics are computed on the column-normalized
equivalent dictionary: columns are rescaled to unit Euclidean norm
before the Gram matrix is formed.  Columns whose norm falls below
``DEGENERATE_COL_TOL`` ("dead atoms" of a learned dictionary) are
reported as degenerate and excluded from the statistics instead of
raising, so a design loop never aborts on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matio import check_matrix

__all__ = [
    "DEGENERATE_COL_TOL",
    "DEFAULT_MU_BAR",
    "CoherenceReport",
    "normalize_columns",
    "gram",
    "mutual_coherence",
    "average_mutual_coherence",
    "welch_bound",
    "recoverable_sparsity",
    "equivalent_dictionary",
    "coherence_report",
]

#: columns with Euclidean norm below this are treated as degenerate
DEGENERATE_COL_TOL = 1e-12

#: default threshold for the averaged coherence statistic (reports state
#: the threshold they used; the value is a convention, not a constant of
#: the problem)
DEFAULT_MU_BAR = 0.2


@dataclass(frozen=True)
class CoherenceReport:
    """Bundle of coherence statistics for one CS system."""

    mu: float
    mu_av: float
    mu_bar_threshold: float
    welch: float
    n_av: int
    gram_distortion: float
    phi_energy: float


def normalize_columns(d) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Scale each column of `d` to unit Euclidean norm.

    Returns
    -------
    normalized : ndarray
        Copy of `d` with unit-norm columns; degenerate columns are zeroed.
    scales : ndarray
        Original column norms.
    degenerate : list of int
        Indices of columns with norm below ``DEGENERATE_COL_TOL``.
    """
    d = check_matrix(d, "d")
    scales = np.linalg.norm(d, axis=0)
    degenerate = [int(j) for j in np.nonzero(scales < DEGENERATE_COL_TOL)[0]]
    normalized = np.divide(d, scales, out=np.zeros_like(d), where=scales >= DEGENERATE_COL_TOL)
    return normalized, scales, degenerate


def gram(d) -> np.ndarray:
    """Gram matrix of the column-normalized `d`.

    :func:`normalize_columns` zeroes each degenerate column, so its row,
    column and diagonal entry are exactly 0, and every other diagonal
    entry is 1 to rounding: the usable atoms are ``np.diag(g) != 0``.
    """
    dbar = normalize_columns(d)[0]
    return dbar.T @ dbar


def mutual_coherence(d) -> float:
    """Largest absolute off-diagonal entry of the normalized Gram of `d`.

    Requires at least two non-degenerate columns.  The result is clamped
    to [0, 1] (rounding can push an inner product of unit vectors a hair
    past 1).
    """
    return _mu_from_gram(gram(d))


def _mu_from_gram(g: np.ndarray) -> float:
    """:func:`mutual_coherence` of the matrix whose normalized Gram is `g`."""
    n_ok = np.count_nonzero(np.diag(g))
    if n_ok < 2:
        raise ValueError(
            f"mutual coherence needs >= 2 non-degenerate columns, found {n_ok}"
        )
    off = np.abs(g - np.diag(np.diag(g)))
    return float(min(max(off.max(), 0.0), 1.0))


def average_mutual_coherence(d, mu_bar: float = DEFAULT_MU_BAR) -> tuple[float, int]:
    """Mean of normalized-Gram off-diagonal magnitudes at or above `mu_bar`.

    Counts ordered pairs (i, j), i != j, restricted to non-degenerate
    columns.  Returns ``(0.0, 0)`` when no entry qualifies.

    Parameters
    ----------
    d : array_like
        Matrix whose columns are compared.
    mu_bar : float
        Inclusion threshold, ``0 <= mu_bar < 1``.
    """
    return _mu_av_from_gram(gram(d), mu_bar)


def _mu_av_from_gram(g: np.ndarray, mu_bar: float) -> tuple[float, int]:
    """:func:`average_mutual_coherence` of the matrix whose normalized Gram is `g`."""
    if not 0.0 <= mu_bar < 1.0:
        raise ValueError(f"mu_bar must lie in [0, 1), got {mu_bar}")
    ok = np.diag(g) != 0
    sub = np.abs(g[np.ix_(ok, ok)])
    np.fill_diagonal(sub, -1.0)  # excludes the diagonal from the threshold test
    selected = sub[sub >= mu_bar]
    if selected.size == 0:
        return 0.0, 0
    return float(selected.mean()), int(selected.size)


def welch_bound(m: int, l: int) -> float:
    """Lower bound sqrt((L-M)/(M(L-1))) on the coherence of an M x L frame."""
    m, l = int(m), int(l)
    if l < 2 or m < 1 or m > l:
        raise ValueError(f"welch_bound requires 1 <= M <= L and L >= 2, got M={m}, L={l}")
    return math.sqrt((l - m) / (m * (l - 1)))


def recoverable_sparsity(mu: float) -> int:
    """Largest sparsity K guaranteed recoverable at coherence `mu`.

    K is the largest integer strictly below (1 + 1/mu)/2.  Values of the
    bound within 1e-9 of an integer are treated as that integer, so bounds
    that are integral in exact arithmetic stay strict under rounding.
    """
    mu = float(mu)
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"recoverable_sparsity requires 0 < mu <= 1, got {mu}")
    bound = 0.5 * (1.0 + 1.0 / mu)
    nearest = round(bound)
    if abs(bound - nearest) <= 1e-9 * max(1.0, abs(bound)):
        return int(nearest) - 1
    return int(math.floor(bound))


def equivalent_dictionary(phi, psi) -> np.ndarray:
    """Equivalent dictionary ``phi @ psi`` seen by the sparse solver."""
    phi = check_matrix(phi, "phi")
    return phi @ check_matrix(psi, "psi", rows=phi.shape[1])


def coherence_report(phi, psi, mu_bar: float = DEFAULT_MU_BAR) -> CoherenceReport:
    """Coherence statistics of the CS system defined by `phi` and `psi`."""
    phi = check_matrix(phi, "phi")
    d = equivalent_dictionary(phi, psi)
    m, l = d.shape
    g = gram(d)
    mu = _mu_from_gram(g)
    mu_av, n_av = _mu_av_from_gram(g, mu_bar)
    ident = np.eye(l)
    return CoherenceReport(
        mu=mu,
        mu_av=mu_av,
        mu_bar_threshold=float(mu_bar),
        welch=welch_bound(m, l) if l >= 2 and m <= l else 0.0,
        n_av=n_av,
        gram_distortion=float(np.sum((ident - g) ** 2)),
        phi_energy=float(np.sum(phi**2)),
    )
