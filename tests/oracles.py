"""Test oracles shared by the test modules.

``gradient_check`` compares the objective's analytic gradient with
central finite differences; ``lemma1_energies_signal_space`` simulates
the projected-noise law directly, by multiplying phi with drawn
residuals.  No pipeline stage calls either, so they live beside the
tests that do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from csdesign.matio import check_matrix
from csdesign.objective import ObjectiveSpec, objective_value, value_and_gradient
from csdesign.streams import stream


@dataclass(frozen=True)
class GradientCheckReport:
    """Outcome of comparing the analytic gradient against finite differences."""

    max_rel_deviation: float
    passed: bool
    step: float
    tol: float


def gradient_check(
    phi,
    spec: ObjectiveSpec,
    step: float = 1e-6,
    tol: float = 1e-5,
    gradient: np.ndarray | None = None,
) -> GradientCheckReport:
    """Compare the analytic gradient with central finite differences.

    The deviation of each entry is measured relative to
    ``max(1, |analytic|, |numeric|)`` so entries near zero are judged on
    absolute error; inputs are expected at unit scale, where a step of
    1e-6 balances truncation against roundoff.

    Parameters
    ----------
    gradient : ndarray, optional
        Gradient to check instead of the analytic one (fault injection
        for the checker's own tests).
    """
    if step <= 0 or tol <= 0:
        raise ValueError("step and tol must be positive")
    phi = check_matrix(phi, "phi", cols=spec.n)
    analytic = value_and_gradient(phi, spec)[1] if gradient is None else np.asarray(gradient)
    numeric = np.empty_like(phi)
    work = phi.copy()
    for i in range(phi.shape[0]):
        for j in range(phi.shape[1]):
            orig = work[i, j]
            work[i, j] = orig + step
            f_plus = objective_value(work, spec)
            work[i, j] = orig - step
            f_minus = objective_value(work, spec)
            work[i, j] = orig
            numeric[i, j] = (f_plus - f_minus) / (2.0 * step)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    max_rel = float(np.max(np.abs(analytic - numeric) / denom))
    return GradientCheckReport(
        max_rel_deviation=max_rel, passed=bool(max_rel <= tol), step=step, tol=tol
    )


def lemma1_energies_signal_space(phi, p: int, seed: int) -> np.ndarray:
    """``||phi @ e||^2`` for `p` residuals ``e ~ N(0, I)`` drawn in the signal space.

    The direct simulation that ``synth.lemma1_check``'s measurement-space
    draw replaces: N x P standard normals, multiplied by phi.
    """
    phi = check_matrix(phi, "phi")
    residuals = stream(seed, "lemma1").standard_normal((phi.shape[1], p))
    return np.sum((phi @ residuals) ** 2, axis=0)
