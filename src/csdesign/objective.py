"""Design objectives for robust projection matrices.

Two families share one quadratic Gram-matching term
``|| G - Psi^T Phi^T Phi Psi ||_F^2``:

* training-free mode: regularized by ``lam * ||Phi||_F^2``, needing
  no training data at all;
* SRE mode: regularized by ``lam * ||Phi @ E||_F^2`` for an explicit
  residual matrix ``E`` of training-signal representation errors.

``E @ E.T`` is formed, and an unset Gram target resolved to the
identity, once when the spec is built, so an SRE-mode evaluation costs
the same as a training-free one regardless of how many training samples
fed ``E``.  The value and the gradient come from one evaluation,
``_evaluate``, so the value is computed one way.  No matrix is ever
inverted here; learned dictionaries can be ill-conditioned enough to
make inversion of ``Psi @ Psi.T`` unsafe, and plain products are all
the gradient needs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ObjectiveSpec",
    "GradientCheckReport",
    "objective_value",
    "objective_gradient",
    "value_and_gradient",
    "gradient_check",
]


@dataclass(frozen=True)
class ObjectiveSpec:
    """Immutable problem data for one design objective.

    Attributes
    ----------
    psi : ndarray
        Dictionary, N x L.
    gram_target : ndarray or None
        Symmetric L x L target for the Gram of the equivalent
        dictionary; None is stored as the identity.
    lam : float
        Finite nonnegative trade-off weight on the regularizer.
    sre : ndarray or None
        Optional N x P matrix of representation errors.  Present makes
        this an SRE-mode spec; absent, training-free mode.
    """

    psi: np.ndarray
    gram_target: np.ndarray | None = None
    lam: float = 0.0
    sre: np.ndarray | None = None
    sre_outer: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        if psi.ndim != 2 or psi.size == 0 or not np.all(np.isfinite(psi)):
            raise ValueError("psi must be a nonempty finite 2-D array")
        object.__setattr__(self, "psi", psi)

        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        object.__setattr__(self, "lam", float(self.lam))

        l = psi.shape[1]
        if self.gram_target is None:
            g = np.eye(l)
        else:
            g = np.asarray(self.gram_target, dtype=float)
            if g.shape != (l, l):
                raise ValueError(f"gram target must be {l} x {l}, got {g.shape}")
            if not np.all(np.isfinite(g)):
                raise ValueError("gram target contains non-finite entries")
        object.__setattr__(self, "gram_target", g)

        if self.sre is not None:
            e = np.asarray(self.sre, dtype=float)
            if e.ndim != 2 or e.shape[0] != psi.shape[0]:
                raise ValueError(
                    f"sre must have {psi.shape[0]} rows to match psi, got shape {e.shape}"
                )
            if not np.all(np.isfinite(e)):
                raise ValueError("sre contains non-finite entries")
            object.__setattr__(self, "sre", e)
            object.__setattr__(self, "sre_outer", e @ e.T)

    @property
    def n(self) -> int:
        return self.psi.shape[0]

    @property
    def l(self) -> int:
        return self.psi.shape[1]


def _with_target(spec: ObjectiveSpec, gram_target: np.ndarray) -> ObjectiveSpec:
    """`spec` with its Gram target swapped for the L x L `gram_target`.

    The copy skips ``__post_init__``, so ``E @ E.T`` is not rebuilt; the
    caller owns the target's shape and finiteness.
    """
    swapped = copy.copy(spec)
    object.__setattr__(swapped, "gram_target", gram_target)
    return swapped


@dataclass(frozen=True)
class GradientCheckReport:
    """Outcome of comparing the analytic gradient against finite differences."""

    max_rel_deviation: float
    passed: bool
    step: float
    tol: float


def _check_phi(phi, spec: ObjectiveSpec) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2 or phi.shape[1] != spec.n:
        raise ValueError(
            f"phi must have {spec.n} columns to match psi rows, got shape {phi.shape}"
        )
    return phi


def _evaluate(
    phi, spec: ObjectiveSpec
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The objective at `phi` and the products its gradient reuses.

    Returns ``(value, d, r, reg)``: ``d = phi @ psi``, the residual
    ``r = G - d.T @ d``, and the regularizer's factor ``reg``, which is
    ``phi`` or ``phi @ E @ E.T``, so the regularizer is
    ``lam * sum(phi * reg)``.
    """
    phi = _check_phi(phi, spec)
    d = phi @ spec.psi
    r = spec.gram_target - d.T @ d
    reg = phi if spec.sre_outer is None else phi @ spec.sre_outer
    value = float(np.sum(r * r)) + spec.lam * float(np.sum(phi * reg))
    return value, d, r, reg


def objective_value(phi, spec: ObjectiveSpec) -> float:
    """Evaluate the design objective at `phi`."""
    return _evaluate(phi, spec)[0]


def objective_gradient(phi, spec: ObjectiveSpec) -> np.ndarray:
    """Gradient of the design objective with respect to `phi` (M x N)."""
    return value_and_gradient(phi, spec)[1]


def value_and_gradient(phi, spec: ObjectiveSpec) -> tuple[float, np.ndarray]:
    """Objective value and gradient sharing the intermediate products."""
    value, d, r, reg = _evaluate(phi, spec)
    return value, -4.0 * (d @ r) @ spec.psi.T + 2.0 * spec.lam * reg


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
    phi = _check_phi(phi, spec)
    analytic = objective_gradient(phi, spec) if gradient is None else np.asarray(gradient)
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
