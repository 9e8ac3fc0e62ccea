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
fed ``E``.

The objective sees the N x L dictionary only through its row space.
When L > N the spec factors ``Psi^T = Q R`` once (thin QR: Q is L x N
with orthonormal columns, R is N x N), and since
``Psi^T X Psi = Q (R X R^T) Q^T``, the Gram term splits into
``|| Q^T G Q - R^T Phi^T Phi R ||_F^2`` plus a constant that does not
depend on Phi (Li, Zhu et al., "On projection matrix optimization for
compressive sensing systems", IEEE TSP 2013, reduce the same way to
their closed form).  Every evaluation therefore works with the N x N
``psi_r = R^T`` and ``target_r = Q^T G Q``, and forms no L x L matrix;
with L <= N the reduction is trivial and the spec keeps Psi and G.

The value and the gradient come from one evaluation, ``_evaluate``, so
the value is computed one way.  The objective is a quartic in the step
along any direction, and ``_step_polynomial`` gives its coefficients
from ``_evaluate``'s products, so a line search tries steps without
evaluating the objective again.  No matrix is ever inverted here;
learned dictionaries can be ill-conditioned enough to make inversion
of ``Psi @ Psi.T`` unsafe, and an orthogonal factorisation plus plain
products are all the gradient needs.
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
        dictionary (checked to 1e-12 relative); None is stored as the
        identity.
    lam : float
        Finite nonnegative trade-off weight on the regularizer.
    sre : ndarray or None
        Optional N x P matrix of representation errors.  Present makes
        this an SRE-mode spec; absent, training-free mode.

    Derived once at construction: ``sre_outer`` is ``E @ E.T``; the
    row-space problem of the module docstring is ``psi_r`` (N x N when
    L > N, else ``psi``), ``target_r`` and ``offset``, the constant the
    reduction leaves, ``2|(I - QQ^T) G Q|^2 + |(I - QQ^T) G (I - QQ^T)|^2``;
    ``row_basis`` is Q, or None when L <= N.
    """

    psi: np.ndarray
    gram_target: np.ndarray | None = None
    lam: float = 0.0
    sre: np.ndarray | None = None
    sre_outer: np.ndarray | None = field(init=False, default=None, repr=False)
    row_basis: np.ndarray | None = field(init=False, default=None, repr=False)
    psi_r: np.ndarray = field(init=False, default=None, repr=False)
    target_r: np.ndarray = field(init=False, default=None, repr=False)
    offset: float = field(init=False, default=0.0, repr=False)

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        if psi.ndim != 2 or psi.size == 0 or not np.all(np.isfinite(psi)):
            raise ValueError("psi must be a nonempty finite 2-D array")
        object.__setattr__(self, "psi", psi)

        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        object.__setattr__(self, "lam", float(self.lam))

        n, l = psi.shape
        basis, psi_r = None, psi
        if l > n:
            basis, r = np.linalg.qr(psi.T)
            psi_r = r.T
        object.__setattr__(self, "row_basis", basis)
        object.__setattr__(self, "psi_r", psi_r)

        if self.gram_target is None:
            g = np.eye(l)
            # Q^T I Q = I and |(I - QQ^T)|^2 = L - N: no L x L product
            object.__setattr__(self, "target_r", np.eye(min(n, l)))
            object.__setattr__(self, "offset", float(max(l - n, 0)))
        else:
            g = np.asarray(self.gram_target, dtype=float)
            if g.shape != (l, l):
                raise ValueError(f"gram target must be {l} x {l}, got {g.shape}")
            if not np.all(np.isfinite(g)):
                raise ValueError("gram target contains non-finite entries")
            # the gradient and the line-search quartic hold for a symmetric target only
            if np.max(np.abs(g - g.T)) > 1e-12 * max(1.0, float(np.max(np.abs(g)))):
                raise ValueError("gram target is not symmetric")
            _set_reduced_target(self, g)
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


def _set_reduced_target(spec: ObjectiveSpec, g: np.ndarray) -> None:
    """Store the row-space target ``Q^T G Q`` and the offset of the symmetric `g` on `spec`.

    The offset is taken as ``|(I - QQ^T) G Q|^2 + |(I - QQ^T) G|^2``,
    which equals the docstring's form for symmetric G; both are sums of
    squares, so nothing cancels and a target inside the row space gives
    an offset at rounding level.
    """
    q = spec.row_basis
    if q is None:
        target_r, offset = g, 0.0
    else:
        gq = g @ q
        target_r = q.T @ gq
        target_r = (target_r + target_r.T) / 2.0
        side = gq - q @ target_r  # (I - QQ^T) G Q
        rest = g - q @ gq.T  # (I - QQ^T) G
        offset = float(np.vdot(side, side)) + float(np.vdot(rest, rest))
    object.__setattr__(spec, "target_r", target_r)
    object.__setattr__(spec, "offset", offset)


def _with_target(spec: ObjectiveSpec, gram_target: np.ndarray) -> ObjectiveSpec:
    """`spec` with its Gram target swapped for the L x L `gram_target`.

    The copy skips ``__post_init__``, so neither ``E @ E.T`` nor the QR
    factorisation is rebuilt; only the new target is reduced to the row
    space.  The caller owns the target's shape, finiteness and symmetry.
    """
    swapped = copy.copy(spec)
    object.__setattr__(swapped, "gram_target", gram_target)
    _set_reduced_target(swapped, gram_target)
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

    Returns ``(value, d, r, reg)`` in the row space: ``d = phi @ psi_r``,
    the residual ``r = target_r - d.T @ d``, and the regularizer's
    factor ``reg``, which is ``phi`` or ``phi @ E @ E.T``, so the value
    is ``|r|^2 + offset + lam * sum(phi * reg)``.
    """
    phi = _check_phi(phi, spec)
    d = phi @ spec.psi_r
    r = spec.target_r - d.T @ d
    reg = phi if spec.sre_outer is None else phi @ spec.sre_outer
    value = float(np.sum(r * r)) + spec.offset + spec.lam * float(np.sum(phi * reg))
    return value, d, r, reg


def _gradient(spec: ObjectiveSpec, d, r, reg) -> np.ndarray:
    """The gradient from the products ``(d, r, reg)`` of :func:`_evaluate`."""
    return -4.0 * (d @ r) @ spec.psi_r.T + 2.0 * spec.lam * reg


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    """Frobenius inner product, without an elementwise temporary."""
    return float(np.vdot(x, y))


def _step_polynomial(
    spec: ObjectiveSpec, d, r, reg, direction: np.ndarray
) -> tuple[float, float, float, float]:
    """Coefficients of the objective's change along `direction`.

    At the point whose :func:`_evaluate` products are ``(d, r, reg)``,
    ``f(phi + t * direction) - f(phi)`` is exactly
    ``a1*t + a2*t**2 + a3*t**3 + a4*t**4``.  With ``b = direction @ psi_r``,
    ``s1 = d.T @ b + b.T @ d``, ``s2 = b.T @ b`` and ``S`` the identity
    or ``E @ E.T``, the residual at step t is ``r - t*s1 - t**2*s2``, so

    * ``a1 = -2<r, s1> + 2 lam <direction, reg>``
    * ``a2 = |s1|^2 - 2<r, s2> + lam <direction, direction @ S>``
    * ``a3 = 2<s1, s2>``
    * ``a4 = |s2|^2``

    for any symmetric Gram target (the gradient assumes one too).  The
    constant ``offset`` cancels from the change, so the coefficients are
    those of the row-space problem and equal the full problem's.  No
    matrix wider than ``min(N, L)`` is formed: the inner products are
    taken through ``b @ r`` (M x N) and the M x M matrices ``p = d @ b.T``,
    ``d @ d.T`` and ``q = b @ b.T``, as ``<r, s1> = 2<b @ r, d>``,
    ``<r, s2> = <b @ r, b>``, ``|s1|^2 = 2<d @ d.T, q> + 2<p, p.T>``,
    ``<s1, s2> = 2<p, q>`` and ``|s2|^2 = |q|^2``.  ``a1`` is the
    directional derivative.
    """
    b = direction @ spec.psi_r
    br = b @ r
    p = d @ b.T
    q = b @ b.T
    dir_reg = direction if spec.sre_outer is None else direction @ spec.sre_outer
    lam = spec.lam
    a1 = -4.0 * _inner(br, d) + 2.0 * lam * _inner(direction, reg)
    a2 = (2.0 * _inner(d @ d.T, q) + 2.0 * _inner(p, p.T) - 2.0 * _inner(br, b)
          + lam * _inner(direction, dir_reg))
    return a1, a2, 4.0 * _inner(p, q), _inner(q, q)


def objective_value(phi, spec: ObjectiveSpec) -> float:
    """Evaluate the design objective at `phi`."""
    return _evaluate(phi, spec)[0]


def objective_gradient(phi, spec: ObjectiveSpec) -> np.ndarray:
    """Gradient of the design objective with respect to `phi` (M x N)."""
    return value_and_gradient(phi, spec)[1]


def value_and_gradient(phi, spec: ObjectiveSpec) -> tuple[float, np.ndarray]:
    """Objective value and gradient sharing the intermediate products."""
    value, *products = _evaluate(phi, spec)
    return value, _gradient(spec, *products)


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
