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
fed ``E``.  The public functions, and ``_value_and_gradient`` for any
symmetric target (a relaxed-ETF round's), evaluate that plain formula.

The private CG kernel serves the identity target only.  It sees the
N x L dictionary through its singular basis ``Psi = U S V^T`` (U is
N x N orthogonal, S holds the ``k = min(N, L)`` singular values, V is
L x k), which specs on the same bytes of Psi share (see ``_factor``),
and works on ``Phi' = Phi U``, where a product by Psi's factor is a
per-column scaling, ``d = Phi' S``.  ``d^T d`` and ``d d^T`` share
their nonzero eigenvalues, so the Gram term is ``|I - d d^T|^2 + L - M``
on the M x M Gram, for every M (Li, Zhu et al., "On projection matrix
optimization for compressive sensing systems", IEEE TSP 2013, use the
same basis for their closed form).  The value and gradient come from
one evaluation, ``_evaluate``; the objective is a quartic in the step
along any direction, and ``_step_polynomial`` gives its coefficients
from ``_evaluate``'s products, so a line search tries steps without
evaluating the objective again.  After a CG solve's first iterate,
``_evaluate`` is handed the residual and the SRE factor that
``_step_polynomial``'s step function gives.  These private functions
trust their caller for `phi`, which the public functions check by
:func:`~csdesign.matio.check_matrix`.  No matrix is ever inverted here;
learned dictionaries can be ill-conditioned enough to make inversion of
``Psi @ Psi.T`` unsafe.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field

import numpy as np

from .matio import check_matrix

__all__ = ["ObjectiveSpec", "check_lam", "objective_value", "value_and_gradient"]


def check_lam(lam: float) -> float:
    """`lam` as a float, or ValueError unless it is finite and nonnegative: the weight's rule."""
    if not 0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")
    return float(lam)


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

    Derived once at construction: ``sre_rotated`` is ``U^T E E^T U``,
    the one form of the regularizer the objective reads; the singular
    basis of the module docstring is ``basis`` (U, N x N), ``sigma``
    (length k) and ``row_basis`` (V, L x k), read-only arrays shared by
    every spec built on the same bytes of `psi` while the array the
    first of them factored lives.
    """

    psi: np.ndarray
    gram_target: np.ndarray | None = None
    lam: float = 0.0
    sre: np.ndarray | None = None
    sre_rotated: np.ndarray | None = field(init=False, default=None, repr=False)
    basis: np.ndarray = field(init=False, default=None, repr=False)
    sigma: np.ndarray = field(init=False, default=None, repr=False)
    row_basis: np.ndarray = field(init=False, default=None, repr=False)

    def __post_init__(self):
        psi = check_matrix(self.psi, "psi")
        object.__setattr__(self, "psi", psi)

        object.__setattr__(self, "lam", check_lam(self.lam))

        l = psi.shape[1]
        u, sigma, v = _factor(psi)
        object.__setattr__(self, "basis", u)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "row_basis", v)

        if self.gram_target is None:
            g = np.eye(l)
        else:
            g = check_matrix(self.gram_target, "gram_target", l, l)
            # the gradient and the line-search quartic hold for a symmetric target only
            if np.max(np.abs(g - g.T)) > 1e-12 * max(1.0, float(np.max(np.abs(g)))):
                raise ValueError("gram_target is not symmetric")
        object.__setattr__(self, "gram_target", g)

        if self.sre is not None:
            e = check_matrix(self.sre, "sre", rows=psi.shape[0])
            object.__setattr__(self, "sre", e)
            rotated = u.T @ (e @ e.T) @ u
            object.__setattr__(self, "sre_rotated", (rotated + rotated.T) / 2.0)

    @property
    def n(self) -> int:
        return self.psi.shape[0]


# The last factorisation taken: (weak reference to its psi, key, (U, sigma, V)), or None.
_factors = None


def _factor(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The singular basis ``(U, sigma, V)`` of the finite float 2-D `psi`.

    The module keeps the last factorisation, keyed by the shape and a
    128-bit digest of the C-order bytes, so a spec on any array with
    those bytes, in any memory layout, reuses it and gets the bits of a
    fresh SVD.  A digest, not a kept copy of `psi`, holds memory flat;
    bytes, not ``np.array_equal``, tell -0.0 from 0.0; and content, not
    identity, gives an array changed in place a new factorisation.  The
    entry lives no longer than the array it was taken from: the callback
    of its weak reference drops it then.  A replaced entry frees its
    reference, whose callback then never runs.  The arrays are read-only,
    as every spec on the same bytes shares them.
    """
    global _factors
    key = (psi.shape, hashlib.blake2b(np.ascontiguousarray(psi), digest_size=16).digest())
    entry = _factors
    if entry is not None and entry[1] == key:
        return entry[2]
    n, l = psi.shape
    # U stays square when L < N, so phi @ U keeps every norm the regularizer reads
    u, sigma, vt = np.linalg.svd(psi, full_matrices=l < n)
    for a in (u, sigma, vt):
        a.setflags(write=False)
    factors = (u, sigma, vt.T)
    _factors = (weakref.ref(psi, _drop_factors), key, factors)
    return factors


def _drop_factors(ref: weakref.ref) -> None:
    global _factors
    if _factors is not None and _factors[0] is ref:
        _factors = None


def _evaluate(
    phi: np.ndarray, spec: ObjectiveSpec, r: np.ndarray | None = None,
    reg: np.ndarray | None = None,
) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray]:
    """The identity-target objective at the float M x N `phi` and the products its gradient reuses.

    `phi` is in the singular basis (``Phi @ U``).  Returns
    ``(value, phi_sq, d, r, reg)``: ``phi_sq = |phi|^2``, ``d = phi S``,
    the M x M residual ``r = I - d @ d.T``, and the regularizer's factor
    ``reg``, which is ``phi`` or ``phi @ U^T E E^T U``, so the value is
    ``|r|^2 + L - M + lam * <phi, reg>``, exact for every M.  At M <= k
    both terms are sums of squares, so a perfect match reads zero.  A
    given `r` or `reg` is taken as that product at `phi` (a CG iterate
    carries them along its step) and is not formed again.  The caller
    checks `phi`.
    """
    d = phi[:, : spec.sigma.size] * spec.sigma
    if r is None:
        r = np.eye(d.shape[0]) - d @ d.T
    if reg is None:
        reg = phi if spec.sre_rotated is None else phi @ spec.sre_rotated
    phi_sq = float(np.vdot(phi, phi))
    penalty = phi_sq if reg is phi else float(np.vdot(phi, reg))
    gram_term = float(np.vdot(r, r)) + (spec.psi.shape[1] - d.shape[0])
    return gram_term + spec.lam * penalty, phi_sq, d, r, reg


def _gradient(spec: ObjectiveSpec, d, r, reg) -> np.ndarray:
    """The gradient ``-4 (r d) S^T + 2 lam reg`` from :func:`_evaluate`."""
    g = 2.0 * spec.lam * reg
    g[:, : d.shape[1]] -= (r @ d) * (4.0 * spec.sigma)
    return g


def _step_polynomial(spec: ObjectiveSpec, d, r, reg, direction: np.ndarray):
    """Coefficients of the objective's change along `direction`, and what a step does.

    At the point whose :func:`_evaluate` products are ``(d, r, reg)``,
    ``f(phi + t * direction) - f(phi)`` is exactly
    ``a1*t + a2*t**2 + a3*t**3 + a4*t**4``.  With ``b = direction S``,
    the M x M ``p = d @ b.T`` and ``q = b @ b.T``, and ``S`` the identity
    or ``U^T E E^T U``, the residual at step t is
    ``r - t*(p + p.T) - t**2*q``, so

    * ``a1 = -4<r, p> + 2 lam <direction, reg>``
    * ``a2 = 2|p|^2 + 2<p, p.T> - 2<r, q> + lam <direction, direction @ S>``
    * ``a3 = 4<p, q>``
    * ``a4 = |q|^2``

    ``a1`` is the directional derivative.  Returns ``((a1, a2, a3, a4),
    step)``: ``step(t)`` gives the residual and the regularizer's factor
    at step t, ``reg + t * direction @ S``, the factor None for ``S``
    the identity, where it is the stepped `phi` itself.
    """
    b = direction[:, : spec.sigma.size] * spec.sigma
    p = d @ b.T
    q = b @ b.T
    dir_reg = direction if spec.sre_rotated is None else direction @ spec.sre_rotated
    vdot, lam = np.vdot, spec.lam
    a1 = -4.0 * vdot(r, p) + 2.0 * lam * vdot(direction, reg)
    a2 = (2.0 * vdot(p, p) + 2.0 * vdot(p, p.T) - 2.0 * vdot(r, q)
          + lam * vdot(direction, dir_reg))
    poly = float(a1), float(a2), float(4.0 * vdot(p, q)), float(vdot(q, q))
    return poly, lambda t: (r - t * (p + p.T) - (t * t) * q,
                            None if spec.sre_rotated is None else reg + t * dir_reg)


def _value_and_gradient(phi: np.ndarray, spec: ObjectiveSpec,
                        target: np.ndarray) -> tuple[float, np.ndarray]:
    """The objective at the float M x N `phi` for the symmetric L x L Gram `target`, and its gradient.

    The plain formula: with ``D = phi @ psi`` and ``R = target - D^T D``,
    the value is ``|R|^2 + lam <phi, phi E E^T>`` and the gradient
    ``-4 D R psi^T + 2 lam phi E E^T``, where ``E E^T`` is the identity
    or ``U (U^T E E^T U) U^T``.  The caller checks `phi` and `target`.
    """
    d = phi @ spec.psi
    r = target - d.T @ d
    reg = phi if spec.sre_rotated is None else phi @ spec.basis @ spec.sre_rotated @ spec.basis.T
    value = float(np.vdot(r, r)) + spec.lam * float(np.vdot(phi, reg))
    return value, 2.0 * spec.lam * reg - 4.0 * (d @ r) @ spec.psi.T


def objective_value(phi, spec: ObjectiveSpec) -> float:
    """Evaluate the design objective at `phi`."""
    return value_and_gradient(phi, spec)[0]


def value_and_gradient(phi, spec: ObjectiveSpec) -> tuple[float, np.ndarray]:
    """Objective value and gradient sharing the intermediate products."""
    return _value_and_gradient(check_matrix(phi, "phi", cols=spec.n), spec, spec.gram_target)
