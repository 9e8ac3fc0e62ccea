"""Projection-matrix design by nonlinear conjugate gradient.

Every design runs one loop, ``_design``: ``outer_iters`` CG solves of an
:class:`~csdesign.objective.ObjectiveSpec`, each warm-started at the
last.  Given a relaxed-ETF level ``xi``, each round first sets the Gram
target to the relaxed-ETF projection of the current equivalent
dictionary's Gram.  The public functions only pick the spec and rounds:
``cg_minimize`` solves a given spec once; ``design_mt`` (training-free)
and ``design_lh`` (SRE-regularized) fix the identity target;
``alternating_design`` (tag ``mt-etf``) and ``design_lh_etf`` alternate.
``random_projection`` draws the i.i.d. standard normal baseline.

The CG flavor is Polak-Ribiere+ (beta clamped at zero) with a periodic
restart and a backtracking Armijo line search.  Along a search direction
the objective is a quartic in the step (Nocedal & Wright, *Numerical
Optimization*, ch. 3): each iteration forms its four coefficients once,
from the products of the one objective evaluation at the current
iterate, and the line search tests its trial steps on the quartic.  The
quartic only evaluates trial steps; it does not choose them.  Each
accepted iterate is evaluated directly, so trace values and gradients
carry no rounding from earlier steps.  Each round solves in the spec's
singular basis ``Psi = U S V^T``, from ``phi @ U``, and rotates back.
One iterate costs one objective evaluation and one quartic, together
three N-wide products and three M x M Grams (counted in
:mod:`csdesign.objective`), plus three dot reductions: ``<g, d>``,
``|g|^2`` and the Polak-Ribiere numerator ``|g_new|^2 - <g_new, g>``.
The stopping rule reads ``||phi||_F`` from the evaluation.  A failed
line search ends the solve: it returns its current iterate with
``converged=False`` rather than raising.  ``DesignResult.stop_reason``
says why a design stopped, and ``n_f_evals`` and ``n_sd_restarts`` how
much work it did.  Identical inputs, config, and seed reproduce a
bitwise-identical result.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .matio import write_csv
# objective_value and value_and_gradient are not called here; they stay
# bound in this namespace because perfbench's traced run wraps them by name
from .objective import (
    ObjectiveSpec,
    _evaluate,
    _gradient,
    _step_polynomial,
    _with_target,
    objective_value,
    value_and_gradient,
)
from .streams import stream

__all__ = [
    "DEFAULT_OUTER_ITERS",
    "SolverConfig",
    "RelaxedETFTarget",
    "check_xi",
    "TracePoint",
    "DesignResult",
    "cg_minimize",
    "project_to_relaxed_etf",
    "alternating_design",
    "design_mt",
    "design_lh",
    "design_lh_etf",
    "random_projection",
    "write_trace_csv",
]

#: default number of target/matrix alternations for the ETF designs
DEFAULT_OUTER_ITERS = 50


#: backtracking line search: first trial step, shrink factor per
#: rejection, Armijo sufficient-decrease constant, rejections allowed
LS_INITIAL_STEP = 1.0
LS_SHRINK = 0.5
LS_SUFFICIENT_DECREASE = 1e-4
LS_MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget of one CG solve.

    A solve converges once the gradient norm relative to
    ``max(1, ||phi||_F)`` is at most ``grad_tol``, a constant.
    """

    max_cg_iterations: int = 500
    grad_tol: ClassVar[float] = 1e-6

    def __post_init__(self):
        if self.max_cg_iterations < 1:
            raise ValueError("max_cg_iterations must be >= 1")


def check_xi(xi: float) -> float:
    """`xi` as a float, or ValueError unless it lies in [0, 1): the relaxed-ETF level's rule."""
    if not 0.0 <= xi < 1.0:
        raise ValueError(f"xi must lie in [0, 1), got {xi}")
    return float(xi)


@dataclass(frozen=True)
class RelaxedETFTarget:
    """Symmetric unit-diagonal matrix with off-diagonals bounded by `xi`."""

    data: np.ndarray
    xi: float

    def __post_init__(self):
        g = np.asarray(self.data, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"target must be square, got shape {g.shape}")
        xi = check_xi(self.xi)
        if np.max(np.abs(g - g.T)) > 1e-12:
            raise ValueError("target is not symmetric")
        if np.max(np.abs(np.diag(g) - 1.0)) > 1e-12:
            raise ValueError("target diagonal is not unit")
        off = np.abs(g - np.diag(np.diag(g)))
        if off.max() > xi + 1e-12:
            raise ValueError("off-diagonal entries exceed xi")
        object.__setattr__(self, "data", g)
        object.__setattr__(self, "xi", xi)


class TracePoint(NamedTuple):
    outer_iter: int
    cg_iter: int
    f: float
    grad_norm: float


@dataclass(frozen=True)
class DesignResult:
    """Designed projection matrix plus the full optimization trace.

    ``stop_reason`` is ``converged`` when every CG solve of the design
    converged.  Otherwise it says why the last unconverged solve
    stopped: ``line-search stall`` (no step passed the line search) or
    ``iteration cap`` (``max_cg_iterations`` ran out).  The work done,
    summed over rounds: ``n_f_evals`` objective evaluations, and
    ``n_sd_restarts`` fallbacks to steepest descent, one for each search
    direction that was not downhill.
    """

    phi: np.ndarray
    trace: tuple[TracePoint, ...]
    method: str
    stop_reason: str
    n_sd_restarts: int = 0

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def n_f_evals(self) -> int:
        """Objective evaluations, summed over rounds: each adds one trace point."""
        return len(self.trace)


def project_to_relaxed_etf(gram, xi: float) -> RelaxedETFTarget:
    """Project a square matrix onto the relaxed-ETF set at level `xi`.

    Off-diagonal entries with magnitude at most `xi` are kept, larger
    ones are clipped to ``xi * sign``, the diagonal is set to one, and
    the result is symmetrized as ``(G + G.T) / 2`` to absorb any
    floating-point asymmetry of the input.  Idempotent: projecting a
    member of the set returns it unchanged, entry for entry.
    """
    g = np.asarray(gram, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {g.shape}")
    xi = check_xi(xi)
    clipped = np.clip(g, -xi, xi)
    np.fill_diagonal(clipped, 1.0)
    return RelaxedETFTarget(data=(clipped + clipped.T) / 2.0, xi=xi)


def _armijo(poly, gd) -> tuple[float, float] | None:
    """Backtracking line search on the step's quartic; returns (step, change) or None.

    `poly` holds the coefficients ``(a1, a2, a3, a4)`` of
    ``delta(t) = f(phi + t*d) - f(phi) = a1*t + a2*t**2 + a3*t**3 + a4*t**4``
    from :func:`~csdesign.objective._step_polynomial`, so a trial step
    costs a few flops and no objective evaluation.  A step passes the
    Armijo test when ``delta(t)`` is finite and at most
    ``LS_SUFFICIENT_DECREASE * t * gd``.

    After the plain backtracking loop accepts a step, one quadratic
    interpolation through (f(0), f'(0), f(t)) proposes a refined step;
    it is taken only if it also passes the Armijo test with a lower
    value.  Without this polish the accepted steps are only
    power-of-shrink accurate, which degrades conjugacy enough to stall
    the PR+ iteration against the cap on ill-conditioned instances.
    """
    a1, a2, a3, a4 = poly

    def delta(t: float) -> float:
        return t * (a1 + t * (a2 + t * (a3 + t * a4)))

    t = LS_INITIAL_STEP
    accepted = None
    for _ in range(LS_MAX_BACKTRACKS + 1):
        change = delta(t)
        if math.isfinite(change) and change <= LS_SUFFICIENT_DECREASE * t * gd:
            accepted = (t, change)
            break
        t *= LS_SHRINK
    if accepted is None:
        return None
    t_acc, change_acc = accepted
    denom = 2.0 * (change_acc - gd * t_acc)
    if denom > 0.0:
        t_ref = -gd * t_acc * t_acc / denom
        t_ref = min(max(t_ref, 0.1 * t_acc), 10.0 * t_acc)
        change_ref = delta(t_ref)
        if (
            math.isfinite(change_ref)
            and change_ref <= LS_SUFFICIENT_DECREASE * t_ref * gd
            and change_ref < change_acc
        ):
            return t_ref, change_ref
    return accepted


def _cg_solve(
    spec: ObjectiveSpec,
    phi: np.ndarray,
    cfg: SolverConfig,
    outer_iter: int,
    trace: list[TracePoint],
) -> tuple[np.ndarray, str, int]:
    """Run one CG solve, appending to `trace`.

    Returns the iterate, its stop reason and the number of steepest-descent
    restarts.  Evaluates the objective once per iterate, updates `phi` in
    place, and never raises on numerics.
    """
    f, phi_sq, *products = _evaluate(phi, spec)
    g = _gradient(spec, *products)
    g_dot = float(np.vdot(g, g))
    trace.append(TracePoint(outer_iter, 0, f, math.sqrt(g_dot)))
    if math.sqrt(g_dot) / max(1.0, math.sqrt(phi_sq)) <= cfg.grad_tol:
        return phi, "converged", 0

    d = -g
    restarts = 0
    for it in range(1, cfg.max_cg_iterations + 1):
        gd = float(np.vdot(g, d))
        if gd >= 0.0:  # not a descent direction: fall back to steepest descent
            d = -g
            gd = -g_dot
            restarts += 1
        accepted = _armijo(_step_polynomial(spec, *products, d), gd)
        if accepted is None:
            return phi, "line-search stall", restarts  # below line-search resolution
        phi += accepted[0] * d
        f, phi_sq, *products = _evaluate(phi, spec)
        g_new = _gradient(spec, *products)
        g_dot_new = float(np.vdot(g_new, g_new))
        beta = max(0.0, (g_dot_new - float(np.vdot(g_new, g))) / g_dot)
        if it % phi.size == 0:  # restart every M*N iterations (the number of unknowns)
            beta = 0.0
        d *= beta
        d -= g_new
        g, g_dot = g_new, g_dot_new
        trace.append(TracePoint(outer_iter, it, f, math.sqrt(g_dot)))
        if math.sqrt(g_dot) / max(1.0, math.sqrt(phi_sq)) <= cfg.grad_tol:
            return phi, "converged", restarts
    return phi, "iteration cap", restarts


def _design(spec, phi0, cfg, method, xi=None, outer_iters=1) -> DesignResult:
    """Run `outer_iters` CG solves of `spec`, each warm-started at the last.

    With `xi` set, each round first replaces the Gram target by the
    relaxed-ETF projection of the Gram at the current matrix.  Each
    solve works on ``phi @ U``; `phi0` is never written or returned.
    """
    cfg = cfg or SolverConfig()
    phi = np.array(phi0, dtype=float)
    if phi.ndim != 2 or phi.shape[1] != spec.n:
        raise ValueError(
            f"phi0 must have {spec.n} columns to match psi rows, got shape {phi.shape}"
        )
    if not np.all(np.isfinite(phi)):
        raise ValueError("phi0 contains non-finite entries")
    if outer_iters < 1:
        raise ValueError(f"outer_iters must be >= 1, got {outer_iters}")
    trace: list[TracePoint] = []
    stop_reason = "converged"
    restarts = 0
    for k in range(1, outer_iters + 1):
        if xi is not None:
            d = phi @ spec.psi
            spec = _with_target(spec, project_to_relaxed_etf(d.T @ d, xi).data)
        rotated, reason, round_restarts = _cg_solve(spec, phi @ spec.basis, cfg, k, trace)
        if trace[-1].cg_iter > 0:  # a round that took no step keeps its start bit for bit
            phi = rotated @ spec.basis.T
        restarts += round_restarts
        if reason != "converged":
            stop_reason = reason
    return DesignResult(phi=phi, trace=tuple(trace), method=method, stop_reason=stop_reason,
                        n_sd_restarts=restarts)


def cg_minimize(
    spec: ObjectiveSpec,
    phi0,
    cfg: SolverConfig | None = None,
    method: str = "mt",
) -> DesignResult:
    """Minimize a design objective from `phi0` with one CG solve."""
    return _design(spec, phi0, cfg, method)


def design_mt(psi, lam: float, phi0, cfg: SolverConfig | None = None) -> DesignResult:
    """Training-free design with the Gram target fixed at the identity."""
    return _design(ObjectiveSpec(psi=psi, lam=lam), phi0, cfg, "mt")


def alternating_design(
    psi,
    lam: float,
    xi: float,
    outer_iters: int = DEFAULT_OUTER_ITERS,
    phi0=None,
    cfg: SolverConfig | None = None,
) -> DesignResult:
    """Training-free design alternating with a relaxed-ETF Gram target.

    Each round re-derives the target by projecting the current
    equivalent-dictionary Gram onto the relaxed-ETF set, then re-solves
    for the projection matrix by CG warm-started at the previous one.
    """
    return _design(ObjectiveSpec(psi=psi, lam=lam), phi0, cfg, "mt-etf", xi, outer_iters)


def design_lh(psi, lam: float, sre, phi0, cfg: SolverConfig | None = None) -> DesignResult:
    """SRE-regularized design with the identity Gram target."""
    return _design(ObjectiveSpec(psi=psi, lam=lam, sre=sre), phi0, cfg, "lh")


def design_lh_etf(
    psi,
    lam: float,
    sre,
    xi: float,
    outer_iters: int = DEFAULT_OUTER_ITERS,
    phi0=None,
    cfg: SolverConfig | None = None,
) -> DesignResult:
    """SRE-regularized design alternating with a relaxed-ETF Gram target."""
    return _design(ObjectiveSpec(psi=psi, lam=lam, sre=sre), phi0, cfg, "lh-etf", xi, outer_iters)


def random_projection(m: int, n: int, rng_seed: int) -> np.ndarray:
    """M x N matrix of i.i.d. standard normal entries, reproducible per seed."""
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got {m} x {n}")
    return stream(rng_seed, "random-projection").standard_normal((m, n))


def write_trace_csv(trace, path: str | os.PathLike) -> None:
    """Write an optimization trace as CSV (outer_iter,cg_iter,f,grad_norm)."""
    write_csv(path, TracePoint._fields, trace)
