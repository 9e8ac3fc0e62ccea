"""Projection-matrix design: conjugate gradient, and exact relaxed-ETF rounds.

One public function, ``design``, poses the paper's one problem: Gram
matching regularized by ``|Phi|^2``, or by ``|Phi E|^2`` given an SRE
matrix ``sre``.  The Gram target is the identity, and one CG solve
designs for it.  Given a relaxed-ETF level ``xi``, each of
``outer_iters`` rounds instead sets the target to the relaxed-ETF
projection of the current equivalent dictionary's Gram and solves for
it exactly.  The result is named by its inputs: ``lh`` with an SRE
matrix, else ``mt``, plus ``-etf`` when ``xi`` is set.  Every design
builds one :class:`~csdesign.objective.ObjectiveSpec`, whose Gram
target is the identity; an exact round takes its own target beside it.
``random_projection`` draws the i.i.d. standard normal baseline.

An exact round (``_exact_round``) works in Psi's singular basis
``Psi = U S V^T``, with ``R = U^T E E^T U``, or ``R = I`` for ``|Phi|^2``.
The Gram term reads only the columns of ``Phi U`` on the singular
directions above an lstsq-style cutoff; the regularizer is minimised out
of the others, which leaves its Schur complement ``R'`` on the kept
ones.  By Eckart-Young the optimum keeps the top-M positive eigenpairs
``(c_i, q_i)`` of ``K = V^T T V - (lam/2) S^-1 R' S^-1``, with rows
``sqrt(c_i) q_i^T S^-1`` (for T = I the closed form of Li, Zhu et al.,
"On projection matrix optimization for compressive sensing systems",
IEEE TSP 2013).  Every ``Q Phi`` with Q orthogonal is as good, so the
round returns the one nearest its start (orthogonal Procrustes), which
no eigenvector sign or singular basis moves.  At a tie at the M-th
eigenvalue it takes, of the tied eigenvectors (all optimal), the top
right singular vectors of the start's coordinates ``Phi U S`` on them.

The CG flavor is Polak-Ribiere+ (beta clamped at zero) with a periodic
restart and a backtracking Armijo line search.  Along a search direction
the objective is a quartic in the step (Nocedal & Wright, *Numerical
Optimization*, ch. 3): each iteration forms its four coefficients once,
from the products of the one objective evaluation at the current
iterate, and the line search tests its trial steps on the quartic.  The
quartic only evaluates trial steps; it does not choose them.  The
solve evaluates its first iterate from scratch; every later iterate
takes its M x M residual and its SRE factor from ``_step_polynomial``'s
step function, so its trace value and gradient carry the rounding of
the steps.  The solve works on ``phi @ U`` and rotates back.  An
iterate also takes two dot reductions: ``|g|^2`` and the Polak-Ribiere
numerator ``|g_new|^2 - <g_new, g>``.  The first direction, and every
M*N-th, is ``-g``.  The quartic's ``a1`` is ``<g, d>``; when it is not
negative the iterate restarts along ``-g`` with that direction's
quartic.  The stopping rule reads ``||phi||_F`` from the evaluation.  A
failed line search ends the solve: it returns its current iterate with
``converged=False`` rather than raising.  ``DesignResult.stop_reason``
says why a design stopped, and ``n_f_evals`` and ``n_sd_restarts`` how
much work it did.  Identical inputs, config, and seed reproduce a
bitwise-identical result.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .matio import check_matrix, write_csv
# objective_value and value_and_gradient are not called here; they stay
# bound in this namespace because perfbench's traced run wraps them by name
from .objective import (
    ObjectiveSpec,
    _evaluate,
    _gradient,
    _step_polynomial,
    _value_and_gradient,
    objective_value,
    value_and_gradient,
)
from .streams import stream

__all__ = [
    "SolverConfig",
    "RelaxedETFTarget",
    "check_xi",
    "TracePoint",
    "DesignResult",
    "project_to_relaxed_etf",
    "design",
    "random_projection",
    "write_trace_csv",
]

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
    ``max(1, ||phi||_F)`` is at most ``grad_tol``, a constant; an exact
    relaxed-ETF round is held to the same rule.
    """

    max_cg_iterations: int = 500
    grad_tol: ClassVar[float] = 1e-6

    def __post_init__(self):
        _check_count("max_cg_iterations", self.max_cg_iterations)


def _check_count(name: str, value) -> None:
    """Raise ValueError unless `value` is an integer >= 1, as an iteration count must be."""
    if not hasattr(type(value), "__index__") or operator.index(value) < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def check_xi(xi: float) -> float:
    """`xi` as a float, or ValueError unless it lies in [0, 1): the relaxed-ETF level's rule."""
    if not 0.0 <= xi < 1.0:
        raise ValueError(f"xi must lie in [0, 1), got {xi}")
    return float(xi)


class RelaxedETFTarget(NamedTuple):
    """Symmetric unit-diagonal matrix with off-diagonals bounded by `xi`,
    as :func:`project_to_relaxed_etf` builds it."""

    data: np.ndarray


class TracePoint(NamedTuple):
    outer_iter: int
    cg_iter: int
    f: float
    grad_norm: float


@dataclass(frozen=True)
class DesignResult:
    """Designed projection matrix plus the full optimization trace.

    ``stop_reason`` is ``converged`` when the design met the gradient
    tolerance: its CG solve, or every exact round of an ``-etf`` design
    at that round's own target: it does not say that the alternation
    reached its fixed point (a 50th round can still lower f by 1e-3
    relative).  Otherwise it says why not: for the CG solve
    ``line-search stall`` (no step passed the line search) or
    ``iteration cap`` (``max_cg_iterations`` ran out); for an exact round
    ``rounding`` (the exact minimiser, as computed, leaves a larger
    gradient, as an ill-conditioned Psi can).  The work done:
    ``n_f_evals`` objective evaluations (one per exact round), and
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
        """Objective evaluations: each adds one trace point."""
        return len(self.trace)


def project_to_relaxed_etf(gram, xi: float) -> RelaxedETFTarget:
    """Project a square matrix onto the relaxed-ETF set at level `xi`.

    Off-diagonal entries with magnitude at most `xi` are kept, larger
    ones are clipped to ``xi * sign``, the diagonal is set to one, and
    the result is symmetrized as ``(G + G.T) / 2`` to absorb any
    floating-point asymmetry of the input.  Idempotent: projecting a
    member of the set returns it unchanged, entry for entry.
    """
    g = check_matrix(gram, "gram", cols=np.shape(gram)[0] if np.ndim(gram) else None)  # square
    xi = check_xi(xi)
    clipped = np.clip(g, -xi, xi)
    np.fill_diagonal(clipped, 1.0)
    return RelaxedETFTarget(data=(clipped + clipped.T) / 2.0)


def _armijo(poly) -> tuple[float, float] | None:
    """Backtracking line search on the step's quartic; returns (step, change) or None.

    `poly` holds the coefficients ``(a1, a2, a3, a4)`` of
    ``delta(t) = f(phi + t*d) - f(phi) = a1*t + a2*t**2 + a3*t**3 + a4*t**4``
    from :func:`~csdesign.objective._step_polynomial`, so a trial step
    costs a few flops and no objective evaluation.  A step passes the
    Armijo test when ``delta(t)`` is finite and at most
    ``LS_SUFFICIENT_DECREASE * t * a1`` (``a1`` is the slope at 0).

    After the plain backtracking loop accepts a step, one quadratic
    interpolation through (f(0), f'(0), f(t)) proposes a refined step;
    it is taken only if it also passes the Armijo test with a lower
    value.  Without this polish the accepted steps are only
    power-of-shrink accurate, which degrades conjugacy enough to stall
    the PR+ iteration against the cap on ill-conditioned instances.
    """
    a1, a2, a3, a4 = poly

    def armijo_change(t: float) -> float | None:
        """``delta(t)`` if step t passes the Armijo test, else None."""
        change = t * (a1 + t * (a2 + t * (a3 + t * a4)))
        passes = math.isfinite(change) and change <= LS_SUFFICIENT_DECREASE * t * a1
        return change if passes else None

    t = LS_INITIAL_STEP
    for _ in range(LS_MAX_BACKTRACKS + 1):
        change = armijo_change(t)
        if change is not None:
            break
        t *= LS_SHRINK
    else:
        return None
    denom = 2.0 * (change - a1 * t)
    if denom > 0.0:
        t_ref = min(max(-a1 * t * t / denom, 0.1 * t), 10.0 * t)
        change_ref = armijo_change(t_ref)
        if change_ref is not None and change_ref < change:
            return t_ref, change_ref
    return t, change


def _cg_solve(
    spec: ObjectiveSpec, phi: np.ndarray, cfg: SolverConfig, trace: list[TracePoint]
) -> tuple[np.ndarray, str, int]:
    """Run one CG solve, appending to `trace` as round 1.

    Returns the iterate, its stop reason and the number of steepest-descent
    restarts.  Evaluates the objective once per iterate, the first from
    scratch and every later one from the products its step carried,
    updates `phi` in place, and never raises on numerics.
    """
    restarts, carried = 0, ()
    for it in range(cfg.max_cg_iterations + 1):
        if it:
            poly, step = _step_polynomial(spec, *products, d)
            if poly[0] >= 0.0:  # not a descent direction: fall back to steepest descent
                d = -g
                poly, step = _step_polynomial(spec, *products, d)
                restarts += 1
            accepted = _armijo(poly)
            if accepted is None:
                return phi, "line-search stall", restarts  # below line-search resolution
            t = accepted[0]
            phi += t * d
            carried = step(t)  # the new iterate's residual and SRE factor
        f, phi_sq, *products = _evaluate(phi, spec, *carried)
        g_new = _gradient(spec, *products)
        g_dot_new = float(np.vdot(g_new, g_new))
        trace.append(TracePoint(1, it, f, math.sqrt(g_dot_new)))
        if math.sqrt(g_dot_new) / max(1.0, math.sqrt(phi_sq)) <= cfg.grad_tol:
            return phi, "converged", restarts
        if it % phi.size == 0:  # the first direction, and a restart every M*N iterations
            d = -g_new
        else:
            d *= max(0.0, (g_dot_new - float(np.vdot(g_new, g))) / g_dot)
            d -= g_new
        g, g_dot = g_new, g_dot_new
    return phi, "iteration cap", restarts


def _exact_round(spec: ObjectiveSpec, target: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The minimiser of `spec`'s objective for the symmetric L x L Gram `target` nearest `phi`.

    See the module docstring; `phi` (M x N) is the round's start.
    """
    n, l = spec.psi.shape
    sigma, u = spec.sigma, spec.basis
    kept = int(np.count_nonzero(sigma > np.finfo(float).eps * max(n, l) * sigma[0]))
    s, v = sigma[:kept], spec.row_basis[:, :kept]
    r = np.eye(n) if spec.sre_rotated is None else spec.sre_rotated
    # given the kept columns A of phi @ U, the others -A @ other.T minimise the regularizer
    other = np.linalg.lstsq(r[kept:, kept:], r[kept:, :kept], rcond=None)[0]
    schur = r[:kept, :kept] - r[:kept, kept:] @ other
    k = v.T @ target @ v - (0.5 * spec.lam) * schur / np.outer(s, s)
    c, q = np.linalg.eigh((k + k.T) / 2.0)
    m = phi.shape[0]
    top = np.argsort(c)[::-1][:m]
    vecs, tied = q[:, top], c == c[top[-1]]
    n_tied = np.count_nonzero(tied[top])  # the last n_tied of top equal the M-th eigenvalue
    if np.count_nonzero(tied) > n_tied:  # the tie crosses the M-th: take the tied directions
        zt = np.linalg.svd(((phi @ u)[:, :kept] * s) @ q[:, tied])[2]  # nearest the start
        vecs[:, top.size - n_tied:] = q[:, tied] @ zt[:n_tied].T
    x = np.zeros((m, kept))
    x[: top.size] = np.sqrt(np.maximum(c[top], 0.0))[:, None] * vecs.T / s
    x = np.hstack([x, -x @ other.T]) @ u.T
    w, _, zt = np.linalg.svd(phi @ x.T)
    return (w @ zt) @ x


def design(psi, lam: float, phi0, *, sre=None, xi: float | None = None, outer_iters: int = 1,
           cfg: SolverConfig | None = None) -> DesignResult:
    """Design a projection matrix for dictionary `psi` from the start `phi0`.

    `lam` weighs the regularizer: ``|Phi|^2``, or ``|Phi E|^2`` given the
    SRE matrix `sre`.  Given `xi`, the Gram target alternates with its
    relaxed-ETF projection over `outer_iters` exact rounds, each adding
    one trace point ``(round, 0, f, |g|)`` at its own target; otherwise
    it is the identity, one CG solve on ``phi @ U`` budgeted by `cfg`
    designs for it, and `outer_iters` must be 1.  `phi0` is never
    written or returned.
    """
    if xi is None and outer_iters != 1:
        raise ValueError(f"outer_iters={outer_iters!r} needs xi, or each round solves one problem")
    spec = ObjectiveSpec(psi=psi, lam=lam, sre=sre)
    phi = check_matrix(phi0, "phi0", cols=spec.n).copy()
    _check_count("outer_iters", outer_iters)
    method = ("mt" if spec.sre is None else "lh") + ("" if xi is None else "-etf")
    trace: list[TracePoint] = []
    if xi is None:
        rotated, reason, restarts = _cg_solve(spec, phi @ spec.basis, cfg or SolverConfig(), trace)
        if trace[-1].cg_iter > 0:  # a solve that took no step keeps its start bit for bit
            phi = rotated @ spec.basis.T
        return DesignResult(phi=phi, trace=tuple(trace), method=method, stop_reason=reason,
                            n_sd_restarts=restarts)
    stop_reason = "converged"
    for k in range(1, outer_iters + 1):
        d = phi @ spec.psi
        target = project_to_relaxed_etf(d.T @ d, xi).data
        phi = _exact_round(spec, target, phi)
        f, g = _value_and_gradient(phi, spec, target)
        g_norm = math.sqrt(float(np.vdot(g, g)))
        trace.append(TracePoint(k, 0, f, g_norm))
        if g_norm / max(1.0, math.sqrt(float(np.vdot(phi, phi)))) > SolverConfig.grad_tol:
            stop_reason = "rounding"
    return DesignResult(phi=phi, trace=tuple(trace), method=method, stop_reason=stop_reason)


def random_projection(m: int, n: int, rng_seed: int) -> np.ndarray:
    """M x N matrix of i.i.d. standard normal entries, reproducible per seed."""
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got {m} x {n}")
    return stream(rng_seed, "random-projection").standard_normal((m, n))


def write_trace_csv(trace, path: str | os.PathLike) -> None:
    """Write an optimization trace as CSV (outer_iter,cg_iter,f,grad_norm)."""
    write_csv(path, TracePoint._fields, trace)
