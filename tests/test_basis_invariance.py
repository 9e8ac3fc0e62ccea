"""Designs do not depend on the coordinates of the problem.

For an orthogonal W, the problem (W psi, phi0 W^T, W E) has the same
equivalent dictionary ``phi psi`` and the same ``phi E`` as (psi, phi0,
E) at every iterate, so its design times W must be the design on
(psi, phi0, E).  The solver works in the spec's singular basis, which
LAPACK picks afresh for W psi; the check holds only if nothing depends
on that choice.  The dictionaries cover a rank-deficient psi and one
whose singular values are all tied.  An exact relaxed-ETF round has a
whole orbit ``Q X`` of optima and returns the one nearest its start, so
it commutes too; with an SRE matrix and a rank-deficient psi it also
minimises the regularizer over the directions that meet no atom.

Two more symmetries of the objective fix the design:

* measurement rotation: for an orthogonal M x M Q, ``Q phi`` has the
  Gram and the norms of ``phi``, and every CG inner product, and the
  distance from an exact round's start to each optimum, is unchanged,
  so the design from ``Q phi0`` is Q times the design from ``phi0``.  The second design runs on the same psi, so it also reuses
  the first one's factorisation;
* atom order: permuting psi's columns permutes the Gram of ``phi psi``
  and leaves its distance to the identity, so an identity-target
  design does not change;
* scale: psi -> 2 psi, lam -> 4 lam, phi -> phi / 2 leaves ``phi psi``,
  ``lam |phi|^2`` and ``lam |phi E|^2`` (E unchanged) as they were, so
  the objective is the same and the design halves.  The stopping rule
  reads the gradient relative to ``max(1, |phi|)``, which is not
  scale-free, so the two solves take different iterates and only their
  converged designs are compared (they agree to about 5e-6).

The tolerance 1e-8 sits far above rounding on these well-conditioned
instances (the designs agree to about 1e-12).  On an ill-conditioned
one, CG carries rounding from one iterate to the next and two bases can
end up 1e-6 apart, with the thin QR basis the solver used before as
much as with the singular basis.
"""

import numpy as np
import pytest

from csdesign.objective import ObjectiveSpec, objective_value
from csdesign.solver import SolverConfig, design, random_projection
from csdesign.synth import gen_dictionary

N, L, M = 8, 16, 3


def _dictionary(kind):
    if kind == "full-rank":
        return gen_dictionary(N, L, 21)
    if kind == "rank-deficient":  # the full-rank dictionary less its two weakest directions
        u, s, vt = np.linalg.svd(gen_dictionary(N, L, 21), full_matrices=False)
        s[-2:] = 0.0
        return (u * s) @ vt
    return np.hstack([np.eye(N), np.eye(N)]) / np.sqrt(2.0)  # every singular value is 1


SRE = 0.2 * np.random.default_rng(22).standard_normal((N, 40))
CFG = SolverConfig(max_cg_iterations=200)
DESIGNS = {
    "mt": lambda psi, phi0, sre: design(psi, 0.3, phi0, cfg=CFG),
    "lh": lambda psi, phi0, sre: design(psi, 0.3, phi0, sre=sre, cfg=CFG),
    "mt-etf": lambda psi, phi0, sre: design(psi, 0.3, phi0, xi=0.35, outer_iters=3, cfg=CFG),
    "lh-etf": lambda psi, phi0, sre: design(psi, 0.3, phi0, sre=sre, xi=0.35, outer_iters=3,
                                            cfg=CFG),
}


@pytest.mark.parametrize("method", sorted(DESIGNS))
@pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "tied"])
def test_design_commutes_with_an_orthogonal_change_of_basis(kind, method):
    psi = _dictionary(kind)
    phi0 = random_projection(M, N, 23)
    w, _ = np.linalg.qr(np.random.default_rng(24).standard_normal((N, N)))
    design = DESIGNS[method]
    base = design(psi, phi0, SRE)
    turned = design(w @ psi, phi0 @ w.T, w @ SRE)
    assert len(turned.trace) == len(base.trace) > 1
    assert turned.stop_reason == base.stop_reason
    np.testing.assert_allclose(turned.phi @ w, base.phi, rtol=0,
                               atol=1e-8 * np.max(np.abs(base.phi)))


@pytest.mark.parametrize("method", sorted(DESIGNS))
def test_design_commutes_with_a_rotation_of_the_measurements(method):
    psi = _dictionary("full-rank")
    phi0 = random_projection(M, N, 25)
    q, _ = np.linalg.qr(np.random.default_rng(26).standard_normal((M, M)))
    design = DESIGNS[method]
    base = design(psi, phi0, SRE)
    turned = design(psi, q @ phi0, SRE)
    assert len(turned.trace) == len(base.trace) > 1
    assert turned.stop_reason == base.stop_reason
    np.testing.assert_allclose(turned.phi, q @ base.phi, rtol=0,
                               atol=1e-8 * np.max(np.abs(base.phi)))


@pytest.mark.parametrize("method", ["lh", "mt"])
def test_identity_target_design_ignores_the_atom_order(method):
    psi = _dictionary("full-rank")
    phi0 = random_projection(M, N, 27)
    order = np.random.default_rng(28).permutation(L)
    design = DESIGNS[method]
    base = design(psi, phi0, SRE)
    permuted = design(psi[:, order], phi0, SRE)
    assert len(permuted.trace) == len(base.trace) > 1
    assert permuted.stop_reason == base.stop_reason
    np.testing.assert_allclose(permuted.phi, base.phi, rtol=0,
                               atol=1e-8 * np.max(np.abs(base.phi)))


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("method", ["mt", "lh"])
def test_design_scales_with_the_dictionary(method, seed):
    psi = gen_dictionary(30, 50, seed)
    phi0 = random_projection(10, 30, seed)
    sre = 0.2 * np.random.default_rng(seed).standard_normal((30, 100)) if method == "lh" else None
    value = objective_value(phi0, ObjectiveSpec(psi, lam=0.3, sre=sre))
    scaled_value = objective_value(phi0 / 2, ObjectiveSpec(2 * psi, lam=1.2, sre=sre))
    assert scaled_value == pytest.approx(value, rel=1e-13)
    base = design(psi, 0.3, phi0, sre=sre)
    scaled = design(2 * psi, 1.2, phi0 / 2, sre=sre)
    assert base.converged and scaled.converged
    np.testing.assert_allclose(2 * scaled.phi, base.phi, rtol=0,
                               atol=1e-4 * np.max(np.abs(base.phi)))
