"""Designs do not depend on the coordinates of the signal space.

For an orthogonal W, the problem (W psi, phi0 W^T, W E) has the same
equivalent dictionary ``phi psi`` and the same ``phi E`` as (psi, phi0,
E) at every iterate, so its design times W must be the design on
(psi, phi0, E).  The solver works in the spec's singular basis, which
LAPACK picks afresh for W psi; the check holds only if nothing depends
on that choice.  The dictionaries cover a rank-deficient psi and one
whose singular values are all tied.

The tolerance 1e-8 sits far above rounding on these well-conditioned
instances (the designs agree to about 1e-12).  On an ill-conditioned
one, CG carries rounding from one iterate to the next and two bases can
end up 1e-6 apart, with the thin QR basis the solver used before as
much as with the singular basis.
"""

import numpy as np
import pytest

from csdesign.solver import (
    SolverConfig,
    alternating_design,
    design_lh,
    design_mt,
    random_projection,
)
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
    "mt": lambda psi, phi0, sre: design_mt(psi, 0.3, phi0, CFG),
    "lh": lambda psi, phi0, sre: design_lh(psi, 0.3, sre, phi0, CFG),
    "mt-etf": lambda psi, phi0, sre: alternating_design(psi, 0.3, 0.35, 3, phi0, CFG),
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
