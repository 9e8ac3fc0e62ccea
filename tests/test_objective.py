import math

import numpy as np
import pytest

from csdesign.objective import (
    ObjectiveSpec,
    _evaluate,
    _step_polynomial,
    objective_value,
    value_and_gradient,
)
from oracles import gradient_check


def elementwise_objective(phi, psi, g, lam, sre=None):
    """Independent oracle: accumulate the squared terms one entry at a time."""
    d = phi @ psi
    gram = d.T @ d
    total = 0.0
    l = psi.shape[1]
    for i in range(l):
        for j in range(l):
            total += (g[i, j] - gram[i, j]) ** 2
    if sre is None:
        for v in phi.ravel():
            total += lam * v * v
    else:
        proj = phi @ sre
        for v in proj.ravel():
            total += lam * v * v
    return total


def random_instance(rng, m=3, n=5, l=6, lam=0.7, baseline=False, p=12):
    psi = rng.standard_normal((n, l))
    phi = rng.standard_normal((m, n))
    g = rng.standard_normal((l, l))
    g = (g + g.T) / 2.0
    sre = rng.standard_normal((n, p)) if baseline else None
    return phi, ObjectiveSpec(psi=psi, gram_target=g, lam=lam, sre=sre)


class TestObjectiveValue:
    def test_zero_phi_identity_target(self):
        psi = np.ones((4, 6))
        spec = ObjectiveSpec(psi=psi, lam=0.3)
        assert objective_value(np.zeros((2, 4)), spec) == pytest.approx(6.0)

    def test_perfect_gram_match_zero(self):
        # orthonormal square psi, phi with phi.T @ phi = I, target = psi.T psi
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        psi = q
        phi, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        spec = ObjectiveSpec(psi=psi, gram_target=psi.T @ psi, lam=0.0)
        assert objective_value(phi, spec) == pytest.approx(0.0, abs=1e-24)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(2)
        phi, spec = random_instance(rng)
        expected = elementwise_objective(phi, spec.psi, spec.gram_target, spec.lam)
        assert objective_value(phi, spec) == pytest.approx(expected, rel=1e-12)

    def test_baseline_matches_elementwise_oracle(self):
        rng = np.random.default_rng(3)
        phi, spec = random_instance(rng, baseline=True)
        expected = elementwise_objective(
            phi, spec.psi, spec.gram_target, spec.lam, sre=spec.sre
        )
        assert objective_value(phi, spec) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_and_regularizer_floor(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            phi, spec = random_instance(rng, lam=float(rng.uniform(0, 2)))
            assert objective_value(phi, spec) >= 0.0

    def test_pure_regularizer_when_gram_term_vanishes(self):
        # target set to the achieved Gram: only lam * ||phi||^2 remains
        rng = np.random.default_rng(40)
        psi = rng.standard_normal((5, 7))
        phi = rng.standard_normal((3, 5))
        d = phi @ psi
        spec = ObjectiveSpec(psi=psi, gram_target=d.T @ d, lam=0.8)
        assert objective_value(phi, spec) == pytest.approx(
            0.8 * float(np.sum(phi**2)), rel=1e-12
        )

    def test_dimension_mismatch(self):
        spec = ObjectiveSpec(psi=np.eye(4), lam=0.1)
        with pytest.raises(ValueError):
            objective_value(np.zeros((2, 5)), spec)


class TestObjectiveSpecValidation:
    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            ObjectiveSpec(psi=np.eye(3), lam=-0.1)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda(self, lam):
        with pytest.raises(ValueError, match="finite"):
            ObjectiveSpec(psi=np.eye(3), lam=lam)

    def test_sre_row_mismatch(self):
        with pytest.raises(ValueError):
            ObjectiveSpec(psi=np.eye(3), lam=0.1, sre=np.zeros((4, 7)))

    def test_gram_target_shape(self):
        with pytest.raises(ValueError):
            ObjectiveSpec(psi=np.eye(3), gram_target=np.eye(4), lam=0.0)

    def test_gram_target_must_be_symmetric(self):
        g = np.eye(3)
        g[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            ObjectiveSpec(psi=np.eye(3), gram_target=g, lam=0.0)

    def test_unset_target_is_identity(self):
        spec = ObjectiveSpec(psi=np.ones((3, 4)), lam=0.1)
        np.testing.assert_array_equal(spec.gram_target, np.eye(4))

    def test_sre_rotated_cached(self):
        rng = np.random.default_rng(5)
        e = rng.standard_normal((3, 9))
        spec = ObjectiveSpec(psi=rng.standard_normal((3, 4)), lam=0.2, sre=e)
        np.testing.assert_allclose(spec.sre_rotated, spec.basis.T @ e @ e.T @ spec.basis,
                                   rtol=1e-14)


class TestGradient:
    def test_zero_phi_zero_gradient(self):
        rng = np.random.default_rng(6)
        _, spec = random_instance(rng)
        np.testing.assert_array_equal(
            value_and_gradient(np.zeros((3, 5)), spec)[1], np.zeros((3, 5))
        )

    def test_stationary_when_gram_matches(self):
        # lam = 0 and target equal to the achieved Gram: gradient cancels
        rng = np.random.default_rng(7)
        psi = rng.standard_normal((5, 6))
        phi = rng.standard_normal((3, 5))
        d = phi @ psi
        spec = ObjectiveSpec(psi=psi, gram_target=d.T @ d, lam=0.0)
        np.testing.assert_allclose(
            value_and_gradient(phi, spec)[1], np.zeros((3, 5)), atol=1e-12
        )

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        phi, spec = random_instance(rng, m=4, n=8, l=10)
        report = gradient_check(phi, spec, step=1e-6, tol=1e-5)
        assert report.passed, report

    def test_baseline_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        phi, spec = random_instance(rng, m=4, n=8, l=10, baseline=True, p=50)
        report = gradient_check(phi, spec, step=1e-6, tol=1e-5)
        assert report.passed, report

    def test_corrupted_gradient_fails(self):
        rng = np.random.default_rng(10)
        phi, spec = random_instance(rng)
        bad = value_and_gradient(phi, spec)[1]
        bad[0, 0] += 1e-2
        report = gradient_check(phi, spec, gradient=bad)
        assert not report.passed

    def test_value_and_gradient_agree_with_parts(self):
        rng = np.random.default_rng(11)
        phi, spec = random_instance(rng, baseline=True)
        f, g = value_and_gradient(phi, spec)
        assert f == pytest.approx(objective_value(phi, spec), rel=1e-14)
        grad = full_gradient(phi, spec.psi, spec.gram_target, spec.lam, spec.sre)
        np.testing.assert_allclose(g, grad, rtol=0, atol=1e-10 * np.max(np.abs(grad)))

    @pytest.mark.parametrize("kind", ["identity", "explicit", "sre"])
    def test_value_equals_value_and_gradient_exactly(self, kind):
        # the line search compares objective_value against the value of
        # value_and_gradient, so both must compute it one way; the SRE
        # spec takes the achieved Gram as target, leaving only its
        # regularizer, the term the two once computed differently
        mismatched = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            psi = rng.standard_normal((20, 30))
            phi = rng.standard_normal((6, 20))
            d = phi @ psi
            if kind == "identity":
                spec = ObjectiveSpec(psi=psi, lam=0.3)
            elif kind == "explicit":
                g = rng.standard_normal((30, 30))
                spec = ObjectiveSpec(psi=psi, gram_target=(g + g.T) / 2.0, lam=0.3)
            else:
                sre = rng.standard_normal((20, 200))
                spec = ObjectiveSpec(psi=psi, gram_target=d.T @ d, lam=0.3, sre=sre)
            if objective_value(phi, spec) != value_and_gradient(phi, spec)[0]:
                mismatched.append(seed)
        assert mismatched == []


class TestDirectionalDerivative:
    def test_second_order_convergence(self):
        rng = np.random.default_rng(12)
        phi, spec = random_instance(rng, m=4, n=6, l=8)
        v = rng.standard_normal(phi.shape)
        exact = float(np.sum(value_and_gradient(phi, spec)[1] * v))
        errors = []
        for h in (1e-2, 5e-3, 2.5e-3):
            fd = (objective_value(phi + h * v, spec) - objective_value(phi - h * v, spec)) / (2 * h)
            errors.append(abs(fd - exact))
        # halving h should shrink the error ~4x; allow generous slack
        assert errors[1] <= errors[0] / 2.5
        assert errors[2] <= errors[1] / 2.5


class TestRegularizerIdentities:
    def test_proposed_equals_baseline_with_isotropic_sre(self):
        # E built so E @ E.T is exactly (sigma^2 * P) * I
        rng = np.random.default_rng(13)
        n, p, sigma2 = 5, 8, 0.64
        e = np.zeros((n, p))
        scale = np.sqrt(sigma2 * p)
        e[:, :n] = scale * np.eye(n)
        psi = rng.standard_normal((n, 9))
        phi = rng.standard_normal((3, n))
        lam_base = 0.37
        base = ObjectiveSpec(psi=psi, lam=lam_base, sre=e)
        prop = ObjectiveSpec(psi=psi, lam=lam_base * sigma2 * p)
        assert objective_value(phi, base) == pytest.approx(
            objective_value(phi, prop), rel=1e-13
        )

    def test_orthogonal_right_invariance_of_energy(self):
        rng = np.random.default_rng(14)
        phi = rng.standard_normal((4, 7))
        q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        assert float(np.sum((phi @ q) ** 2)) == pytest.approx(
            float(np.sum(phi**2)), rel=1e-12
        )


def _step_specs():
    """Training-free and SRE specs on one random instance (the kernel's identity target)."""
    rng = np.random.default_rng(15)
    psi = rng.standard_normal((6, 9))
    phi = rng.standard_normal((4, 6))
    sre = rng.standard_normal((6, 20))
    specs = {
        "identity": ObjectiveSpec(psi=psi, lam=0.4),
        "sre": ObjectiveSpec(psi=psi, lam=0.02, sre=sre),
    }
    return phi, rng.standard_normal(phi.shape), specs


def rotated(spec, *matrices):
    """`matrices` in `spec`'s singular basis, where the private functions work."""
    return [a @ spec.basis for a in matrices]


class TestStepPolynomial:
    @pytest.mark.parametrize("target", ["identity", "sre"])
    @pytest.mark.parametrize("t", [1e-3, 0.5, 1.0, 4.0])
    def test_matches_direct_difference(self, target, t):
        phi, direction, specs = _step_specs()
        spec = specs[target]
        phi_u, direction_u = rotated(spec, phi, direction)
        _, _, *products = _evaluate(phi_u, spec)
        a1, a2, a3, a4 = _step_polynomial(spec, *products, direction_u)[0]
        delta = a1 * t + a2 * t**2 + a3 * t**3 + a4 * t**4
        direct = objective_value(phi + t * direction, spec) - objective_value(phi, spec)
        assert delta == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("target", ["identity", "sre"])
    def test_linear_coefficient_is_directional_derivative(self, target):
        phi, direction, specs = _step_specs()
        spec = specs[target]
        phi_u, direction_u = rotated(spec, phi, direction)
        _, _, *products = _evaluate(phi_u, spec)
        _, g = value_and_gradient(phi, spec)
        a1 = _step_polynomial(spec, *products, direction_u)[0][0]
        assert a1 == pytest.approx(float(np.sum(g * direction)), rel=1e-12)


def full_gradient(phi, psi, g, lam, sre=None):
    """Independent oracle: the gradient written with the full L x L residual."""
    d = phi @ psi
    reg = phi if sre is None else phi @ sre @ sre.T
    return -4.0 * d @ (g - d.T @ d) @ psi.T + 2.0 * lam * reg


def full_step_polynomial(phi, direction, psi, g, lam, sre=None):
    """Independent oracle: the step quartic's coefficients from L x L matrices."""
    d, b = phi @ psi, direction @ psi
    r = g - d.T @ d
    s1 = d.T @ b + b.T @ d
    s2 = b.T @ b
    s = np.eye(psi.shape[0]) if sre is None else sre @ sre.T
    a1 = -2.0 * np.sum(r * s1) + 2.0 * lam * np.sum(direction * (phi @ s))
    a2 = np.sum(s1 * s1) - 2.0 * np.sum(r * s2) + lam * np.sum(direction * (direction @ s))
    return np.array([a1, a2, 2.0 * np.sum(s1 * s2), np.sum(s2 * s2)])


def _row_space_instance(shape, target, rank_deficient=False):
    """(phi, direction, psi, sre) for an N x L dictionary of the given `shape`."""
    n, l = shape
    rng = np.random.default_rng(100 + 7 * n + l)
    if rank_deficient:  # rank min(N, L) - 2: with L > N, Psi^T's R factor is singular
        k = min(n, l) - 2
        psi = rng.standard_normal((n, k)) @ rng.standard_normal((k, l))
    else:
        psi = rng.standard_normal((n, l))
    phi = rng.standard_normal((3, n))
    direction = rng.standard_normal((3, n))
    sre = rng.standard_normal((n, 15)) if target == "sre" else None
    return phi, direction, psi, sre


ROW_SPACE_SHAPES = {"L>N": (6, 10), "L=N": (6, 6), "L<N": (6, 4)}


class TestRowSpaceReduction:
    """The reduced objective equals the full one in value, gradient and step quartic."""

    @pytest.mark.parametrize("target", ["identity", "sre"])
    @pytest.mark.parametrize("shape", sorted(ROW_SPACE_SHAPES))
    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_matches_full_space_oracles(self, shape, target, rank_deficient):
        phi, direction, psi, sre = _row_space_instance(
            ROW_SPACE_SHAPES[shape], target, rank_deficient
        )
        lam = 0.02 if sre is not None else 0.4
        spec = ObjectiveSpec(psi=psi, lam=lam, sre=sre)
        g = spec.gram_target
        phi_u, direction_u = rotated(spec, phi, direction)
        value, phi_sq, *products = _evaluate(phi_u, spec)
        assert phi_sq == pytest.approx(np.sum(phi * phi), rel=1e-14)
        assert value == pytest.approx(elementwise_objective(phi, psi, g, lam, sre), rel=1e-10)
        grad = full_gradient(phi, psi, g, lam, sre)
        np.testing.assert_allclose(value_and_gradient(phi, spec)[1], grad,
                                   rtol=0, atol=1e-10 * np.max(np.abs(grad)))
        expected = full_step_polynomial(phi, direction, psi, g, lam, sre)
        got = np.array(_step_polynomial(spec, *products, direction_u)[0])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("shape", sorted(ROW_SPACE_SHAPES))
    def test_reduced_sizes(self, shape):
        n, l = ROW_SPACE_SHAPES[shape]
        spec = ObjectiveSpec(psi=np.random.default_rng(0).standard_normal((n, l)), lam=0.1)
        k = min(n, l)
        assert spec.basis.shape == (n, n)  # square even when L < N
        np.testing.assert_allclose(spec.basis.T @ spec.basis, np.eye(n), rtol=0, atol=1e-14)
        assert spec.sigma.shape == (k,)
        assert spec.row_basis.shape == (l, k)


#: (N, L, M) of the Gram-side instances, k = min(N, L)
GRAM_SIDE_SHAPES = {
    "M<k, L>N": (6, 10, 3),
    "M=k, L>N": (6, 10, 6),
    "M>k, L>N": (4, 7, 6),
    "M<k, L<N": (6, 4, 3),
    "M=k, L<N": (6, 4, 4),
    "M>k, L<N": (6, 4, 5),
}


class TestGramSideReduction:
    """An identity target is evaluated on the M x M Gram ``I - d d^T``, for every M."""

    @pytest.mark.parametrize("shape", sorted(GRAM_SIDE_SHAPES))
    @pytest.mark.parametrize("mode", ["training-free", "sre"])
    @pytest.mark.parametrize("explicit", [False, True])
    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_matches_full_space_oracles(self, shape, mode, explicit, rank_deficient):
        n, l, m = GRAM_SIDE_SHAPES[shape]
        k = min(n, l)
        rng = np.random.default_rng(300 + 11 * n + 3 * l + m)
        if rank_deficient:
            psi = rng.standard_normal((n, k - 2)) @ rng.standard_normal((k - 2, l))
        else:
            psi = rng.standard_normal((n, l))
        phi, direction = rng.standard_normal((m, n)), rng.standard_normal((m, n))
        sre = rng.standard_normal((n, 15)) if mode == "sre" else None
        lam = 0.02 if sre is not None else 0.4
        spec = ObjectiveSpec(psi=psi, gram_target=np.eye(l) if explicit else None,
                             lam=lam, sre=sre)
        phi_u, direction_u = rotated(spec, phi, direction)
        value, _, d, r, reg = _evaluate(phi_u, spec)
        assert d.shape == (m, k) and r.shape == (m, m)  # M x M, also where M > k
        np.testing.assert_allclose(r, np.eye(m) - d @ d.T, rtol=0, atol=1e-12)
        g = np.eye(l)
        assert value == pytest.approx(elementwise_objective(phi, psi, g, lam, sre), rel=1e-10)
        grad = full_gradient(phi, psi, g, lam, sre)
        np.testing.assert_allclose(value_and_gradient(phi, spec)[1], grad,
                                   rtol=0, atol=1e-10 * np.max(np.abs(grad)))
        expected = full_step_polynomial(phi, direction, psi, g, lam, sre)
        got = np.array(_step_polynomial(spec, d, r, reg, direction_u)[0])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10 * np.max(np.abs(expected)))

    def test_perfect_identity_match_at_m_equals_k(self):
        # orthonormal square psi and orthogonal phi: d d^T = I to rounding, and
        # the sum of squares |I - d d^T|^2 cannot cancel to a larger error
        rng = np.random.default_rng(5)
        psi, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        phi, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        assert objective_value(phi, ObjectiveSpec(psi=psi, lam=0.0)) <= 1e-24


class TestOneUlpOffTarget:
    """The public evaluation reads any symmetric target, the identity's next neighbour too."""

    psi = np.random.default_rng(6).standard_normal((8, 12))
    phi0 = np.random.default_rng(7).standard_normal((3, 8))

    def test_one_ulp_off_is_evaluated(self):
        g = np.eye(12)
        g[4, 4] = np.nextafter(1.0, 2.0)
        spec = ObjectiveSpec(psi=self.psi, gram_target=g, lam=0.3)
        assert objective_value(self.phi0, spec) == pytest.approx(
            elementwise_objective(self.phi0, self.psi, g, 0.3), rel=1e-10)


class TestSharedFactorisation:
    """Specs on the same bytes of psi share one read-only factorisation."""

    n, l = 6, 9

    def _psi(self):
        psi = np.random.default_rng(8).standard_normal((self.n, self.l))
        psi[2, 3] = 0.0
        return psi

    @staticmethod
    def _arrays(spec):
        return spec.basis, spec.sigma, spec.row_basis

    def _assert_fresh(self, spec, psi):
        n, l = psi.shape
        u, sigma, vt = np.linalg.svd(psi, full_matrices=l < n)
        for got, want in zip(self._arrays(spec), (u, sigma, vt.T)):
            assert got.tobytes() == want.tobytes()

    def test_same_bytes_in_any_layout_reuse(self):
        psi = self._psi()
        first = ObjectiveSpec(psi=psi, lam=0.3)
        wide = np.zeros((self.n, 2 * self.l))
        wide[:, ::2] = psi
        for same in (psi.copy(), np.asfortranarray(psi), wide[:, ::2]):
            spec = ObjectiveSpec(psi=same, lam=0.7, sre=np.ones((self.n, 2)))
            assert all(a is b for a, b in zip(self._arrays(spec), self._arrays(first)))
        self._assert_fresh(first, psi)

    def test_other_bytes_refactor(self):
        psi = self._psi()
        changed = psi.copy()
        changed[0, 0] += 1.0
        negative_zero = psi.copy()
        negative_zero[2, 3] = -0.0
        assert np.array_equal(negative_zero, psi)  # equal values, other bytes
        for other in (changed, negative_zero, psi.reshape(self.l, self.n)):
            first = ObjectiveSpec(psi=psi, lam=0.3)
            spec = ObjectiveSpec(psi=other, lam=0.3)
            assert not any(a is b for a, b in zip(self._arrays(spec), self._arrays(first)))
            self._assert_fresh(spec, other)

    def test_changed_in_place_refactors(self):
        psi = self._psi()
        first = ObjectiveSpec(psi=psi, lam=0.3)
        psi[1, 1] *= 2.0
        spec = ObjectiveSpec(psi=psi, lam=0.3)
        assert spec.basis is not first.basis
        self._assert_fresh(spec, psi)

    def test_entry_dies_with_its_array(self):
        import gc

        import csdesign.objective as objective

        psi = self._psi()
        specs = [ObjectiveSpec(psi=psi, lam=0.3), ObjectiveSpec(psi=psi.copy(), lam=0.3)]
        assert objective._factors is not None
        del psi, specs
        gc.collect()
        assert objective._factors is None

    def test_factors_are_read_only(self):
        spec = ObjectiveSpec(psi=self._psi(), lam=0.3)
        for name in ("basis", "sigma", "row_basis"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(spec, name)[0] = 1.0


def test_replaced_factorisation_leaves_no_weak_reference():
    import weakref

    rng = np.random.default_rng(9)
    psis = [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]
    for i in range(50):  # each spec misses the cache and replaces the other array's entry
        ObjectiveSpec(psi=psis[i % 2], lam=0.3)
    assert all(weakref.getweakrefcount(psi) <= 1 for psi in psis)
