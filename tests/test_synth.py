import math

import numpy as np
import pytest

from csdesign.synth import (
    gen_dictionary,
    gen_signals,
    gen_sparse_codes,
    lemma1_check,
)

from oracles import lemma1_energies_signal_space


class TestGenDictionary:
    def test_unit_columns(self):
        psi = gen_dictionary(30, 50, 0)
        np.testing.assert_allclose(np.linalg.norm(psi, axis=0), 1.0, atol=1e-12)

    def test_seed_reproducibility(self):
        a = gen_dictionary(10, 20, 123)
        b = gen_dictionary(10, 20, 123)
        np.testing.assert_array_equal(a, b)
        c = gen_dictionary(10, 20, 124)
        assert not np.array_equal(a, c)

    def test_coarse_normality(self):
        psi = gen_dictionary(500, 300, 5)  # 1.5e5 entries
        x = psi.ravel()
        skew = float(np.mean((x - x.mean()) ** 3) / np.std(x) ** 3)
        assert abs(skew) < 0.05


class TestGenSparseCodes:
    def test_exact_sparsity(self):
        theta = gen_sparse_codes(25, 4, 200, 1)
        nnz = np.count_nonzero(theta, axis=0)
        assert np.all(nnz == 4)

    def test_dense_when_k_equals_l(self):
        theta = gen_sparse_codes(6, 6, 10, 2)
        assert np.all(np.count_nonzero(theta, axis=0) == 6)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            gen_sparse_codes(5, 6, 10, 0)
        with pytest.raises(ValueError):
            gen_sparse_codes(5, 0, 10, 0)

    def test_invalid_count(self):
        with pytest.raises(ValueError, match="count must be positive, got 0"):
            gen_sparse_codes(5, 2, 0, 0)

    def test_support_frequency_uniform(self):
        l, k, count = 20, 3, 100_000
        theta = gen_sparse_codes(l, k, count, 3)
        hits = np.count_nonzero(theta, axis=1)
        mean = count * k / l
        sigma = math.sqrt(count * (k / l) * (1 - k / l))
        assert np.all(np.abs(hits - mean) <= 3.0 * sigma)

    def test_reproducible(self):
        np.testing.assert_array_equal(
            gen_sparse_codes(12, 2, 50, 9), gen_sparse_codes(12, 2, 50, 9)
        )


class TestGenSignals:
    def test_infinite_snr_noiseless(self):
        psi = gen_dictionary(8, 12, 0)
        theta = gen_sparse_codes(12, 2, 10, 0)
        ds = gen_signals(psi, theta, math.inf, 0)
        np.testing.assert_array_equal(ds.x, psi @ theta)
        assert ds.sigma == 0.0
        assert math.isinf(ds.snr_db)

    def test_negative_infinite_snr_rejected(self):
        psi = gen_dictionary(8, 12, 0)
        theta = gen_sparse_codes(12, 2, 10, 0)
        with pytest.raises(ValueError, match="-inf"):
            gen_signals(psi, theta, -math.inf, 0)

    def test_zero_db_energy_balance(self):
        psi = gen_dictionary(50, 80, 1)
        theta = gen_sparse_codes(80, 4, 2000, 1)  # N * count = 1e5
        ds = gen_signals(psi, theta, 0.0, 1)
        clean = float(np.sum((psi @ theta) ** 2))
        noise = float(np.sum(ds.delta**2))
        assert abs(noise - clean) / clean <= 0.02

    def test_achieved_snr_close_to_target(self):
        psi = gen_dictionary(50, 80, 2)
        theta = gen_sparse_codes(80, 4, 2000, 2)
        for target in (5.0, 15.0, 30.0):
            ds = gen_signals(psi, theta, target, 2)
            assert abs(ds.snr_db - target) <= 0.1

    def test_decomposition_exact(self):
        psi = gen_dictionary(10, 15, 3)
        theta = gen_sparse_codes(15, 3, 40, 3)
        ds = gen_signals(psi, theta, 10.0, 3)
        np.testing.assert_array_equal(ds.x, psi @ theta + ds.delta)

    def test_split_halves_disjoint(self):
        psi = gen_dictionary(6, 9, 4)
        theta = gen_sparse_codes(9, 2, 20, 4)
        ds = gen_signals(psi, theta, 20.0, 4)
        assert ds.p == 10
        np.testing.assert_array_equal(
            np.hstack([ds.train_sre(), ds.test_sre()]), ds.delta
        )
        np.testing.assert_array_equal(
            np.hstack([ds.x[:, : ds.p], ds.test_signals()]), ds.x
        )

    def test_zero_energy_rejected(self):
        psi = gen_dictionary(4, 6, 5)
        with pytest.raises(ValueError):
            gen_signals(psi, np.zeros((6, 10)), 10.0, 5)

    def test_odd_count_rejected(self):
        psi = gen_dictionary(4, 6, 6)
        theta = gen_sparse_codes(6, 2, 11, 6)
        with pytest.raises(ValueError):
            gen_signals(psi, theta, 10.0, 6)


class TestLemma1Check:
    def test_identity_predicted_mean(self):
        report = lemma1_check(np.eye(7), 1.0, 100, 0)
        assert report.predicted_mean == pytest.approx(7.0)

    def test_predicted_mean_definition(self):
        rng = np.random.default_rng(1)
        phi = rng.standard_normal((5, 9))
        sigma = 0.7
        report = lemma1_check(phi, sigma, 50, 1)
        assert report.predicted_mean == pytest.approx(sigma**2 * float(np.sum(phi**2)), rel=1e-13)
        gram_rows = phi @ phi.T
        assert report.predicted_variance == pytest.approx(
            2 * sigma**4 * float(np.sum(gram_rows**2)), rel=1e-13
        )

    def test_monte_carlo_concentration(self):
        from csdesign.solver import random_projection

        phi = random_projection(20, 60, 11)
        report = lemma1_check(phi, 1.0, 100_000, 11)
        rel = abs(report.mean_estimate - report.predicted_mean) / report.predicted_mean
        assert rel <= 0.02
        assert abs(report.z_score) <= 4.0
        assert 0.9 <= report.variance_estimate / report.predicted_variance <= 1.1

    def test_error_shrinks_with_p(self):
        # O(1/sqrt(P)) mean law: RMS error over seeds drops ~10x from P to 100P
        from csdesign.solver import random_projection

        phi = random_projection(10, 30, 12)
        def rms(p):
            errs = []
            for seed in range(20):
                rep = lemma1_check(phi, 1.0, p, 100 + seed)
                errs.append((rep.mean_estimate - rep.predicted_mean) / rep.predicted_mean)
            return float(np.sqrt(np.mean(np.square(errs))))

        ratio = rms(1000) / rms(100_000)
        assert 5.0 <= ratio <= 20.0

    def test_agrees_with_signal_space_oracle(self):
        # two independent simulations of one law: their estimates differ by
        # a few standard errors, from the energy's cumulants 2 sum(c^2), 48 sum(c^4)
        from csdesign.solver import random_projection

        phi = random_projection(20, 60, 13)
        p = 100_000
        report = lemma1_check(phi, 1.0, p, 13)
        energies = lemma1_energies_signal_space(phi, p, 13)
        c = np.linalg.eigvalsh(phi @ phi.T)
        k2, k4 = 2.0 * np.sum(c**2), 48.0 * np.sum(c**4)
        assert abs(report.mean_estimate - energies.mean()) <= 4.0 * math.sqrt(2.0 * k2 / p)
        assert abs(report.variance_estimate - energies.var(ddof=1)) <= 4.0 * math.sqrt(
            2.0 * (k4 + 2.0 * k2**2) / p)

    def test_tall_phi_draws_in_the_smaller_gram(self):
        # M > N: the draw has N rows, in the eigenbasis of phi.T @ phi, which
        # is also the Gram of phi.T, so phi and phi.T get the same energies
        phi = np.random.default_rng(2).standard_normal((9, 5))
        report = lemma1_check(phi, 1.0, 100_000, 4)
        wide = lemma1_check(phi.T, 1.0, 100_000, 4)
        assert report.mean_estimate == wide.mean_estimate
        assert report.variance_estimate == wide.variance_estimate
        assert report.predicted_mean == float(np.sum(phi * phi))
        assert abs(report.z_score) <= 4.0

    def test_rank_deficient_phi(self):
        # a duplicated row gives phi @ phi.T a zero eigenvalue, clipped at 0
        phi = np.random.default_rng(3).standard_normal((6, 10))
        phi[5] = phi[0]
        report = lemma1_check(phi, 1.0, 100_000, 5)
        assert all(math.isfinite(value) for value in vars(report).values())
        assert report.predicted_mean == float(np.sum(phi * phi))
        assert abs(report.z_score) <= 4.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lemma1_check(np.eye(3), 0.0, 10, 0)
        with pytest.raises(ValueError):
            lemma1_check(np.eye(3), 1.0, 1, 0)

    def test_zero_phi_rejected(self):
        # the predicted variance is 0, and the z-score would divide by it
        with pytest.raises(ValueError, match="the predicted variance is 0"):
            lemma1_check(np.zeros((3, 5)), 1.0, 10, 0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            lemma1_check(np.eye(3), sigma, 10, 0)

