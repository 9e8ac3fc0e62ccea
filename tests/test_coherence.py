import math

import numpy as np
import pytest

from csdesign.coherence import (
    average_mutual_coherence,
    coherence_report,
    equivalent_dictionary,
    gram,
    mutual_coherence,
    normalize_columns,
    recoverable_sparsity,
    welch_bound,
)


def brute_force_gram(d):
    """Independent oracle: pairwise inner products of normalized columns."""
    d = np.asarray(d, dtype=float)
    cols = [c / np.linalg.norm(c) for c in d.T]
    l = len(cols)
    g = np.zeros((l, l))
    for i in range(l):
        for j in range(l):
            g[i, j] = float(np.dot(cols[i], cols[j]))
    return g


def brute_force_mu(d):
    """Independent oracle: exhaustive scan over all column pairs."""
    g = brute_force_gram(d)
    best = 0.0
    for i in range(g.shape[0]):
        for j in range(g.shape[1]):
            if i != j:
                best = max(best, abs(g[i, j]))
    return best


class TestNormalizeColumns:
    def test_three_four_five(self):
        out, scales, degen = normalize_columns(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(out[:, 0], [0.6, 0.8])
        assert scales[0] == 5.0
        assert degen == []

    def test_identity_unchanged(self):
        out, scales, degen = normalize_columns(np.eye(4))
        np.testing.assert_array_equal(out, np.eye(4))
        np.testing.assert_array_equal(scales, np.ones(4))
        assert degen == []

    def test_zero_column_reported(self):
        d = np.array([[1.0, 0.0], [0.0, 0.0]])
        out, _, degen = normalize_columns(d)
        assert degen == [1]
        np.testing.assert_array_equal(out[:, 1], [0.0, 0.0])


class TestGram:
    def test_identity(self):
        g = gram(np.eye(5))
        np.testing.assert_array_equal(g, np.eye(5))

    def test_duplicate_columns_off_diagonal_one(self):
        d = np.array([[1.0, 2.0], [1.0, 2.0]])
        g = gram(d)
        assert g[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        d = rng.standard_normal((3, 5))
        np.testing.assert_allclose(gram(d), brute_force_gram(d), atol=1e-12)

    def test_unit_diagonal_and_symmetric(self):
        rng = np.random.default_rng(12)
        d = rng.standard_normal((6, 9))
        g = gram(d)
        np.testing.assert_allclose(np.diag(g), 1.0, atol=1e-12)
        np.testing.assert_allclose(g, g.T, atol=1e-12)


class TestMutualCoherence:
    def test_orthonormal_is_zero(self):
        assert mutual_coherence(np.eye(6)) == 0.0

    def test_duplicated_column_is_one(self):
        d = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert mutual_coherence(d) == pytest.approx(1.0, abs=1e-12)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(13)
        d = rng.standard_normal((20, 100))
        assert mutual_coherence(d) == pytest.approx(brute_force_mu(d), abs=1e-12)

    def test_column_rescaling_invariance(self):
        rng = np.random.default_rng(14)
        d = rng.standard_normal((8, 12))
        scaled = d.copy()
        scaled[:, 3] *= 17.5
        assert mutual_coherence(scaled) == pytest.approx(mutual_coherence(d), abs=1e-12)

    def test_too_few_columns_raises(self):
        with pytest.raises(ValueError):
            mutual_coherence(np.array([[1.0], [0.0]]))
        with pytest.raises(ValueError):
            mutual_coherence(np.array([[1.0, 0.0], [0.0, 0.0]]))  # one degenerate


class TestAverageMutualCoherence:
    def test_zero_threshold_means_plain_mean(self):
        rng = np.random.default_rng(15)
        d = rng.standard_normal((6, 8))
        g = brute_force_gram(d)
        off = [abs(g[i, j]) for i in range(8) for j in range(8) if i != j]
        mu_av, n_av = average_mutual_coherence(d, 0.0)
        assert n_av == len(off)
        assert mu_av == pytest.approx(np.mean(off), abs=1e-12)

    def test_identity_high_threshold_empty(self):
        assert average_mutual_coherence(np.eye(5), 1.0 - 1e-9) == (0.0, 0)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(16)
        d = rng.standard_normal((10, 20))
        g = brute_force_gram(d)
        picked = [abs(g[i, j]) for i in range(20) for j in range(20)
                  if i != j and abs(g[i, j]) >= 0.2]
        mu_av, n_av = average_mutual_coherence(d, 0.2)
        assert n_av == len(picked)
        assert mu_av == pytest.approx(np.mean(picked), abs=1e-12)

    def test_never_exceeds_mutual_coherence(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = rng.standard_normal((5, 9))
            mu = mutual_coherence(d)
            for mu_bar in (0.0, 0.1, 0.3, 0.6):
                mu_av, _ = average_mutual_coherence(d, mu_bar)
                assert mu_av <= mu + 1e-12

    def test_monotone_in_threshold_from_zero(self):
        rng = np.random.default_rng(18)
        d = rng.standard_normal((6, 10))
        base, _ = average_mutual_coherence(d, 0.0)
        for mu_bar in (0.05, 0.2, 0.5):
            higher, n_av = average_mutual_coherence(d, mu_bar)
            if n_av:
                assert higher >= base - 1e-12

    @pytest.mark.parametrize("mu_bar", [0.0, 0.2])
    def test_dead_atom_is_excluded(self, mu_bar):
        # at mu_bar 0 the dead atom's zero Gram entries would pass the
        # threshold and pull the mean down if it were not excluded
        d = np.random.default_rng(19).standard_normal((5, 8))
        dead = np.insert(d, 3, 0.0, axis=1)
        assert mutual_coherence(dead) == pytest.approx(mutual_coherence(d), abs=1e-15)
        mu_av, n_av = average_mutual_coherence(dead, mu_bar)
        want_av, want_n = average_mutual_coherence(d, mu_bar)
        assert n_av == want_n > 0
        assert mu_av == pytest.approx(want_av, abs=1e-15)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            average_mutual_coherence(np.eye(3), 1.0)
        with pytest.raises(ValueError):
            average_mutual_coherence(np.eye(3), -0.1)


class TestWelchBound:
    def test_reference_value(self):
        # sqrt(80/1980) evaluated independently
        assert welch_bound(20, 100) == pytest.approx(math.sqrt(80.0 / 1980.0), rel=1e-15)
        assert welch_bound(20, 100) == pytest.approx(0.201008, abs=5e-7)

    def test_square_case_zero(self):
        assert welch_bound(7, 7) == 0.0

    def test_minimal_case_one(self):
        assert welch_bound(1, 2) == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            welch_bound(5, 3)
        with pytest.raises(ValueError):
            welch_bound(1, 1)


class TestRecoverableSparsity:
    def test_reference_values(self):
        assert recoverable_sparsity(0.2) == 2  # bound 3, strict
        assert recoverable_sparsity(1.0) == 0  # bound 1, strict
        assert recoverable_sparsity(1.0 / 3.0) == 1  # bound 2, strict

    def test_non_integer_bound(self):
        assert recoverable_sparsity(0.3) == 2  # bound 2.1666...

    def test_non_increasing_in_mu(self):
        values = [recoverable_sparsity(mu) for mu in np.linspace(0.01, 1.0, 200)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_invalid(self):
        with pytest.raises(ValueError):
            recoverable_sparsity(0.0)
        with pytest.raises(ValueError):
            recoverable_sparsity(-0.5)


class TestWelchInvariant:
    def test_random_matrices_respect_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            m = int(rng.integers(2, 12))
            l = int(rng.integers(m + 1, m + 30))
            d = rng.standard_normal((m, l))
            assert mutual_coherence(d) >= welch_bound(m, l) - 1e-9


class TestCoherenceReport:
    def test_fields_consistent(self):
        rng = np.random.default_rng(22)
        phi = rng.standard_normal((6, 12))
        psi = rng.standard_normal((12, 20))
        rep = coherence_report(phi, psi, mu_bar=0.25)
        d = equivalent_dictionary(phi, psi)
        assert rep.mu == pytest.approx(mutual_coherence(d), abs=1e-15)
        assert rep.mu_av <= rep.mu
        assert rep.mu >= rep.welch - 1e-9
        assert rep.mu_bar_threshold == 0.25
        assert rep.phi_energy == pytest.approx(float(np.sum(phi**2)), rel=1e-15)
        g = gram(d)
        assert rep.gram_distortion == pytest.approx(float(np.sum((np.eye(20) - g) ** 2)), rel=1e-12)
