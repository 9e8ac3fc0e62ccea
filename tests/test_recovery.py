import numpy as np
import pytest

from csdesign.coherence import mutual_coherence, recoverable_sparsity
from csdesign import recovery
from csdesign.recovery import batch_recover, omp


class TestOmpBasics:
    def test_orthonormal_picks_coordinate(self):
        code = omp(np.eye(3), np.array([0.0, 2.0, 0.0]), 1)
        np.testing.assert_array_equal(code.values, [0.0, 2.0, 0.0])
        assert code.support == (1,)
        assert code.residual_norm == pytest.approx(0.0, abs=1e-15)

    def test_k_equals_m_zero_residual(self):
        rng = np.random.default_rng(0)
        d = rng.standard_normal((6, 15))
        y = rng.standard_normal(6)
        code = omp(d, y, 6)
        assert code.residual_norm <= 1e-10

    def test_invalid_k(self):
        d = np.eye(4)
        with pytest.raises(ValueError):
            omp(d, np.ones(4), 0)
        with pytest.raises(ValueError):
            omp(d, np.ones(4), 5)

    def test_all_zero_columns_rejected(self):
        with pytest.raises(ValueError):
            omp(np.zeros((3, 4)), np.ones(3), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_dictionary_rejected(self, bad):
        d = np.random.default_rng(9).standard_normal((6, 10))
        d[:, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            batch_recover(d, np.ones((6, 4)), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_measurement_rejected(self, bad):
        # unchecked, a NaN residual norm fails the early-stop test and the
        # signal is skipped silently, and an inf entry gives a NaN code
        with pytest.raises(ValueError, match="non-finite entries in 1 of 1 columns"):
            omp(np.eye(3), np.array([bad, 1.0, 0.0]), 1)
        y = np.ones((3, 5))
        y[0, 1] = bad
        y[2, 3] = -bad
        with pytest.raises(ValueError, match="non-finite entries in 2 of 5 columns"):
            batch_recover(np.eye(3), y, 1)

    def test_k_above_usable_atoms_rejected(self):
        # column 2 is zero: at K = 3 no atom is left for the third step, and
        # argmax over the masked correlations would pick atom 0 again
        d = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="k=3 exceeds the 2 usable"):
            omp(d, np.ones(3), 3)
        with pytest.raises(ValueError, match="k=3 exceeds the 2 usable"):
            batch_recover(d, np.ones((3, 4)), 3)

    def test_k_equal_to_usable_atoms_recovers_exactly(self):
        rng = np.random.default_rng(14)
        d = rng.standard_normal((6, 5))
        d[:, 2] = 0.0
        theta = np.array([[1.5, -0.5, 0.0, 2.0, 0.75], [0.0, 1.0, 0.0, -1.0, 3.0]]).T
        code = omp(d, d @ theta[:, 0], 4)
        assert sorted(code.support) == [0, 1, 3, 4] and not code.rank_deficient
        np.testing.assert_allclose(code.values, theta[:, 0], rtol=0, atol=1e-12)
        codes, flags = batch_recover(d, d @ theta, 4)
        assert not flags.any()
        np.testing.assert_allclose(codes, theta, rtol=0, atol=1e-12)

    def test_zero_signal_early_stop(self):
        code = omp(np.eye(4), np.zeros(4), 2)
        assert code.support == ()
        np.testing.assert_array_equal(code.values, np.zeros(4))


class TestOmpExactRecovery:
    def test_noiseless_within_coherence_bound(self):
        successes = 0
        trials = 200
        for t in range(trials):
            rng = np.random.default_rng(1000 + t)
            d = rng.standard_normal((20, 50))
            k = max(1, recoverable_sparsity(mutual_coherence(d)))
            support = rng.choice(50, size=k, replace=False)
            theta = np.zeros(50)
            theta[support] = rng.standard_normal(k)
            code = omp(d, d @ theta, k)
            if set(code.support) == set(support) and np.max(np.abs(code.values - theta)) <= 1e-10:
                successes += 1
        assert successes == trials


class TestOmpProperties:
    def test_residual_monotone_and_orthogonal(self):
        rng = np.random.default_rng(2)
        d = rng.standard_normal((12, 30))
        y = rng.standard_normal(12)
        # replay the greedy loop to observe intermediate residuals
        norms = np.linalg.norm(d, axis=0)
        d_unit = d / norms
        residuals = [float(np.linalg.norm(y))]
        selected = []
        residual = y.copy()
        for _ in range(6):
            corr = np.abs(d_unit.T @ residual)
            corr[selected] = -1.0
            selected.append(int(np.argmax(corr)))
            coef, *_ = np.linalg.lstsq(d[:, selected], y, rcond=None)
            residual = y - d[:, selected] @ coef
            residuals.append(float(np.linalg.norm(residual)))
            # refitted residual is orthogonal to every selected original atom
            assert np.max(np.abs(d[:, selected].T @ residual)) <= 1e-8
        assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))
        code = omp(d, y, 6)
        assert code.residual_norm == pytest.approx(residuals[-1], rel=1e-10)
        assert code.support == tuple(selected)

    def test_selection_scale_invariant(self):
        rng = np.random.default_rng(3)
        d = rng.standard_normal((10, 25))
        y = rng.standard_normal(10)
        base = omp(d, y, 4)
        scaled = d.copy()
        scaled[:, list(base.support)] *= 9.0
        rescaled = omp(scaled, y, 4)
        assert rescaled.support == base.support

    def test_tie_breaks_to_lowest_index(self):
        # two identical atoms: the first one wins
        d = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        code = omp(d, np.array([3.0, 0.0]), 1)
        assert code.support == (0,)

    def test_rank_deficient_flagged(self):
        # atoms 0 and 1 are equal; every correlation ties at both steps, so
        # the lowest index wins each time and the refit meets a rank-1 pair
        d = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        y = np.array([1.0, 0.0, 1.0])
        code = omp(d, y, 2)
        assert code.support == (0, 1)
        assert code.rank_deficient
        _, flags = batch_recover(d, np.stack([y, [0.0, 1.0, 0.0]], axis=1), 2)
        np.testing.assert_array_equal(flags, [True, False])


def _reference_omp(d, y, k):
    """The per-signal OMP loop with an ``lstsq`` refit, kept as the reference."""
    norms = np.linalg.norm(d, axis=0)
    d_unit = d / norms
    residual, selected, coef = y.copy(), [], np.zeros(0)
    while len(selected) < k and np.linalg.norm(residual) > 1e-12:
        corr = np.abs(d_unit.T @ residual)
        corr[selected] = -1.0
        selected.append(int(np.argmax(corr)))
        coef, *_ = np.linalg.lstsq(d[:, selected], y, rcond=None)
        residual = y - d[:, selected] @ coef
    values = np.zeros(d.shape[1])
    values[selected] = coef
    return values


class TestBatchRecover:
    def test_matches_lstsq_reference_loop(self):
        # the SVD refit reorders the arithmetic of lstsq: equal supports,
        # coefficients within a few hundred ulps of their unit scale
        rng = np.random.default_rng(11)
        d = rng.standard_normal((20, 80))
        y = rng.standard_normal((20, 200))
        codes, _ = batch_recover(d, y, 4)
        for j in range(200):
            expected = _reference_omp(d, y[:, j], 4)
            np.testing.assert_array_equal(codes[:, j] != 0, expected != 0)
            np.testing.assert_allclose(codes[:, j], expected, rtol=0, atol=1e-13)

    def test_single_column_equals_single_call(self):
        rng = np.random.default_rng(6)
        d = rng.standard_normal((8, 16))
        y = rng.standard_normal((8, 1))
        codes, flags = batch_recover(d, y, 3)
        single = omp(d, y[:, 0], 3)
        assert np.flatnonzero(codes[:, 0]).tolist() == sorted(single.support)
        np.testing.assert_array_equal(codes[:, 0], single.values)
        assert flags[0] == single.rank_deficient

    def test_matches_loop_bitwise(self):
        rng = np.random.default_rng(7)
        d = rng.standard_normal((10, 20))
        y = rng.standard_normal((10, 100))
        codes, flags = batch_recover(d, y, 4)
        for j in range(100):
            single = omp(d, y[:, j], 4)
            np.testing.assert_array_equal(codes[:, j], single.values)
            assert flags[j] == single.rank_deficient

    def test_column_permutation_permutes_results(self):
        rng = np.random.default_rng(8)
        d = rng.standard_normal((6, 12))
        y = rng.standard_normal((6, 9))
        perm = rng.permutation(9)
        base, base_flags = batch_recover(d, y, 2)
        permuted, permuted_flags = batch_recover(d, y[:, perm], 2)
        np.testing.assert_array_equal(permuted, base[:, perm])
        np.testing.assert_array_equal(permuted_flags, base_flags[perm])

    def test_atom_permutation_permutes_codes(self):
        # OMP reads atoms only through their correlations and refits, so relabelling
        # the dictionary's columns relabels the code rows and changes nothing else;
        # a Gaussian instance has no near-ties for the lowest-index rule to break
        rng = np.random.default_rng(5)
        d = rng.standard_normal((20, 80))
        y = rng.standard_normal((20, 300))
        order = rng.permutation(80)
        base, base_flags = batch_recover(d, y, 4)
        permuted, permuted_flags = batch_recover(d[:, order], y, 4)
        np.testing.assert_array_equal(permuted, base[order])
        np.testing.assert_array_equal(permuted_flags, base_flags)

    def test_codes_matrix(self):
        rng = np.random.default_rng(9)
        d = rng.standard_normal((6, 10))
        y = rng.standard_normal((6, 3))
        codes, flags = batch_recover(d, y, 2)
        assert codes.shape == (10, 3)
        assert flags.shape == (3,) and flags.dtype == bool
        for j in range(3):
            np.testing.assert_array_equal(codes[:, j], omp(d, y[:, j], 2).values)

    def test_early_stops_mixed_with_full_runs(self):
        rng = np.random.default_rng(10)
        d = rng.standard_normal((8, 16))
        y = rng.standard_normal((8, 5))
        y[:, 1] = 0.0  # stops before the first step
        y[:, 3] = 2.5 * d[:, 6]  # one atom explains it: stops after one step
        codes, flags = batch_recover(d, y, 4)
        np.testing.assert_array_equal(codes[:, 1], np.zeros(16))
        assert np.flatnonzero(codes[:, 3]).tolist() == [6]
        assert codes[6, 3] == pytest.approx(2.5, rel=1e-12)
        assert omp(d, y[:, 3], 4).support == (6,)
        for j in (0, 2, 4):
            assert np.count_nonzero(codes[:, j]) == 4
        for j in range(5):
            np.testing.assert_array_equal(codes[:, j], omp(d, y[:, j], 4).values)
        assert not flags.any()

    def test_stopped_signal_takes_zero_steps(self):
        # once its residual is below the early-stop level a signal adds no
        # direction, so the steps the running signal still takes leave its code
        # with the bits it had after its one step
        rng = np.random.default_rng(12)
        d = rng.standard_normal((8, 16))
        y = rng.standard_normal((8, 2))
        y[:, 0] = 2.5 * d[:, 6] + 1e-14 * rng.standard_normal(8)
        assert omp(d, y[:, 0], 4).support == (6,)
        codes, _ = batch_recover(d, y, 4)
        one_step, _ = batch_recover(d, y, 1)
        assert np.count_nonzero(codes[:, 1]) == 4
        np.testing.assert_array_equal(codes[:, 0], one_step[:, 0])

    def test_stopped_signal_not_flagged_by_later_steps(self):
        # y[:, 0] stops after e1; the next atom its correlations would pick is
        # 2 * e1, which depends on e1, but a stopped signal takes no step
        e = np.eye(4)
        d = np.column_stack([e[0], 2.0 * e[0], e[1], e[2], e[3], e[1] + e[2]])
        y = np.column_stack([2.5 * e[0], [1.0, 0.2, 0.1, 3.0]])
        codes, flags = batch_recover(d, y, 3)
        assert omp(d, y[:, 1], 3).support == (4, 0, 5)
        assert not flags[0]
        np.testing.assert_array_equal(codes[:, 0], [2.5, 0, 0, 0, 0, 0])

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            batch_recover(np.eye(3), np.ones(3), 1)


class TestRefitSemantics:
    """What the refit must keep whatever factorisation it uses.

    The dictionaries hold exact zeros, so the correlations that decide a
    tie are exactly zero under any rounding of the residual.
    """

    # atom 1 is atom 0 scaled by -2; atom 2 is the second axis
    DUPLICATE = np.array([[1.0, -2.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])

    def test_duplicate_atoms_both_selected(self):
        # after atom 0 the residual lies along the third axis, which no atom
        # reaches, so every correlation is 0 and atom 1 wins the tie
        y = np.array([1.0, 0.0, 1.0])
        code = omp(self.DUPLICATE, y, 3)
        assert code.support == (0, 1, 2)
        assert code.rank_deficient
        np.testing.assert_allclose(code.values, _reference_omp(self.DUPLICATE, y, 3),
                                   rtol=0, atol=1e-13)
        # the minimum-norm split of the first coordinate over atoms 0 and 1
        np.testing.assert_allclose(code.values, [0.2, -0.4, 0.0], rtol=0, atol=1e-13)

    def test_rank_below_k_every_fit_flagged(self):
        # rank 2 < K = 3: scaled copies of the first two axes
        d = np.array([[1.0, 0.0, 2.0, 0.0, -3.0],
                      [0.0, 1.0, 0.0, -2.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0, 0.0]])
        y = np.array([[3.0, 1.0, -2.0, 0.5],
                      [1.0, 4.0, 1.0, -2.0],
                      [1.0, -1.0, 2.0, 1.0],
                      [0.5, 2.0, 0.0, -1.0]])
        codes, flags = batch_recover(d, y, 3)
        assert flags.all()
        for j in range(y.shape[1]):
            np.testing.assert_allclose(codes[:, j], _reference_omp(d, y[:, j], 3),
                                       rtol=0, atol=1e-12)

    def test_ill_conditioned_pair_not_flagged(self):
        # atoms 0 and 1 differ by 1e-8: independent, condition number ~1e8
        d = np.array([[1.0, 1.0, 0.0], [0.0, 1e-8, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        y = d @ np.array([1.0, 1.0, 0.5]) + np.array([0.0, 0.0, 0.0, 0.25])
        code = omp(d, y, 3)
        assert sorted(code.support) == [0, 1, 2]
        assert not code.rank_deficient
        residual = y - d @ code.values
        np.testing.assert_allclose(residual, [0.0, 0.0, 0.0, 0.25], rtol=0, atol=1e-12)
        assert np.max(np.abs(d.T @ residual)) <= 1e-12

    def test_mixed_flags_match_single_calls_bitwise(self):
        # columns with no second-axis component select both copies of the
        # first axis and are flagged; the rest are not
        y = np.random.default_rng(12).standard_normal((3, 20))
        y[1, ::2] = 0.0
        codes, flags = batch_recover(self.DUPLICATE, y, 2)
        np.testing.assert_array_equal(flags, np.arange(20) % 2 == 0)
        for j in range(20):
            single = omp(self.DUPLICATE, y[:, j], 2)
            np.testing.assert_array_equal(codes[:, j], single.values)
            assert single.rank_deficient == flags[j]

    def test_full_rank_batch_makes_no_svd_call(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called on a full-rank batch")

        monkeypatch.setattr(recovery.np.linalg, "svd", no_svd)
        rng = np.random.default_rng(13)
        d = rng.standard_normal((20, 80))
        y = rng.standard_normal((20, 50))
        codes, flags = batch_recover(d, y, 4)
        assert not flags.any()
        for j in range(50):
            np.testing.assert_allclose(codes[:, j], _reference_omp(d, y[:, j], 4),
                                       rtol=0, atol=1e-13)
