import numpy as np
import pytest

from csdesign.coherence import mutual_coherence
from csdesign.objective import ObjectiveSpec, objective_value
from csdesign.solver import (
    DesignResult,
    RelaxedETFTarget,
    SolverConfig,
    alternating_design,
    cg_minimize,
    design_lh,
    design_lh_etf,
    design_mt,
    project_to_relaxed_etf,
    random_projection,
    write_trace_csv,
)
from csdesign.synth import gen_dictionary

# Global minimum of the M=2, N=3, L=4 instance below (psi seed 42, lam 0.3),
# found by 20-restart high-precision steepest descent; all restarts agreed
# to 4.4e-16.
TINY_MT_ORACLE_MIN = 2.3255727529014703
# Same oracle applied to the final-target objective of the lh-etf fixed
# point reached below (sre seed 99, xi 0.4, 40 alternations).
TINY_LH_ETF_ORACLE_MIN = 0.4990246094128899


def monotone(values):
    return all(a >= b for a, b in zip(values, values[1:]))


class TestCgMinimize:
    def test_orthogonal_minimum_reached(self):
        # lam=0, psi=I, G=I, M=N: the minimum f=0 is attainable at any
        # orthogonal phi
        spec = ObjectiveSpec(psi=np.eye(5), lam=0.0)
        phi0 = random_projection(5, 5, 3)
        result = cg_minimize(spec, phi0)
        assert result.converged and result.stop_reason == "converged"
        assert result.trace[-1].f <= 1e-8
        np.testing.assert_allclose(result.phi.T @ result.phi, np.eye(5), atol=1e-4)

    def test_trace_monotone_and_flattens(self):
        psi = gen_dictionary(60, 100, 21)
        phi0 = random_projection(20, 60, 21)
        for lam in (0.1, 0.5, 1.0):
            result = design_mt(psi, lam, phi0, SolverConfig(max_cg_iterations=250))
            fs = [p.f for p in result.trace]
            assert monotone(fs)
            assert len(fs) <= 251
            # flattens well before the cap
            assert (fs[min(150, len(fs) - 1)] - fs[-1]) <= 1e-3 * fs[-1]

    def test_tiny_instance_matches_restart_oracle(self):
        psi = gen_dictionary(3, 4, 42)
        spec = ObjectiveSpec(psi=psi, lam=0.3)
        result = cg_minimize(spec, random_projection(2, 3, 7))
        assert result.trace[-1].f == pytest.approx(TINY_MT_ORACLE_MIN, abs=1e-6)

    def test_stationarity_at_convergence(self):
        from csdesign.objective import objective_gradient

        psi = gen_dictionary(12, 18, 5)
        phi0 = random_projection(5, 12, 5)
        cfg = SolverConfig()
        result = design_mt(psi, 0.4, phi0, cfg)
        assert result.converged
        g = objective_gradient(result.phi, ObjectiveSpec(psi=psi, lam=0.4))
        rel = np.linalg.norm(g) / max(1.0, np.linalg.norm(result.phi))
        assert rel <= cfg.grad_tol

    def test_deterministic_bitwise(self):
        psi = gen_dictionary(10, 16, 6)
        phi0 = random_projection(4, 10, 6)
        a = design_mt(psi, 0.2, phi0)
        b = design_mt(psi, 0.2, phi0)
        np.testing.assert_array_equal(a.phi, b.phi)
        assert a.trace == b.trace
        assert a.converged == b.converged

    def test_sign_flip_start_equivalent_objective(self):
        # the objective is even in phi, so trajectories from +/-phi0 mirror
        psi = gen_dictionary(8, 12, 9)
        phi0 = random_projection(3, 8, 9)
        a = design_mt(psi, 0.3, phi0)
        b = design_mt(psi, 0.3, -phi0)
        assert a.trace[-1].f == pytest.approx(b.trace[-1].f, abs=1e-4)

    def test_regularizer_trades_energy(self):
        psi = gen_dictionary(20, 30, 10)
        phi0 = random_projection(8, 20, 10)
        free = design_mt(psi, 0.0, phi0)
        tight = design_mt(psi, 0.5, phi0)
        assert float(np.sum(tight.phi**2)) < float(np.sum(free.phi**2))

    def test_energy_drops_hard_while_gram_quality_holds(self):
        from csdesign.coherence import coherence_report

        psi = gen_dictionary(60, 100, 3)
        phi0 = random_projection(20, 60, 3)
        free = design_mt(psi, 0.0, phi0)
        reg = design_mt(psi, 0.5, phi0)
        distortion_free = coherence_report(free.phi, psi).gram_distortion
        distortion_reg = coherence_report(reg.phi, psi).gram_distortion
        assert distortion_reg <= 1.05 * distortion_free
        assert float(np.sum(reg.phi**2)) <= 0.2 * float(np.sum(free.phi**2))

    def test_dimension_mismatch(self):
        spec = ObjectiveSpec(psi=np.eye(4), lam=0.1)
        with pytest.raises(ValueError):
            cg_minimize(spec, np.zeros((2, 5)))


class TestSolverConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(max_cg_iterations=0)


class TestProjectToRelaxedEtf:
    def test_hand_applied_clipping(self):
        target = project_to_relaxed_etf(np.array([[0.9, 0.7], [0.7, 0.9]]), 0.5)
        np.testing.assert_array_equal(target.data, [[1.0, 0.5], [0.5, 1.0]])

    def test_negative_entries_clip_by_sign(self):
        target = project_to_relaxed_etf(np.array([[2.0, -0.8], [-0.8, 2.0]]), 0.3)
        np.testing.assert_array_equal(target.data, [[1.0, -0.3], [-0.3, 1.0]])

    def test_member_unchanged(self):
        g = np.array([[1.0, 0.2, -0.4], [0.2, 1.0, 0.0], [-0.4, 0.0, 1.0]])
        target = project_to_relaxed_etf(g, 0.4)
        np.testing.assert_array_equal(target.data, g)

    def test_xi_zero_gives_identity(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((6, 6))
        target = project_to_relaxed_etf(g, 0.0)
        np.testing.assert_array_equal(target.data, np.eye(6))

    def test_idempotent_and_member_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            size = int(rng.integers(2, 10))
            g = rng.standard_normal((size, size)) * 2.0
            g = (g + g.T) / 2.0
            xi = float(rng.uniform(0.0, 0.99))
            once = project_to_relaxed_etf(g, xi)
            twice = project_to_relaxed_etf(once.data, xi)
            np.testing.assert_array_equal(once.data, twice.data)
            off = np.abs(once.data - np.diag(np.diag(once.data)))
            assert off.max() <= xi + 1e-12
            np.testing.assert_array_equal(once.data, once.data.T)
            np.testing.assert_array_equal(np.diag(once.data), np.ones(size))

    def test_invalid_xi(self):
        with pytest.raises(ValueError):
            project_to_relaxed_etf(np.eye(3), 1.0)
        with pytest.raises(ValueError):
            project_to_relaxed_etf(np.eye(3), -0.1)

    def test_target_validation(self):
        with pytest.raises(ValueError):
            RelaxedETFTarget(np.array([[1.0, 0.6], [0.6, 1.0]]), 0.5)


class TestAlternatingDesign:
    def test_xi_zero_identity_psi_matches_mt(self):
        # Step I clips everything to the identity target, so each round
        # solves the same problem as the identity-target design
        psi = np.eye(6)
        phi0 = random_projection(3, 6, 11)
        alt = alternating_design(psi, 0.2, xi=0.0, outer_iters=3, phi0=phi0)
        mt = design_mt(psi, 0.2, phi0)
        np.testing.assert_array_equal(alt.phi, mt.phi)

    def test_zero_start_is_single_solve(self):
        # the Gram of a zero matrix projects to the identity target, and
        # zero is a stationary point, so one round returns immediately
        psi = gen_dictionary(5, 8, 12)
        alt = alternating_design(psi, 0.1, xi=0.3, outer_iters=1, phi0=np.zeros((2, 5)))
        single = cg_minimize(ObjectiveSpec(psi=psi, lam=0.1), np.zeros((2, 5)))
        np.testing.assert_array_equal(alt.phi, single.phi)

    def test_coherence_improves(self):
        psi = gen_dictionary(60, 80, 13)
        phi0 = random_projection(20, 60, 13)
        alt = alternating_design(psi, 0.5, xi=0.2, outer_iters=5, phi0=phi0)
        assert mutual_coherence(alt.phi @ psi) < mutual_coherence(phi0 @ psi)

    def test_trace_records_outer_rounds(self):
        psi = gen_dictionary(6, 9, 14)
        phi0 = random_projection(3, 6, 14)
        alt = alternating_design(psi, 0.2, xi=0.3, outer_iters=4, phi0=phi0)
        outers = sorted({p.outer_iter for p in alt.trace})
        assert outers == [1, 2, 3, 4]
        for k in outers:
            fs = [p.f for p in alt.trace if p.outer_iter == k]
            assert monotone(fs)

    def test_spec_built_once_across_rounds(self, monkeypatch):
        # each round swaps the Gram target only; E @ E.T is not rebuilt
        built = []
        post_init = ObjectiveSpec.__post_init__

        def counting(spec):
            built.append(spec)
            post_init(spec)

        monkeypatch.setattr(ObjectiveSpec, "__post_init__", counting)
        psi = gen_dictionary(6, 9, 14)
        result = design_lh_etf(psi, 0.2, ROUND_SRE, 0.3, 5, random_projection(3, 6, 14))
        assert sorted({p.outer_iter for p in result.trace}) == [1, 2, 3, 4, 5]
        assert len(built) == 1

    def test_invalid_outer_iters(self):
        psi = gen_dictionary(4, 6, 15)
        with pytest.raises(ValueError):
            alternating_design(psi, 0.1, xi=0.2, outer_iters=0, phi0=np.zeros((2, 4)))


ROUND_SRE = 0.1 * np.random.default_rng(14).standard_normal((6, 20))

# each alternating design as (rounds, phi0, cfg) -> result, plus its sre
ALTERNATING = {
    "mt-etf": (
        lambda psi, rounds, phi0, cfg=None: alternating_design(psi, 0.2, 0.3, rounds, phi0, cfg),
        None,
    ),
    "lh-etf": (
        lambda psi, rounds, phi0, cfg=None: design_lh_etf(
            psi, 0.2, ROUND_SRE, 0.3, rounds, phi0, cfg
        ),
        ROUND_SRE,
    ),
}


@pytest.mark.parametrize("method", sorted(ALTERNATING))
class TestAlternatingRounds:
    """Round k is one CG solve on the relaxed-ETF target of round k-1's Gram."""

    psi = gen_dictionary(6, 9, 14)
    phi0 = random_projection(3, 6, 14)

    def _third_round_alone(self, method):
        design, sre = ALTERNATING[method]
        two = design(self.psi, 2, self.phi0)
        d = two.phi @ self.psi
        target = project_to_relaxed_etf(d.T @ d, 0.3)
        spec = ObjectiveSpec(psi=self.psi, gram_target=target.data, lam=0.2, sre=sre)
        return two, cg_minimize(spec, two.phi)

    def test_last_round_is_a_warm_started_solve(self, method):
        three = ALTERNATING[method][0](self.psi, 3, self.phi0)
        _, alone = self._third_round_alone(method)
        np.testing.assert_array_equal(three.phi, alone.phi)

    def test_trace_appends_the_round(self, method):
        three = ALTERNATING[method][0](self.psi, 3, self.phi0)
        two, alone = self._third_round_alone(method)
        assert three.trace == two.trace + tuple(p._replace(outer_iter=3) for p in alone.trace)

    def test_iteration_cap_applies_per_round(self, method):
        capped = ALTERNATING[method][0](self.psi, 3, self.phi0, SolverConfig(max_cg_iterations=2))
        assert sorted({p.outer_iter for p in capped.trace}) == [1, 2, 3]
        assert max(p.cg_iter for p in capped.trace) <= 2
        assert not capped.converged and capped.stop_reason == "iteration cap"


class TestDesignLh:
    def test_zero_sre_equals_unregularized(self):
        psi = gen_dictionary(8, 12, 16)
        phi0 = random_projection(3, 8, 16)
        lh = design_lh(psi, 0.7, np.zeros((8, 10)), phi0)
        mt0 = design_mt(psi, 0.0, phi0)
        assert [p.f for p in lh.trace] == [p.f for p in mt0.trace]
        np.testing.assert_array_equal(lh.phi, mt0.phi)

    def test_single_column_regularizer_value(self):
        rng = np.random.default_rng(17)
        psi = gen_dictionary(6, 9, 17)
        e = rng.standard_normal((6, 1))
        phi = rng.standard_normal((3, 6))
        lam = 0.4
        spec = ObjectiveSpec(psi=psi, lam=lam, sre=e)
        base = ObjectiveSpec(psi=psi, lam=0.0)
        reg = objective_value(phi, spec) - objective_value(phi, base)
        assert reg == pytest.approx(lam * float(np.sum((phi @ e[:, 0]) ** 2)), rel=1e-10)

    def test_large_sample_equivalence_with_mt(self):
        # Gaussian sre with known sigma: the data-dependent design matches
        # the training-free one run at lam' = lam * sigma^2 * P
        rng = np.random.default_rng(18)
        psi = gen_dictionary(20, 30, 18)
        phi0 = random_projection(8, 20, 18)
        sigma, p = 0.3, 10_000
        e = sigma * rng.standard_normal((20, p))
        lam_lh = 2.0 / (sigma**2 * p)
        lh = design_lh(psi, lam_lh, e, phi0)
        mt = design_mt(psi, lam_lh * sigma**2 * p, phi0)
        assert lh.trace[-1].f == pytest.approx(mt.trace[-1].f, rel=0.02)

    def test_lh_etf_fixed_point_matches_restart_oracle(self):
        psi = gen_dictionary(3, 4, 42)
        rng = np.random.default_rng(99)
        sre = 0.1 * rng.standard_normal((3, 30))
        phi0 = random_projection(2, 3, 8)
        result = design_lh_etf(psi, 0.3, sre, xi=0.4, outer_iters=40, phi0=phi0)
        d = result.phi @ psi
        target = project_to_relaxed_etf(d.T @ d, 0.4)
        spec = ObjectiveSpec(psi=psi, gram_target=target.data, lam=0.3, sre=sre)
        assert objective_value(result.phi, spec) == pytest.approx(
            TINY_LH_ETF_ORACLE_MIN, abs=1e-5
        )

    def test_sre_dimension_mismatch(self):
        psi = gen_dictionary(5, 8, 19)
        with pytest.raises(ValueError):
            design_lh(psi, 0.1, np.zeros((4, 7)), np.zeros((2, 5)))


class TestRandomProjection:
    def test_seed_reproducible(self):
        np.testing.assert_array_equal(random_projection(4, 6, 5), random_projection(4, 6, 5))
        assert not np.array_equal(random_projection(4, 6, 5), random_projection(4, 6, 6))

    def test_moments(self):
        phi = random_projection(1000, 1000, 20)
        assert abs(phi.mean()) < 0.01
        assert abs(phi.var() - 1.0) < 0.01

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            random_projection(0, 3, 0)


class TestTraceSerialization:
    def test_trace_csv(self, tmp_path):
        psi = gen_dictionary(5, 8, 22)
        phi0 = random_projection(2, 5, 22)
        result = design_mt(psi, 0.2, phi0, SolverConfig(max_cg_iterations=20))
        path = tmp_path / "trace.csv"
        write_trace_csv(result.trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "outer_iter,cg_iter,f,grad_norm"
        assert len(lines) == 1 + len(result.trace)
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0"
        assert float(first[2]) == result.trace[0].f


class TestDesignResultShape:
    def test_method_tags(self):
        psi = gen_dictionary(5, 8, 23)
        phi0 = random_projection(2, 5, 23)
        assert design_mt(psi, 0.1, phi0).method == "mt"
        assert design_lh(psi, 0.1, np.zeros((5, 4)), phi0).method == "lh"
        assert alternating_design(psi, 0.1, 0.3, 2, phi0).method == "mt-etf"
        assert design_lh_etf(psi, 0.1, np.zeros((5, 4)), 0.3, 2, phi0).method == "lh-etf"
        assert isinstance(design_mt(psi, 0.1, phi0), DesignResult)


class TestQuarticLineSearch:
    @pytest.mark.parametrize("sre", [False, True], ids=["identity", "sre"])
    def test_one_evaluation_per_cg_iteration(self, monkeypatch, sre):
        import csdesign.solver as solver

        def forbidden(*args, **kwargs):
            raise AssertionError("the CG solve evaluated the objective outside _evaluate")

        evaluate = solver._evaluate
        calls = []

        def counting(phi, spec):
            calls.append(1)
            return evaluate(phi, spec)

        monkeypatch.setattr(solver, "objective_value", forbidden)
        monkeypatch.setattr(solver, "value_and_gradient", forbidden)
        monkeypatch.setattr(solver, "_evaluate", counting)
        psi = gen_dictionary(12, 20, 31)
        e = np.random.default_rng(31).standard_normal((12, 40)) if sre else None
        spec = ObjectiveSpec(psi=psi, lam=0.05 if sre else 0.3, sre=e)
        result = cg_minimize(spec, random_projection(5, 12, 31), SolverConfig(max_cg_iterations=15))
        assert result.stop_reason == "iteration cap"
        assert len(calls) == result.trace[-1].cg_iter + 1 == 16

    def test_overflow_at_first_trial_backtracks_to_finite_step(self):
        from csdesign.solver import _armijo

        # delta(1) overflows to inf; small enough steps are finite and pass
        step, change = _armijo((-1e300, 0.0, 1.7e308, 1.7e308), -1e300)
        assert 0.0 < step < 1e-3
        assert np.isfinite(change) and change < 0.0

    def test_overflowing_direction_never_gives_nan_phi(self, monkeypatch):
        import csdesign.solver as solver

        inf = float("inf")
        assert solver._armijo((-1.0, 0.0, inf, inf), -1.0) is None
        monkeypatch.setattr(solver, "_step_polynomial", lambda *args: (-1.0, 0.0, inf, inf))
        phi0 = random_projection(3, 8, 32)
        result = design_mt(gen_dictionary(8, 12, 32), 0.1, phi0)
        assert not result.converged
        assert result.stop_reason == "line-search stall"
        np.testing.assert_array_equal(result.phi, phi0)

    def test_overflowing_start_stalls_with_finite_phi(self):
        phi0 = 1e70 * random_projection(3, 8, 33)
        with np.errstate(over="ignore", invalid="ignore"):
            result = design_mt(gen_dictionary(8, 12, 33), 0.1, phi0)
        assert not result.converged
        assert np.all(np.isfinite(result.phi))


class TestStopReason:
    # "converged" and "iteration cap" are asserted beside the tests of
    # convergence and of the iteration cap above
    @pytest.mark.parametrize("reason, converged", [
        ("converged", True), ("line-search stall", False), ("iteration cap", False),
    ])
    def test_converged_follows_stop_reason(self, reason, converged):
        result = DesignResult(phi=np.eye(2), trace=(), method="mt", stop_reason=reason)
        assert result.converged is converged

    def test_line_search_stall(self, monkeypatch):
        import csdesign.solver as solver

        monkeypatch.setattr(solver, "_armijo", lambda poly, gd: None)
        result = design_mt(gen_dictionary(12, 20, 35), 0.3, random_projection(5, 12, 35))
        assert not result.converged and result.stop_reason == "line-search stall"
        assert len(result.trace) == 1


# every design method as (psi, phi0) -> result; the sre has 6 rows
DESIGNS = {
    "mt": lambda psi, phi0: design_mt(psi, 0.2, phi0),
    "mt-etf": lambda psi, phi0: alternating_design(psi, 0.2, 0.3, 3, phi0),
    "lh": lambda psi, phi0: design_lh(psi, 0.2, ROUND_SRE, phi0),
    "lh-etf": lambda psi, phi0: design_lh_etf(psi, 0.2, ROUND_SRE, 0.3, 3, phi0),
}


class TestCallerStartUntouched:
    """No design writes to the caller's phi0 or hands it back as its result."""

    psi = gen_dictionary(6, 9, 14)

    @staticmethod
    def _assert_untouched(result, phi0, before):
        np.testing.assert_array_equal(phi0, before)
        assert not np.shares_memory(result.phi, phi0)

    @pytest.mark.parametrize("method", sorted(DESIGNS))
    def test_design_moves_a_copy(self, method):
        phi0 = random_projection(3, 6, 14)
        before = phi0.copy()
        result = DESIGNS[method](self.psi, phi0)
        assert result.n_f_evals > 1 and not np.array_equal(result.phi, before)
        self._assert_untouched(result, phi0, before)

    def test_start_converged_at_iterate_zero(self):
        phi0 = np.zeros((3, 6))  # d = 0, so the gradient is exactly zero
        result = design_mt(self.psi, 0.2, phi0)
        assert result.converged and result.n_f_evals == 1
        self._assert_untouched(result, phi0, np.zeros((3, 6)))

    def test_stalled_start(self, monkeypatch):
        import csdesign.solver as solver

        monkeypatch.setattr(solver, "_armijo", lambda poly, gd: None)
        phi0 = random_projection(3, 6, 14)
        before = phi0.copy()
        result = design_mt(self.psi, 0.2, phi0)
        assert result.stop_reason == "line-search stall" and result.n_f_evals == 1
        self._assert_untouched(result, phi0, before)


class TestWorkCounts:
    """``n_f_evals`` and ``n_sd_restarts`` on solves capped at 15 iterations."""

    psi = gen_dictionary(12, 20, 31)
    phi0 = random_projection(5, 12, 31)
    cfg = SolverConfig(max_cg_iterations=15)

    @pytest.mark.parametrize("rounds", [1, 3])
    def test_evaluations_counted(self, monkeypatch, rounds):
        import csdesign.solver as solver

        evaluate = solver._evaluate
        calls = []

        def counting(phi, spec):
            calls.append(1)
            return evaluate(phi, spec)

        monkeypatch.setattr(solver, "_evaluate", counting)
        sre = np.ones((12, 3))
        result = (design_lh(self.psi, 0.05, sre, self.phi0, self.cfg) if rounds == 1 else
                  design_lh_etf(self.psi, 0.05, sre, 0.3, rounds, self.phi0, self.cfg))
        assert result.stop_reason == "iteration cap"
        assert result.n_f_evals == len(calls) == 16 * rounds  # every round hits the cap
        assert result.n_sd_restarts == 0

    def test_steepest_descent_fallbacks_counted(self, monkeypatch):
        # The gradient flips sign at each evaluation and every step of 1 is
        # accepted.  From iteration 2 on, beta = (|g|^2 + |g|^2) / |g|^2 = 2 and
        # the PR+ direction -g_new + 2 d equals g_new, uphill, so iterations
        # 2..15 each fall back to steepest descent.
        import csdesign.solver as solver

        signs = []

        def flipping(spec, d, r, reg):
            signs.append(-1.0 if signs[-1:] == [1.0] else 1.0)
            return signs[-1] * np.ones((5, 12))

        monkeypatch.setattr(solver, "_gradient", flipping)
        monkeypatch.setattr(solver, "_step_polynomial", lambda *args: (-1e9, 0.0, 0.0, 0.0))
        result = cg_minimize(ObjectiveSpec(psi=self.psi, lam=0.3), self.phi0, self.cfg)
        assert result.stop_reason == "iteration cap"
        assert result.n_f_evals == 16
        assert result.n_sd_restarts == 14


def closed_form_optimum(spec, m):
    """Global minimiser of `spec`'s objective over M x N matrices (psi of full row rank N).

    With the thin SVD psi = U S V^T and C = S U^T phi^T phi U S, the objective
    is ||C - K||_F^2 plus a constant, K = V^T G V - (lam/2) S^-1 U^T R U S^-1
    with R the identity or E E^T.  By Eckart-Young the best C of rank <= M
    keeps the top-M positive eigenpairs (c_i, q_i) of sym(K), so phi has the
    rows sqrt(c_i) q_i^T S^-1 U^T (for G = I the closed form of Li, Zhu et
    al., IEEE TSP 2013).
    """
    u, s, vt = np.linalg.svd(spec.psi, full_matrices=False)
    reg = np.eye(spec.n) if spec.sre_outer is None else spec.sre_outer
    k = vt @ spec.gram_target @ vt.T - 0.5 * spec.lam * (u.T @ reg @ u) / np.outer(s, s)
    c, q = np.linalg.eigh((k + k.T) / 2.0)
    top = np.argsort(c)[::-1][:m]
    return (np.sqrt(np.maximum(c[top], 0.0))[:, None] * q[:, top].T / s) @ u.T


class TestClosedFormOracle:
    """Converged CG reaches the exact optimum on random instances."""

    @staticmethod
    def _instance(target, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(3, 7)), int(rng.integers(8, 15))
        l = n + int(rng.integers(0, 7))
        psi = gen_dictionary(n, l, seed)
        phi0 = random_projection(m, n, seed)
        lam = float(rng.uniform(0.05, 1.0))
        if target == "sre":
            return ObjectiveSpec(psi=psi, lam=lam,
                                 sre=0.2 * rng.standard_normal((n, 3 * n))), phi0
        if target == "etf":
            d = phi0 @ psi
            d = d / np.linalg.norm(d, axis=0)
            g = project_to_relaxed_etf(d.T @ d, 0.3).data
            return ObjectiveSpec(psi=psi, gram_target=g, lam=lam), phi0
        return ObjectiveSpec(psi=psi, lam=lam), phi0

    @pytest.mark.parametrize("target", ["identity", "sre", "etf"])
    def test_converged_cg_matches_closed_form(self, target):
        converged = 0
        for seed in range(10):
            spec, phi0 = self._instance(target, seed)
            f_star = objective_value(closed_form_optimum(spec, phi0.shape[0]), spec)
            result = cg_minimize(spec, phi0)
            # a global minimum: no iterate goes below it beyond rounding
            assert f_star <= min(p.f for p in result.trace) * (1.0 + 1e-12)
            if result.converged:
                converged += 1
                assert result.trace[-1].f == pytest.approx(f_star, rel=1e-8)
        assert converged >= 9
