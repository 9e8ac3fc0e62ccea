import numpy as np
import pytest

from csdesign.coherence import mutual_coherence
from csdesign.objective import ObjectiveSpec, objective_value, value_and_gradient
from csdesign.solver import (
    DesignResult,
    SolverConfig,
    TracePoint,
    _exact_round,
    design,
    project_to_relaxed_etf,
    random_projection,
    write_trace_csv,
)
from csdesign.streams import derive_seed
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
        phi0 = random_projection(5, 5, 3)
        result = design(np.eye(5), 0.0, phi0)
        assert result.converged and result.stop_reason == "converged"
        assert result.trace[-1].f <= 1e-8
        np.testing.assert_allclose(result.phi.T @ result.phi, np.eye(5), atol=1e-4)

    def test_trace_monotone_and_flattens(self):
        psi = gen_dictionary(60, 100, 21)
        phi0 = random_projection(20, 60, 21)
        for lam in (0.1, 0.5, 1.0):
            result = design(psi, lam, phi0, cfg=SolverConfig(max_cg_iterations=250))
            fs = [p.f for p in result.trace]
            assert monotone(fs)
            assert len(fs) <= 251
            # flattens well before the cap
            assert (fs[min(150, len(fs) - 1)] - fs[-1]) <= 1e-3 * fs[-1]

    def test_tiny_instance_matches_restart_oracle(self):
        psi = gen_dictionary(3, 4, 42)
        result = design(psi, 0.3, random_projection(2, 3, 7))
        assert result.trace[-1].f == pytest.approx(TINY_MT_ORACLE_MIN, abs=1e-6)

    def test_stationarity_at_convergence(self):
        psi = gen_dictionary(12, 18, 5)
        phi0 = random_projection(5, 12, 5)
        cfg = SolverConfig()
        result = design(psi, 0.4, phi0, cfg=cfg)
        assert result.converged
        _, g = value_and_gradient(result.phi, ObjectiveSpec(psi=psi, lam=0.4))
        rel = np.linalg.norm(g) / max(1.0, np.linalg.norm(result.phi))
        assert rel <= cfg.grad_tol

    def test_deterministic_bitwise(self):
        psi = gen_dictionary(10, 16, 6)
        phi0 = random_projection(4, 10, 6)
        a = design(psi, 0.2, phi0)
        b = design(psi, 0.2, phi0)
        np.testing.assert_array_equal(a.phi, b.phi)
        assert a.trace == b.trace
        assert a.converged == b.converged

    def test_sign_flip_start_equivalent_objective(self):
        # the objective is even in phi, so trajectories from +/-phi0 mirror
        psi = gen_dictionary(8, 12, 9)
        phi0 = random_projection(3, 8, 9)
        a = design(psi, 0.3, phi0)
        b = design(psi, 0.3, -phi0)
        assert a.trace[-1].f == pytest.approx(b.trace[-1].f, abs=1e-4)

    def test_regularizer_trades_energy(self):
        psi = gen_dictionary(20, 30, 10)
        phi0 = random_projection(8, 20, 10)
        free = design(psi, 0.0, phi0)
        tight = design(psi, 0.5, phi0)
        assert float(np.sum(tight.phi**2)) < float(np.sum(free.phi**2))

    def test_energy_drops_hard_while_gram_quality_holds(self):
        from csdesign.coherence import coherence_report

        psi = gen_dictionary(60, 100, 3)
        phi0 = random_projection(20, 60, 3)
        free = design(psi, 0.0, phi0)
        reg = design(psi, 0.5, phi0)
        distortion_free = coherence_report(free.phi, psi).gram_distortion
        distortion_reg = coherence_report(reg.phi, psi).gram_distortion
        assert distortion_reg <= 1.05 * distortion_free
        assert float(np.sum(reg.phi**2)) <= 0.2 * float(np.sum(free.phi**2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            design(np.eye(4), 0.1, np.zeros((2, 5)))


class TestSolverConfigValidation:
    @pytest.mark.parametrize("bad", [0, -3, 2.5, 3.0, "5", None])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError, match="max_cg_iterations must be an integer >= 1"):
            SolverConfig(max_cg_iterations=bad)

    def test_accepts_integer_types(self):
        assert SolverConfig(max_cg_iterations=np.int64(3)).max_cg_iterations == 3
        assert SolverConfig(max_cg_iterations=1).max_cg_iterations == 1


class TestPeriodicRestart:
    """The first direction, and every M*N-th after it, is ``-g`` bit for bit."""

    def test_directions_at_multiples_of_the_unknowns(self, monkeypatch):
        import csdesign.solver as solver

        step_polynomial, calls = solver._step_polynomial, []

        def recording(spec, d, r, reg, direction):  # the direction searched from each iterate
            calls.append((direction.copy(), solver._gradient(spec, d, r, reg)))
            return step_polynomial(spec, d, r, reg, direction)

        monkeypatch.setattr(solver, "_step_polynomial", recording)
        # the tiny oracle instance: M*N = 6 unknowns, 19 iterates, no steepest-descent fallback
        result = design(gen_dictionary(3, 4, 42), 0.3, random_projection(2, 3, 7))
        assert result.converged and result.n_sd_restarts == 0
        assert len(calls) == len(result.trace) - 1 > 12
        for it in (0, 6, 12):
            direction, g = calls[it]
            np.testing.assert_array_equal(direction, -g)
        # in between, the Polak-Ribiere direction is not steepest descent
        assert not np.array_equal(calls[7][0], -calls[7][1])


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


class TestAlternatingDesign:
    def test_xi_zero_identity_psi_matches_mt(self):
        # Step I clips everything to the identity target, so each round
        # reaches the identity-target optimum.  With psi = I every M-dim
        # subspace is optimal (K = (1 - lam/2) I), so the Gram is compared
        # by its spectrum: (1 - lam/2) on M directions, 0 on the rest
        psi = np.eye(6)
        phi0 = random_projection(3, 6, 11)
        alt = design(psi, 0.2, phi0, xi=0.0, outer_iters=3)
        spec = ObjectiveSpec(psi=psi, lam=0.2)
        optimum = closed_form_optimum(spec, 3)
        assert objective_value(alt.phi, spec) == pytest.approx(
            objective_value(optimum, spec), rel=1e-14)
        np.testing.assert_allclose(np.linalg.eigvalsh(alt.phi.T @ alt.phi),
                                   np.linalg.eigvalsh(optimum.T @ optimum), rtol=0, atol=1e-14)

    def test_zero_start_is_single_solve(self):
        # the Gram of a zero matrix projects to the identity target, so one
        # round gives the identity-target optimum
        psi = gen_dictionary(5, 8, 12)
        alt = design(psi, 0.1, np.zeros((2, 5)), xi=0.3, outer_iters=1)
        optimum = closed_form_optimum(ObjectiveSpec(psi=psi, lam=0.1), 2)
        assert alt.converged and len(alt.trace) == 1
        np.testing.assert_allclose(alt.phi.T @ alt.phi, optimum.T @ optimum, rtol=0, atol=1e-13)

    def test_coherence_improves(self):
        psi = gen_dictionary(60, 80, 13)
        phi0 = random_projection(20, 60, 13)
        alt = design(psi, 0.5, phi0, xi=0.2, outer_iters=5)
        assert mutual_coherence(alt.phi @ psi) < mutual_coherence(phi0 @ psi)

    def test_trace_records_outer_rounds(self):
        psi = gen_dictionary(6, 9, 14)
        phi0 = random_projection(3, 6, 14)
        alt = design(psi, 0.2, phi0, xi=0.3, outer_iters=4)
        outers = sorted({p.outer_iter for p in alt.trace})
        assert outers == [1, 2, 3, 4]
        for k in outers:
            fs = [p.f for p in alt.trace if p.outer_iter == k]
            assert monotone(fs)

    def test_spec_built_once_across_rounds(self, monkeypatch):
        # each round passes its Gram target to the exact solve; E @ E.T is not rebuilt
        built = []
        post_init = ObjectiveSpec.__post_init__

        def counting(spec):
            built.append(spec)
            post_init(spec)

        monkeypatch.setattr(ObjectiveSpec, "__post_init__", counting)
        psi = gen_dictionary(6, 9, 14)
        result = design(psi, 0.2, random_projection(3, 6, 14), sre=ROUND_SRE, xi=0.3, outer_iters=5)
        assert sorted({p.outer_iter for p in result.trace}) == [1, 2, 3, 4, 5]
        assert len(built) == 1

    def test_invalid_outer_iters(self):
        psi = gen_dictionary(4, 6, 15)
        with pytest.raises(ValueError):
            design(psi, 0.1, np.zeros((2, 4)), xi=0.2, outer_iters=0)
        with pytest.raises(ValueError, match="outer_iters must be an integer >= 1"):
            design(psi, 0.1, np.zeros((2, 4)), sre=np.ones((4, 3)), xi=0.2, outer_iters=2.5)


ROUND_SRE = 0.1 * np.random.default_rng(14).standard_normal((6, 20))

# each alternating design as (rounds, phi0, cfg) -> result, plus its sre
ALTERNATING = {
    "mt-etf": (
        lambda psi, rounds, phi0, cfg=None: design(
            psi, 0.2, phi0, xi=0.3, outer_iters=rounds, cfg=cfg
        ),
        None,
    ),
    "lh-etf": (
        lambda psi, rounds, phi0, cfg=None: design(
            psi, 0.2, phi0, sre=ROUND_SRE, xi=0.3, outer_iters=rounds, cfg=cfg
        ),
        ROUND_SRE,
    ),
}


@pytest.mark.parametrize("method", sorted(ALTERNATING))
class TestAlternatingRounds:
    """Round k is the exact solve for the relaxed-ETF target of round k-1's Gram."""

    psi = gen_dictionary(6, 9, 14)
    phi0 = random_projection(3, 6, 14)

    def _third_round_alone(self, method):
        """Two rounds, then the third round's matrix and its target's spec."""
        design, sre = ALTERNATING[method]
        two = design(self.psi, 2, self.phi0)
        d = two.phi @ self.psi
        target = project_to_relaxed_etf(d.T @ d, 0.3).data
        phi = _exact_round(ObjectiveSpec(psi=self.psi, lam=0.2, sre=sre), target, two.phi)
        return two, phi, ObjectiveSpec(psi=self.psi, gram_target=target, lam=0.2, sre=sre)

    def test_last_round_is_a_warm_started_solve(self, method):
        three = ALTERNATING[method][0](self.psi, 3, self.phi0)
        _, alone, _ = self._third_round_alone(method)
        np.testing.assert_array_equal(three.phi, alone)

    def test_trace_appends_the_round(self, method):
        three = ALTERNATING[method][0](self.psi, 3, self.phi0)
        two, alone, spec = self._third_round_alone(method)
        f, g = value_and_gradient(alone, spec)
        assert three.trace == two.trace + (TracePoint(3, 0, f, float(np.sqrt(np.vdot(g, g)))),)

    def test_one_point_per_round_whatever_the_cg_cap(self, method, monkeypatch):
        import csdesign.solver as solver

        def forbidden(*args):
            raise AssertionError("an exact round ran a CG iterate")

        free = ALTERNATING[method][0](self.psi, 3, self.phi0)
        monkeypatch.setattr(solver, "_evaluate", forbidden)
        capped = ALTERNATING[method][0](self.psi, 3, self.phi0, SolverConfig(max_cg_iterations=1))
        assert [(p.outer_iter, p.cg_iter) for p in capped.trace] == [(1, 0), (2, 0), (3, 0)]
        assert capped.n_f_evals == 3 and capped.n_sd_restarts == 0
        assert capped.converged and capped.stop_reason == "converged"
        np.testing.assert_array_equal(capped.phi, free.phi)
        assert capped.trace == free.trace

    def test_round_above_the_tolerance_stops_as_rounding(self, method, monkeypatch):
        # an exact round's gradient is rounding error, which no tolerance of 0 admits
        exact = ALTERNATING[method][0](self.psi, 3, self.phi0)
        monkeypatch.setattr(SolverConfig, "grad_tol", 0.0)
        result = ALTERNATING[method][0](self.psi, 3, self.phi0)
        assert exact.converged and not result.converged and result.stop_reason == "rounding"
        np.testing.assert_array_equal(result.phi, exact.phi)


class TestDesignLh:
    def test_zero_sre_equals_unregularized(self):
        psi = gen_dictionary(8, 12, 16)
        phi0 = random_projection(3, 8, 16)
        lh = design(psi, 0.7, phi0, sre=np.zeros((8, 10)))
        mt0 = design(psi, 0.0, phi0)
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
        lh = design(psi, lam_lh, phi0, sre=e)
        mt = design(psi, lam_lh * sigma**2 * p, phi0)
        assert lh.trace[-1].f == pytest.approx(mt.trace[-1].f, rel=0.02)

    def test_lh_etf_fixed_point_matches_restart_oracle(self):
        psi = gen_dictionary(3, 4, 42)
        rng = np.random.default_rng(99)
        sre = 0.1 * rng.standard_normal((3, 30))
        phi0 = random_projection(2, 3, 8)
        result = design(psi, 0.3, phi0, sre=sre, xi=0.4, outer_iters=40)
        d = result.phi @ psi
        target = project_to_relaxed_etf(d.T @ d, 0.4)
        spec = ObjectiveSpec(psi=psi, gram_target=target.data, lam=0.3, sre=sre)
        assert objective_value(result.phi, spec) == pytest.approx(
            TINY_LH_ETF_ORACLE_MIN, abs=1e-5
        )

    def test_sre_dimension_mismatch(self):
        psi = gen_dictionary(5, 8, 19)
        with pytest.raises(ValueError):
            design(psi, 0.1, np.zeros((2, 5)), sre=np.zeros((4, 7)))


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

    def test_seed_must_be_an_integer(self):
        # a float or a string seed would otherwise be truncated or parsed
        for seed in (1.7, 1.0, "1"):
            with pytest.raises(TypeError):
                random_projection(2, 3, seed)
            with pytest.raises(TypeError):
                derive_seed(seed, "phi0")
        np.testing.assert_array_equal(random_projection(2, 3, np.int64(1)),
                                      random_projection(2, 3, 1))
        assert derive_seed(np.int64(-1), "phi0") == derive_seed(2**64 - 1, "phi0")


class TestTraceSerialization:
    def test_trace_csv(self, tmp_path):
        psi = gen_dictionary(5, 8, 22)
        phi0 = random_projection(2, 5, 22)
        result = design(psi, 0.2, phi0, cfg=SolverConfig(max_cg_iterations=20))
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
        assert design(psi, 0.1, phi0).method == "mt"
        assert design(psi, 0.1, phi0, sre=np.zeros((5, 4))).method == "lh"
        assert design(psi, 0.1, phi0, xi=0.3, outer_iters=2).method == "mt-etf"
        lh_etf = design(psi, 0.1, phi0, sre=np.zeros((5, 4)), xi=0.3, outer_iters=2)
        assert lh_etf.method == "lh-etf"
        assert isinstance(design(psi, 0.1, phi0), DesignResult)
        # the inputs alone name the result, whatever the number of rounds
        assert design(psi, 0.1, phi0, xi=0.3).method == "mt-etf"
        assert design(psi, 0.1, phi0, sre=np.zeros((5, 4)), xi=0.3,
                      outer_iters=3).method == "lh-etf"

    @pytest.mark.parametrize("sre", [None, np.zeros((5, 4))], ids=["mt", "lh"])
    def test_rounds_without_xi_rejected(self, sre):
        psi = gen_dictionary(5, 8, 23)
        with pytest.raises(ValueError, match="outer_iters=3 needs xi"):
            design(psi, 0.1, random_projection(2, 5, 23), sre=sre, outer_iters=3)

    def test_given_spec_is_tagged_by_its_sre(self):
        spec = ObjectiveSpec(psi=gen_dictionary(5, 8, 23), lam=0.1, sre=np.zeros((5, 4)))
        phi0 = random_projection(2, 5, 23)
        assert design(spec.psi, spec.lam, phi0, sre=spec.sre).method == "lh"
        assert design(spec.psi, spec.lam, phi0, sre=spec.sre, xi=0.3,
                      outer_iters=2).method == "lh-etf"


class TestQuarticLineSearch:
    @pytest.mark.parametrize("sre", [False, True], ids=["identity", "sre"])
    def test_one_evaluation_per_cg_iteration(self, monkeypatch, sre):
        import csdesign.solver as solver

        def forbidden(*args, **kwargs):
            raise AssertionError("the CG solve evaluated the objective outside _evaluate")

        evaluate = solver._evaluate
        calls = []

        def counting(phi, spec, *carried):
            calls.append(1)
            return evaluate(phi, spec, *carried)

        monkeypatch.setattr(solver, "objective_value", forbidden)
        monkeypatch.setattr(solver, "value_and_gradient", forbidden)
        monkeypatch.setattr(solver, "_evaluate", counting)
        psi = gen_dictionary(12, 20, 31)
        e = np.random.default_rng(31).standard_normal((12, 40)) if sre else None
        result = design(psi, 0.05 if sre else 0.3, random_projection(5, 12, 31), sre=e,
                        cfg=SolverConfig(max_cg_iterations=15))
        assert result.stop_reason == "iteration cap"
        assert len(calls) == result.trace[-1].cg_iter + 1 == 16

    def test_overflow_at_first_trial_backtracks_to_finite_step(self):
        from csdesign.solver import _armijo

        # delta(1) overflows to inf; small enough steps are finite and pass
        step, change = _armijo((-1e300, 0.0, 1.7e308, 1.7e308))
        assert 0.0 < step < 1e-3
        assert np.isfinite(change) and change < 0.0

    def test_overflowing_direction_never_gives_nan_phi(self, monkeypatch):
        import csdesign.solver as solver

        inf = float("inf")
        assert solver._armijo((-1.0, 0.0, inf, inf)) is None
        step_polynomial = solver._step_polynomial
        monkeypatch.setattr(solver, "_step_polynomial",
                            lambda *args: ((-1.0, 0.0, inf, inf), step_polynomial(*args)[1]))
        phi0 = random_projection(3, 8, 32)
        result = design(gen_dictionary(8, 12, 32), 0.1, phi0)
        assert not result.converged
        assert result.stop_reason == "line-search stall"
        np.testing.assert_array_equal(result.phi, phi0)

    def test_overflowing_start_stalls_with_finite_phi(self):
        phi0 = 1e70 * random_projection(3, 8, 33)
        with np.errstate(over="ignore", invalid="ignore"):
            result = design(gen_dictionary(8, 12, 33), 0.1, phi0)
        assert not result.converged
        assert np.all(np.isfinite(result.phi))


class TestStopReason:
    # "converged" and "iteration cap" are asserted beside the tests of
    # convergence and of the iteration cap above
    @pytest.mark.parametrize("reason, converged", [
        ("converged", True), ("line-search stall", False), ("iteration cap", False),
        ("rounding", False),
    ])
    def test_converged_follows_stop_reason(self, reason, converged):
        result = DesignResult(phi=np.eye(2), trace=(), method="mt", stop_reason=reason)
        assert result.converged is converged

    def test_line_search_stall(self, monkeypatch):
        import csdesign.solver as solver

        monkeypatch.setattr(solver, "_armijo", lambda poly: None)
        result = design(gen_dictionary(12, 20, 35), 0.3, random_projection(5, 12, 35))
        assert not result.converged and result.stop_reason == "line-search stall"
        assert len(result.trace) == 1


# every design method as (psi, phi0) -> result; the sre has 6 rows
DESIGNS = {
    "mt": lambda psi, phi0: design(psi, 0.2, phi0),
    "mt-etf": lambda psi, phi0: design(psi, 0.2, phi0, xi=0.3, outer_iters=3),
    "lh": lambda psi, phi0: design(psi, 0.2, phi0, sre=ROUND_SRE),
    "lh-etf": lambda psi, phi0: design(psi, 0.2, phi0, sre=ROUND_SRE, xi=0.3, outer_iters=3),
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

    def test_randn_through_design_for_method(self):
        from csdesign.experiments import ExperimentParams, design_for_method

        phi0 = random_projection(3, 6, 14)
        before = phi0.copy()
        params = ExperimentParams(m=3, n=6, l=9, k=1)
        result = design_for_method("randn", params, self.psi, phi0, 0.2)
        np.testing.assert_array_equal(result.phi, before)  # the baseline is the start itself
        self._assert_untouched(result, phi0, before)

    def test_start_converged_at_iterate_zero(self):
        phi0 = np.zeros((3, 6))  # d = 0, so the gradient is exactly zero
        result = design(self.psi, 0.2, phi0)
        assert result.converged and result.n_f_evals == 1
        self._assert_untouched(result, phi0, np.zeros((3, 6)))

    def test_stalled_start(self, monkeypatch):
        import csdesign.solver as solver

        monkeypatch.setattr(solver, "_armijo", lambda poly: None)
        phi0 = random_projection(3, 6, 14)
        before = phi0.copy()
        result = design(self.psi, 0.2, phi0)
        assert result.stop_reason == "line-search stall" and result.n_f_evals == 1
        self._assert_untouched(result, phi0, before)


class TestWorkCounts:
    """``n_f_evals`` and ``n_sd_restarts`` on solves capped at 15 iterations."""

    psi = gen_dictionary(12, 20, 31)
    phi0 = random_projection(5, 12, 31)
    cfg = SolverConfig(max_cg_iterations=15)

    def test_evaluations_counted(self, monkeypatch):
        import csdesign.solver as solver

        evaluate = solver._evaluate
        calls = []

        def counting(phi, spec, *carried):
            calls.append(1)
            return evaluate(phi, spec, *carried)

        monkeypatch.setattr(solver, "_evaluate", counting)
        result = design(self.psi, 0.05, self.phi0, sre=np.ones((12, 3)), cfg=self.cfg)
        assert result.stop_reason == "iteration cap"
        assert result.n_f_evals == len(calls) == 16
        assert result.n_sd_restarts == 0

    def test_steepest_descent_fallbacks_counted(self, monkeypatch):
        # The gradient flips sign at each evaluation, and the quartic is the
        # linear <g, direction> t, so every step of 1 along -g is accepted.
        # From iteration 2 on, beta = (|g|^2 + |g|^2) / |g|^2 = 2 and the PR+
        # direction -g_new + 2 d equals g_new, uphill, so iterations 2..15
        # each fall back to steepest descent.
        import csdesign.solver as solver

        step_polynomial, signs = solver._step_polynomial, []

        def flipping(spec, d, r, reg):
            signs.append(-1.0 if signs[-1:] == [1.0] else 1.0)
            return signs[-1] * np.ones((5, 12))

        def linear(spec, d, r, reg, direction):  # a1 = <g, direction> at the last gradient
            poly = signs[-1] * float(np.sum(direction)), 0.0, 0.0, 0.0
            return poly, step_polynomial(spec, d, r, reg, direction)[1]

        monkeypatch.setattr(solver, "_gradient", flipping)
        monkeypatch.setattr(solver, "_step_polynomial", linear)
        result = design(self.psi, 0.3, self.phi0, cfg=self.cfg)
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
    reg = np.eye(spec.n) if spec.sre is None else spec.sre @ spec.sre.T
    k = vt @ spec.gram_target @ vt.T - 0.5 * spec.lam * (u.T @ reg @ u) / np.outer(s, s)
    c, q = np.linalg.eigh((k + k.T) / 2.0)
    top = np.argsort(c)[::-1][:m]
    return (np.sqrt(np.maximum(c[top], 0.0))[:, None] * q[:, top].T / s) @ u.T


def etf_target(phi, psi):
    """The relaxed-ETF target (xi 0.3) of the Gram of ``phi @ psi`` with unit columns."""
    d = phi @ psi
    d = d / np.linalg.norm(d, axis=0)
    return project_to_relaxed_etf(d.T @ d, 0.3).data


class TestClosedFormOracle:
    """Converged CG, and every exact round, reach the exact optimum on random instances."""

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
        return ObjectiveSpec(psi=psi, lam=lam), phi0

    @pytest.mark.parametrize("target", ["identity", "sre"])
    def test_converged_cg_matches_closed_form(self, target):
        converged = 0
        for seed in range(10):
            spec, phi0 = self._instance(target, seed)
            f_star = objective_value(closed_form_optimum(spec, phi0.shape[0]), spec)
            result = design(spec.psi, spec.lam, phi0, sre=spec.sre)
            # a global minimum: no iterate goes below it beyond rounding
            assert f_star <= min(p.f for p in result.trace) * (1.0 + 1e-12)
            if result.converged:
                converged += 1
                assert result.trace[-1].f == pytest.approx(f_star, rel=1e-8)
        assert converged >= 9

    @pytest.mark.parametrize("method", ["mt-etf", "lh-etf"])
    def test_exact_round_matches_closed_form(self, method):
        # L >= N with psi of full row rank, where the oracle applies
        for seed in range(10):
            spec, phi0 = self._instance("sre" if method == "lh-etf" else "identity", seed)
            target = etf_target(phi0, spec.psi)
            phi = _exact_round(spec, target, phi0)
            at_target = ObjectiveSpec(psi=spec.psi, gram_target=target, lam=spec.lam, sre=spec.sre)
            optimum = closed_form_optimum(at_target, phi0.shape[0])
            f_star = objective_value(optimum, at_target)
            assert objective_value(phi, at_target) == pytest.approx(f_star, rel=1e-12)
            # the optimum is unique up to a left rotation, which keeps the Gram
            gram = optimum.T @ optimum
            np.testing.assert_allclose(phi.T @ phi, gram, rtol=0, atol=1e-12 * np.max(gram))

    @pytest.mark.parametrize("method", ["mt-etf", "lh-etf"])
    @pytest.mark.parametrize("shape", ["L<N", "rank-deficient"])
    def test_exact_round_is_stationary_where_the_oracle_does_not_apply(self, method, shape):
        # at L < N, and with rank(psi) = N - 2 < L, some columns of phi U meet no
        # atom: an SRE regularizer is minimised out of them by its Schur complement
        rng = np.random.default_rng(40)
        n, l, m = (10, 6, 4) if shape == "L<N" else (10, 14, 4)
        psi = gen_dictionary(n, l, 40)
        if shape == "rank-deficient":
            u, s, vt = np.linalg.svd(psi, full_matrices=False)
            s[-2:] = 0.0
            psi = (u * s) @ vt
        sre = 0.2 * rng.standard_normal((n, 3 * n)) if method == "lh-etf" else None
        phi0 = random_projection(m, n, 40)
        target = etf_target(phi0, psi)
        phi = _exact_round(ObjectiveSpec(psi=psi, lam=0.3, sre=sre), target, phi0)
        at_target = ObjectiveSpec(psi=psi, gram_target=target, lam=0.3, sre=sre)
        f, g = value_and_gradient(phi, at_target)
        assert np.linalg.norm(g) <= 1e-12 * max(1.0, np.linalg.norm(phi))
        for _ in range(20):  # and no nearby matrix is lower
            step = 1e-4 * rng.standard_normal(phi.shape)
            assert objective_value(phi + step, at_target) >= f


class TestExactRoundGeneralPath:
    """The training-free round is the SRE round at R = I, and a tie keeps its start."""

    def test_training_free_round_is_the_identity_sre_round(self):
        # |Phi|^2 is |Phi E|^2 at E = I; psi's zero row leaves a singular
        # direction, so the regularizer is minimised out of a nonempty block
        psi = gen_dictionary(8, 12, 41)
        psi[3] = 0.0
        phi0 = random_projection(3, 8, 41)
        mt = design(psi, 0.2, phi0, xi=0.3, outer_iters=4)
        lh = design(psi, 0.2, phi0, sre=np.eye(8), xi=0.3, outer_iters=4)
        assert (mt.method, lh.method) == ("mt-etf", "lh-etf")
        assert np.linalg.norm(mt.phi - lh.phi) <= 1e-12 * np.linalg.norm(lh.phi)
        for a, b in zip(mt.trace, lh.trace):
            assert a.f == pytest.approx(b.f, rel=1e-12)

    @staticmethod
    def _tied(seed):
        # psi = I and xi = 0 make K = (1 - lam/2) I: every M-subspace is optimal
        phi0 = random_projection(3, 6, seed)
        return phi0, design(np.eye(6), 0.2, phi0, xi=0.0, outer_iters=3)

    def test_tied_designs_follow_their_starts(self):
        (_, a), (_, b) = self._tied(11), self._tied(12)
        row_space = [np.linalg.pinv(r.phi) @ r.phi for r in (a, b)]
        assert np.linalg.norm(row_space[0] - row_space[1]) > 0.5
        assert a.trace[-1].f == pytest.approx(b.trace[-1].f, rel=1e-14)
        assert a.converged and b.converged

    @pytest.mark.parametrize("seed", [11, 12])
    def test_tied_design_is_the_optimum_nearest_its_start(self, seed):
        phi0, result = self._tied(seed)
        # each optimum is sqrt(0.9) times orthonormal rows; the nearest to
        # phi0 is sqrt(0.9) times its polar factor
        u, _, vt = np.linalg.svd(phi0, full_matrices=False)
        np.testing.assert_allclose(result.phi, np.sqrt(0.9) * u @ vt, rtol=0, atol=1e-14)
        # LAPACK's eigenvector order picked the optimum on e4..e6, Procrustes-aligned
        lapack = np.sqrt(0.9) * np.eye(6)[3:]
        w, _, zt = np.linalg.svd(phi0 @ lapack.T)
        assert np.linalg.norm(result.phi - phi0) <= np.linalg.norm(w @ zt @ lapack - phi0)


class TestWarmFactorisation:
    """A design on a dictionary already factored equals one that factors it afresh.

    The mt design factors a Fortran-order copy, so the warm lh design
    also checks that the memory layout the factors came from leaves no
    trace in the bits.
    """

    psi = gen_dictionary(12, 20, 33)
    phi0 = random_projection(4, 12, 33)
    sre = 0.2 * np.random.default_rng(33).standard_normal((12, 30))

    def _lh(self):
        return design(self.psi, 0.05, self.phi0, sre=self.sre)

    def test_lh_after_mt_matches_cold(self, monkeypatch):
        import csdesign.objective as objective

        fortran = np.asfortranarray(self.psi)
        design(fortran, 0.3, self.phi0)
        entry = objective._factors
        warm = self._lh()
        assert entry is not None and objective._factors is entry  # reused, not refactored
        monkeypatch.setattr(objective, "_factors", None)
        cold = self._lh()
        assert objective._factors is not entry
        assert warm.phi.tobytes() == cold.phi.tobytes()
        assert warm.trace == cold.trace and len(warm.trace) > 1
        assert (warm.stop_reason, warm.n_sd_restarts) == (cold.stop_reason, cold.n_sd_restarts)


class SreProducts(np.ndarray):
    """``sre_rotated`` that counts the products ``x @ sre_rotated``."""

    calls = 0

    def __rmatmul__(self, other):
        SreProducts.calls += 1
        return np.asarray(other) @ np.asarray(self)


class Grams(np.ndarray):
    """``sigma`` whose scaled iterates count their Grams: ``x @ y`` with ``x``, ``y`` sharing memory."""

    calls = 0

    def __matmul__(self, other):
        a, b = np.asarray(self), np.asarray(other)
        Grams.calls += int(np.shares_memory(a, b))
        return a @ b


def counted_quartics(monkeypatch, uphill_at=None):
    """Count ``_step_polynomial`` calls; the `uphill_at`-th one reports an uphill slope."""
    import csdesign.solver as solver

    step_polynomial, calls = solver._step_polynomial, []

    def counting(spec, d, r, reg, direction):
        poly, formed = step_polynomial(spec, d, r, reg, direction)
        calls.append(1)
        if len(calls) == uphill_at:  # the solve falls back to steepest descent here
            poly = (1.0,) + poly[1:]
        return poly, formed

    monkeypatch.setattr(solver, "_step_polynomial", counting)
    return calls


class TestCarriedProducts:
    """An iterate takes its residual and SRE factor from the step, not from fresh products.

    A solve evaluates its first iterate afresh; every later one moves
    ``r`` and ``reg`` by the accepted step's quartic products.  So a
    design takes one product by ``U^T E E^T U`` per quartic formed plus
    one for the first iterate, and one Gram (``b @ b.T``) per quartic
    plus one ``d @ d.T`` for the first iterate.
    """

    psi = gen_dictionary(12, 20, 31)
    phi0 = random_projection(5, 12, 31)
    sre = np.random.default_rng(31).standard_normal((12, 40))
    cfg = SolverConfig(max_cg_iterations=15)

    def _counted(self, monkeypatch, spec, uphill_at=None):
        post_init = ObjectiveSpec.__post_init__

        def counting(built):  # the spec the design builds counts its products
            post_init(built)
            object.__setattr__(built, "sigma", built.sigma.view(Grams))
            if built.sre_rotated is not None:
                object.__setattr__(built, "sre_rotated", built.sre_rotated.view(SreProducts))

        monkeypatch.setattr(ObjectiveSpec, "__post_init__", counting)
        monkeypatch.setattr(SreProducts, "calls", 0)
        monkeypatch.setattr(Grams, "calls", 0)
        quartics = counted_quartics(monkeypatch, uphill_at)
        result = design(spec.psi, spec.lam, self.phi0, sre=spec.sre, cfg=self.cfg)
        assert result.stop_reason == "iteration cap"
        n_rounds = len({p.outer_iter for p in result.trace})
        assert len(quartics) == len(result.trace) - n_rounds + result.n_sd_restarts
        return result, len(quartics), n_rounds

    def test_mt_forms_one_gram_per_quartic(self, monkeypatch):
        spec = ObjectiveSpec(psi=self.psi, lam=0.3)
        result, quartics, rounds = self._counted(monkeypatch, spec)
        assert Grams.calls == quartics + rounds == 16

    def test_lh_with_fallback_forms_one_sre_product_per_quartic(self, monkeypatch):
        spec = ObjectiveSpec(psi=self.psi, lam=0.05, sre=self.sre)
        result, quartics, rounds = self._counted(monkeypatch, spec, uphill_at=5)
        assert result.n_sd_restarts == 1
        assert SreProducts.calls == quartics + rounds == 17
        assert Grams.calls == quartics + rounds
        # the fallback's step moved the products by the quartic along -g, not the uphill one
        assert result.trace[-1].f == pytest.approx(objective_value(result.phi, spec), rel=1e-12)


def cli_sweep_point(method, max_cg_iterations):
    """A design at the CLI SNR sweep's shape and 45 dB, and its spec.

    ``mt`` runs at weight 0.05 and ``lh`` at its noise-law twin
    ``0.05 / (sigma^2 P)``.
    """
    from csdesign.experiments import ExperimentParams, make_dataset

    params = ExperimentParams(m=20, n=60, l=80, k=4, p=1000, snr_db=45.0)
    ds = make_dataset(params, 1)
    sre = ds.train_sre() if method == "lh" else None
    lam = 0.05 if sre is None else 0.05 / (ds.sigma**2 * ds.p)
    cfg = SolverConfig(max_cg_iterations=max_cg_iterations)
    result = design(ds.psi, lam, random_projection(20, 60, 1), sre=sre, cfg=cfg)
    return result, ObjectiveSpec(psi=ds.psi, lam=lam, sre=sre)


class TestCarriedProductsRounding:
    """A trace value carried along 500 steps equals a fresh evaluation at rounding level."""

    @pytest.mark.parametrize("cap", [40, 500])
    @pytest.mark.parametrize("method", ["mt", "lh"])
    def test_last_trace_point_matches_fresh_evaluation(self, method, cap):
        result, spec = cli_sweep_point(method, cap)
        assert len(result.trace) > min(cap, 100)
        last = result.trace[-1]
        f, g = value_and_gradient(result.phi, spec)
        assert last.f == pytest.approx(objective_value(result.phi, spec), rel=1e-12, abs=0)
        assert last.f == pytest.approx(f, rel=1e-12, abs=0)
        assert last.grad_norm == pytest.approx(float(np.linalg.norm(g)), rel=1e-6, abs=0)
