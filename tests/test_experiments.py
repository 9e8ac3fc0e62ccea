import collections
import math
from dataclasses import replace

import numpy as np
import pytest

from csdesign import experiments
from csdesign.experiments import (
    RECORDS_HEADER,
    SWEEP_METHODS,
    ExperimentParams,
    design_for_method,
    evaluate_system,
    make_dataset,
    rho_mse,
    rho_psnr,
    run_convergence,
    run_dimension_sweeps,
    run_lambda_sweep,
    run_snr_sweep,
    write_convergence_csv,
    write_records_csv,
)
from csdesign.solver import design, random_projection

SMALL = ExperimentParams(m=8, n=20, l=30, k=2, p=60, lam=0.3, snr_db=20.0)


#: each design tag and the experiments name design_for_method calls it by;
#: perfbench's traced run wraps these names to count and time the designs
DESIGN_ALIASES = {
    "mt": "design_mt",
    "mt-etf": "alternating_design",
    "lh": "design_lh",
    "lh-etf": "design_lh_etf",
}


SHAPE_RULE = "need 1 <= K <= M <= N <= L, got"
INTEGER_RULE = "K, M, N and L must be integers, got"


@pytest.mark.parametrize(
    "sizes, message",
    [(dict(k=0), SHAPE_RULE), (dict(k=9), SHAPE_RULE), (dict(m=21), SHAPE_RULE),
     (dict(n=31), SHAPE_RULE), (dict(k=-1), SHAPE_RULE),
     (dict(m=8.5), INTEGER_RULE + r" K=2 M=8\.5 N=20 L=30"), (dict(k=2.5), INTEGER_RULE),
     (dict(n=20.0), INTEGER_RULE), (dict(l=np.float64(30)), INTEGER_RULE)],
    ids=["k-zero", "k-above-m", "m-above-n", "n-above-l", "k-negative",
         "m-fraction", "k-fraction", "n-float", "l-numpy-float"],
)
def test_params_refuse_a_shape_outside_the_cs_range(sizes, message):
    # 1 <= K <= M <= N <= L over integer sizes is a rule of the type: building
    # it and replacing a field in a valid one both refuse a shape outside it
    with pytest.raises(ValueError, match=message):
        ExperimentParams(**{**dict(m=8, n=20, l=30, k=2), **sizes})
    with pytest.raises(ValueError, match=message):
        replace(SMALL, **sizes)


def test_params_take_numpy_integer_sizes():
    sizes = dict(m=np.int64(8), n=np.int32(20), l=np.int64(30), k=np.int16(2))
    ExperimentParams(**sizes)
    assert replace(SMALL, **sizes) == SMALL


class TestDesignForMethod:
    params = replace(SMALL, outer_iters=3)
    dataset = make_dataset(params, 8)
    phi0 = random_projection(SMALL.m, SMALL.n, 8)

    def _design(self, method):
        return design_for_method(method, self.params, self.dataset.psi, self.phi0, 0.3,
                                 sre=self.dataset.train_sre())

    @pytest.mark.parametrize("method", DESIGN_ALIASES)
    def test_result_is_tagged_with_the_method(self, method):
        assert self._design(method).method == method

    @pytest.mark.parametrize("method", ["mt", "mt-etf"])
    def test_training_free_designs_ignore_the_sre(self, method):
        given = self._design(method)
        etf = {"xi": self.params.resolved_xi(), "outer_iters": 3} if method == "mt-etf" else {}
        plain = design(self.dataset.psi, 0.3, self.phi0, **etf)
        assert given.phi.tobytes() == plain.phi.tobytes()
        assert given.trace == plain.trace and given.method == plain.method == method

    @pytest.mark.parametrize("method", ["lh", "lh-etf"])
    def test_sre_method_without_the_sre_rejected(self, method):
        with pytest.raises(ValueError, match=f"method '{method}' needs the training SRE matrix"):
            design_for_method(method, self.params, self.dataset.psi, self.phi0, 0.3, sre=None)

    @pytest.mark.parametrize("method", DESIGN_ALIASES)
    def test_each_tag_calls_its_traced_name(self, monkeypatch, method):
        calls = collections.Counter()
        for alias in DESIGN_ALIASES.values():
            def counting(*args, _alias=alias, _real=getattr(experiments, alias), **kwargs):
                calls[_alias] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(experiments, alias, counting)
        self._design(method)
        assert calls == {DESIGN_ALIASES[method]: 1}


@pytest.mark.parametrize(
    "harness",
    [
        lambda seeds: run_lambda_sweep(SMALL, [0.1], seeds),
        lambda seeds: run_snr_sweep(SMALL, [10.0], ("mt",), seeds),
        lambda seeds: run_dimension_sweeps(SMALL, "m", [4], seeds),
    ],
    ids=["lambda", "snr", "dimension"],
)
def test_every_harness_rejects_an_empty_seed_list(harness):
    with pytest.raises(ValueError, match="seed must name at least one seed"):
        harness([])


@pytest.mark.parametrize(
    "harness, message",
    [
        (lambda: run_lambda_sweep(replace(SMALL, k=9), [0.3], 1, methods=("mt",)),
         "K <= M <= N <= L"),
        (lambda: run_snr_sweep(SMALL, [10.0, math.nan], ("mt",), 1, lambda_grid=None),
         "snr_db must not be NaN"),
        (lambda: run_lambda_sweep(SMALL, [0.3, -1.0], 1, methods=("mt",)),
         "lam must be finite and nonnegative"),
        (lambda: run_snr_sweep(SMALL, [10.0], ("mt",), 1, lambda_grid=(0.1, math.nan)),
         "lam must be finite and nonnegative"),
        (lambda: run_lambda_sweep(SMALL, [0.3], 1, methods=("mt", "qr")), "unknown method 'qr'"),
        (lambda: run_dimension_sweeps(SMALL, "m", [6], 1, methods=("mt", "qr")),
         "unknown method 'qr'"),
        (lambda: run_snr_sweep(SMALL, [10.0], ("mt",), 1, lambda_grid=(0.1,), pair_lambdas=True),
         "pair_lambdas sets every weight itself; it takes no lambda_grid"),
        (lambda: run_lambda_sweep(SMALL, [0.1], [1, 1.7]), "a seed must be an integer, got 1.7"),
        (lambda: run_lambda_sweep(SMALL, [0.1], 1.7), "a seed must be an integer, got 1.7"),
        (lambda: run_snr_sweep(SMALL, [10.0], ("mt",), "12"),
         "a seed must be an integer, got '12'"),
        (lambda: run_dimension_sweeps(SMALL, "m", [4], [1, 2.0]),
         r"a seed must be an integer, got 2\.0"),
    ],
    ids=["lambda-k-above-m", "snr-nan-point", "lambda-negative-point",
         "snr-nan-candidate", "lambda-unknown-method", "dimension-unknown-method",
         "snr-paired-with-grid", "lambda-fractional-seed-in-list", "lambda-fractional-seed",
         "snr-string-seed", "dimension-float-seed"],
)
def test_every_harness_checks_its_inputs_before_the_first_design(designs, harness, message):
    with pytest.raises(ValueError, match=message):
        harness()
    assert designs == []


class TestRhoMse:
    def test_identical_zero(self):
        x = np.arange(12.0).reshape(3, 4)
        assert rho_mse(x, x) == 0.0

    def test_all_ones_offset(self):
        x = np.zeros((5, 7))
        assert rho_mse(x, x + 1.0) == 1.0

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 6))
        y = rng.standard_normal((4, 6))
        total = 0.0
        for i in range(4):
            for j in range(6):
                total += (y[i, j] - x[i, j]) ** 2
        assert rho_mse(x, y) == pytest.approx(total / 24.0, rel=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rho_mse(np.zeros((2, 2)), np.zeros((2, 3)))


class TestRhoPsnr:
    def test_peak_mse_is_zero_db(self):
        assert rho_psnr(255.0**2) == pytest.approx(0.0, abs=1e-12)

    def test_unit_mse(self):
        assert rho_psnr(1.0) == pytest.approx(10.0 * math.log10(65025.0), rel=1e-12)
        assert rho_psnr(1.0) == pytest.approx(48.1308, abs=1e-4)

    def test_halving_mse_adds_three_db(self):
        assert rho_psnr(0.5) - rho_psnr(1.0) == pytest.approx(10.0 * math.log10(2.0), rel=1e-12)

    def test_zero_mse_is_infinite(self):
        assert rho_psnr(0.0) == math.inf
        assert rho_psnr(-1.0) == math.inf


class TestEvaluateSystem:
    def test_record_self_consistency(self):
        from csdesign.solver import random_projection

        ds = make_dataset(SMALL, 1)
        phi = random_projection(SMALL.m, SMALL.n, 1)
        rec = evaluate_system(phi, ds, SMALL.k, "randn", "snr", 20.0, 1)
        assert rec.rho_psnr == pytest.approx(10.0 * math.log10(255.0**2 / rec.rho_mse), abs=1e-9)
        assert rec.phi_energy == pytest.approx(float(np.sum(phi**2)), rel=1e-14)
        noise = phi @ ds.test_sre()
        assert rec.proj_noise_energy == pytest.approx(float(np.sum(noise**2)), rel=1e-14)
        assert rec.wall_time_ms == 0.0


class TestRankDeficientWarning:
    @staticmethod
    def _evaluate(monkeypatch, caplog, flagged=(), emptied=()):
        import csdesign.experiments as experiments
        from csdesign.recovery import batch_recover
        from csdesign.solver import random_projection

        def stub(d, y, k):
            codes, flags = batch_recover(d, y, k)
            codes[:, list(emptied)] = 0.0
            flags[list(flagged)] = True
            return codes, flags

        monkeypatch.setattr(experiments, "batch_recover", stub)
        ds = make_dataset(SMALL, 1)
        phi = random_projection(SMALL.m, SMALL.n, 1)
        caplog.clear()
        with caplog.at_level("WARNING", logger="csdesign.experiments"):
            return evaluate_system(phi, ds, SMALL.k, "randn", "snr", 20.0, 1)

    def test_one_warning_with_counts(self, monkeypatch, caplog):
        rec = self._evaluate(monkeypatch, caplog, flagged=(0, 5), emptied=(5,))
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "randn at snr=20.0 seed 1" in message
        assert "2 of 60 OMP fits rank-deficient" in message
        assert "1 stopped with fewer than 2 atoms" in message
        assert rec.rho_mse > self._evaluate(monkeypatch, caplog).rho_mse

    def test_flags_leave_the_record_unchanged(self, monkeypatch, caplog):
        flagged = self._evaluate(monkeypatch, caplog, flagged=(3,))
        assert "1 of 60 OMP fits rank-deficient, 0 stopped" in caplog.records[0].getMessage()
        assert flagged == self._evaluate(monkeypatch, caplog)
        assert caplog.records == []


class TestRunConvergence:
    def test_traces_monotone_and_share_start(self):
        params = ExperimentParams(m=8, n=20, l=30, k=2, p=10)
        rows = run_convergence(params, [0.1, 1.0], 3, max_iterations=150)
        by_lam = collections.defaultdict(list)
        for lam, it, f in rows:
            by_lam[lam].append((it, f))
        assert set(by_lam) == {0.1, 1.0}
        for lam, pts in by_lam.items():
            fs = [f for _, f in pts]
            assert all(a >= b for a, b in zip(fs, fs[1:]))
            assert pts[0][0] == 0
        # shared start: the initial objectives differ exactly by the
        # regularizer gap (lam2 - lam1) * ||phi0||^2
        from csdesign.solver import random_projection
        from csdesign.streams import derive_seed

        phi0 = random_projection(params.m, params.n, derive_seed(3, "phi0"))
        gap = by_lam[1.0][0][1] - by_lam[0.1][0][1]
        assert gap == pytest.approx(0.9 * float(np.sum(phi0**2)), rel=1e-9)
        # larger lambda pays a larger terminal objective on the same start
        assert by_lam[0.1][-1][1] < by_lam[1.0][-1][1]

    def test_csv_writer(self, tmp_path):
        rows = [(0.1, 0, 5.0), (0.1, 1, 4.0)]
        path = tmp_path / "trace.csv"
        write_convergence_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lambda,iteration,f"
        assert lines[1] == "0.10000000000000001,0,5"


class TestRunLambdaSweep:
    def test_record_count_and_zero_point(self):
        grid = [0.0, 0.4]
        recs = run_lambda_sweep(SMALL, grid, 2, methods=("mt",))
        assert len(recs) == len(grid)
        zero = next(r for r in recs if r.param_value == 0.0)
        other = next(r for r in recs if r.param_value == 0.4)
        # the unregularized design carries more energy
        assert zero.phi_energy > other.phi_energy
        assert all(r.param_name == "lambda" for r in recs)

    def test_multiple_seeds_and_methods(self):
        recs = run_lambda_sweep(SMALL, [0.2], [1, 2], methods=("mt", "mt-etf"))
        assert len(recs) == 4
        assert {r.seed for r in recs} == {1, 2}
        assert {r.method for r in recs} == {"mt", "mt-etf"}

    @pytest.mark.parametrize("xi", [1.5, 1.0, -0.1, math.nan])
    def test_xi_outside_unit_interval_raises_before_any_dataset(self, monkeypatch, xi):
        import csdesign.experiments as ex

        def no_dataset(*args, **kwargs):
            raise AssertionError("a dataset was built")

        monkeypatch.setattr(ex, "make_dataset", no_dataset)
        with pytest.raises(ValueError, match=r"xi must lie in \[0, 1\)"):
            run_lambda_sweep(ExperimentParams(xi=xi), [0.1], 1, methods=("mt-etf",))

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "3"])
    def test_outer_iters_checked_at_construction(self, bad):
        with pytest.raises(ValueError, match="outer_iters must be an integer >= 1"):
            ExperimentParams(outer_iters=bad)

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("lam", -0.1, "lam must be finite and nonnegative"),
            ("lam", math.inf, "lam must be finite and nonnegative"),
            ("snr_db", math.nan, "snr_db must not be NaN"),
            ("snr_db", -math.inf, "-inf"),
            ("p", 0, "p must be an integer >= 1"),
        ],
        ids=["lam-negative", "lam-inf", "snr-nan", "snr-minus-inf", "p-zero"],
    )
    def test_scalars_checked_at_construction_by_the_library_rules(self, field, bad, message):
        # the same rules reject the value in ObjectiveSpec, gen_signals and the counts
        with pytest.raises(ValueError, match=message):
            ExperimentParams(**{field: bad})

    def test_xi_in_unit_interval_and_welch_accepted(self):
        assert ExperimentParams(xi=0.0).resolved_xi() == 0.0
        assert ExperimentParams(xi=0.5).resolved_xi() == 0.5
        assert 0.0 < ExperimentParams(xi=None).resolved_xi() < 1.0


class TestUnconvergedDesignWarning:
    @staticmethod
    def _sweep(monkeypatch, caplog, converged):
        import csdesign.experiments as experiments
        from csdesign.solver import DesignResult

        def stub(method, params, psi, phi0, lam, sre=None, cfg=None):
            return DesignResult(phi=phi0, trace=(), method=method,
                                stop_reason="converged" if converged else "iteration cap")

        monkeypatch.setattr(experiments, "design_for_method", stub)
        caplog.clear()
        with caplog.at_level("WARNING", logger="csdesign.experiments"):
            return run_lambda_sweep(SMALL, [0.3], 6, methods=("mt",))

    def test_one_warning_per_unconverged_design(self, monkeypatch, caplog):
        recs = self._sweep(monkeypatch, caplog, converged=False)
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "mt" in message and "lambda=0.3" in message and "seed 6" in message
        assert "(iteration cap)" in message
        # the record is scored as before; only the log says it is unconverged
        assert recs == self._sweep(monkeypatch, caplog, converged=True)

    def test_converged_design_logs_nothing(self, monkeypatch, caplog):
        self._sweep(monkeypatch, caplog, converged=True)
        assert caplog.records == []


class TestRunSnrSweep:
    def test_record_count_and_ordering(self):
        recs = run_snr_sweep(SMALL, [10.0, 30.0], ("randn", "mt"), [1, 2])
        assert len(recs) == 2 * 2 * 2
        curve = collections.defaultdict(list)
        for r in recs:
            curve[(r.method, r.param_value)].append(r.rho_mse)
        for snr in (10.0, 30.0):
            assert np.mean(curve[("mt", snr)]) <= np.mean(curve[("randn", snr)])

    def test_each_seed_dictionary_is_factored_once(self, monkeypatch):
        # a seed's designs run back to back, so the one cached factorisation
        # serves all of them; nothing else in an mt/lh sweep calls the SVD
        # (OMP solves a rank-deficient refit with lstsq)
        from csdesign import objective

        svd, shapes = np.linalg.svd, []

        def counting_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(objective, "_factors", None)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        run_snr_sweep(SMALL, [10.0, 30.0], ("mt", "lh"), [1, 2], lambda_grid=None)
        assert shapes == [(SMALL.n, SMALL.l)] * 2

    def test_repeated_grid_values_and_methods_keep_their_records(self):
        one = run_snr_sweep(SMALL, [10.0], ("mt",), [1, 2], lambda_grid=None)
        repeated = run_snr_sweep(SMALL, [10.0, 10.0], ("mt", "mt"), [1, 2], lambda_grid=None)
        assert repeated == one * 4

    def test_designed_beats_random_in_table_measures(self):
        recs = run_snr_sweep(SMALL, [15.0], ("randn", "mt"), [3])
        by_method = {r.method: r for r in recs}
        assert by_method["mt"].mu < by_method["randn"].mu
        assert by_method["mt"].phi_energy < by_method["randn"].phi_energy

    def test_lh_uses_training_half_only(self):
        # records must be insensitive to the test half of the noise fed to
        # the design: rebuild the dataset, design from train_sre, compare
        from csdesign.solver import random_projection
        from csdesign.streams import derive_seed
        from csdesign.matio import FLOAT_FMT
        from csdesign.synth import gen_dictionary
        from dataclasses import replace

        params = replace(SMALL, snr_db=12.0)
        recs = run_snr_sweep(params, [12.0], ("lh",), [4], lambda_grid=None)
        psi = gen_dictionary(params.n, params.l, 4)
        phi0 = random_projection(params.m, params.n, derive_seed(4, "phi0"))
        point_seed = derive_seed(4, f"snr={FLOAT_FMT % 12.0}")
        ds = make_dataset(params, point_seed, psi=psi)
        manual = design_for_method("lh", params, psi, phi0, params.lam, sre=ds.train_sre())
        rec = evaluate_system(manual.phi, ds, params.k, "lh", "snr", 12.0, 4)
        assert rec.rho_mse == recs[0].rho_mse

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method 'bogus'; expected one of"):
            run_snr_sweep(SMALL, [10.0], ("bogus",), [1])
        with pytest.raises(ValueError, match="unknown method 'bogus'; expected one of"):
            design_for_method("bogus", SMALL, np.eye(20, 30), np.zeros((8, 20)), 0.3)

    def test_empty_lambda_grid_rejected(self):
        with pytest.raises(ValueError, match="lambda_grid"):
            run_snr_sweep(SMALL, [10.0], ("mt",), [1], lambda_grid=())

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            run_snr_sweep(SMALL, [10.0], ("mt",), [])

    def test_no_finite_candidate_names_method_and_snr(self, monkeypatch):
        import csdesign.experiments as experiments
        from dataclasses import replace

        real = experiments.evaluate_system
        monkeypatch.setattr(experiments, "evaluate_system",
                            lambda *a, **kw: replace(real(*a, **kw), rho_mse=math.nan))
        with pytest.raises(ValueError, match="'mt' at snr 10"):
            run_snr_sweep(SMALL, [10.0], ("mt",), [1], lambda_grid=(0.1, 0.3))

    def test_paired_weights_at_infinite_snr_keep_the_given_weight(self):
        # noiseless data has a zero SRE, so pairing leaves every weight at params.lam
        paired = run_snr_sweep(SMALL, [math.inf], ("mt", "lh"), [1], pair_lambdas=True)
        assert paired == run_snr_sweep(SMALL, [math.inf], ("mt", "lh"), [1], lambda_grid=None)

    def test_search_keeps_the_candidate_with_the_lowest_mean_error(self, tmp_path):
        # each (method, SNR) keeps the records of its candidate with the
        # lowest seed-averaged rho_mse, the first one on a tie: the records
        # that a run at that one candidate gives
        snrs, methods, seeds, grid = [10.0, 30.0], ("randn", "mt", "lh"), [1, 2], (0.03, 0.3)
        cells = {}
        for lam in grid:
            for rec in run_snr_sweep(SMALL, snrs, methods, seeds, lambda_grid=(lam,)):
                cells.setdefault((rec.param_value, rec.method), {}).setdefault(lam, []).append(rec)
        expected, winners = [], set()
        for by_lam in cells.values():  # in sweep order: SNR, then method
            means = [np.mean([rec.rho_mse for rec in by_lam[lam]]) for lam in grid]
            winner = grid[means.index(min(means))]
            winners.add(winner)
            expected += by_lam[winner]
        assert winners == set(grid)  # both candidates win somewhere, so the choice is tested
        paths = [tmp_path / f"{name}.csv" for name in ("searched", "again", "expected")]
        for path in paths[:2]:
            searched = run_snr_sweep(SMALL, snrs, methods, seeds, lambda_grid=grid)
            assert searched == expected
            write_records_csv(searched, path)
        write_records_csv(expected, paths[2])
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

    def test_noiseless_control_exact_recovery_regime(self):
        # with k inside the coherence bound and essentially no noise, the
        # designed system reconstructs to numerical precision
        from dataclasses import replace

        params = replace(SMALL, k=1, p=50, snr_db=80.0)
        recs = run_snr_sweep(params, [80.0], ("mt",), [1], lambda_grid=None)
        assert recs[0].rho_mse <= 1e-6


class TestSnrSweepReusesTrainingFreeDesigns:
    """A training-free design reads no data, so an SNR sweep makes it once
    per seed and weight and scores it at every SNR of that seed."""

    PARAMS = replace(SMALL, outer_iters=3)
    SNRS = [5.0, 15.0, 25.0]
    METHODS = ("randn", "mt", "mt-etf", "lh")

    @staticmethod
    def _point(params, snr, seed):
        """The dictionary, start and dataset that the sweep uses at (snr, seed)."""
        from csdesign.matio import render_value
        from csdesign.streams import derive_seed
        from csdesign.synth import gen_dictionary

        psi = gen_dictionary(params.n, params.l, seed)
        phi0 = random_projection(params.m, params.n, derive_seed(seed, "phi0"))
        point_seed = derive_seed(seed, f"snr={render_value(snr)}")
        return psi, phi0, make_dataset(replace(params, snr_db=snr), point_seed, psi=psi)

    def test_each_training_free_design_is_made_once_per_seed(self, designs):
        run_snr_sweep(self.PARAMS, self.SNRS, self.METHODS, [1, 2])
        assert collections.Counter(designs) == {"randn": 2, "mt": 2, "mt-etf": 2, "lh": 6}

    def test_records_match_a_fresh_design_at_each_point(self, tmp_path):
        # as test_lh_uses_training_half_only builds one: design at the
        # record's own point from scratch, then score it there
        recs = run_snr_sweep(self.PARAMS, self.SNRS, self.METHODS, [1, 2])
        fresh = []
        for rec in recs:
            point_params = replace(self.PARAMS, snr_db=rec.param_value)
            psi, phi0, ds = self._point(self.PARAMS, rec.param_value, rec.seed)
            result = design_for_method(rec.method, point_params, psi, phi0, self.PARAMS.lam,
                                       sre=ds.train_sre())
            fresh.append(evaluate_system(result.phi, ds, self.PARAMS.k, rec.method, "snr",
                                         rec.param_value, rec.seed))
        assert {rec.method for rec in recs} == set(self.METHODS)
        assert recs == fresh
        write_records_csv(recs, tmp_path / "sweep.csv")
        write_records_csv(fresh, tmp_path / "fresh.csv")
        assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()

    def test_paired_weights_share_a_design_only_when_equal(self, designs):
        # at -10 and -5 dB the paired weight is capped at 1, so those two
        # points share one mt design; 10 and 20 dB each have their own
        snrs, seeds = [-10.0, -5.0, 10.0, 20.0], [1, 2]
        recs = run_snr_sweep(SMALL, snrs, ("mt",), seeds, pair_lambdas=True)
        distinct = 0
        for s in seeds:
            scales = [ds.sigma**2 * ds.p for _, _, ds in (self._point(SMALL, snr, s)
                                                        for snr in snrs)]
            distinct += len({min(1.0, SMALL.lam * scale) for scale in scales})
        assert distinct == 2 * 3
        assert designs.count("mt") == distinct
        one_at_a_time = [rec for snr in snrs
                         for rec in run_snr_sweep(SMALL, [snr], ("mt",), seeds, pair_lambdas=True)]
        assert recs == one_at_a_time

    def test_each_lambda_candidate_is_designed_once_per_seed(self, designs):
        grid, seeds = (0.03, 0.3, 1.0), [1, 2]
        recs = run_snr_sweep(SMALL, self.SNRS, ("mt",), seeds, lambda_grid=grid)
        assert designs.count("mt") == len(seeds) * len(grid)
        # a sweep of one SNR reuses nothing, and each SNR's choice is its own
        one_at_a_time = [rec for snr in self.SNRS
                         for rec in run_snr_sweep(SMALL, [snr], ("mt",), seeds, lambda_grid=grid)]
        assert recs == one_at_a_time

    def test_a_reused_design_is_timed_as_its_lookup(self):
        recs = run_snr_sweep(self.PARAMS, self.SNRS, self.METHODS, [1, 2])
        assert all(rec.wall_time_ms > 0.0 for rec in recs)
        # the solver's designs take milliseconds, so a lookup is always
        # faster; randn's copy takes microseconds, too close to compare
        for method in ("mt", "mt-etf"):
            for s in (1, 2):
                first, *reused = [rec.wall_time_ms for rec in recs
                                  if rec.method == method and rec.seed == s]
                assert len(reused) == 2
                assert all(ms < first for ms in reused)


class TestRunDimensionSweeps:
    def test_psnr_improves_with_m(self):
        base = ExperimentParams(m=10, n=20, l=30, k=2, p=100, lam=0.3, snr_db=25.0)
        recs = run_dimension_sweeps(base, "m", [6, 10, 14], [1, 2, 3, 4, 5], methods=("mt",))
        curve = collections.defaultdict(list)
        for r in recs:
            curve[r.param_value].append(r.rho_psnr)
        avg = [np.mean(curve[v]) for v in (6.0, 10.0, 14.0)]
        assert avg[0] <= avg[1] <= avg[2]

    def test_oversparse_k_degrades_psnr(self):
        base = ExperimentParams(m=10, n=20, l=30, k=2, p=100, lam=0.3, snr_db=25.0)
        recs = run_dimension_sweeps(base, "k", [2, 8], [1, 2, 3], methods=("mt",))
        curve = collections.defaultdict(list)
        for r in recs:
            curve[r.param_value].append(r.rho_psnr)
        assert np.mean(curve[8.0]) < np.mean(curve[2.0])

    def test_infeasible_points_skipped(self, caplog):
        base = ExperimentParams(m=10, n=20, l=30, k=2, p=20)
        with caplog.at_level("WARNING"):
            recs = run_dimension_sweeps(base, "m", [1, 12, 25], [1], methods=("mt",))
        assert [r.param_value for r in recs] == [12.0]
        assert sum("infeasible" in rec.message for rec in caplog.records) == 2

    def test_no_feasible_point_raises(self, caplog):
        base = ExperimentParams(m=10, n=20, l=30, k=2, p=20)
        with caplog.at_level("WARNING"):
            with pytest.raises(ValueError, match="K <= M <= N <= L"):
                run_dimension_sweeps(base, "m", [1, 25], [1, 2], methods=("mt",))
        assert sum("infeasible" in rec.message for rec in caplog.records) == 2

    def test_single_point_equals_single_run(self):
        base = ExperimentParams(m=10, n=20, l=30, k=2, p=20)
        recs = run_dimension_sweeps(base, "l", [30], [7], methods=("randn",))
        assert len(recs) == 1
        assert recs[0].param_name == "l"

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            run_dimension_sweeps(SMALL, "n", [20], [1])

    @pytest.mark.parametrize("value", [8.7, math.nan, math.inf])
    def test_non_integer_grid_value_rejected(self, value):
        with pytest.raises(ValueError, match="axis 'm' requires integer grid values"):
            run_dimension_sweeps(SMALL, "m", [6, value], [1])

    def test_integral_floats_and_default_methods(self):
        base = ExperimentParams(m=4, n=10, l=12, k=2, p=10)
        recs = run_dimension_sweeps(base, "k", [2.0 + 1e-12], [1])
        assert recs == run_dimension_sweeps(base, "k", [2], [1], methods=SWEEP_METHODS["k"])
        assert [r.method for r in recs] == list(SWEEP_METHODS["k"])
        assert recs[0].param_value == 2.0


class TestRecordsCsv:
    def test_header_and_determinism(self, tmp_path):
        recs = run_snr_sweep(SMALL, [18.0], ("randn", "mt"), [5])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(recs, a)
        write_records_csv(run_snr_sweep(SMALL, [18.0], ("randn", "mt"), [5]), b)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == RECORDS_HEADER
        assert (
            lines[0]
            == "method,param_name,param_value,seed,rho_mse,rho_psnr,mu,mu_av,"
            "phi_energy,proj_noise_energy,wall_time_ms"
        )

    def test_timing_column_populated_on_request(self, tmp_path):
        recs = run_lambda_sweep(SMALL, [0.3], 6, methods=("mt",))
        write_records_csv(recs, tmp_path / "records.csv", timing=True)
        assert float((tmp_path / "records.csv").read_text().splitlines()[1].split(",")[-1]) > 0.0

    def test_design_time_is_a_measurement_not_a_result(self, tmp_path):
        # each record holds its design time, which equality ignores and the
        # writer leaves at 0 unless asked, so equal runs write equal bytes
        recs = run_lambda_sweep(SMALL, [0.3], 6, methods=("mt",))
        assert recs[0].wall_time_ms > 0.0
        assert recs == [replace(recs[0], wall_time_ms=0.0)]
        write_records_csv(recs, tmp_path / "records.csv")
        assert (tmp_path / "records.csv").read_text().splitlines()[1].endswith(",0")
