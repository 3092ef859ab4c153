import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbdid import propensity, simlab
from cbdid.data import ModelSpec, design_matrix
from cbdid.errors import ConvergenceError, NumericalError, SpecError
from cbdid.estimator import PsMode
from cbdid.propensity import Weighting
from cbdid.selection import _scores_of, fit_spec
from cbdid.simlab import (
    DgpFamily,
    DgpSpec,
    bias_term,
    empirical_risk,
    generate,
    run_table,
    theta_star_exact,
    theta_star_oracle,
    tp_fp,
    working_spec_for,
)
from cbdid.simlab import (TABLE_IDS, _BLOCK_UNITS, _aggregate_att, _blocks, _effect_curve,
                          _rep_sel, _sel_block)

#: One spec per generator family, with both robustness alphas of att-comparison.
ALL_FAMILIES = [
    DgpSpec(family=family, beta_star=0.5, n=5000,
            alpha_star=alpha if family is DgpFamily.ROBUSTNESS else None)
    for family in DgpFamily
    for alpha in ((1.0, 3.0) if family is DgpFamily.ROBUSTNESS else (None,))
]
FAMILY_IDS = [f"{spec.family.value}-{spec.alpha_star}" for spec in ALL_FAMILIES]


def true_logit(spec, x):
    """Reference true logit of the rows of ``x``: -x1 + alpha* x2 (robustness),
    -x1 (Cases 1-1 and 2-1) or -x1 + x2, formed as a new array."""
    if spec.family is DgpFamily.ROBUSTNESS:
        return -x[:, 0] + spec.alpha_star * x[:, 1]
    if spec.family in (DgpFamily.CASE_1_1, DgpFamily.CASE_2_1):
        return -x[:, 0]
    return -x[:, 0] + x[:, 1]


class TestGenerate:
    def test_covariate_marginals(self):
        spec = DgpSpec(family=DgpFamily.CASE_2_1, beta_star=0.5, n=200000)
        ds, _ = generate(spec, np.random.default_rng(0))
        # Uniform(0, 2): mean 1, variance 1/3; 3-sigma Monte Carlo bands.
        se_mean = np.sqrt(1 / 3 / ds.n)
        assert abs(ds.covariates.mean() - 1.0) < 3 * se_mean
        assert abs(ds.covariates.var() - 1 / 3) < 0.005

    def test_robustness_alpha_zero_ignores_x2(self):
        spec = DgpSpec(family=DgpFamily.ROBUSTNESS, beta_star=1.0, n=50000, alpha_star=0.0)
        ds, truth = generate(spec, np.random.default_rng(1))
        manual = 1 / (1 + np.exp(ds.covariates[:, 0]))
        np.testing.assert_allclose(truth.e1_true, manual, atol=1e-12)
        share = ds.treated.mean()
        # E[sigmoid(-x1)] = 0.28311 for x1 ~ U(0,2)
        assert abs(share - 0.28311) < 3 * np.sqrt(0.28311 * 0.71689 / ds.n)

    @pytest.mark.parametrize("family, k, slopes, theta_star", [
        (DgpFamily.ROBUSTNESS, 2, (0,), [0.0, 0.7]),
        (DgpFamily.CASE_1_1, 1, (0,), [1.0, 0.7]),
        (DgpFamily.CASE_1_2, 2, (0, 1), [1.0, 0.7, 0.7]),
        (DgpFamily.CASE_2_1, 4, (0,), [1.0, 0.7, 0, 0, 0]),
        (DgpFamily.CASE_2_2, 4, (0, 1), [1.0, 0.7, 0.7, 0, 0]),
        (DgpFamily.CASE_2_3, 6, (0, 1), [1.0, 0.7, 0.7, 0, 0, 0, 0]),
    ], ids=[family.value for family in DgpFamily])
    def test_family_structure(self, family, k, slopes, theta_star):
        alpha = 1.0 if family is DgpFamily.ROBUSTNESS else None
        spec = DgpSpec(family=family, beta_star=0.7, n=100, alpha_star=alpha)
        ds, truth = generate(spec, np.random.default_rng(2))
        assert ds.n_covariates == k
        assert truth.truth_slopes == slopes
        np.testing.assert_allclose(truth.theta_star, theta_star)

    @pytest.mark.parametrize("family", list(DgpFamily), ids=lambda family: family.value)
    def test_hidden_truth_consistency(self, family):
        alpha = 1.0 if family is DgpFamily.ROBUSTNESS else None
        spec = DgpSpec(family=family, beta_star=0.3, n=1000, alpha_star=alpha)
        ds, truth = generate(spec, np.random.default_rng(3))
        working = working_spec_for(family)
        full = design_matrix(ds, working)
        np.testing.assert_allclose(truth.effect_curve, full @ truth.theta_star, atol=1e-12)
        # theta* holds the intercept first, then one entry per working covariate.
        assert truth.truth_slopes == tuple(
            cov for cov, coef in zip(working.selected, truth.theta_star[1:]) if coef == 0.3
        )
        assert ds.n_covariates == spec.n_covariates

    def test_reproducible_given_stream(self):
        spec = DgpSpec(family=DgpFamily.CASE_1_1, beta_star=1.0, n=50)
        a, _ = generate(spec, np.random.default_rng(42))
        b, _ = generate(spec, np.random.default_rng(42))
        np.testing.assert_array_equal(a.covariates, b.covariates)
        np.testing.assert_array_equal(a.y_post, b.y_post)

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=FAMILY_IDS)
    def test_draws_match_the_logistic_formula(self, spec):
        # The scores are formed in place; every bit is the plain formula's.
        dataset, truth = generate(spec, np.random.default_rng(21))
        rng = np.random.default_rng(21)
        x = rng.uniform(0.0, 2.0, size=(spec.n, spec.n_covariates))
        e1 = 1.0 / (1.0 + np.exp(-true_logit(spec, x)))
        d = rng.random(spec.n) < e1
        y0, eps0, eps1 = (rng.standard_normal(spec.n) for _ in range(3))
        y_post = y0 + np.where(d, _effect_curve(spec, x) + eps1, eps0)
        assert np.array_equal(truth.e1_true, e1)
        assert np.array_equal(dataset.treated, d)
        assert np.array_equal(dataset.y_post, y_post)

    def test_alpha_star_validation(self):
        with pytest.raises(SpecError):
            DgpSpec(family=DgpFamily.ROBUSTNESS, beta_star=1.0, n=100)
        with pytest.raises(SpecError):
            DgpSpec(family=DgpFamily.CASE_1_1, beta_star=1.0, n=100, alpha_star=1.0)
        for alpha_star in (np.nan, np.inf, -np.inf):
            with pytest.raises(SpecError, match="alpha_star must be finite"):
                DgpSpec(family=DgpFamily.ROBUSTNESS, beta_star=1.0, n=200, alpha_star=alpha_star)


def dense_oracle(spec, mc_size, seed):
    """One-shot reference for :func:`theta_star_oracle`: every draw is held
    at once, the weighted normal equations are solved for theta, and the ATT
    is averaged over the fitted curve."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    working = working_spec_for(spec.family)
    x = rng.uniform(0.0, 2.0, size=(mc_size, spec.n_covariates))
    e1 = 1.0 / (1.0 + np.exp(-true_logit(spec, x)))
    a = _effect_curve(spec, x)
    cols = [np.ones((mc_size, 1))] if working.include_intercept else []
    cols.append(x[:, list(working.selected)])
    Xw = np.hstack(cols)
    gram = Xw.T @ (e1[:, None] * Xw) / mc_size
    rhs = Xw.T @ (e1 * a) / mc_size
    theta = np.linalg.solve(gram, rhs)
    att = float((e1 * (Xw @ theta)).sum() / e1.sum())
    return theta, att


def fresh_block_oracle(spec, mc_size, seed, block):
    """Reference for the bits of :func:`theta_star_oracle`: its block loop
    with every block's arrays allocated afresh and drawn by ``uniform``, and
    the ATT's two sums, of e1 and of e1 x_j per working covariate."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    theta = theta_star_exact(spec)
    selected = working_spec_for(spec.family).selected
    ex, e_sum = np.zeros(len(selected)), 0.0
    for start in range(0, mc_size, block):
        x = rng.uniform(0.0, 2.0, size=(min(block, mc_size - start), spec.n_covariates))
        e1 = 1.0 / (1.0 + np.exp(-true_logit(spec, x)))
        e_sum += e1.sum()
        ex += [(x[:, col] * e1).sum() for col in selected]
    return theta, float((theta[0] * e_sum + ex @ theta[1:]) / e_sum)


FAMILY_SPECS = st.builds(
    lambda family, beta, alpha: DgpSpec(
        family=family, beta_star=beta, n=100,
        alpha_star=alpha if family is DgpFamily.ROBUSTNESS else None),
    st.sampled_from(list(DgpFamily)),
    st.sampled_from([0.1, 0.5, 1.0, 3.0]),
    st.sampled_from([0.0, 1.0, 3.0]),
)
B = simlab._ORACLE_BLOCK


class TestThetaStarOracle:
    @staticmethod
    def assert_matches_dense(spec, mc_size, seed):
        theta, att = theta_star_oracle(spec, mc_size=mc_size, seed=seed)
        _, ref_att = dense_oracle(spec, mc_size, seed)
        assert np.array_equal(theta, theta_star_exact(spec))
        np.testing.assert_allclose(att, ref_att, rtol=1e-12, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(FAMILY_SPECS, st.sampled_from([64, 1000, B - 1, B, B + 1, 3 * B + 7]),
           st.integers(0, 2**32 - 1))
    def test_blocked_matches_dense(self, spec, mc_size, seed):
        self.assert_matches_dense(spec, mc_size, seed)

    @pytest.mark.parametrize("block", [1, 3])
    @settings(max_examples=15, deadline=None)
    @given(spec=FAMILY_SPECS, mc_size=st.integers(64, 1000), seed=st.integers(0, 2**32 - 1))
    def test_small_blocks_match_dense(self, block, spec, mc_size, seed):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simlab, "_ORACLE_BLOCK", block)
            self.assert_matches_dense(spec, mc_size, seed)

    @pytest.mark.parametrize("block", [B, 1, 3])
    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=FAMILY_IDS)
    def test_bits_match_fresh_blocks(self, spec, block):
        # The reused buffers, the doubled ``random`` draws and the in-place
        # scores and products move no bit of theta or the ATT, also in a
        # short last block and with fewer draws than working coefficients.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simlab, "_ORACLE_BLOCK", block)
            for mc_size in sorted({1000, block - 1, block, block + 1, 3 * block + 7} - {0}):
                ref_theta, ref_att = fresh_block_oracle(spec, mc_size, mc_size, block)
                theta, att = theta_star_oracle(spec, mc_size=mc_size, seed=mc_size)
                assert np.array_equal(theta, ref_theta), mc_size
                assert att == ref_att, mc_size

    def test_generator_state_as_one_draw(self):
        spec = DgpSpec(family=DgpFamily.CASE_2_3, beta_star=1.0, n=100)
        mc_size = 2 * B + 5
        rng = np.random.default_rng(8)
        theta_star_oracle(spec, mc_size=mc_size, seed=rng)
        expected = np.random.default_rng(8)
        expected.uniform(0.0, 2.0, size=(mc_size, spec.n_covariates))
        assert rng.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("mc_size", [0, -5])
    def test_nonpositive_mc_size(self, mc_size):
        spec = DgpSpec(family=DgpFamily.CASE_1_1, beta_star=0.7, n=100)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(SpecError, match="mc_size"):
            theta_star_oracle(spec, mc_size=mc_size, seed=rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("spec", [
        DgpSpec(family=DgpFamily.ROBUSTNESS, beta_star=1.0, n=100, alpha_star=3.0),
        DgpSpec(family=DgpFamily.CASE_2_3, beta_star=1.0, n=100),
    ], ids=["robustness", "case-2-3"])
    def test_memory_bounded(self, spec):
        theta_star_oracle(spec)
        tracemalloc.start()
        try:
            theta_star_oracle(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_case11_identity(self):
        # The oracle's premise: a 10^6-draw solve of the weighted normal
        # equations returns theta_star_exact, to rounding, for every family.
        for spec in ALL_FAMILIES:
            theta, _ = dense_oracle(spec, 10**6, 0)
            np.testing.assert_allclose(theta, theta_star_exact(spec), rtol=0, atol=1e-10)

    def test_robustness_alpha_zero_att_matches_quadrature(self):
        spec = DgpSpec(family=DgpFamily.ROBUSTNESS, beta_star=1.0, n=100, alpha_star=0.0)
        theta, att = theta_star_oracle(spec, mc_size=10**6, seed=1)
        np.testing.assert_allclose(theta, [0.0, 1.0], atol=0.01)
        # att* = E[x1 | treated] = E[x1 sigmoid(-x1)] / E[sigmoid(-x1)], x2
        # integrated out; 1-d quadrature oracle.
        from scipy.integrate import quad

        num = quad(lambda x: x / (1 + np.exp(x)) / 2, 0, 2)[0]
        den = quad(lambda x: 1 / (1 + np.exp(x)) / 2, 0, 2)[0]
        assert att == pytest.approx(num / den, abs=0.01)


class TestOracles:
    def test_bias_term_zero_delta(self):
        X = np.hstack([np.ones((10, 1)), np.random.default_rng(0).normal(size=(10, 1))])
        d = np.arange(10) % 2 == 0
        value = bias_term(X, d, np.zeros(10), np.full(10, 0.5), np.zeros(2), np.zeros(2), True)
        assert value == 0.0

    def test_empirical_risk_trivials(self):
        X = np.array([[1.0, 0.5], [1.0, 1.5]])
        theta_star = np.array([1.0, 2.0])
        assert empirical_risk(theta_star, theta_star, X, np.ones(2)) == 0.0
        theta_hat = theta_star - np.array([1.0, 0.0])  # gap = (1, 1)
        assert empirical_risk(theta_hat, theta_star, X, np.ones(2)) == pytest.approx(2.0)

    def test_tp_fp(self):
        assert tp_fp((0,), (0,)) == {"tp": 1, "fp": 0}
        assert tp_fp((0, 2), (0, 1)) == {"tp": 1, "fp": 1}

    def test_penalty_tracks_oracle_and_qicw_underestimates(self):
        # Statistical unbiasedness spot check: the optimism estimate stays
        # within 15% of the Monte Carlo truth while the comparator penalty
        # sits below half of it.
        from cbdid.simlab import _rep_bias

        spec = DgpSpec(family=DgpFamily.CASE_1_1, beta_star=0.1, n=200)
        for mode in (PsMode.KNOWN, PsMode.MLE):
            rows = []
            for r in range(400):
                rng = np.random.default_rng(np.random.SeedSequence(21, spawn_key=(0, r)))
                rows.append(_rep_bias(spec, mode, Weighting.IDENTITY, rng))
            true = np.mean([x["true"] for x in rows])
            prop = np.mean([x["proposal"] for x in rows])
            qic = np.mean([x["qicw"] for x in rows])
            assert abs(prop - true) / abs(true) <= 0.15
            assert qic < 0.5 * true


class TestRunTable:
    def test_unknown_table(self):
        with pytest.raises(SpecError, match="valid"):
            run_table("no-such-table", reps=2)

    @pytest.mark.parametrize("reps, jobs", [(0, 1), (-3, 1), (2, 0)])
    def test_nonpositive_reps_or_jobs(self, reps, jobs):
        with pytest.raises(SpecError, match="at least 1"):
            run_table("bias-known", reps=reps, jobs=jobs)

    @staticmethod
    def assert_cell_keys(report, expected):
        keys = [cell["key"] for cell in report.to_json_dict()["cells"]]
        assert keys == expected
        for key in keys:
            assert list(key) == ["family", "beta", "alpha", "n"]

    def test_bias_known_shape(self):
        report = run_table("bias-known", reps=3, seed=1)
        # 2 cases x 4 betas x 3 sizes, in that order
        self.assert_cell_keys(report, [
            {"family": family, "beta": beta, "alpha": None, "n": n}
            for family in ("case-1-1", "case-1-2") for beta in (0.1, 0.5, 1.0, 3.0)
            for n in (200, 400, 600)
        ])
        for cell in report.cells:
            assert set(cell.stats) == {"true", "proposal", "qicw"}
            assert cell.reps_used == 3

    @pytest.mark.parametrize("table", sorted(TABLE_IDS))
    def test_parallel_bit_identical(self, table):
        a = run_table(table, reps=2, seed=7, jobs=1)
        b = run_table(table, reps=2, seed=7, jobs=2)
        assert a.to_json_dict() == b.to_json_dict()

    def test_blocks_hold_one_covariate_count(self):
        cells = TABLE_IDS["sel-known"].cells()
        blocks = _blocks(cells, 3)
        assert [unit for block in blocks for unit in block] == [
            (cell, rep) for cell in range(len(cells)) for rep in range(3)]
        assert all(len(block) <= _BLOCK_UNITS for block in blocks)
        for block in blocks:
            assert len({cells[cell].n_covariates for cell, _ in block}) == 1
        # Case 2-1 and 2-2 (four covariates) share blocks; Case 2-3 starts one.
        assert [len(block) for block in _blocks(cells, 1)] == [24, 12]

    def test_dump_raw(self):
        report = run_table("bias-known", reps=2, seed=3, dump_raw=True)
        assert report.cells[0].raw is not None
        assert len(report.cells[0].raw["proposal"]) == 2

    def test_att_table_smoke(self):
        report = run_table("att-comparison", reps=2, seed=5)
        # 4 betas x 2 alphas x 3 sizes, in that order
        self.assert_cell_keys(report, [
            {"family": "robustness", "beta": beta, "alpha": alpha, "n": n}
            for beta in (0.1, 0.5, 1.0, 3.0) for alpha in (1.0, 3.0) for n in (200, 400, 600)
        ])
        stats = report.cells[0].stats
        for key in ("true", "cbd-id_mean", "cbd-id_lo", "cbd-id_hi",
                    "cbd-opt_mean", "mle_mean"):
            assert key in stats

    def test_selection_table_smoke(self):
        report = run_table("sel-known", reps=2, seed=5)
        assert len(report.cells) == 36  # 3 cases x 4 betas x 3 sizes
        stats = report.cells[0].stats
        for key in ("proposal_risk", "proposal_tp", "proposal_fp",
                    "qicw_risk", "qicw_tp", "qicw_fp"):
            assert key in stats

    def test_att_estimator_failing_every_replication_reports_nan(self):
        values = [{"cbd-id": 1.0, "cbd-opt": np.nan, "mle": 2.0},
                  {"cbd-id": 2.0, "cbd-opt": np.nan, "mle": 3.0}]
        stats = _aggregate_att(values, 0.5)
        for key in ("cbd-opt_mean", "cbd-opt_lo", "cbd-opt_hi"):
            assert np.isnan(stats[key])
        assert stats["cbd-opt_failures"] == 2.0
        assert stats["cbd-id_mean"] == pytest.approx(1.5)
        assert stats["mle_failures"] == 0.0

    def test_att_failures_counted_once_per_replication(self, monkeypatch):
        real_fit_spec = simlab.fit_spec

        def cbd_fails(scores, spec):
            if scores.mode is PsMode.CBD:
                raise ConvergenceError("balance-moment fit did not converge")
            return real_fit_spec(scores, spec)

        monkeypatch.setattr(simlab, "fit_spec", cbd_fails)
        report = run_table("att-comparison", reps=1, seed=5, max_failure_rate=float("inf"))
        assert report.failure_rate == 1.0
        for cell in report.cells:
            assert cell.failures == ((0, "cbd-id, cbd-opt: fit failed"),)
            assert cell.stats["cbd-id_failures"] == cell.stats["cbd-opt_failures"] == 1.0
            assert cell.stats["mle_failures"] == 0.0


class TestAttReplication:
    def test_one_two_step_fit_per_replication(self, count_calls):
        # CBD identity is the pilot of each replication's optimal fit.
        calls = count_calls(propensity, "fit_cbd")
        run_table("att-comparison", reps=2, seed=0)
        assert len(calls) == 24 * 2
        assert all(kwargs["weighting"] is Weighting.OPTIMAL for _, kwargs in calls)

    def test_one_likelihood_fit_per_replication(self, count_calls):
        # The MLE estimator is the likelihood fit the CBD fit starts from.
        calls = count_calls(propensity, "fit_mle")
        run_table("att-comparison", reps=2, seed=0)
        assert len(calls) == 24 * 2

    @pytest.mark.parametrize("beta, alpha, n", [(0.1, 1.0, 200), (1.0, 3.0, 400),
                                                (3.0, 3.0, 600), (0.5, 1.0, 400)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mle_att_matches_the_raw_column_fit(self, beta, alpha, n, seed):
        # The warm start is fit in unit-RMS columns, so its ATT differs from
        # that of a likelihood fit in raw columns by rounding only.
        spec = DgpSpec(DgpFamily.ROBUSTNESS, beta, n, alpha)
        att = simlab._rep_att(spec, np.random.default_rng(seed))["mle"]
        dataset, _ = generate(spec, np.random.default_rng(seed))
        working = working_spec_for(spec.family)
        X_ps = design_matrix(dataset, ModelSpec(working.selected, include_intercept=True))
        scores = _scores_of(dataset, X_ps, propensity.fit_mle(X_ps, dataset.treated))
        np.testing.assert_allclose(att, fit_spec(scores, working).theta_fit.att,
                                   rtol=1e-12, atol=0)


class TestSelectionReplication:
    @pytest.mark.parametrize("weighting", [Weighting.IDENTITY, Weighting.OPTIMAL])
    def test_fixed_scores_fit_once_per_replication(self, count_calls, weighting):
        calls = count_calls(propensity, "fit_cbd")
        spec = DgpSpec(family=DgpFamily.CASE_2_1, beta_star=1.0, n=200)
        for rep in range(2):
            _rep_sel(spec, PsMode.CBD, weighting, np.random.default_rng(rep))
            assert len(calls) == rep + 1

    @pytest.mark.parametrize("mode", [PsMode.KNOWN, PsMode.MLE])
    def test_block_matches_each_replication_alone(self, monkeypatch, mode):
        # One unit draws a panel with no treated unit and raises, in its score
        # fit (MLE) or before its searches (known scores); the others mix
        # sizes and effects of the two four-covariate families.
        real_generate = simlab.generate

        def no_treated_at_n250(spec, rng):
            dataset, truth = real_generate(spec, rng)
            if spec.n == 250:
                dataset = dataclasses.replace(dataset, treated=np.zeros(spec.n, dtype=bool))
            return dataset, truth

        monkeypatch.setattr(simlab, "generate", no_treated_at_n250)
        specs = [DgpSpec(family, beta, n) for family, beta, n in (
            (DgpFamily.CASE_2_1, 0.5, 200), (DgpFamily.CASE_2_2, 3.0, 250),
            (DgpFamily.CASE_2_2, 1.0, 400), (DgpFamily.CASE_2_1, 0.1, 600))]

        def rng(r):
            return np.random.default_rng(np.random.SeedSequence(5, spawn_key=(4, r)))

        block = _sel_block([(spec, rng(r)) for r, spec in enumerate(specs)], mode,
                           Weighting.IDENTITY)
        for r, (spec, row) in enumerate(zip(specs, block, strict=True)):
            try:
                alone = _rep_sel(spec, mode, Weighting.IDENTITY, rng(r))
            except NumericalError as err:
                assert isinstance(row, NumericalError)
                assert f"{type(row).__name__}: {row}" == f"{type(err).__name__}: {err}"
                assert spec.n == 250
                continue
            assert row == alone
        assert sum(isinstance(row, NumericalError) for row in block) == 1
