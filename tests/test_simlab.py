import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbdid import propensity, simlab
from cbdid.data import design_matrix
from cbdid.errors import ConvergenceError, NumericalError, SpecError
from cbdid.estimator import PsMode
from cbdid.propensity import Weighting
from cbdid.simlab import (
    DgpFamily,
    DgpSpec,
    bias_term,
    empirical_risk,
    generate,
    run_table,
    theta_star_oracle,
    tp_fp,
    working_spec_for,
)
from cbdid.simlab import _aggregate_att, _effect_curve, _rep_sel, _true_logit


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
    at once and the ATT is averaged over the fitted curve."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    working = working_spec_for(spec.family)
    x = rng.uniform(0.0, 2.0, size=(mc_size, spec.n_covariates))
    e1 = 1.0 / (1.0 + np.exp(-_true_logit(spec, x)))
    a = _effect_curve(spec, x)
    cols = [np.ones((mc_size, 1))] if working.include_intercept else []
    cols.append(x[:, list(working.selected)])
    Xw = np.hstack(cols)
    gram = Xw.T @ (e1[:, None] * Xw) / mc_size
    rhs = Xw.T @ (e1 * a) / mc_size
    try:
        theta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise NumericalError("singular Monte Carlo Gram matrix; increase mc_size") from None
    att = float((e1 * (Xw @ theta)).sum() / e1.sum())
    return theta, att


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
        ref_theta, ref_att = dense_oracle(spec, mc_size, seed)
        np.testing.assert_allclose(theta, ref_theta, rtol=1e-12, atol=1e-12)
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
        spec = DgpSpec(family=DgpFamily.CASE_1_1, beta_star=0.7, n=100)
        theta, _ = theta_star_oracle(spec, mc_size=10**6, seed=0)
        np.testing.assert_allclose(theta, [1.0, 0.7], atol=0.01)

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

    def test_parallel_bit_identical(self):
        a = run_table("bias-known", reps=2, seed=7, jobs=1)
        b = run_table("bias-known", reps=2, seed=7, jobs=2)
        assert a.to_json_dict() == b.to_json_dict()

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


class TestSelectionReplication:
    @pytest.mark.parametrize("weighting", [Weighting.IDENTITY, Weighting.OPTIMAL])
    def test_fixed_scores_fit_once_per_replication(self, count_calls, weighting):
        calls = count_calls(propensity, "fit_cbd")
        spec = DgpSpec(family=DgpFamily.CASE_2_1, beta_star=1.0, n=200)
        for rep in range(2):
            _rep_sel(spec, PsMode.CBD, weighting, np.random.default_rng(rep))
            assert len(calls) == rep + 1
