import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cbdid import propensity
from cbdid.data import ModelSpec, _vech_indices, design_matrix
from cbdid.errors import DimensionError, SeparationError
from cbdid.propensity import (
    LogisticPropensity,
    MleFit,
    Weighting,
    fit_cbd,
    fit_mle,
    moment_h,
    moment_jacobian,
    predict_e1,
)
from cbdid.simlab import DgpFamily, DgpSpec, generate, working_spec_for


def logistic_sample(n, alpha, seed=0, p=None):
    rng = np.random.default_rng(seed)
    p = len(alpha) - 1 if p is None else p
    X = np.hstack([np.ones((n, 1)), rng.uniform(0, 2, size=(n, p))])
    e = 1.0 / (1.0 + np.exp(-X @ alpha))
    d = rng.random(n) < e
    return X, d


def gmm_objective(alpha, X, d, W):
    """Reference h_bar' W h_bar of the averaged balance moments."""
    hbar = moment_h(alpha, X, d).mean(axis=0)
    return float(hbar @ W @ hbar)


class TestPredict:
    def test_zero_alpha_gives_half(self):
        model = LogisticPropensity(np.zeros(3))
        X = np.random.default_rng(0).normal(size=(5, 3))
        np.testing.assert_allclose(predict_e1(model, X), 0.5)

    def test_cancelling_inner_product(self):
        model = LogisticPropensity(np.array([-1.0, 1.0]))
        np.testing.assert_allclose(predict_e1(model, np.array([[1.0, 1.0]])), [0.5])

    def test_sigmoid_two(self):
        model = LogisticPropensity(np.array([0.0, 1.0]))
        np.testing.assert_allclose(
            predict_e1(model, np.array([[1.0, 2.0]])), [0.8807970779778823], rtol=1e-12
        )

    def test_wrong_column_count_names_the_count(self):
        model = LogisticPropensity(np.zeros(2))
        with pytest.raises(DimensionError, match=r"^design has 3 columns, alpha has length 2$"):
            predict_e1(model, np.ones((5, 3)))
        with pytest.raises(DimensionError, match=r"must be a 2-d array, got shape \(3,\)"):
            predict_e1(model, np.ones(3))


class TestFitMle:
    def test_intercept_only_closed_form(self):
        rng = np.random.default_rng(2)
        n = 400
        d = rng.random(n) < 0.3
        X = np.ones((n, 1))
        fit = fit_mle(X, d)
        share = d.mean()
        np.testing.assert_allclose(fit.model.alpha, [np.log(share / (1 - share))], rtol=1e-8)
        assert fit.converged and fit.score_norm < 1e-8

    def test_consistency(self):
        X, d = logistic_sample(10000, np.array([0.0, -1.0]), seed=3)
        fit = fit_mle(X, d)
        np.testing.assert_allclose(fit.model.alpha, [0.0, -1.0], atol=0.1)

    def test_all_treated_raises(self):
        X = np.ones((5, 1))
        with pytest.raises(SeparationError):
            fit_mle(X, np.ones(5, dtype=bool))

    def test_perfect_separation_raises(self):
        X = np.column_stack([np.ones(20), np.arange(20.0)])
        d = np.arange(20) >= 10
        with pytest.raises(SeparationError):
            fit_mle(X, d)

    def test_score_at_the_returned_alpha_when_the_budget_runs_out(self):
        # Five Newton steps reach the optimum, and the fifth iteration ends
        # with a step: the reported score must be the one after that step.
        rng = np.random.default_rng(0)
        x = rng.normal(size=300)
        X = np.column_stack([np.ones(300), x])
        d = rng.random(300) < 1 / (1 + np.exp(-(0.3 - 0.8 * x)))
        fit = fit_mle(X, d, max_iter=5)
        np.testing.assert_array_equal(fit.model.alpha, fit_mle(X, d).model.alpha)
        scales = propensity._column_scales(X)
        e1 = predict_e1(fit.model, X)
        score = (X / scales).T @ (d - e1)
        assert fit.iterations == 5
        assert fit.score_norm == pytest.approx(np.max(np.abs(score)), rel=1e-6, abs=1e-14)
        assert fit.converged

    def test_fisher_information_matches_score_variance(self):
        alpha = np.array([0.2, -0.8])
        X, d = logistic_sample(100000, alpha, seed=4)
        fit = fit_mle(X, d)
        e = predict_e1(LogisticPropensity(alpha), X)
        scores = (d.astype(float) - e)[:, None] * X
        emp = scores.T @ scores / X.shape[0]
        rel = np.linalg.norm(fit.fisher_information - emp) / np.linalg.norm(emp)
        assert rel < 0.05


class TestMoments:
    def test_defining_formula_agreement(self):
        # Rows must match e1*(d/e1 - 1) x x' and e1*(d0/e0 - 1) x x' exactly.
        rng = np.random.default_rng(5)
        n, p = 40, 3
        X = rng.normal(size=(n, p))
        d = rng.random(n) < 0.4
        alpha = rng.normal(size=p)
        H = moment_h(alpha, X, d)
        e1 = predict_e1(LogisticPropensity(alpha), X)
        m = p * (p + 1) // 2
        for i in range(n):
            xx = np.outer(X[i], X[i])
            rows, cols = np.tril_indices(p)
            order = np.lexsort((rows, cols))
            tri = xx[rows[order], cols[order]]
            d1 = float(d[i])
            h1 = e1[i] * (d1 / e1[i] - 1.0) * tri
            h0 = e1[i] * ((1.0 - d1) / (1.0 - e1[i]) - 1.0) * tri
            np.testing.assert_allclose(H[i, :m], h1, atol=1e-12)
            np.testing.assert_allclose(H[i, m:], h0, atol=1e-12)

    def test_hand_example_p1(self):
        # p=1, x=1, treated, e1=0.5: treated block 0.5, control block -0.5
        H = moment_h(np.array([0.0]), np.array([[1.0]]), np.array([True]))
        np.testing.assert_allclose(H, [[0.5, -0.5]])

    def test_treated_block_vanishes_when_pinned(self):
        # e1 -> 1 makes d/e1 - 1 -> 0 for treated units
        H = moment_h(np.array([40.0]), np.array([[1.0]]), np.array([True]))
        assert abs(H[0, 0]) < 1e-9

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(20, 100))
            p = int(rng.integers(1, 5))
            X = rng.normal(size=(n, p))
            d = rng.random(n) < 0.5
            alpha = rng.normal(scale=0.8, size=p)
            G = moment_jacobian(alpha, X, d)
            Gfd = np.empty_like(G)
            for j in range(p):
                h = 1e-5 * (1 + abs(alpha[j]))
                e = np.zeros(p)
                e[j] = h
                Gfd[:, j] = (
                    moment_h(alpha + e, X, d).mean(axis=0)
                    - moment_h(alpha - e, X, d).mean(axis=0)
                ) / (2 * h)
            scale = max(np.max(np.abs(Gfd)), 1e-12)
            worst = max(worst, float(np.max(np.abs(G - Gfd)) / scale))
        assert worst < 1e-6

    @pytest.mark.parametrize("moments", [moment_h, moment_jacobian])
    def test_rows_of_x_and_d_must_agree(self, moments):
        X = np.ones((4, 2))
        with pytest.raises(DimensionError, match="disagree on the number of units"):
            moments(np.zeros(2), X, np.array([True, False, True]))

    @pytest.mark.parametrize("moments", [moment_h, moment_jacobian])
    def test_zero_rows(self, moments):
        with pytest.raises(DimensionError, match="at least one unit"):
            moments(np.zeros(2), np.ones((0, 2)), np.zeros(0, dtype=bool))

    def test_jacobian_saturated_treated_rows(self):
        # With e1 ~ 1 the treated-block derivative carries e1(1-e1) ~ 0.
        G = moment_jacobian(np.array([40.0]), np.array([[1.0]]), np.array([True]))
        assert abs(G[0, 0]) < 1e-9  # e1(1-e1) at the clip floor


class TestGmmObjective:
    def test_zero_moments(self):
        # Balanced two-unit design where the solution zeroes the moments.
        X = np.array([[1.0], [1.0]])
        d = np.array([True, False])
        val = gmm_objective(np.array([0.0]), X, d, np.eye(2))
        assert val == pytest.approx(0.0, abs=1e-30)

    def test_identity_weight_is_squared_norm(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 2))
        d = rng.random(30) < 0.5
        alpha = rng.normal(size=2)
        hbar = moment_h(alpha, X, d).mean(axis=0)
        np.testing.assert_allclose(
            gmm_objective(alpha, X, d, np.eye(6)), hbar @ hbar, rtol=1e-12
        )

    def test_solution_beats_grid(self):
        X, d = logistic_sample(200, np.array([0.0, -1.0]), seed=8)
        Xs = X[:, 1:]
        fit = fit_cbd(Xs, d)
        # Compare in raw coordinates under the realized weighting.
        at_solution = gmm_objective(fit.model.alpha, Xs, d, fit.weight_matrix)
        best_grid = min(
            gmm_objective(np.array([a]), Xs, d, fit.weight_matrix)
            for a in np.linspace(-5, 5, 401)
        )
        assert at_solution <= best_grid + 1e-12


class TestFitCbd:
    def test_consistency_under_correct_model(self):
        X, d = logistic_sample(5000, np.array([0.0, -1.0]), seed=9)
        cbd = fit_cbd(X, d)
        mle = fit_mle(X, d)
        np.testing.assert_allclose(cbd.model.alpha, [0.0, -1.0], atol=0.1)
        np.testing.assert_allclose(mle.model.alpha, [0.0, -1.0], atol=0.1)

    def test_first_order_condition_norm(self):
        X, d = logistic_sample(300, np.array([0.2, -0.5]), seed=10)
        fit = fit_cbd(X, d, tol=1e-8)
        assert fit.converged
        assert fit.foc_norm <= 1e-8

    def test_descent_from_init(self):
        X, d = logistic_sample(300, np.array([0.2, -0.5]), seed=11)
        fit = fit_cbd(X, d)
        assert fit.objective <= fit.objective_at_init + 1e-15

    def test_falls_back_to_start_point_when_minimizer_ends_worse(self, monkeypatch):
        X, d = logistic_sample(300, np.array([0.2, -0.5]), seed=11)

        def worse(X, xxv, df, W, alpha0, at, tol, max_iter):
            alpha = alpha0 + 1.0
            return alpha, 3, propensity._gmm_evaluate(alpha, X, xxv, df, W)

        monkeypatch.setattr(propensity, "_minimize_gmm", worse)
        fit = fit_cbd(X, d)
        np.testing.assert_array_equal(fit.model.alpha, fit.init)
        assert fit.objective == fit.objective_at_init
        # foc_norm is then the first-order condition at the start point, in
        # unit-RMS columns: the raw G' W h_bar divided by the column scales.
        hbar = moment_h(fit.init, X, d).mean(axis=0)
        foc_raw = moment_jacobian(fit.init, X, d).T @ (fit.weight_matrix @ hbar)
        foc = foc_raw / propensity._column_scales(X)
        assert fit.foc_norm == pytest.approx(np.max(np.abs(foc)), rel=1e-9)

    def test_capped_bfgs_run_is_reported_unconverged(self):
        # Three BFGS iterations stop short of tol, and the fit reports it.
        X, d = logistic_sample(400, np.array([0.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0]), seed=0)
        capped = fit_cbd(X[:, 1:], d, max_iter=3, tol=1e-8)
        assert capped.converged is False
        assert capped.iterations == 3
        assert capped.foc_norm > 1e-8

    @pytest.mark.xfail(strict=True, reason="the start-point fallback discards an optimal "
                       "fit that met its tolerance for an MLE start point with a lower "
                       "objective but a first-order condition above tol; ROADMAP item 4")
    def test_start_point_fallback_keeps_a_converged_optimal_fit(self):
        # att-comparison at seed 12, cell 16, replication 23: the optimal stage
        # stops at FOC 2.1e-9, but the MLE start point scores lower under the
        # same W (1.4288e-9 against 1.4807e-9) with FOC 1.08e-8, and is returned.
        spec = DgpSpec(DgpFamily.ROBUSTNESS, 1.0, 400, 3.0)
        rng = np.random.default_rng(np.random.SeedSequence(12, spawn_key=(0, 16, 23)))
        dataset, _ = generate(spec, rng)
        working = working_spec_for(spec.family)
        X = design_matrix(dataset, ModelSpec(working.selected, include_intercept=True))
        fit = fit_cbd(X, dataset.treated, weighting=Weighting.OPTIMAL)
        assert fit.converged

    @classmethod
    def assert_same_fit(cls, fit, reference):
        """Every field of ``fit`` equals ``reference``'s bit for bit, the
        fields of a nested fit (the warm start's ``MleFit``) included."""
        for field in dataclasses.fields(reference):
            a, b = getattr(fit, field.name), getattr(reference, field.name)
            if isinstance(b, LogisticPropensity):
                a, b = a.alpha, b.alpha
            if isinstance(b, MleFit):
                assert isinstance(a, MleFit), field.name
                cls.assert_same_fit(a, b)
            elif isinstance(b, np.ndarray):
                assert np.array_equal(a, b), field.name
            else:
                assert a == b, field.name

    @settings(max_examples=20, deadline=None)
    @given(st.booleans(), st.sampled_from([200, 3]), st.integers(min_value=0, max_value=10**6),
           st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=3, max_size=3))
    def test_optimal_pilot_is_the_identity_fit(self, intercept, max_iter, seed, alpha):
        X, d = logistic_sample(250, np.array(alpha), seed=seed)
        assume(0 < d.sum() < d.size)
        X = X if intercept else X[:, 1:]
        identity = fit_cbd(X, d, max_iter=max_iter)
        optimal = fit_cbd(X, d, weighting=Weighting.OPTIMAL, max_iter=max_iter)
        assert identity.pilot is None
        self.assert_same_fit(optimal.pilot, identity)

    @pytest.mark.parametrize("intercept", [True, False])
    def test_unconverged_first_stage_is_the_pilot(self, intercept):
        # Three BFGS iterations leave the identity stage short of tol.
        X, d = logistic_sample(250, np.array([0.2, -0.8, 0.5]), seed=1)
        X = X if intercept else X[:, 1:]
        identity = fit_cbd(X, d, max_iter=3)
        assert not identity.converged
        self.assert_same_fit(fit_cbd(X, d, weighting=Weighting.OPTIMAL, max_iter=3).pilot,
                             identity)

    @pytest.mark.parametrize("weighting", list(Weighting))
    @pytest.mark.parametrize("intercept", [True, False])
    @pytest.mark.parametrize("seed", [2, 5, 8])
    def test_warm_start_is_the_likelihood_fit(self, weighting, intercept, seed):
        X, d = logistic_sample(300, np.array([0.2, -0.8, 0.5]), seed=seed)
        X = X if intercept else X[:, 1:]
        X = X * np.array([1e-3, 1.0, 40.0])[: X.shape[1]]
        fit = fit_cbd(X, d, weighting=weighting)
        warm, mle = fit.warm_start, fit_mle(X, d)
        assert fit.init.tobytes() == warm.model.alpha.tobytes()
        np.testing.assert_allclose(predict_e1(warm.model, X), predict_e1(mle.model, X),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(warm.fisher_information, mle.fisher_information,
                                   rtol=1e-12, atol=0)
        assert warm.converged and warm.log_likelihood == pytest.approx(mle.log_likelihood,
                                                                       rel=1e-12)
        if weighting is Weighting.OPTIMAL:
            assert warm is fit.pilot.warm_start

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_no_warm_start_when_the_likelihood_fit_raises(self, monkeypatch, weighting):
        def separable(X, d):
            raise SeparationError("classes are separable")

        monkeypatch.setattr(propensity, "fit_mle", separable)
        X, d = logistic_sample(300, np.array([0.2, -0.8, 0.5]), seed=2)
        fit = fit_cbd(X, d, weighting=weighting)
        assert fit.warm_start is None
        assert not fit.init.any()

    @pytest.mark.parametrize("weighting", list(Weighting))
    @pytest.mark.parametrize("max_iter", [200, 3])
    def test_no_point_evaluated_twice(self, count_calls, weighting, max_iter):
        # The optimal stage starts where the first stage ended, and its start
        # point is the first stage's: both were evaluated there already.
        X, d = logistic_sample(400, np.array([0.0, -1.0, 1.0, 0.5]), seed=3)
        evaluations = count_calls(propensity, "_gmm_evaluate")
        fit = fit_cbd(X, d, weighting=weighting, max_iter=max_iter)
        points = [args[0].tobytes() for args, _ in evaluations]
        assert len(set(points)) == len(points) > fit.iterations

    def test_weight_matrix_shape_and_psd(self):
        X, d = logistic_sample(400, np.array([0.0, -1.0]), seed=12)
        fit = fit_cbd(X, d, weighting=Weighting.OPTIMAL)
        q = 2 * 3
        assert fit.weight_matrix.shape == (q, q)
        np.testing.assert_allclose(fit.weight_matrix, fit.weight_matrix.T, atol=1e-8)
        assert np.all(np.linalg.eigvalsh(fit.weight_matrix) > -1e-8)
        assert fit.converged

    def test_degenerate_weight_flagged_for_a_binary_covariate(self):
        # With x binary, vech(x x') holds x^2 = x and 1 * x = x twice, so the
        # moment covariance is singular.  The ridge keeps the optimal fit
        # going; the flag records it.  Identity weighting forms no covariance.
        n = 400
        rng = np.random.default_rng(0)
        x = (rng.random(n) < 0.5).astype(float)
        z = rng.uniform(0, 2, n)
        X = np.column_stack([np.ones(n), x, z])
        d = rng.random(n) < 1 / (1 + np.exp(-(0.3 - 0.8 * x + 0.5 * z)))
        optimal = fit_cbd(X, d, weighting=Weighting.OPTIMAL)
        assert optimal.degenerate_weight
        assert optimal.converged
        assert not fit_cbd(X, d, weighting=Weighting.IDENTITY).degenerate_weight

    def test_single_class_raises(self):
        with pytest.raises(SeparationError):
            fit_cbd(np.ones((1, 1)), np.array([True]))

    def test_row_permutation_invariance(self):
        X, d = logistic_sample(300, np.array([0.1, -0.7]), seed=13)
        perm = np.random.default_rng(14).permutation(300)
        a = fit_cbd(X, d).model.alpha
        b = fit_cbd(X[perm], d[perm]).model.alpha
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_matches_scalar_bisection_oracle(self):
        # p = 1: the first-order condition G(a)' h_bar(a) is scalar; bracket
        # and bisect it independently and compare against the fitted slope.
        X, d = logistic_sample(150, np.array([0.0, -1.0]), seed=16)
        Xs = X[:, 1:]
        fit = fit_cbd(Xs, d)
        W = fit.weight_matrix

        def foc(a):
            alpha = np.array([a])
            hbar = moment_h(alpha, Xs, d).mean(axis=0)
            return float((moment_jacobian(alpha, Xs, d).T @ (W @ hbar))[0])

        lo, hi = -5.0, 5.0
        assert foc(lo) * foc(hi) < 0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if foc(lo) * foc(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert fit.model.alpha[0] == pytest.approx(0.5 * (lo + hi), abs=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(list(Weighting)), st.booleans(),
           st.integers(min_value=0, max_value=10**6),
           st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=3, max_size=3))
    def test_reported_statistics_match_the_references(self, weighting, intercept, seed,
                                                      log_scales):
        X, d = logistic_sample(250, np.array([0.2, -0.8, 0.5]), seed=seed)
        X = X if intercept else X[:, 1:]
        X = X * 10.0 ** np.array(log_scales[: X.shape[1]])
        fit = fit_cbd(X, d, weighting=weighting)
        W = fit.weight_matrix
        assert fit.objective == pytest.approx(
            gmm_objective(fit.model.alpha, X, d, W), rel=1e-9, abs=0)
        assert fit.objective_at_init == pytest.approx(
            gmm_objective(fit.init, X, d, W), rel=1e-9, abs=0)
        H = moment_h(fit.model.alpha, X, d)
        hbar = H.mean(axis=0)
        # The column rescaling scales the moments by up to 1e12, so the
        # absolute tolerance is taken relative to the largest per-unit moment.
        np.testing.assert_allclose(fit.moment_residual, hbar, rtol=0,
                                   atol=1e-12 * np.max(np.abs(H)))
        assert fit.moment_residual_norm == pytest.approx(np.max(np.abs(hbar)))

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_one_design_expansion_and_no_reference_calls(self, weighting, count_calls):
        X, d = logistic_sample(300, np.array([0.2, -0.8, 0.5]), seed=17)
        expansions = count_calls(propensity, "_xx_vech")
        references = [count_calls(propensity, name)
                      for name in ("moment_h", "moment_jacobian")]
        fit_cbd(X, d, weighting=weighting)
        assert len(expansions) == 1
        assert [len(calls) for calls in references] == [0, 0]

    @pytest.mark.parametrize("weighting, bound", [(Weighting.IDENTITY, 2.25),
                                                  (Weighting.OPTIMAL, 2.5)])
    def test_memory_bounded(self, weighting, bound):
        # Six covariates: vech(x x') has 21 columns.  The fit holds that n x 21
        # matrix once, built in place after the warm start; the optimal
        # weighting's pilot moments are summed a block of rows at a time from
        # slices of it, so they add no n-row array.
        X, d = logistic_sample(20000, np.array([0.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0]), seed=18)
        X = X[:, 1:]
        fit_cbd(X, d, weighting=weighting)
        tracemalloc.start()
        try:
            fit_cbd(X, d, weighting=weighting)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * X.shape[0] * 21 * X.itemsize


class TestXxVech:
    """``_xx_vech`` fills its matrix in slices of ``_BLOCK`` rows; it must give
    ``X[:, r] * X[:, c]`` bit for bit and in the same memory layout."""

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 9000])
    def test_same_bits_and_layout_as_the_column_product(self, n):
        assert propensity._BLOCK == 4096  # the sizes straddle one and two slices
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 6))
        r, c = _vech_indices(6)
        reference = X[:, r] * X[:, c]
        xxv = propensity._xx_vech(X)
        assert xxv.flags.f_contiguous and reference.flags.f_contiguous
        np.testing.assert_array_equal(xxv.view(np.uint64), reference.view(np.uint64))
        # The solver's averaged moments: a row-major copy rounds differently.
        w = rng.normal(size=n)
        assert (xxv.T @ w).tobytes() == (reference.T @ w).tobytes()


def scipy_bfgs(X, xxv, df, W, alpha0, tol, max_iter):
    """The reference for ``_minimize_gmm``: ``scipy.optimize.minimize`` with
    BFGS on the same objective and gradient."""
    import scipy.optimize

    def value_and_grad(alpha):
        value, foc, _, _ = propensity._gmm_evaluate(alpha, X, xxv, df, W)
        return value, 2.0 * foc

    return scipy.optimize.minimize(value_and_grad, alpha0, jac=True, method="BFGS",
                                   options={"gtol": tol, "maxiter": max_iter})


class TestBfgsParity:
    """``_minimize_gmm`` repeats scipy's BFGS step for step: the same bytes of
    the solution, the same iteration count and the same objective."""

    @pytest.mark.parametrize("family", [DgpFamily.CASE_1_1, DgpFamily.CASE_2_1,
                                        DgpFamily.CASE_2_3, DgpFamily.ROBUSTNESS],
                             ids=lambda family: family.value)
    @pytest.mark.parametrize("n", [200, 600])
    @pytest.mark.parametrize("max_iter", [200, 3])
    def test_same_run_as_scipy(self, family, n, max_iter):
        spec = (DgpSpec(family, 1.0, n, 3.0) if family is DgpFamily.ROBUSTNESS
                else DgpSpec(family, 1.0, n))
        dataset, _ = generate(spec, np.random.default_rng(n))
        if family is DgpFamily.ROBUSTNESS:
            # The robustness design is fit with a score intercept.
            X = design_matrix(dataset, ModelSpec(working_spec_for(family).selected,
                                                 include_intercept=True))
        else:
            X = dataset.covariates
        d = dataset.treated
        scales = propensity._column_scales(X)
        Xs, df = X / scales, d.astype(float)
        xxv = propensity._xx_vech(Xs)
        alpha0 = fit_mle(Xs, d).model.alpha
        # The optimal W of a full fit, in the unit-RMS coordinates the solver uses.
        r, c = _vech_indices(X.shape[1])
        moment_scale = np.concatenate([scales[r] * scales[c]] * 2)
        optimal = fit_cbd(X, d, weighting=Weighting.OPTIMAL).weight_matrix
        for W in (np.eye(xxv.shape[1] * 2), optimal * np.outer(moment_scale, moment_scale)):
            start = propensity._gmm_evaluate(alpha0, Xs, xxv, df, W)
            alpha, nit, at = propensity._minimize_gmm(Xs, xxv, df, W, alpha0, start, 1e-8,
                                                      max_iter)
            res = scipy_bfgs(Xs, xxv, df, W, alpha0, 1e-8, max_iter)
            assert alpha.tobytes() == res.x.tobytes()
            assert nit == res.nit
            assert at[0] == res.fun
            # scipy's run met tol or spent its budget: it never fell back to
            # line_search_wolfe2, which the port does not have.
            assert res.success or nit == max_iter


def modules_after(code: str) -> set[str]:
    """Names in ``sys.modules`` of a fresh interpreter once it has run
    ``code`` with this checkout's package."""
    src = str(Path(propensity.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def scipy_modules(names: set[str]) -> set[str]:
    return {name for name in names if name == "scipy" or name.startswith("scipy.")}


class TestDeferredImport:
    """No scipy module loads at run time: not on ``import cbdid``, not in a
    score fit, a Monte Carlo table or a CLI call.  The GMM's own line search
    loads on the first GMM fit and the process pool on the first ``jobs > 1``
    run.  scipy stays a test-only reference."""

    def test_import_loads_no_scipy_and_no_process_pool(self):
        names = modules_after("import cbdid, cbdid.cli")
        assert scipy_modules(names) == set()
        assert "concurrent.futures.process" not in names
        assert "cbdid._linesearch" not in names

    @pytest.mark.parametrize("ps", ["known:e1", "cbd"])
    def test_estimate_loads_no_scipy(self, tmp_path, ps):
        out = tmp_path / "estimate.json"
        names = modules_after(
            "import numpy as np\n"
            "from cbdid import cli\n"
            "from cbdid.simlab import DgpFamily, DgpSpec, generate\n"
            "spec = DgpSpec(family=DgpFamily.CASE_2_1, beta_star=1.0, n=200)\n"
            "ds, truth = generate(spec, np.random.default_rng(0))\n"
            "table = np.column_stack([ds.treated, ds.y_pre, ds.y_post, ds.covariates,\n"
            "                         truth.e1_true])\n"
            f"path = {str(tmp_path / 'panel.csv')!r}\n"
            "np.savetxt(path, table, delimiter=',', comments='',\n"
            "           header='treat,ypre,ypost,x1,x2,x3,x4,e1')\n"
            "code = cli.main(['estimate', '--data', path, '--treat', 'treat', '--ypre', 'ypre',\n"
            f"                 '--ypost', 'ypost', '--covars', 'x1,x2,x3,x4', '--ps', {ps!r},\n"
            f"                 '--format', 'json', '--out', {str(out)!r}])\n"
            "assert code == 0, code")
        assert "att" in json.loads(out.read_text())
        assert scipy_modules(names) == set()

    @pytest.mark.parametrize("code", [
        "from cbdid.simlab import run_table\n"
        "run_table('bias-known', reps=1)",
        "import numpy as np\n"
        "from cbdid.propensity import fit_mle\n"
        "rng = np.random.default_rng(0)\n"
        "X = np.column_stack([np.ones(200), rng.uniform(0, 2, 200)])\n"
        "fit_mle(X, rng.random(200) < 0.5)",
        "import numpy as np\n"
        "from cbdid.propensity import fit_cbd\n"
        "rng = np.random.default_rng(0)\n"
        "X = np.column_stack([np.ones(200), rng.uniform(0, 2, 200)])\n"
        "fit_cbd(X, rng.random(200) < 0.5)",
        # Seed 0 has one failing replication by design.
        "from cbdid.simlab import run_table\n"
        "run_table('sel-cbd-opt', reps=1, max_failure_rate=1.0)",
    ], ids=["bias-known", "fit_mle", "fit_cbd", "sel-cbd-opt"])
    def test_fits_and_tables_load_no_scipy(self, code):
        assert scipy_modules(modules_after(code)) == set()


def assert_expit_is_scipys(z):
    from scipy.special import expit

    want, got = expit(z), propensity._expit(z)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def stacked_einsums(g, xxv, X):
    """Reference for ``_jacobian_sum``: one ``einsum`` per row of ``g``, stacked."""
    return np.vstack([np.einsum("n,nm,np->mp", gk, xxv, X) for gk in g])


class TestBitIdentity:
    """The propensity kernels that replaced a library call give its bytes; the
    Jacobian over ``_EINSUM_BUFFER`` rows, summed in another order on purpose,
    is as accurate as the call it replaced and leads to the same fits."""

    def test_expit_is_scipys(self):
        rng = np.random.default_rng(0)
        # -z <= 709 everywhere: numpy's complex exp.
        assert_expit_is_scipys(np.concatenate([np.linspace(-709.0, 745.2, 1_000_001),
                                               rng.normal(scale=10.0, size=100_000)]))
        # The whole range: some -z above 709, so every element takes math.exp.
        assert_expit_is_scipys(np.linspace(-745.2, 745.2, 200_001))
        # -z in (709, 709.79], where glibc's cexp rescales, up to exp's overflow.
        band = np.linspace(-709.79, -709.0, 20_001)[:-1]
        assert_expit_is_scipys(band)
        tiny = np.finfo(float).tiny
        special = [-709.0, 0.0, -0.0, 5e-324, -5e-324, tiny / 3, -tiny / 3, tiny, -tiny,
                   np.inf, -np.inf, np.nan, -np.nan, -709.79, -709.8, -745.2, -746.0]
        for value in special:
            assert_expit_is_scipys(np.array([value]))
            assert_expit_is_scipys(np.array([value, 1.5, -0.25]))
        assert_expit_is_scipys(np.array(special))
        assert_expit_is_scipys(np.array(special + [-np.nan]).reshape(3, 6))
        assert_expit_is_scipys(rng.normal(scale=5.0, size=(40, 25)))
        assert_expit_is_scipys(np.empty(0))
        assert_expit_is_scipys(np.empty((0, 3)))
        assert_expit_is_scipys(np.array(0.75))
        assert_expit_is_scipys(np.array(-800.0))

    @pytest.mark.parametrize("n", [2, 400, 4095, 4096, 4097, 8192])
    def test_jacobian_sum_is_the_stacked_einsums(self, n):
        assert n <= propensity._EINSUM_BUFFER
        rng = np.random.default_rng(n)
        for p in range(1, 8):
            for X in (rng.normal(size=(n, p)), np.asfortranarray(rng.normal(size=(n, p)))):
                xxv = propensity._xx_vech(X)
                g1, g0 = rng.normal(size=n), rng.normal(size=n)
                reference = stacked_einsums(np.vstack([g1, g0]), xxv, X)
                G = propensity._jacobian_sum(np.vstack([g1, g0]), xxv, X)
                assert G.shape == reference.shape
                assert G.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n", [8193, 50_000])
    def test_jacobian_sum_over_the_einsum_buffer_is_as_accurate_as_einsum(self, n):
        # Over the buffer the sum goes to BLAS in another order, so its bits
        # differ from einsum's; each entry must instead lie within 1e-15 of
        # the sum of its terms' magnitudes from the exact sum of its terms,
        # a bound the stacked einsums meet too.
        assert n > propensity._EINSUM_BUFFER
        rng = np.random.default_rng(n)
        for p in (1, 6):
            X = rng.normal(size=(n, p))
            xxv = propensity._xx_vech(X)
            g = rng.normal(size=(2, n))
            exact, magnitude = [], []
            for k in range(2):
                for j in range(xxv.shape[1]):
                    terms = (g[k] * xxv[:, j])[:, None] * X
                    exact.append([math.fsum(column) for column in terms.T.tolist()])
                    magnitude.append(np.abs(terms).sum(axis=0))
            exact, magnitude = np.array(exact), np.array(magnitude)
            for G in (propensity._jacobian_sum(g, xxv, X),
                      propensity._jacobian_sum(g, xxv, np.asfortranarray(X)),
                      stacked_einsums(g, xxv, X)):
                assert G.shape == exact.shape
                assert np.all(np.abs(G - exact) <= 1e-15 * magnitude)

    def test_fit_over_the_einsum_buffer_is_the_einsum_fit(self, monkeypatch):
        # A 9,000-row fit sums its Jacobian with BLAS; with the stacked
        # einsums in its place it takes the same number of BFGS iterations
        # and lands on the same score, to rounding for identity weighting and
        # within the optimal fits' loose pinning.
        dataset, _ = generate(DgpSpec(DgpFamily.CASE_2_3, 1.0, 9000), np.random.default_rng(9000))
        X, d = dataset.covariates, dataset.treated
        assert X.shape[0] > propensity._EINSUM_BUFFER
        kernel = propensity._jacobian_sum
        for weighting, rtol in ((Weighting.IDENTITY, 1e-12), (Weighting.OPTIMAL, 1e-6)):
            fit = fit_cbd(X, d, weighting=weighting)
            with monkeypatch.context() as patch:
                patch.setattr(propensity, "_jacobian_sum", lambda g, xxv, X: (
                    kernel(g, xxv, X) if X.shape[0] <= propensity._EINSUM_BUFFER
                    else stacked_einsums(g, xxv, X)))
                reference = fit_cbd(X, d, weighting=weighting)
            assert fit.converged and reference.converged
            assert fit.iterations == reference.iterations
            np.testing.assert_allclose(predict_e1(fit.model, X),
                                       predict_e1(reference.model, X), rtol=rtol, atol=0)

    def test_clip_is_np_clip(self):
        eps = propensity.EPS_CLIP
        e1 = np.concatenate([
            np.random.default_rng(0).random(1000),
            [0.0, -0.0, 1.0, eps, eps / 2, 1.0 - eps, 1.0 - eps / 2, np.nextafter(eps, 0.0),
             np.nextafter(1.0 - eps, 1.0), 5e-324, np.nan, -np.nan, np.inf, -np.inf]])
        reference = np.clip(e1, eps, 1.0 - eps)
        clipped = propensity._clip(e1.copy())
        assert clipped.tobytes() == reference.tobytes()


SCORE_FITS = {
    "mle": fit_mle,
    "cbd-identity": partial(fit_cbd, weighting=Weighting.IDENTITY),
    "cbd-optimal": partial(fit_cbd, weighting=Weighting.OPTIMAL),
}


class TestScoreInvariance:
    """Fitted scores do not depend on row order or on the units of the columns."""

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(sorted(SCORE_FITS)), st.booleans(),
           st.integers(min_value=0, max_value=10**6),
           st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=3, max_size=3))
    def test_row_permutation_and_column_rescaling(self, name, intercept, seed, log_scales):
        # Optimal weighting with an intercept column is excluded here; see
        # test_optimal_weighting_with_intercept_is_loosely_pinned.
        assume(not (intercept and name == "cbd-optimal"))
        fit = SCORE_FITS[name]
        X, d = logistic_sample(200, np.array([0.2, -0.8, 0.5]), seed=seed)
        X = X if intercept else X[:, 1:]
        e1 = predict_e1(fit(X, d).model, X)
        perm = np.random.default_rng(seed).permutation(d.size)
        permuted = predict_e1(fit(X[perm], d[perm]).model, X[perm])
        np.testing.assert_allclose(permuted, e1[perm], rtol=1e-10, atol=0)
        X_scaled = X * 10.0 ** np.array(log_scales[: X.shape[1]])
        rescaled = predict_e1(fit(X_scaled, d).model, X_scaled)
        np.testing.assert_allclose(rescaled, e1, rtol=1e-10, atol=0)

    @pytest.mark.xfail(strict=True, reason="with an intercept column the optimal-weighting "
                       "objective is so flat that fits meeting the first-order-condition "
                       "tolerance differ by about 2e-4 in e1 after a row permutation")
    def test_optimal_weighting_with_intercept_is_loosely_pinned(self):
        X, d = logistic_sample(200, np.array([0.2, -0.8, 0.5]), seed=0)
        fit = SCORE_FITS["cbd-optimal"]
        perm = np.random.default_rng(1000).permutation(d.size)
        a, b = fit(X, d), fit(X[perm], d[perm])
        assert a.converged and b.converged
        np.testing.assert_allclose(predict_e1(b.model, X[perm]), predict_e1(a.model, X)[perm],
                                   rtol=1e-6, atol=0)

    @pytest.mark.xfail(strict=True, reason="without an intercept column the optimal-weighting "
                       "fit can be pinned less tightly than the property's 1e-10: this example "
                       "of test_row_permutation_and_column_rescaling differs by 2.2e-10 in e1 "
                       "after a row permutation")
    def test_optimal_weighting_without_intercept_is_loosely_pinned(self):
        X, d = logistic_sample(200, np.array([0.2, -0.8, 0.5]), seed=4254)
        X = X[:, 1:]
        fit = SCORE_FITS["cbd-optimal"]
        e1 = predict_e1(fit(X, d).model, X)
        perm = np.random.default_rng(4254).permutation(d.size)
        permuted = predict_e1(fit(X[perm], d[perm]).model, X[perm])
        np.testing.assert_allclose(permuted, e1[perm], rtol=1e-10, atol=0)
