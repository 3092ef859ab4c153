import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cbdid import propensity, selection
from cbdid.data import Dataset, ModelSpec, design_matrix, delta as delta_of
from cbdid.errors import (
    ConvergenceError,
    DegenerateGroupError,
    NumericalError,
    RankError,
    SpecError,
)
from cbdid.estimator import PsMode, fit_theta, rho_weights
from cbdid.propensity import Weighting
from cbdid.selection import (
    CriterionKind,
    PsConfig,
    ScoreFit,
    SpecFit,
    evaluate_criterion,
    fit_scores,
    fit_spec,
    forward_select,
    gof_unweighted,
    gof_weighted,
    penalty_cbd,
    penalty_known,
    penalty_mle,
    qicw_penalty,
    sigma_hat_sq,
)
from cbdid.simlab import DgpFamily, DgpSpec, generate


def config_for(mode, ds):
    """Score config for ``mode``; known scores follow the synthetic assignment rule."""
    if mode is PsMode.KNOWN:
        e1 = np.clip(1 / (1 + np.exp(ds.covariates[:, 0] - 1)), 0.05, 0.95)
        return PsConfig(mode=mode, e1_known=e1)
    return PsConfig(mode=mode)


def fit_on(ds, spec, config):
    """Effect fit of ``spec`` against scores fit on ``spec`` itself."""
    return fit_spec(fit_scores(ds, spec, config), spec)


def select(ds, candidates, kind, config):
    """Forward selection against scores fit on the full candidate design."""
    return forward_select(fit_scores(ds, ModelSpec(tuple(sorted(candidates))), config),
                          candidates, kind)


def synthetic(n=80, k=3, seed=0, beta=(1.0, 0.5, 0.0, 0.0)):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 2, size=(n, k))
    e = 1.0 / (1.0 + np.exp(x[:, 0] - 1.0))
    d = rng.random(n) < e
    gain = beta[0] + x @ np.asarray(beta[1 : k + 1])
    y0 = rng.normal(size=n)
    y1 = y0 + np.where(d, gain + rng.normal(size=n), rng.normal(size=n))
    return Dataset(
        covariates=x,
        treated=d,
        y_pre=y0,
        y_post=y1,
        covariate_names=tuple(f"x{j + 1}" for j in range(k)),
    )


def flat(ds):
    """``ds`` with every outcome change zero."""
    return Dataset(
        covariates=ds.covariates,
        treated=ds.treated,
        y_pre=ds.y_pre,
        y_post=ds.y_pre,
        covariate_names=ds.covariate_names,
    )


def known_fit(X, d, delta, e1, theta=None):
    """Known-score ``SpecFit`` of the effect model on ``X``, for a dataset
    whose outcome change is ``delta``.

    ``theta``, when given, replaces the fitted coefficients (with the fitted
    values and residuals that follow from it).
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    ds = Dataset(covariates=X, treated=d, y_pre=np.zeros(n), y_post=delta,
                 covariate_names=tuple(f"c{j}" for j in range(X.shape[1])))
    theta_fit = fit_theta(X, d, delta_of(ds), e1)
    if theta is not None:
        fitted = X @ theta
        theta_fit = dataclasses.replace(theta_fit, theta=theta, fitted=fitted,
                                        residuals=theta_fit.rho * delta - fitted)
    scores = ScoreFit(ds, PsMode.KNOWN, np.empty((n, 0)), theta_fit.e1, None)
    return SpecFit(spec=ModelSpec(()), X=X, scores=scores, theta_fit=theta_fit)


class TestGof:
    def test_weighted_hand_value(self):
        X = np.ones((3, 1))
        d = np.array([True, False, True])
        delta = np.array([1.0, 2.0, 3.0])
        e1 = np.full(3, 0.5)
        fit = known_fit(X, d, delta, e1, theta=np.array([1.0]))
        resid = rho_weights(e1, d) * delta - 1.0
        expected = float(np.sum(0.5 * resid**2))
        assert gof_weighted(fit) == pytest.approx(expected)

    def test_unweighted_constant_residuals(self):
        # residuals forced to (1,1,1): gof = 3
        X = np.ones((3, 1))
        d = np.array([True, False, True])
        e1 = np.full(3, 0.5)
        delta = np.array([1.0, -1.0, 1.0])  # rho*delta = (2, 2, 2)
        fit = known_fit(X, d, delta, e1, theta=np.array([1.0]))
        assert gof_unweighted(fit) == pytest.approx(3.0)

    def test_saturated_fit_zero(self):
        rng = np.random.default_rng(1)
        X = np.hstack([np.ones((2, 1)), rng.normal(size=(2, 1))])
        d = np.array([True, False])
        delta = rng.normal(size=2)
        e1 = np.array([0.4, 0.6])
        assert gof_weighted(known_fit(X, d, delta, e1)) == pytest.approx(0.0, abs=1e-18)


class TestSigmaHat:
    def test_hand_values(self):
        d = np.array([True, True, False, False])
        delta = np.array([0.0, 2.0, 1.0, 1.0])
        assert sigma_hat_sq(d, delta) == pytest.approx(1.0)

    def test_constant_delta(self):
        d = np.array([True, True, False, False])
        assert sigma_hat_sq(d, np.full(4, 3.3)) == pytest.approx(0.0)

    def test_degenerate_group(self):
        with pytest.raises(DegenerateGroupError):
            sigma_hat_sq(np.array([True, False, False]), np.zeros(3))

    def test_case11_population_value(self):
        # Within-group variances of the change: treated 1 + beta^2 var(x1 | treated),
        # control 1; at beta = 0.1 the sum is just above 2.
        spec = DgpSpec(family=DgpFamily.CASE_1_1, beta_star=0.1, n=100000)
        ds, _ = generate(spec, np.random.default_rng(7))
        assert sigma_hat_sq(ds.treated, delta_of(ds)) == pytest.approx(2.003, abs=0.05)


class TestQicw:
    def test_closed_form(self):
        d = np.array([True, True, False, False])
        delta = np.array([0.0, 2.0, 1.0, 1.0])  # sigma_hat^2 = 1
        assert qicw_penalty(d, delta, 2) == pytest.approx(2.0 * 1.0 * 2 * 0.5)

    def test_total_is_gof_plus_penalty(self):
        ds = synthetic()
        config = PsConfig(mode=PsMode.KNOWN, e1_known=np.full(ds.n, 0.4))
        fit = fit_on(ds, ModelSpec((0, 1)), config)
        value = evaluate_criterion(fit, CriterionKind.QICW)
        assert value.gof == pytest.approx(gof_unweighted(fit))
        assert value.penalty == pytest.approx(qicw_penalty(ds.treated, delta_of(ds), 3))


class TestPenalties:
    def test_known_zero_delta(self):
        ds = synthetic()
        X = design_matrix(ds, ModelSpec((0,)))
        zeros = np.zeros(ds.n)
        fit = known_fit(X, ds.treated, zeros, np.full(ds.n, 0.4))
        assert penalty_known(fit) == pytest.approx(0.0)

    def test_known_weight_power_variants_differ(self):
        ds = synthetic(seed=2)
        X = design_matrix(ds, ModelSpec((0, 1)))
        e1 = np.clip(1 / (1 + np.exp(ds.covariates[:, 0] - 1)), 0.05, 0.95)
        fit = known_fit(X, ds.treated, delta_of(ds), e1)
        p1 = penalty_known(fit, weight_power=1)
        p2 = penalty_known(fit, weight_power=2)
        assert p1 != pytest.approx(p2)

    def test_estimation_corrections_vanish_for_zero_delta(self):
        # With delta = 0 and theta = 0 the sensitivity matrix is zero, so the
        # corrected penalties reduce exactly to the uncorrected trace, the
        # value without an assignment model.
        ds = flat(synthetic(seed=3))
        for mode, pen in ((PsMode.CBD, penalty_cbd), (PsMode.MLE, penalty_mle)):
            fit = fit_on(ds, ModelSpec((0, 1, 2)), PsConfig(mode=mode))
            assert fit.scores.ps_fit is not None
            np.testing.assert_array_equal(fit.theta_fit.theta, 0.0)
            uncorrected = dataclasses.replace(
                fit, scores=dataclasses.replace(fit.scores, ps_fit=None))
            base = pen(uncorrected)
            corrected = pen(fit)
            assert corrected == pytest.approx(base, rel=1e-10)

    def test_row_permutation_invariance(self):
        ds = synthetic(seed=4, n=120)
        spec = ModelSpec((0, 1))
        perm = np.random.default_rng(5).permutation(ds.n)
        permuted = ds.take(perm)

        def value(dataset):
            return penalty_cbd(fit_on(dataset, spec, PsConfig(mode=PsMode.CBD)))

        assert value(ds) == pytest.approx(value(permuted), rel=1e-6)


def reference_corrected_penalty(fit):
    """``2 tr(L^-1 V'V/n)`` of an estimated-score fit, with its correction
    rows and map built here from the propensity moments: ``V_i = e1 r x +
    z_i A`` with ``z_i = (d - e1) x_ps``, ``A = I^-1 M'`` for a likelihood
    fit, and ``z_i = -K h_i``, ``A = M'`` for a GMM fit."""
    scores, X, theta_fit = fit.scores, fit.X, fit.theta_fit
    ds, X_ps, e1 = scores.dataset, scores.X_ps, scores.e1
    n, d, e0 = ds.n, ds.treated, 1.0 - scores.e1
    dlt = delta_of(ds)
    fitted = X @ theta_fit.theta
    resid = rho_weights(e1, d) * dlt - fitted
    w = e1 * e0 * ((d - 1.0) * dlt / e0**2 - fitted)
    M = np.einsum("i,ia,ij->aj", w, X, X_ps) / n
    if scores.mode is PsMode.MLE:
        Z = (d - e1)[:, None] * X_ps
        A = np.linalg.solve(np.einsum("i,ij,ik->jk", e1 * e0, X_ps, X_ps) / n, M.T)
    else:
        alpha, W = scores.ps_fit.model.alpha, scores.ps_fit.weight_matrix
        G = propensity.moment_jacobian(alpha, X_ps, d)
        K = np.linalg.solve(G.T @ W @ G, G.T @ W)
        Z = -propensity.moment_h(alpha, X_ps, d) @ K.T
        A = M.T
    V = (e1 * resid)[:, None] * X + Z @ A
    L = np.einsum("i,ia,ib->ab", e1, X, X) / n
    return 2.0 * np.trace(np.linalg.solve(L, V.T @ V / n))


class TestCorrectionReference:
    """The estimated-score penalties against a reference built from the
    propensity moments."""

    @pytest.mark.parametrize("intercept", [False, True])
    @pytest.mark.parametrize("mode, weighting, pen", [
        (PsMode.MLE, Weighting.IDENTITY, penalty_mle),
        (PsMode.CBD, Weighting.IDENTITY, penalty_cbd),
        (PsMode.CBD, Weighting.OPTIMAL, penalty_cbd),
    ])
    def test_penalty_matches_reference(self, mode, weighting, pen, intercept):
        scores = case23_scores(6, 400, mode, weighting, intercept)
        assert scores.ps_fit is not None
        fit = fit_spec(scores, ModelSpec((0, 2, 4)))
        assert pen(fit) == pytest.approx(reference_corrected_penalty(fit), rel=1e-12, abs=0)


def test_gmm_penalty_memory_bounded():
    # Six covariates: vech(x x') has 21 columns.  The correction's moment
    # Jacobian and rows -H K' are formed a block of rows at a time, so no
    # n x 21 matrix is built: the peak is set by the n x 7 influence rows
    # and their correction.
    scores = case23_scores(0, 60000, PsMode.CBD, Weighting.IDENTITY, False)
    assert scores.dataset.n > propensity._BLOCK
    fit = fit_spec(scores, ModelSpec(tuple(range(6))))
    tracemalloc.start()
    try:
        penalty_cbd(fit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * scores.dataset.n * 21 * fit.X.itemsize


class TestEvaluateCriterion:
    def test_zero_delta_intercept_only_known(self):
        ds = flat(synthetic(seed=6))
        config = PsConfig(mode=PsMode.KNOWN, e1_known=np.full(ds.n, 0.4))
        fit = fit_on(ds, ModelSpec(()), config)
        value = evaluate_criterion(fit, CriterionKind.PROPOSED)
        assert value.total == pytest.approx(0.0, abs=1e-20)

    def test_total_identity(self):
        ds = synthetic(seed=7)
        config = PsConfig(mode=PsMode.CBD)
        fit = fit_on(ds, ModelSpec((0, 1)), config)
        value = evaluate_criterion(fit, CriterionKind.PROPOSED)
        assert value.total == value.gof + value.penalty

    def test_overfit_spec_scores_worse_on_average(self):
        # Risk-unbiasedness consequence: across replications the criterion
        # total of the all-candidates spec exceeds the true spec's total.
        spec_true, spec_full = ModelSpec((0,)), ModelSpec((0, 1, 2, 3))
        gaps = []
        for r in range(150):
            rng = np.random.default_rng(np.random.SeedSequence(31, spawn_key=(r,)))
            ds, truth = generate(DgpSpec(family=DgpFamily.CASE_2_1, beta_star=1.0, n=300), rng)
            config = PsConfig(mode=PsMode.KNOWN, e1_known=truth.e1_true)
            t_true, t_full = (
                evaluate_criterion(fit_on(ds, spec, config), CriterionKind.PROPOSED)
                for spec in (spec_true, spec_full)
            )
            gaps.append(t_full.total - t_true.total)
        assert np.mean(gaps) > 0


class TestForwardSelect:
    def test_zero_delta_keeps_intercept_only(self):
        ds = flat(synthetic(seed=9))
        config = PsConfig(mode=PsMode.KNOWN, e1_known=np.full(ds.n, 0.4))
        result = select(ds, (0, 1, 2), CriterionKind.PROPOSED, config)
        assert result.final_spec.selected == ()

    def test_strictly_decreasing_path(self):
        for seed in range(5):
            ds = synthetic(seed=seed, n=200)
            config = PsConfig(mode=PsMode.CBD)
            result = select(ds, (0, 1, 2), CriterionKind.PROPOSED, config)
            totals = [v.total for _, v in result.path]
            assert all(b < a for a, b in zip(totals, totals[1:]))

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(list(PsMode)), st.permutations((0, 1, 2)),
           st.integers(min_value=0, max_value=10**6))
    @example(PsMode.KNOWN, (2, 0, 1), 11)
    def test_candidate_order_does_not_matter(self, mode, order, seed):
        ds = synthetic(seed=seed, n=200)
        config = config_for(mode, ds)

        def outcome(candidates):
            try:
                result = select(ds, candidates, CriterionKind.PROPOSED, config)
            except NumericalError as err:
                return type(err).__name__
            return set(result.final_spec.selected), [v.total for _, v in result.path]

        assert outcome(tuple(order)) == outcome((0, 1, 2))

    @pytest.mark.parametrize("mode, used", [
        (PsMode.KNOWN, "penalty_known"),
        (PsMode.MLE, "penalty_mle"),
        (PsMode.CBD, "penalty_cbd"),
    ])
    def test_score_mode_picks_the_penalty(self, count_calls, mode, used):
        # Every spec on the path is scored with the correction of its own
        # score mode: its exact value takes that mode's penalty alone, and
        # the path value agrees with it.
        ds = synthetic(seed=16, n=150)
        result = select(ds, (0, 1, 2), CriterionKind.PROPOSED, config_for(mode, ds))
        names = ("penalty_known", "penalty_mle", "penalty_cbd")
        calls = {name: count_calls(selection, name) for name in names}
        scores = fit_scores(ds, ModelSpec((0, 1, 2)), config_for(mode, ds))
        for _, value in result.path:
            exact = evaluate_criterion(fit_spec(scores, value.model_spec), CriterionKind.PROPOSED)
            assert value.penalty == pytest.approx(exact.penalty, rel=1e-9, abs=0)
        assert len(calls[used]) == len(result.path)
        assert {name for name, log in calls.items() if log} == {used}

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_gmm_correction_built_once_per_score_fit(self, count_calls, weighting):
        # Both criteria score every spec from the candidate design's moments
        # against the one fixed GMM fit, so its correction rows, and their
        # moment Jacobian, are built once however many specs they visit.
        ds = synthetic(seed=16, n=300)
        config = PsConfig(mode=PsMode.CBD, weighting=weighting)
        jacobians = count_calls(propensity, "moment_jacobian")
        scores = fit_scores(ds, ModelSpec((0, 1, 2)), config)
        results = [forward_select(scores, (0, 1, 2), kind) for kind in CriterionKind]
        # A path of two specs means a round scored every candidate.
        assert any(len(result.path) > 1 for result in results)
        assert len(jacobians) == 1

    def test_singular_candidate_skipped(self):
        # x1 drives the effect and x1_copy duplicates it: x1 enters first
        # (the tie goes to the lower index), and its copy is then fit and
        # skipped for rank loss.
        base = synthetic(seed=12, n=200, k=2, beta=(1.0, 2.0, 0.0))
        dup = Dataset(
            covariates=np.hstack([base.covariates, base.covariates[:, :1]]),
            treated=base.treated,
            y_pre=base.y_pre,
            y_post=base.y_post,
            covariate_names=("x1", "x2", "x1_copy"),
        )
        e1 = np.full(dup.n, 0.45)
        config = PsConfig(mode=PsMode.KNOWN, e1_known=e1)
        result = select(dup, (0, 2), CriterionKind.PROPOSED, config)
        assert result.final_spec.selected == (0,)
        [(idx, reason)] = result.skipped
        assert idx == 2
        assert re.fullmatch(r"RankError: weighted design is ill-conditioned \(cond=[^)]+\); "
                            r"suspect columns: \['x1_copy'\]", reason)

    def test_qicw_builds_no_correction_rows(self, count_calls):
        # qicw has no estimation-step correction, so its moments leave out
        # the penalty sums and the GMM rows -H K' they need; the proposed
        # criterion builds those rows once per call.
        ds = synthetic(seed=13, n=150)
        scores = fit_scores(ds, ModelSpec((0, 1, 2)), PsConfig(mode=PsMode.CBD))
        rows = count_calls(selection, "_correction_rows")
        forward_select(scores, (0, 1, 2), CriterionKind.QICW)
        assert len(rows) == 0
        forward_select(scores, (0, 1, 2), CriterionKind.PROPOSED)
        assert len(rows) == 1

    def test_unconverged_fixed_fit_raises(self, monkeypatch):
        ds = synthetic(seed=14, n=150)
        original = selection.fit_cbd

        def unconverged(*args, **kwargs):
            return dataclasses.replace(original(*args, **kwargs), converged=False)

        monkeypatch.setattr(selection, "fit_cbd", unconverged)
        with pytest.raises(ConvergenceError, match="did not converge"):
            select(ds, (0, 1, 2), CriterionKind.QICW, PsConfig(mode=PsMode.CBD))

    def test_full_design_fit_reused_from_cache(self, count_calls):
        ds = synthetic(seed=15, n=150)
        config = PsConfig(mode=PsMode.MLE)
        calls = count_calls(selection, "fit_mle")
        scores = fit_scores(ds, ModelSpec((0, 1, 2)), config)
        forward_select(scores, (0, 1, 2), CriterionKind.PROPOSED)
        forward_select(scores, (0, 1, 2), CriterionKind.QICW)
        assert len(calls) == 1


class TestScoreMode:
    @pytest.mark.parametrize("mode, pen", [
        (PsMode.KNOWN, penalty_mle),
        (PsMode.KNOWN, penalty_cbd),
        (PsMode.CBD, penalty_mle),
        (PsMode.MLE, penalty_cbd),
    ])
    def test_penalty_of_another_score_mode_raises(self, mode, pen):
        ds = synthetic(seed=20, n=150)
        fit = fit_on(ds, ModelSpec((0, 1)), config_for(mode, ds))
        with pytest.raises(SpecError, match=f"on {mode.value} scores"):
            pen(fit)

    @pytest.mark.parametrize("mode", list(PsMode))
    def test_criterion_reads_the_mode_from_the_fit(self, mode):
        # The proposed criterion's penalty is the penalty of the fit's own
        # score mode; nothing else is passed that could pick another one.
        ds = synthetic(seed=21, n=150)
        fit = fit_on(ds, ModelSpec((0, 1)), config_for(mode, ds))
        own = {
            PsMode.KNOWN: lambda f: penalty_known(f, weight_power=2),
            PsMode.MLE: penalty_mle,
            PsMode.CBD: penalty_cbd,
        }[mode]
        assert evaluate_criterion(fit, CriterionKind.PROPOSED).penalty == own(fit)


class TestSelectionInput:
    @pytest.mark.parametrize("bad", [
        np.nan, 0.0, 1.0, -0.2, np.inf,
    ])
    def test_known_scores_outside_the_open_interval_raise(self, bad):
        ds = synthetic(seed=22, n=60)
        e1 = np.full(ds.n, 0.4)
        e1[7] = bad
        with pytest.raises(SpecError, match="strictly inside"):
            fit_scores(ds, ModelSpec((0, 1)), PsConfig(mode=PsMode.KNOWN, e1_known=e1))

    @pytest.mark.parametrize("n", [59, 61])
    def test_known_scores_of_the_wrong_length_raise(self, n):
        ds = synthetic(seed=22, n=60)
        config = PsConfig(mode=PsMode.KNOWN, e1_known=np.full(n, 0.4))
        with pytest.raises(SpecError, match=r"shape \(%d,\), not \(60,\)" % n):
            fit_scores(ds, ModelSpec((0, 1)), config)

    @pytest.mark.parametrize("mode", list(PsMode))
    @pytest.mark.parametrize("candidates, message", [
        ((0, 9), "out of range"),
        ((0, -1), "negative"),
        ((1, 0, 1), "duplicate"),
        ((0.9, 1.5, 2.2), "must be integers"),
        ((0, True), "must be integers"),
        ((0, "1"), "must be integers"),
    ])
    def test_bad_candidates_raise_before_the_search(self, count_calls, mode, candidates,
                                                    message):
        ds = synthetic(seed=23, n=150)
        scores = fit_scores(ds, ModelSpec((0, 1, 2)), config_for(mode, ds))
        fits = count_calls(selection, "fit_spec")
        with pytest.raises(SpecError, match=message):
            forward_select(scores, candidates, CriterionKind.PROPOSED)
        assert fits == []

    @pytest.mark.parametrize("kind", list(CriterionKind))
    def test_no_treated_unit_raises_before_the_search(self, count_calls, kind):
        ds = synthetic(seed=23, n=150)
        none = dataclasses.replace(ds, treated=np.zeros(ds.n, dtype=bool))
        scores = fit_scores(none, ModelSpec((0, 1, 2)), config_for(PsMode.KNOWN, none))
        builds = count_calls(selection, "_build_moments")
        fits = count_calls(selection, "fit_spec")
        with pytest.raises(RankError, match="^no treated units: the effect on the treated "
                                            "is undefined$"):
            forward_select(scores, (0, 1, 2), kind)
        assert builds == [] and fits == []


#: Score fits the invariance property covers: (mode, weighting, ps_intercept).
INVARIANT_SCORE_FITS = [
    (mode, Weighting.IDENTITY, intercept)
    for mode in PsMode for intercept in (False, True)
] + [(PsMode.CBD, Weighting.OPTIMAL, False)]


def criterion_parts(ds, e1_true, spec, mode, weighting, intercept):
    config = PsConfig(mode=mode, weighting=weighting, ps_intercept=intercept,
                      e1_known=e1_true if mode is PsMode.KNOWN else None)
    value = evaluate_criterion(fit_on(ds, spec, config), CriterionKind.PROPOSED)
    return np.array([value.gof, value.penalty])


class TestCriterionInvariance:
    """The proposed criterion does not depend on row order or covariate units."""

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(INVARIANT_SCORE_FITS), st.integers(min_value=0, max_value=10**6),
           st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=4, max_size=4))
    def test_row_permutation_and_covariate_rescaling(self, score_fit, seed, log_scales):
        ds, truth = generate(DgpSpec(DgpFamily.CASE_2_2, 1.0, 300),
                             np.random.default_rng(seed))
        spec = ModelSpec((0, 1, 3))
        parts = criterion_parts(ds, truth.e1_true, spec, *score_fit)
        perm = np.random.default_rng(seed + 1000).permutation(ds.n)
        permuted = criterion_parts(ds.take(perm), truth.e1_true[perm], spec, *score_fit)
        np.testing.assert_allclose(permuted, parts, rtol=1e-8, atol=0)
        rescaled = dataclasses.replace(ds, covariates=ds.covariates * 10.0 ** np.array(log_scales))
        np.testing.assert_allclose(criterion_parts(rescaled, truth.e1_true, spec, *score_fit),
                                   parts, rtol=1e-8, atol=0)

    @pytest.mark.xfail(strict=True, reason="optimal weighting with a score intercept leaves "
                       "the GMM fit loosely pinned: two converged fits of permuted rows give "
                       "penalties about 9% apart")
    def test_optimal_weighting_with_score_intercept_is_loosely_pinned(self):
        ds, truth = generate(DgpSpec(DgpFamily.CASE_2_2, 1.0, 300), np.random.default_rng(1))
        spec, perm = ModelSpec((0, 1, 3)), np.random.default_rng(1001).permutation(ds.n)
        config = PsConfig(mode=PsMode.CBD, weighting=Weighting.OPTIMAL, ps_intercept=True)
        a, b = (fit_scores(data, spec, config) for data in (ds, ds.take(perm)))
        assert a.ps_fit.converged and b.ps_fit.converged
        parts = [evaluate_criterion(fit_spec(s, spec), CriterionKind.PROPOSED) for s in (a, b)]
        np.testing.assert_allclose([parts[1].gof, parts[1].penalty],
                                   [parts[0].gof, parts[0].penalty], rtol=1e-6, atol=0)


class TestSelectionInvariance:
    """``forward_select`` picks the same covariates whatever their order or units."""

    @pytest.mark.parametrize("family", [DgpFamily.CASE_2_1, DgpFamily.CASE_2_2,
                                        DgpFamily.CASE_2_3])
    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6), data=st.data())
    def test_covariate_permutation_and_rescaling(self, family, seed, data):
        spec = DgpSpec(family, 1.0, 300)
        ds, truth = generate(spec, np.random.default_rng(seed))
        k = spec.n_covariates
        order = data.draw(st.permutations(range(k)))
        log_scales = data.draw(st.lists(st.floats(min_value=-3.0, max_value=3.0),
                                        min_size=k, max_size=k))
        # Column j of the changed panel is column order[j] of ds, rescaled.
        changed = dataclasses.replace(
            ds, covariates=ds.covariates[:, order] * 10.0 ** np.array(log_scales),
            covariate_names=tuple(ds.covariate_names[j] for j in order))
        candidates = tuple(range(k))
        for mode in PsMode:
            config = PsConfig(mode=mode, e1_known=truth.e1_true if mode is PsMode.KNOWN else None)
            scores = [fit_scores(panel, ModelSpec(candidates), config) for panel in (ds, changed)]
            for kind in CriterionKind:
                before, after = (forward_select(s, candidates, kind).final_spec.selected
                                 for s in scores)
                assert {order[j] for j in after} == set(before), (mode, kind)


def reference_forward_select(scores, candidates, kind):
    """Forward selection with every visited spec fit by ``fit_spec`` and
    scored by ``evaluate_criterion``: the one-fit-per-spec loop that
    :func:`forward_select` replaced with scoring from moments."""
    candidates = sorted(int(c) for c in candidates)
    ModelSpec(tuple(candidates)).validate_for(scores.dataset)

    def evaluate(spec):
        fit = fit_spec(scores, spec)
        return fit, evaluate_criterion(fit, kind)

    fit, current = evaluate(ModelSpec((), include_intercept=True))
    path = [(None, current)]
    skipped = []
    remaining = list(candidates)
    while remaining:
        best = None
        for idx in remaining:
            try:
                cand_fit, value = evaluate(fit.spec.with_added(idx))
            except NumericalError as err:
                skipped.append((idx, f"{type(err).__name__}: {err}"))
                continue
            if best is None or value.total < best[0]:
                best = (value.total, idx, cand_fit, value)
        if best is None or best[0] >= current.total:
            break
        _, idx, fit, current = best
        path.append((idx, current))
        remaining.remove(idx)
    return selection.SelectionResult(path=tuple(path), final_spec=fit.spec,
                                     final_fit=fit.theta_fit, skipped=tuple(skipped))


def assert_matches_reference(scores, kind):
    """``forward_select`` on ``scores`` takes the reference's path, skips and
    final fit, and every value on its path is the exact value to 1e-9."""
    candidates = tuple(range(scores.dataset.n_covariates))
    expected = reference_forward_select(scores, candidates, kind)
    result = forward_select(scores, candidates, kind)
    assert [idx for idx, _ in result.path] == [idx for idx, _ in expected.path]
    assert result.final_spec == expected.final_spec
    assert result.skipped == expected.skipped
    np.testing.assert_array_equal(result.final_fit.theta, expected.final_fit.theta)
    for _, value in result.path:
        exact = evaluate_criterion(fit_spec(scores, value.model_spec), kind)
        np.testing.assert_allclose([value.gof, value.penalty], [exact.gof, exact.penalty],
                                   rtol=1e-9, atol=0)


#: Score fits the moment-path property covers: (mode, weighting, ps_intercept).
MOMENT_SCORE_FITS = [(PsMode.KNOWN, Weighting.IDENTITY, False)] + [
    (mode, weighting, intercept)
    for mode, weighting in ((PsMode.MLE, Weighting.IDENTITY), (PsMode.CBD, Weighting.IDENTITY),
                            (PsMode.CBD, Weighting.OPTIMAL))
    for intercept in (False, True)
]


def case23_scores(seed, n, mode, weighting, intercept, rescale=False):
    """Scores on a Case 2-3 panel's full design, its covariates optionally
    rescaled by 10^3 and 10^-3 in turn."""
    ds, truth = generate(DgpSpec(DgpFamily.CASE_2_3, 1.0, n), np.random.default_rng(seed))
    if rescale:
        ds = dataclasses.replace(ds, covariates=ds.covariates * 10.0 ** np.array([3, -3] * 3))
    config = PsConfig(mode=mode, weighting=weighting, ps_intercept=intercept,
                      e1_known=truth.e1_true if mode is PsMode.KNOWN else None)
    return fit_scores(ds, ModelSpec(tuple(range(ds.n_covariates))), config)


#: (case, criterion, error) of the score fits selection cannot score: see
#: :func:`error_case_scores`.
ERROR_CASES = [
    ("unconverged-mle", CriterionKind.PROPOSED, "ConvergenceError"),
    ("singular-fisher", CriterionKind.PROPOSED, "RankError"),
    ("singular-gmm", CriterionKind.PROPOSED, "RankError"),
    ("one-treated", CriterionKind.QICW, "DegenerateGroupError"),
    *(("no-treated", kind, "RankError") for kind in CriterionKind),
    *(("all-treated", kind, "PositivityError") for kind in CriterionKind),
]


def error_case_scores(case, monkeypatch):
    """Scores of one ``ERROR_CASES`` case: an MLE fit marked unconverged or
    with a zero Fisher information, a GMM fit whose moment Jacobian
    the correction rows see as zero (a singular G'WG), known scores on a panel
    with one or no treated unit, or the constant score of an all-treated
    panel."""
    if case in ("unconverged-mle", "singular-fisher"):
        scores = case23_scores(4, 200, PsMode.MLE, Weighting.IDENTITY, False)
        ps_fit = scores.ps_fit
        if case == "unconverged-mle":
            ps_fit = dataclasses.replace(ps_fit, converged=False)
        else:
            ps_fit = dataclasses.replace(
                ps_fit, fisher_information=np.zeros_like(ps_fit.fisher_information))
        return dataclasses.replace(scores, ps_fit=ps_fit)
    if case == "singular-gmm":
        original = propensity.moment_jacobian
        monkeypatch.setattr(propensity, "moment_jacobian",
                            lambda *args: np.zeros_like(original(*args)))
        return case23_scores(4, 200, PsMode.CBD, Weighting.IDENTITY, False)
    ds = synthetic(seed=24, n=60)
    treated = {"one-treated": np.arange(ds.n) == 5, "no-treated": np.zeros(ds.n, dtype=bool),
               "all-treated": np.ones(ds.n, dtype=bool)}[case]
    ds = dataclasses.replace(ds, treated=treated)
    if case == "all-treated":
        return fit_scores(ds, ModelSpec(()), PsConfig(mode=PsMode.MLE))
    return fit_scores(ds, ModelSpec((0, 1, 2)), config_for(PsMode.KNOWN, ds))


class TestMomentPath:
    """Selection scored from moments takes the exact path's decisions and values."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(MOMENT_SCORE_FITS), st.sampled_from(list(CriterionKind)),
           st.integers(min_value=0, max_value=10**6), st.integers(min_value=60, max_value=600),
           st.booleans())
    @example((PsMode.CBD, Weighting.IDENTITY, True), CriterionKind.PROPOSED, 3, 400, True)
    @example((PsMode.MLE, Weighting.IDENTITY, False), CriterionKind.QICW, 5, 60, True)
    def test_matches_exact_path(self, score_fit, kind, seed, n, rescale):
        try:
            scores = case23_scores(seed, n, *score_fit, rescale=rescale)
        except NumericalError:
            assume(False)
        assert_matches_reference(scores, kind)

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("score_fit", MOMENT_SCORE_FITS[::2])
    def test_block_size(self, monkeypatch, block, score_fit):
        monkeypatch.setattr(propensity, "_BLOCK", block)
        scores = case23_scores(2, 150, *score_fit)
        for kind in CriterionKind:
            assert_matches_reference(scores, kind)

    def test_unconverged_score_fit_fails_only_the_proposed_criterion(self):
        # The proposed penalty needs the correction rows of a converged fit,
        # so it raises; qicw needs no correction and still runs from moments.
        scores = case23_scores(4, 200, PsMode.MLE, Weighting.IDENTITY, False)
        stale = dataclasses.replace(scores, ps_fit=dataclasses.replace(scores.ps_fit,
                                                                       converged=False))
        with pytest.raises(ConvergenceError, match="requires a converged likelihood fit"):
            forward_select(stale, tuple(range(6)), CriterionKind.PROPOSED)
        assert_matches_reference(stale, CriterionKind.QICW)

    def test_single_treated_unit_raises_as_before(self):
        # qicw needs two units per group for its variance, before any spec.
        ds = synthetic(seed=24, n=60)
        one = dataclasses.replace(ds, treated=np.arange(ds.n) == 5)
        scores = fit_scores(one, ModelSpec((0, 1, 2)), config_for(PsMode.KNOWN, one))
        with pytest.raises(DegenerateGroupError, match="n1=1"):
            forward_select(scores, (0, 1, 2), CriterionKind.QICW)

    @pytest.mark.parametrize("case, kind, error", ERROR_CASES)
    def test_raises_what_the_exact_path_raises(self, monkeypatch, case, kind, error):
        scores = error_case_scores(case, monkeypatch)
        candidates = tuple(range(scores.dataset.n_covariates))
        raised = []
        for search in (reference_forward_select, forward_select):
            with pytest.raises(NumericalError) as info:
                search(scores, candidates, kind)
            raised.append(f"{type(info.value).__name__}: {info.value}")
        assert raised[0].startswith(f"{error}: ")
        assert raised[1] == raised[0]


def block_unit_scores(mode, beta, n, seed, near_constant=False):
    """Scores on a Case 2-3 panel's full design; ``near_constant`` swaps its
    last covariate for 1 + 1e-4 noise, whose Gram block with the intercept
    is too ill-conditioned for the moments, so the exact path scores it."""
    ds, truth = generate(DgpSpec(DgpFamily.CASE_2_3, beta, n), np.random.default_rng(seed))
    if near_constant:
        cov = ds.covariates.copy()
        cov[:, -1] = 1.0 + 1e-4 * np.random.default_rng(seed + 1).standard_normal(n)
        ds = dataclasses.replace(ds, covariates=cov)
    config = PsConfig(mode=mode, e1_known=truth.e1_true if mode is PsMode.KNOWN else None)
    return fit_scores(ds, ModelSpec(tuple(range(ds.n_covariates))), config)


def selection_alone(scores, candidates, kinds):
    """``forward_select`` under each of ``kinds`` in turn, or the failure
    string of the first that raises."""
    try:
        return [forward_select(scores, candidates, kind) for kind in kinds]
    except NumericalError as err:
        return f"{type(err).__name__}: {err}"


def path_bits(result):
    return [(idx, value.gof.hex(), value.penalty.hex(), value.kind, value.model_spec)
            for idx, value in result.path]


#: Score modes and criteria the block search property covers.
BLOCK_UNITS = st.lists(st.tuples(st.sampled_from([PsMode.KNOWN, PsMode.MLE, PsMode.CBD]),
                                 st.sampled_from([0.1, 0.5, 1.0, 3.0]),
                                 st.integers(min_value=60, max_value=400),
                                 st.integers(min_value=0, max_value=10**6)),
                       min_size=1, max_size=5)
KIND_SETS = [(CriterionKind.PROPOSED,), (CriterionKind.QICW,),
             (CriterionKind.PROPOSED, CriterionKind.QICW)]


class TestBlockSearch:
    """The searches of a block run together score as each would alone."""

    @settings(max_examples=25, deadline=None)
    @given(BLOCK_UNITS, st.sampled_from(KIND_SETS), st.data())
    def test_matches_forward_select_alone(self, units, kinds, data):
        scores = []
        for unit in units:
            try:
                scores.append(block_unit_scores(*unit))
            except NumericalError:
                continue
        # A unit whose candidate takes the exact path, one with no treated
        # unit, which raises under every criterion, and an unconverged
        # likelihood fit, which raises under the proposed criterion only.
        exact = block_unit_scores(PsMode.KNOWN, 1.0, 200, 7, near_constant=True)
        none = dataclasses.replace(exact.dataset, treated=np.zeros(200, dtype=bool))
        mle = block_unit_scores(PsMode.MLE, 1.0, 150, 8)
        stale = dataclasses.replace(mle, ps_fit=dataclasses.replace(mle.ps_fit, converged=False))
        for special in (exact, ScoreFit(none, PsMode.KNOWN, exact.X_ps, exact.e1, None), stale):
            scores.insert(data.draw(st.integers(0, len(scores))), special)
        candidates = tuple(range(6))
        evaluate = selection.evaluate_criterion
        exact_calls = []

        def counted(fit, kind):
            exact_calls.append(fit.spec)
            return evaluate(fit, kind)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selection, "evaluate_criterion", counted)
            outcomes = selection._select_block([(s, candidates) for s in scores], kinds)
        assert exact_calls
        for unit, outcome in zip(scores, outcomes, strict=True):
            expected = selection_alone(unit, candidates, kinds)
            if isinstance(expected, str):
                assert isinstance(outcome, NumericalError)
                assert f"{type(outcome).__name__}: {outcome}" == expected
                continue
            for result, alone in zip(outcome, expected, strict=True):
                assert path_bits(result) == path_bits(alone)
                assert result.skipped == alone.skipped
                assert result.final_spec == alone.final_spec
                np.testing.assert_array_equal(result.final_fit.theta, alone.final_fit.theta)
        failures = [f"{type(o).__name__}" for o in outcomes if isinstance(o, NumericalError)]
        assert failures.count("RankError") == 1
        assert failures.count("ConvergenceError") == int(CriterionKind.PROPOSED in kinds)
