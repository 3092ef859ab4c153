import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbdid import simlab
from cbdid.errors import DimensionError, PositivityError, RankError
from cbdid.estimator import att_summary, fit_theta, rho_weights
from cbdid.simlab import DgpFamily, DgpSpec, generate, theta_star_oracle, working_spec_for
from cbdid.data import design_matrix, delta as delta_of


class TestRhoWeights:
    def test_examples(self):
        e1 = np.array([0.5, 0.5, 0.8])
        d = np.array([True, False, False])
        np.testing.assert_allclose(rho_weights(e1, d), [2.0, -2.0, -5.0])

    def test_boundary_guard(self):
        with pytest.raises(PositivityError):
            rho_weights(np.array([1.0]), np.array([True]))


class TestFitTheta:
    def test_four_unit_hand_instance(self):
        # Intercept-only, e1 = 0.5 everywhere: rho*delta = (4, 6, -2, -8) and
        # theta is its plain mean = 0; worked by hand: rho = (2,2,-2,-2),
        # delta = (2,3,1,4) -> rho*delta = (4,6,-2,-8), mean 0.
        X = np.ones((4, 1))
        d = np.array([True, True, False, False])
        delta = np.array([2.0, 3.0, 1.0, 4.0])
        e1 = np.full(4, 0.5)
        fit = fit_theta(X, d, delta, e1)
        np.testing.assert_allclose(fit.theta, [0.0], atol=1e-12)
        np.testing.assert_allclose(fit.att, 0.0, atol=1e-12)
        np.testing.assert_allclose(fit.rho, [2, 2, -2, -2])

    def test_zero_delta(self):
        rng = np.random.default_rng(0)
        X = np.hstack([np.ones((10, 1)), rng.normal(size=(10, 2))])
        d = np.arange(10) % 2 == 0
        fit = fit_theta(X, d, np.zeros(10), np.full(10, 0.4))
        np.testing.assert_allclose(fit.theta, 0.0, atol=1e-12)
        assert fit.att == pytest.approx(0.0, abs=1e-12)

    def test_known_ps_consistency(self, monkeypatch):
        # Replicated known-score fits recover the population effect average.
        spec = DgpSpec(family=DgpFamily.ROBUSTNESS, beta_star=0.5, n=600, alpha_star=3.0)
        monkeypatch.setattr(simlab, "_ORACLE_DRAWS", 200000)
        _, att_star = theta_star_oracle(spec, np.random.default_rng(1))
        atts = []
        for r in range(200):
            rng = np.random.default_rng(np.random.SeedSequence(2, spawn_key=(r,)))
            ds, truth = generate(spec, rng)
            X = design_matrix(ds, working_spec_for(spec.family))
            fit = fit_theta(X, ds.treated, delta_of(ds), truth.e1_true)
            atts.append(fit.att)
        assert np.mean(atts) == pytest.approx(att_star, abs=0.02)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=20, max_value=120), st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=10**6))
    def test_normal_equation_residual(self, n, k, seed):
        # Intercept plus k uniform(0, 2) columns with n >= 4 (k + 1): well conditioned.
        rng = np.random.default_rng(seed)
        X = np.hstack([np.ones((n, 1)), rng.uniform(0, 2, size=(n, k))])
        d = np.arange(n) % 2 == 0
        fit = fit_theta(X, d, rng.normal(scale=3.0, size=n), rng.uniform(0.1, 0.9, size=n))
        assert fit.normal_eq_residual <= 1e-10

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        X = np.hstack([np.ones((30, 1)), rng.normal(size=(30, 2))])
        d = rng.random(30) < 0.5
        delta = rng.normal(size=30)
        e1 = rng.uniform(0.2, 0.8, size=30)
        base = fit_theta(X, d, delta, e1)
        scaled = fit_theta(X, d, 3.0 * delta, e1)
        np.testing.assert_allclose(scaled.theta, 3.0 * base.theta, atol=1e-10)
        assert scaled.att == pytest.approx(3.0 * base.att, abs=1e-10)

    def test_weight_scaling_leaves_wls_solution_unchanged(self):
        # The weighted solve given fixed rho*delta is invariant to a common
        # factor on the weights (it enters both sides of the normal equations).
        rng = np.random.default_rng(5)
        X = np.hstack([np.ones((40, 1)), rng.normal(size=(40, 2))])
        d = rng.random(40) < 0.5
        delta = rng.normal(size=40)
        e1 = rng.uniform(0.2, 0.8, size=40)
        y = rho_weights(e1, d) * delta
        for c in (1.0, 0.25, 7.0):
            w = c * e1
            A = np.sqrt(w)[:, None] * X
            theta = np.linalg.lstsq(A, np.sqrt(w) * y, rcond=None)[0]
            base = np.linalg.lstsq(np.sqrt(e1)[:, None] * X, np.sqrt(e1) * y, rcond=None)[0]
            np.testing.assert_allclose(theta, base, atol=1e-10)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(6)
        X = np.hstack([np.ones((25, 1)), rng.normal(size=(25, 2))])
        d = rng.random(25) < 0.5
        delta = rng.normal(size=25)
        e1 = rng.uniform(0.2, 0.8, size=25)
        perm = rng.permutation(25)
        a = fit_theta(X, d, delta, e1)
        b = fit_theta(X[perm], d[perm], delta[perm], e1[perm])
        np.testing.assert_allclose(a.theta, b.theta, atol=1e-10)
        assert a.att == pytest.approx(b.att, abs=1e-10)

    def test_collinear_design_names_column(self):
        X = np.hstack([np.ones((20, 1)), np.arange(20.0)[:, None]])
        X = np.hstack([X, X[:, 1:2]])  # duplicate column
        d = np.arange(20) % 2 == 0
        with pytest.raises(RankError):
            fit_theta(X, d, np.ones(20), np.full(20, 0.5),
                      column_names=("intercept", "a", "a_copy"))

    def test_fewer_rows_than_columns_names_the_columns_past_r(self):
        rng = np.random.default_rng(7)
        X = np.hstack([np.ones((4, 1)), rng.uniform(0, 2, size=(4, 6))])
        names = ("intercept", "x1", "x2", "x3", "x4", "x5", "x6")
        with pytest.raises(RankError, match=r"cond=inf.*\['x4', 'x5', 'x6'\]"):
            fit_theta(X, np.array([True, False, True, False]), rng.normal(size=4),
                      np.full(4, 0.5), column_names=names)

    def test_near_collinear_large_design_matches_qr(self):
        # The condition number lies above 1 / (eps * n), where a least-squares
        # cut-off of eps * max(n, p) drops the smallest singular value, and
        # below MAX_CONDITION, so the fit must keep it.
        n = 20_000
        rng = np.random.default_rng(0)
        z = rng.normal(size=n)
        X = np.column_stack([np.ones(n), z, z + 5e-12 * rng.normal(size=n)])
        d = np.arange(n) % 2 == 0
        delta = rng.normal(size=n)
        e1 = rng.uniform(0.2, 0.8, size=n)
        fit = fit_theta(X, d, delta, e1)
        assert 1.0 / (np.finfo(float).eps * n) < fit.condition_number < 1e12
        sw = np.sqrt(e1)
        Q, R = np.linalg.qr(sw[:, None] * X)
        reference = np.linalg.solve(R, Q.T @ (sw * rho_weights(e1, d) * delta))
        assert np.abs(reference[1:]).min() > 1e9
        np.testing.assert_allclose(fit.theta, reference, rtol=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            fit_theta(np.ones((3, 1)), np.array([True, False, True]),
                      np.zeros(2), np.full(3, 0.5))


class TestAttSummary:
    def test_constant(self):
        out = att_summary([2.5, 2.5, 2.5])
        assert out == {"mean": 2.5, "lower": 2.5, "upper": 2.5}

    def test_one_to_hundred(self):
        out = att_summary(np.arange(1.0, 101.0))
        assert out["mean"] == pytest.approx(50.5)
        assert out["lower"] == pytest.approx(3.475)
        assert out["upper"] == pytest.approx(97.525)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            att_summary([])
