"""Logistic propensity models fit by maximum likelihood or moment balancing.

Two fitting routes are provided for the treatment-assignment model
``e1(x; alpha) = sigmoid(x' alpha)``:

* :func:`fit_mle` -- Newton-Raphson maximum likelihood.
* :func:`fit_cbd` -- GMM on second-order balance moments: the weighted
  cross-moment matrix of the covariates is matched between treatment and
  control groups.  Over-identification (q = p(p+1) moments for p parameters)
  means the moments are driven approximately, not exactly, to zero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import _vech_indices
from .errors import DimensionError, RankError, SeparationError

__all__ = [
    "EPS_CLIP",
    "LogisticPropensity",
    "MleFit",
    "CbdFit",
    "Weighting",
    "predict_e1",
    "fit_mle",
    "moment_h",
    "moment_jacobian",
    "fit_cbd",
]

# Probabilities are clamped away from {0, 1} so that 1/e1 and 1/e0 stay
# finite; clamped predictions are counted in the fit diagnostics.
EPS_CLIP = 1e-10

#: Score sup-norm, on the unit-RMS design, at which :func:`fit_mle` stops.
_MLE_TOL = 1e-8

#: Rows per block of the vech(x x') matrix and the balance and selection moments.
_BLOCK = 4096


@dataclass(frozen=True)
class LogisticPropensity:
    """Coefficients of the logistic treatment-assignment model."""

    alpha: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        if a.ndim != 1:
            raise DimensionError("alpha must be a vector")
        object.__setattr__(self, "alpha", a)

    @property
    def dimension(self) -> int:
        return self.alpha.size


def _expit(z: np.ndarray) -> np.ndarray:
    """``scipy.special.expit(z)``.  scipy is imported on the first call, so
    that ``import cbdid`` loads none of it."""
    from scipy.special import expit

    return expit(z)


def predict_e1(model: LogisticPropensity, X: np.ndarray) -> np.ndarray:
    """Treatment probabilities sigmoid(X @ alpha), clipped to the open unit interval."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionError(f"design must be a 2-d array, got shape {X.shape}")
    if X.shape[1] != model.dimension:
        raise DimensionError(
            f"design has {X.shape[1]} columns, alpha has length {model.dimension}"
        )
    return np.clip(_expit(X @ model.alpha), EPS_CLIP, 1.0 - EPS_CLIP)


def _check_two_groups(d: np.ndarray) -> np.ndarray:
    d = np.asarray(d).astype(bool)
    if d.all():
        raise SeparationError("all units are treated; both groups are required")
    if not d.any():
        raise SeparationError("no unit is treated; both groups are required")
    return d


def _log_likelihood(z: np.ndarray, d: np.ndarray) -> float:
    # log e1 = -log(1 + exp(-z)), log e0 = -log(1 + exp(z))
    return float(-np.sum(np.logaddexp(0.0, np.where(d, -z, z))))


@dataclass(frozen=True)
class MleFit:
    """Maximum-likelihood fit with score and curvature diagnostics."""

    model: LogisticPropensity
    score_norm: float
    fisher_information: np.ndarray
    iterations: int
    converged: bool
    log_likelihood: float


def _column_scales(X: np.ndarray) -> np.ndarray:
    """Root-mean-square column scales, floored away from zero.

    Fitting in unit-RMS columns keeps Newton/BFGS well conditioned and gives
    the absolute convergence tolerances a scale-free meaning; results are
    mapped back to the raw parameterization exactly.
    """
    s = np.sqrt(np.mean(X * X, axis=0))
    return np.where(s > 0, s, 1.0)


def fit_mle(X: np.ndarray, d: np.ndarray, max_iter: int = 100) -> MleFit:
    """Newton-Raphson logistic regression of d on X.

    Convergence means the score sum((d - e1) x), taken on the unit-RMS
    rescaled design, has sup-norm below ``_MLE_TOL``.  Raises
    :class:`SeparationError` when a group is missing or the classes are
    perfectly separable, and :class:`RankError` for a singular Hessian.
    """
    X_raw = np.asarray(X, dtype=float)
    d = _check_two_groups(d)
    n, p = X_raw.shape
    if d.shape != (n,):
        raise DimensionError("d must have one entry per design row")
    if np.linalg.matrix_rank(X_raw) < p:
        raise RankError("design matrix is rank deficient")
    scales = _column_scales(X_raw)
    X = X_raw / scales

    df = d.astype(float)
    alpha = np.zeros(p)
    ll = _log_likelihood(X @ alpha, d)
    score_norm = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        z = X @ alpha
        e1 = _expit(z)
        score = X.T @ (df - e1)
        score_norm = float(np.max(np.abs(score)))
        if score_norm < _MLE_TOL:
            break
        w = e1 * (1.0 - e1)
        hess = X.T @ (w[:, None] * X)
        try:
            step = np.linalg.solve(hess, score)
        except np.linalg.LinAlgError:
            raise RankError("singular Hessian in logistic fit") from None
        if score_norm < 1e-4:
            # Inside the quadratic basin the likelihood changes by less than
            # float resolution; take pure Newton steps.
            alpha = alpha + step
        else:
            # Backtracking keeps the likelihood non-decreasing.
            t = 1.0
            for _ in range(30):
                candidate = alpha + t * step
                ll_new = _log_likelihood(X @ candidate, d)
                if np.isfinite(ll_new) and ll_new >= ll:
                    break
                t *= 0.5
            alpha = alpha + t * step
        ll = _log_likelihood(X @ alpha, d)
        if not np.all(np.isfinite(alpha)):
            raise SeparationError("logistic fit diverged (perfect separation?)")
    else:
        # The budget ran out on a step: report the score at the returned alpha.
        score_norm = float(np.max(np.abs(X.T @ (df - _expit(X @ alpha)))))

    e1 = np.clip(_expit(X @ alpha), EPS_CLIP, 1.0 - EPS_CLIP)
    # Under separation the score also vanishes (perfect classification), so
    # convergence alone does not certify an interior maximum.
    pinned = np.all(e1[d] > 1.0 - 1e-6) and np.all(e1[~d] < 1e-6)
    if pinned or np.max(np.abs(alpha)) > 1e6:
        raise SeparationError(
            "probabilities pinned at the clip bounds: classes are separable"
        )
    alpha_raw = alpha / scales
    fisher = (X_raw.T @ ((e1 * (1.0 - e1))[:, None] * X_raw)) / n
    return MleFit(
        model=LogisticPropensity(alpha_raw),
        score_norm=score_norm,
        fisher_information=fisher,
        iterations=iterations,
        converged=score_norm < _MLE_TOL,
        log_likelihood=ll,
    )


def _row_slices(n: int):
    """Slices of ``_BLOCK`` consecutive rows covering ``range(n)``."""
    return (slice(start, min(start + _BLOCK, n)) for start in range(0, n, _BLOCK))


def _xx_vech(X: np.ndarray) -> np.ndarray:
    """n x p(p+1)/2 matrix whose row i is vech(x_i x_i').

    It is filled ``_BLOCK`` rows at a time, so the column gathers are never
    n rows long.  The matrix is column-major, as ``X[:, r] * X[:, c]`` is:
    products such as ``xxv.T @ w`` round differently on a row-major copy.
    """
    r, c = _vech_indices(X.shape[1])
    xxv = np.empty((X.shape[0], r.size), order="F")
    for rows in _row_slices(X.shape[0]):
        np.multiply(X[rows, r], X[rows, c], out=xxv[rows])
    return xxv


def _balance_weights(alpha, X, df):
    """Per-unit balance-moment weights (w1, w0) and Jacobian weights (g1, g0).

    Unit i adds w vech(x x') to a moment block and g vech(x x') x' to its
    Jacobian block; s = e1(x_i) is clipped at ``EPS_CLIP``, d s / d alpha = s (1 - s) x.
    """
    e1 = np.clip(_expit(X @ alpha), EPS_CLIP, 1.0 - EPS_CLIP)
    e0 = 1.0 - e1
    w1 = df - e1
    w0 = -(e1 / e0) * w1
    g1 = -(e1 * e0)
    g0 = -(e1 * (df - 2.0 * e1 + e1 * e1) / e0)
    return w1, w0, g1, g0


def _jacobian_sum(g1, g0, xxv, X):
    """Stack the summed treated-side and control-side Jacobian blocks."""
    return np.vstack([np.einsum("n,nm,np->mp", g, xxv, X) for g in (g1, g0)])


def _moment_rows(w1, w0, xxv):
    """Moment rows [w1 vech(x x'), w0 vech(x x')], written in place."""
    m = xxv.shape[1]
    H = np.empty((xxv.shape[0], 2 * m), order="F")
    np.multiply(w1[:, None], xxv, out=H[:, :m])
    np.multiply(w0[:, None], xxv, out=H[:, m:])
    return H


def _moment_blocks(alpha, X, d, xxv=None):
    """Yield ``(rows, moments, jacobian)`` per ``_BLOCK``-row block of ``X``: its
    slice of rows and functions of no arguments that form its moment rows H_b
    and the sum of its rows' q x p Jacobians.  The block's vech(x x') rows are
    sliced from ``xxv = _xx_vech(X)`` if given, else built by :func:`_xx_vech`."""
    X, df = np.asarray(X, dtype=float), np.asarray(d).astype(float)
    if X.shape[0] != df.shape[0]:
        raise DimensionError("X and d disagree on the number of units")
    if X.shape[0] == 0:
        raise DimensionError("balance moments need at least one unit")
    for rows in _row_slices(X.shape[0]):
        xb = _xx_vech(X[rows]) if xxv is None else xxv[rows]
        w1, w0, g1, g0 = _balance_weights(alpha, X[rows], df[rows])
        yield rows, partial(_moment_rows, w1, w0, xb), partial(_jacobian_sum, g1, g0, xb, X[rows])


def moment_h(alpha: np.ndarray, X: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per-unit balance moments, one row per unit, q = p(p+1) columns.

    Row i stacks vech of the treated-side and control-side balance matrices.
    With s = e1(x_i) those reduce to (d_i - s) vech(x x') and
    -(s / (1 - s)) (d_i - s) vech(x x').  Probabilities are clipped at
    ``EPS_CLIP`` before the control-side ratio is formed.
    """
    return np.vstack([moments() for _, moments, _ in _moment_blocks(alpha, X, d)])


def moment_jacobian(alpha: np.ndarray, X: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Analytic q x p Jacobian of the averaged balance moments.

    Uses d e1 / d alpha = e1 (1 - e1) x; matches central finite differences
    of the moment average to high relative accuracy.
    """
    return sum(jacobian() for _, _, jacobian in _moment_blocks(alpha, X, d)) / len(X)


def _alpha_influence(fit: MleFit | CbdFit, X: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Rows psi_i with alpha_hat - alpha ~ (1/n) sum psi_i for ``fit`` on the
    ``X`` and ``d`` it was fit to: ``I^-1 s_i`` for a likelihood fit, with
    s_i = (d_i - e1) x_i, and ``-K h_i`` for a GMM fit, with K = (G'WG)^-1 G'W,
    G from :func:`moment_jacobian` and the moment rows h_i made block by block."""
    if isinstance(fit, MleFit):
        score = (np.asarray(d).astype(float) - predict_e1(fit.model, X))[:, None] * X
        try:
            return np.linalg.solve(fit.fisher_information, score.T).T
        except np.linalg.LinAlgError:
            raise RankError("singular Fisher information in the optimism correction") from None
    alpha = fit.model.alpha
    G = moment_jacobian(alpha, X, d)
    GtW = G.T @ fit.weight_matrix
    try:
        K = np.linalg.solve(GtW @ G, GtW)
    except np.linalg.LinAlgError:
        raise RankError("G'WG is singular in the GMM optimism correction") from None
    rows = np.empty((len(X), K.shape[0]))
    for s, moments, _ in _moment_blocks(alpha, X, d):
        rows[s] = -(moments() @ K.T)
    return rows


class Weighting(enum.Enum):
    """GMM weighting matrix choice."""

    IDENTITY = "identity"
    OPTIMAL = "optimal"


@dataclass(frozen=True)
class CbdFit:
    """Balance-moment GMM solution and its diagnostics.

    The fit runs in unit-RMS columns (see :func:`_column_scales`), and the
    fields mix the two coordinate systems:

    * ``objective`` and ``objective_at_init`` are h_bar' W h_bar at the
      solution and at the start point, the same number in either system;
    * ``foc_norm`` is the sup-norm of G' W h_bar at the solution, taken in
      unit-RMS columns; convergence means it is at or below the requested
      tolerance;
    * ``iterations`` counts the BFGS iterations of both stages;
    * ``weight_matrix``, ``moment_residual`` (h_bar at the solution) and
      ``init`` (the start point) are in raw coordinates, like ``model``.
    """

    model: LogisticPropensity
    weighting: Weighting
    weight_matrix: np.ndarray
    moment_residual: np.ndarray
    moment_residual_norm: float
    foc_norm: float
    iterations: int
    converged: bool
    objective: float
    objective_at_init: float
    init: np.ndarray
    clipped: int
    degenerate_weight: bool = False


def _gmm_evaluate(alpha, X, xxv, df, W):
    """(h_bar' W h_bar, G' W h_bar, h_bar) of the averaged balance moments.

    ``xxv`` is ``_xx_vech(X)`` and ``df`` the treatment as 0/1 floats; all
    three are in the coordinates of ``X``.  The Jacobian G is formed only to
    compute the first-order condition G' W h_bar.
    """
    w1, w0, g1, g0 = _balance_weights(alpha, X, df)
    hbar = np.concatenate([xxv.T @ w1, xxv.T @ w0]) / X.shape[0]
    G = _jacobian_sum(g1, g0, xxv, X) / X.shape[0]
    Wh = W @ hbar
    return float(hbar @ Wh), G.T @ Wh, hbar


def _minimize_gmm(X, xxv, df, W, alpha0, tol, max_iter):
    """One BFGS run on h_bar' W h_bar from ``alpha0``.

    BFGS stops when the gradient 2 G' W h_bar is below ``tol`` in sup-norm
    or after ``max_iter`` iterations.  Returns the solution, the iteration
    count and the :func:`_gmm_evaluate` tuple at the solution.  A process
    that fits no GMM never loads ``scipy.optimize``, imported here.
    """
    import scipy.optimize

    def value_and_grad(alpha):
        value, foc, _ = _gmm_evaluate(alpha, X, xxv, df, W)
        return value, 2.0 * foc

    res = scipy.optimize.minimize(
        value_and_grad,
        alpha0,
        jac=True,
        method="BFGS",
        options={"gtol": tol, "maxiter": max_iter},
    )
    return res.x, int(res.nit), _gmm_evaluate(res.x, X, xxv, df, W)


def fit_cbd(
    X: np.ndarray,
    d: np.ndarray,
    weighting: Weighting = Weighting.IDENTITY,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> CbdFit:
    """Fit the propensity model by GMM on the second-order balance moments.

    Identity weighting minimizes the plain squared norm of the averaged
    moments from an MLE warm start (zeros if the MLE fails).  Optimal
    weighting is two-step: an identity-weighted pilot, then the inverse of
    the (ridge-stabilized) empirical moment covariance at the pilot, with
    ``degenerate_weight`` set when that covariance is near singular.  Each
    stage is one BFGS run (:func:`_minimize_gmm`); a run that stops short of
    ``tol`` leaves the fit unconverged.  The design is expanded to vech(x x')
    once; the covariance is summed over blocks of pilot moments sliced from
    it, so no n x q array is formed.
    The reported objective, first-order condition and moment residual are
    the solver's own evaluations (:func:`_gmm_evaluate`).  If the start
    point has the lower objective, the fit returns it instead.
    """
    X_raw = np.asarray(X, dtype=float)
    d = _check_two_groups(d)
    n, p = X_raw.shape
    if np.linalg.matrix_rank(X_raw) < p:
        raise RankError("design matrix is rank deficient")
    q = p * (p + 1)

    # Fit in unit-RMS columns; identical model, well-conditioned numerics.
    scales = _column_scales(X_raw)
    Xs = X_raw / scales
    df = d.astype(float)

    try:
        alpha0 = fit_mle(Xs, d).model.alpha
    except (SeparationError, RankError):
        alpha0 = np.zeros(p)
    # Built after the warm start, so that the two never hold memory at once.
    xxv = _xx_vech(Xs)

    W = np.eye(q)
    degenerate = False
    alpha, iterations, at = _minimize_gmm(Xs, xxv, df, W, alpha0, tol, max_iter)

    if weighting is Weighting.OPTIMAL:
        pilot = (moments() for _, moments, _ in _moment_blocks(alpha, Xs, df, xxv))
        omega = sum(H.T @ H for H in pilot) / n
        ridge = 1e-8 * np.trace(omega) / q
        cond = np.linalg.cond(omega)
        degenerate = bool(not np.isfinite(cond) or cond > 1e12)
        W = np.linalg.inv(omega + ridge * np.eye(q))
        W = 0.5 * (W + W.T)
        # Rescale to unit average diagonal: the argmin is unchanged and the
        # first-order-condition tolerance keeps an O(1) meaning.
        W = W / (np.trace(W) / q)
        alpha, extra, at = _minimize_gmm(Xs, xxv, df, W, alpha, tol, max_iter)
        iterations += extra

    at_init = _gmm_evaluate(alpha0, Xs, xxv, df, W)
    if at[0] > at_init[0]:
        # Keep the descent guarantee relative to the start point.
        alpha, at = alpha0, at_init
    objective, foc, hbar = at
    foc_norm = float(np.max(np.abs(foc)))

    # Map back to the raw parameterization.  A raw moment is the scaled one
    # times its scale s_i s_j from the column scaling (D = diag(moment_scale)),
    # so the weighting used, in raw moment coordinates, is D^-1 W D^-1;
    # downstream consumers combining it with raw moments and Jacobians
    # reproduce the scaled-space computation exactly.
    alpha_raw = alpha / scales
    r, c = _vech_indices(p)
    moment_scale = np.concatenate([scales[r] * scales[c]] * 2)
    W_raw = W / np.outer(moment_scale, moment_scale)
    hbar_raw = hbar * moment_scale
    e1_fit = _expit(X_raw @ alpha_raw)
    clipped = int(np.sum((e1_fit < EPS_CLIP) | (e1_fit > 1.0 - EPS_CLIP)))
    return CbdFit(
        model=LogisticPropensity(alpha_raw),
        weighting=weighting,
        weight_matrix=W_raw,
        moment_residual=hbar_raw,
        moment_residual_norm=float(np.max(np.abs(hbar_raw))),
        foc_norm=foc_norm,
        iterations=iterations,
        converged=foc_norm <= tol,
        objective=objective,
        objective_at_init=at_init[0],
        init=alpha0 / scales,
        clipped=clipped,
        degenerate_weight=degenerate,
    )
