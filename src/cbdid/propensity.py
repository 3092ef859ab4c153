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
import math
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

#: Elements per buffer of numpy's ``einsum`` iterator (its fixed NPY_BUFSIZE,
#: which ``np.setbufsize`` does not move), and the most rows whose Jacobian
#: :func:`_jacobian_sum` sums with ``einsum``: up to it the benchmark's
#: reference pins those bits, and over it the sum goes to BLAS a ``_BLOCK`` of
#: rows at a time, so that no n x p array is formed.
_EINSUM_BUFFER = 8192


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


#: Largest -z for which the real part of numpy's complex ``exp(-z + 0j)`` is
#: the C library's ``exp(-z)``: above it glibc's ``cexp`` rescales by exp(709).
_CEXP_EDGE = 709.0


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _expit(z: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-z)) of a float64 array, equal bit
    for bit to ``scipy.special.expit(z)`` without loading scipy.

    scipy forms 1 / (1 + exp(-z)) with the C library's ``exp``.  numpy's
    float64 ``exp`` is its own SIMD kernel and rounds some results
    differently, but the real part of its complex ``exp`` of -z + 0j is the C
    library's ``exp(-z)`` for every -z <= 709 (``_CEXP_EDGE``).  So the array
    takes that route when its minimum is at least -709; otherwise (some -z
    above 709, or a NaN) every element goes through ``math.exp``, with an
    overflow read as inf.
    """
    if z.size == 0 or z.min() >= -_CEXP_EDGE:
        e = np.exp(np.negative(z, dtype=complex)).real
    else:
        e = np.array([_exp_or_inf(-x) for x in z.flat]).reshape(z.shape)
    return 1.0 / (1.0 + e)


def _clip(e1: np.ndarray) -> np.ndarray:
    """``np.clip(e1, EPS_CLIP, 1 - EPS_CLIP)``, in place."""
    np.maximum(e1, EPS_CLIP, out=e1)
    return np.minimum(e1, 1.0 - EPS_CLIP, out=e1)


def predict_e1(model: LogisticPropensity, X: np.ndarray) -> np.ndarray:
    """Treatment probabilities sigmoid(X @ alpha), clipped to the open unit interval."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionError(f"design must be a 2-d array, got shape {X.shape}")
    if X.shape[1] != model.dimension:
        raise DimensionError(
            f"design has {X.shape[1]} columns, alpha has length {model.dimension}"
        )
    return _clip(_expit(X @ model.alpha))


def _check_two_groups(d: np.ndarray) -> np.ndarray:
    d = np.asarray(d).astype(bool)
    if d.all():
        raise SeparationError("all units are treated; both groups are required")
    if not d.any():
        raise SeparationError("no unit is treated; both groups are required")
    return d


def _log_likelihood(z: np.ndarray, sign: np.ndarray) -> float:
    """Bernoulli log-likelihood at logits z; ``sign`` is -1 for a treated
    unit and +1 for a control: log e1 = -log(1 + exp(-z)) and
    log e0 = -log(1 + exp(z))."""
    return -float(np.add.reduce(np.logaddexp(0.0, z * sign)))


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
    sign = np.where(d, -1.0, 1.0)
    alpha = np.zeros(p)
    ll = _log_likelihood(X @ alpha, sign)
    score_norm = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        e1 = _expit(X @ alpha)
        score = X.T @ (df - e1)
        score_norm = float(np.abs(score).max())
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
            ll = _log_likelihood(X @ alpha, sign)
        else:
            # Backtracking keeps the likelihood non-decreasing.
            t = 1.0
            for _ in range(30):
                candidate = alpha + t * step
                ll_new = _log_likelihood(X @ candidate, sign)
                if math.isfinite(ll_new) and ll_new >= ll:
                    alpha, ll = candidate, ll_new
                    break
                t *= 0.5
            else:
                # No halving was accepted: take the step halved 30 times.
                alpha = alpha + t * step
                ll = _log_likelihood(X @ alpha, sign)
        if not np.isfinite(alpha).all():
            raise SeparationError("logistic fit diverged (perfect separation?)")
    else:
        # The budget ran out on a step: report the score at the returned alpha.
        e1 = _expit(X @ alpha)
        score_norm = float(np.abs(X.T @ (df - e1)).max())

    # e1 is at the returned alpha on either exit from the loop.
    e1 = _clip(e1)
    # Under separation the score also vanishes (perfect classification), so
    # convergence alone does not certify an interior maximum.
    pinned = np.all(e1[d] > 1.0 - 1e-6) and np.all(e1[~d] < 1e-6)
    if pinned or np.abs(alpha).max() > 1e6:
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
    """Per-unit balance-moment weights (w1, w0) and Jacobian weights g, whose
    two rows are the treated and control sides (g1, g0).

    Unit i adds w vech(x x') to a moment block and g vech(x x') x' to its
    Jacobian block; s = e1(x_i) is clipped at ``EPS_CLIP``, d s / d alpha = s (1 - s) x.
    """
    e1 = _clip(_expit(X @ alpha))
    # e1 - 1 is -(1 - e1) to the bit, so dividing or multiplying by it
    # carries the minus signs of w0, g1 and g0.
    em = e1 - 1.0
    w1 = df - e1
    w0 = (e1 / em) * w1
    g = np.empty((2, e1.size))
    np.multiply(e1, em, out=g[0])
    np.divide(e1 * (df - 2.0 * e1 + e1 * e1), em, out=g[1])
    return w1, w0, g


def _jacobian_sum(g, xxv, X):
    """The summed treated-side Jacobian block stacked on the control-side one,
    from the (2, n) weights ``g`` of :func:`_balance_weights`.

    The number of rows n picks the kernel.  While n fits one ``_EINSUM_BUFFER``,
    ``einsum`` sums the rows in order from zero whatever the layout of ``X``
    (a column-major ``X`` is faster): the bits the benchmark's reference pins.
    Over it, BLAS sums ``xxv.T @ (g x)`` one ``_BLOCK`` of rows at a time, so
    the weighted block stays in cache and no n x p array is formed: eight
    times sooner at 50,000 x 6 and as accurate as ``einsum``.
    """
    n, m, p = X.shape[0], xxv.shape[1], X.shape[1]
    if n <= _EINSUM_BUFFER:
        G = np.empty((2, m, p))
        np.einsum("kn,nm,np->kmp", g, xxv, np.asfortranarray(X), out=G)
    else:
        G = np.zeros((2, m, p))
        for rows in _row_slices(n):
            G += xxv[rows].T @ (g[:, rows, None] * X[rows])
    return G.reshape(2 * m, p)


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
        w1, w0, g = _balance_weights(alpha, X[rows], df[rows])
        yield rows, partial(_moment_rows, w1, w0, xb), partial(_jacobian_sum, g, xb, X[rows])


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


def _alpha_influence(fit: MleFit | CbdFit, X: np.ndarray, d: np.ndarray,
                     e1: np.ndarray) -> np.ndarray:
    """Rows psi_i with alpha_hat - alpha ~ (1/n) sum psi_i for ``fit`` on the
    ``X`` and ``d`` it was fit to, where ``e1`` is ``predict_e1(fit.model, X)``:
    ``I^-1 s_i`` for a likelihood fit, with s_i = (d_i - e1) x_i, and
    ``-K h_i`` for a GMM fit, with K = (G'WG)^-1 G'W, G from
    :func:`moment_jacobian` and the moment rows h_i made block by block."""
    if isinstance(fit, MleFit):
        score = (np.asarray(d).astype(float) - e1)[:, None] * X
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
    * ``iterations`` counts the iterations of both stages' BFGS runs
      (:func:`_minimize_gmm`, scipy's BFGS and strong-Wolfe line search
      repeated in-house);
    * ``weight_matrix``, ``moment_residual`` (h_bar at the solution) and
      ``init`` (the start point) are in raw coordinates, like ``model``;
    * ``pilot`` is, for an optimal-weighted fit, its first stage: the fit
      ``fit_cbd(X, d)`` returns with identity weighting, field for field and
      bit for bit.  An identity-weighted fit has no pilot (``None``);
    * ``warm_start`` is the likelihood fit behind the start point, made in
      unit-RMS columns and mapped to raw ones: its ``model.alpha`` is
      ``init`` bit for bit and its Fisher information is the unit-RMS one
      times s_i s_j.  It is ``None`` when that fit raised and the GMM
      started from zeros.
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
    pilot: CbdFit | None = None
    warm_start: MleFit | None = None


def _gmm_evaluate(alpha, X, xxv, df, W):
    """(h_bar' W h_bar, G' W h_bar, h_bar, G) of the averaged balance moments.

    ``xxv`` is ``_xx_vech(X)`` and ``df`` the treatment as 0/1 floats; all
    are in the coordinates of ``X``.  h_bar and G do not depend on ``W``, so
    :func:`_reweigh` gives the tuple under another weight matrix without a
    new evaluation.
    """
    w1, w0, g = _balance_weights(alpha, X, df)
    n, m = xxv.shape
    hbar = np.empty(2 * m)
    np.matmul(xxv.T, w1, out=hbar[:m])
    np.matmul(xxv.T, w0, out=hbar[m:])
    hbar /= n
    G = _jacobian_sum(g, xxv, X)
    G /= n
    return _reweigh((None, None, hbar, G), W)


def _reweigh(at, W):
    """The :func:`_gmm_evaluate` tuple ``at`` under the weight matrix ``W``:
    only its h_bar and G are read."""
    _, _, hbar, G = at
    Wh = W @ hbar
    return float(hbar @ Wh), G.T @ Wh, hbar, G


def _minimize_gmm(X, xxv, df, W, alpha0, at, tol, max_iter):
    """One BFGS run on h_bar' W h_bar from ``alpha0``, with gradient 2 G' W h_bar;
    ``at`` is the :func:`_gmm_evaluate` tuple at ``alpha0`` under ``W``.

    The loop is scipy 1.17.1's ``minimize(method="BFGS", jac=True)``
    operation for operation, so its iterates are scipy's bit for bit: the
    first step extrapolated from f + |g|_2 / 2, the inverse-Hessian update
    built on an integer identity, and the strong-Wolfe line search of
    :mod:`._linesearch` with scipy's settings.  The run stops when the
    gradient's sup-norm is at or below ``tol``, after ``max_iter``
    iterations, or when a line search finds no step, which leaves it at the
    last iterate.  Each trial point is evaluated once.  Returns the solution,
    the iteration count and the :func:`_gmm_evaluate` tuple at the solution.
    """
    # Imported on the first GMM fit, so that ``import cbdid`` neither loads
    # nor, without cached bytecode, compiles the line search.
    from ._linesearch import wolfe_search

    xk, fk, gk = alpha0, at[0], 2.0 * at[1]
    eye = np.eye(len(xk), dtype=int)
    Hk = eye
    # The first trial step is then about 1 in alpha.
    old_fk = fk + np.linalg.norm(gk) / 2
    k = 0
    gnorm = np.abs(gk).max()
    while gnorm > tol and k < max_iter:
        pk = -np.dot(Hk, gk)

        def trial(s):
            e = _gmm_evaluate(xk + s * pk, X, xxv, df, W)
            g = 2.0 * e[1]
            return e[0], np.dot(g, pk), (e, g)

        found = wolfe_search(trial, fk, np.dot(gk, pk), old_fk)
        if found is None:
            break
        s, fkp1, (at, gkp1) = found
        old_fk, fk = fk, fkp1
        sk = s * pk
        xk = xk + sk
        yk = gkp1 - gk
        gk = gkp1
        k += 1
        gnorm = np.abs(gk).max()
        # The last test is scipy's xrtol test at its default of 0: a step that
        # rounds to zero length.
        if gnorm <= tol or not np.isfinite(fk) or s * (np.abs(pk) ** 2).sum() ** 0.5 <= 0:
            break
        rhok_inv = np.dot(yk, sk)
        rhok = 1000.0 if rhok_inv == 0.0 else 1.0 / rhok_inv
        A1 = eye - sk[:, np.newaxis] * yk[np.newaxis, :] * rhok
        A2 = eye - yk[:, np.newaxis] * sk[np.newaxis, :] * rhok
        Hk = np.dot(A1, np.dot(Hk, A2)) + (rhok * sk[:, np.newaxis] * sk[np.newaxis, :])
    return xk, k, at


def fit_cbd(
    X: np.ndarray,
    d: np.ndarray,
    weighting: Weighting = Weighting.IDENTITY,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> CbdFit:
    """Fit the propensity model by GMM on the second-order balance moments.

    Identity weighting minimizes the plain squared norm of the averaged
    moments from an MLE warm start (zeros if the MLE fails), fit in unit-RMS
    columns and returned, in raw columns, as ``warm_start``.  Optimal
    weighting is two-step: an identity-weighted pilot, then the inverse of
    the (ridge-stabilized) empirical moment covariance at the pilot, with
    ``degenerate_weight`` set when that covariance is near singular.  Each
    stage is one run of the in-house BFGS (:func:`_minimize_gmm`), which
    repeats scipy's BFGS and its MINPACK-2 strong-Wolfe line search bit for
    bit and stops when the gradient 2 G' W h_bar is at or below ``tol`` in
    sup-norm, after ``max_iter`` iterations, or when a line search finds no
    step.  The fit is converged when the sup-norm of G' W h_bar at the point
    it returns is at or below ``tol``.  The design is expanded to vech(x x')
    once; the covariance is summed over blocks of pilot moments sliced from
    it, so no n x q array is formed.
    The reported objective, first-order condition and moment residual are
    the solver's own evaluations (:func:`_gmm_evaluate`), and no point is
    evaluated twice: the second stage reweighs h_bar and G of the first
    stage's end point and of the start point under its W.  If the start
    point has the lower objective, the fit returns it instead; the second
    stage still starts where the first stage's BFGS run ended.  An optimal
    fit carries its first stage, as the identity fit of ``X`` and ``d``, in
    ``pilot``.
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
        warm = fit_mle(Xs, d)
    except (SeparationError, RankError):
        warm = None
    alpha0 = np.zeros(p) if warm is None else warm.model.alpha
    init = alpha0 / scales
    if warm is not None:
        # The same fit in raw columns, whose Fisher information is s_i s_j I_ij.
        warm = MleFit(LogisticPropensity(init), warm.score_norm,
                      warm.fisher_information * (scales[:, None] * scales), warm.iterations,
                      warm.converged, warm.log_likelihood)
    # Built after the warm start, so that the two never hold memory at once.
    xxv = _xx_vech(Xs)

    W = np.eye(q)
    at_init = _gmm_evaluate(alpha0, Xs, xxv, df, W)
    alpha, iterations, at = _minimize_gmm(Xs, xxv, df, W, alpha0, at_init, tol, max_iter)
    finish = partial(_finish_cbd, X_raw, scales, alpha0, init, tol, warm)
    first = finish(W, alpha, at, at_init, iterations)
    if weighting is Weighting.IDENTITY:
        return first

    # The second stage starts from the first stage's solution as BFGS left
    # it, before the start-point fallback.
    first_moments = (moments() for _, moments, _ in _moment_blocks(alpha, Xs, df, xxv))
    omega = sum(H.T @ H for H in first_moments) / n
    ridge = 1e-8 * np.trace(omega) / q
    cond = np.linalg.cond(omega)
    degenerate = bool(not np.isfinite(cond) or cond > 1e12)
    W = np.linalg.inv(omega + ridge * np.eye(q))
    W = 0.5 * (W + W.T)
    # Rescale to unit average diagonal: the argmin is unchanged and the
    # first-order-condition tolerance keeps an O(1) meaning.
    W = W / (np.trace(W) / q)
    # Both points were evaluated in the first stage: only their weighting is new.
    alpha, extra, at = _minimize_gmm(Xs, xxv, df, W, alpha, _reweigh(at, W), tol, max_iter)
    return finish(W, alpha, at, _reweigh(at_init, W), iterations + extra, pilot=first,
                  degenerate_weight=degenerate)


def _finish_cbd(X_raw, scales, alpha0, init, tol, warm_start, W, alpha, at, at_init,
                iterations, pilot=None, degenerate_weight=False) -> CbdFit:
    """The :class:`CbdFit` of a GMM stage that ended at ``alpha`` under the
    unit-RMS weight matrix ``W``, from the :func:`_gmm_evaluate` tuples ``at``
    (at ``alpha``) and ``at_init`` (at the start point ``alpha0``, which is
    ``init`` in raw columns and comes from the likelihood fit ``warm_start``
    unless that is ``None``).  The fit is optimal-weighted when it has a
    ``pilot`` (its first stage) and identity-weighted when not."""
    if at[0] > at_init[0]:
        # Keep the descent guarantee relative to the start point.
        alpha, at = alpha0, at_init
    objective, foc, hbar, _ = at
    foc_norm = float(np.max(np.abs(foc)))

    # Map back to the raw parameterization.  A raw moment is the scaled one
    # times its scale s_i s_j from the column scaling (D = diag(moment_scale)),
    # so the weighting used, in raw moment coordinates, is D^-1 W D^-1;
    # downstream consumers combining it with raw moments and Jacobians
    # reproduce the scaled-space computation exactly.
    alpha_raw = alpha / scales
    r, c = _vech_indices(scales.size)
    moment_scale = np.concatenate([scales[r] * scales[c]] * 2)
    W_raw = W / np.outer(moment_scale, moment_scale)
    hbar_raw = hbar * moment_scale
    e1_fit = _expit(X_raw @ alpha_raw)
    clipped = int(np.sum((e1_fit < EPS_CLIP) | (e1_fit > 1.0 - EPS_CLIP)))
    return CbdFit(
        model=LogisticPropensity(alpha_raw),
        weighting=Weighting.IDENTITY if pilot is None else Weighting.OPTIMAL,
        weight_matrix=W_raw,
        moment_residual=hbar_raw,
        moment_residual_norm=float(np.max(np.abs(hbar_raw))),
        foc_norm=foc_norm,
        iterations=iterations,
        converged=foc_norm <= tol,
        objective=objective,
        objective_at_init=at_init[0],
        init=init,
        clipped=clipped,
        degenerate_weight=degenerate_weight,
        pilot=pilot,
        warm_start=warm_start,
    )
