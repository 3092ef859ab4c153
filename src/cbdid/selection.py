"""Risk-based model selection criteria and the forward-selection driver.

Each criterion is "goodness of fit + penalty", where the penalty is a
plug-in estimate of the optimism (the expected gap between in-sample fit and
risk) of the weighted least-squares effect estimator.  The optimism accounts
for the sampling noise of the inverse-propensity-weighted changes, and, when
the propensity scores are themselves estimated, for the first-order effect of
that estimation step on the fitted coefficients: unit i's influence row gains
``M psi_i``, with ``psi_i = I^-1 s_i`` (likelihood) or ``-K h_i`` (GMM) from
:func:`propensity._alpha_influence`, so that alpha_hat - alpha ~ (1/n) sum psi_i.

Selection takes one score fit
-----------------------------
:func:`fit_scores` makes a :class:`ScoreFit`, which records the dataset and
score mode; a :class:`PsConfig` says only how it is fit.  Everything after it
reads the data from the score fit: :func:`fit_spec` fits a spec's effect
model against it, :func:`forward_select` scores every candidate spec against
it, and the criteria read everything from the resulting :class:`SpecFit`.
Specs sharing one :class:`ScoreFit` share the weighted-risk target.  The
score fit keeps no cache: an effect fit, the estimation-step correction
rows and the selection moments are made on each call.

:func:`forward_select` does not fit every spec it visits.  Once per call
it sums moments of the full candidate design over blocks of rows: the
weighted Gram matrix and cross-products and, for the proposed criterion,
the third- and fourth-order moments the penalty contracts with the
coefficients and the cross-moments with the score fit's correction rows.
Each round then scores all its candidates together from those moments,
with p x p solves along a candidate axis.  A candidate whose equilibrated
Gram block is too ill-conditioned for normal equations, or whose moments
overflowed, takes the exact path (:func:`fit_spec` and
:func:`evaluate_criterion`), and the selected spec's effect fit always
comes from :func:`fit_spec`.

The Monte Carlo tables run the same search over a block of replications
(:func:`_select_block`): each round scores the candidates of every search
in the block still going with one stacked call, and each search takes the
path, values and fit it would take alone, bit for bit.
:func:`forward_select` is that search on a block of one.

Risk conventions
----------------
The proposed criterion pairs the propensity-weighted goodness of fit with
the optimism estimate of the weighted risk.  Its penalty depends only on how
the scores were obtained, and :func:`proposed_penalty` is the one place that
chooses it from the score mode: :func:`penalty_known`, :func:`penalty_mle`
or :func:`penalty_cbd`; the last two add no correction when there was no
assignment model to fit.  Its ``weight_power`` applies to known scores only:
2 (the default) targets the weighted risk, and 1 the plain squared-error
risk of the same weighted fit, which the bias-evaluation study reports.  The
comparator criterion ``qicw`` uses the unweighted goodness of fit with a
variance-times-dimension penalty (intercept included) scaled by the treated
share.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, ModelSpec, design_matrix, delta as delta_of
from .errors import ConvergenceError, DegenerateGroupError, NumericalError, RankError, SpecError
from .estimator import MAX_CONDITION, PsMode, ThetaFit, fit_theta, rho_weights
from .propensity import (CbdFit, MleFit, Weighting, _alpha_influence, _row_slices, fit_cbd,
                         fit_mle, predict_e1)

__all__ = [
    "CriterionKind",
    "CriterionValue",
    "PsConfig",
    "SelectionResult",
    "ScoreFit",
    "SpecFit",
    "fit_scores",
    "fit_spec",
    "gof_weighted",
    "gof_unweighted",
    "penalty_known",
    "penalty_cbd",
    "penalty_mle",
    "proposed_penalty",
    "sigma_hat_sq",
    "qicw_penalty",
    "evaluate_criterion",
    "forward_select",
]

#: Largest condition number of a column-equilibrated weighted Gram block that
#: forward selection solves from moments; a worse spec is fit exactly.
_MAX_MOMENT_CONDITION = 1e6


class CriterionKind(enum.Enum):
    """The proposed criterion, whose penalty the score mode picks, or ``qicw``."""

    PROPOSED = "proposed"
    QICW = "qicw"


def gof_weighted(fit: SpecFit) -> float:
    """Propensity-weighted squared residual sum of the effect fit."""
    resid = fit.theta_fit.residuals
    return float(np.sum(fit.theta_fit.e1 * resid * resid))


def gof_unweighted(fit: SpecFit) -> float:
    """Plain squared residual sum of the effect fit."""
    resid = fit.theta_fit.residuals
    return float(np.sum(resid * resid))


def _weighted_gram(X, e1) -> np.ndarray:
    return X.T @ (e1[:, None] * X)


def _gram_trace(S: np.ndarray, B: np.ndarray) -> float:
    """``2 tr(S^-1 B)`` for the weighted Gram matrix ``S``."""
    try:
        return 2.0 * float(np.trace(np.linalg.solve(S, B)))
    except np.linalg.LinAlgError:
        raise RankError("singular weighted Gram matrix in penalty computation") from None


def penalty_known(fit: SpecFit, weight_power: int) -> float:
    """Optimism estimate for the fit when the propensity scores are known.

    Computes ``2 tr(S^-1 B)`` with ``S = sum e1 x x'`` and
    ``B = sum (rho^2 delta^2 - (x'theta)^2) e1^w x x'``.  ``weight_power=1``
    targets the plain squared-error risk of the weighted fit;
    ``weight_power=2`` targets the propensity-weighted risk.  The bracket is
    signed, so the value may be negative in finite samples; it is returned
    unmodified.
    """
    X, tf = fit.X, fit.theta_fit
    bracket = (tf.rho * delta_of(fit.scores.dataset)) ** 2 - tf.fitted**2
    B = X.T @ ((bracket * tf.e1**weight_power)[:, None] * X)
    return _gram_trace(_weighted_gram(X, tf.e1), B)


def _m_matrix(fit: SpecFit) -> np.ndarray:
    """Sensitivity of the weighted residual sum to the propensity parameters.

    Row space follows the working design, column space the propensity
    design: (1/n) sum e1 e0 [ (d-1) delta / e0^2 - x_work' theta ] x_work x_ps'.
    """
    X_work, e1, dataset = fit.X, fit.theta_fit.e1, fit.scores.dataset
    e0 = 1.0 - e1
    df = dataset.treated.astype(float)
    b = (df - 1.0) * delta_of(dataset) / (e0 * e0) - fit.theta_fit.fitted
    w = e1 * e0 * b
    return (X_work.T @ (w[:, None] * fit.scores.X_ps)) / X_work.shape[0]


def _correction_rows(scores: ScoreFit, mode: PsMode) -> np.ndarray | None:
    """The influence rows ``psi`` of the score fit's estimate of alpha, from
    :func:`propensity._alpha_influence`; ``scores`` must have been made in
    ``mode``.  ``None`` for known or constant scores."""
    if scores.mode is not mode:
        raise SpecError(f"{mode.value} penalty on {scores.mode.value} scores")
    ps_fit = scores.ps_fit
    if ps_fit is None:
        return None
    if not ps_fit.converged:
        label = "likelihood" if mode is PsMode.MLE else "GMM"
        raise ConvergenceError(f"penalty_{mode.value} requires a converged {label} fit")
    return _alpha_influence(ps_fit, scores.X_ps, scores.dataset.treated, scores.e1)


def _influence_penalty(fit: SpecFit, mode: PsMode) -> float:
    """``2 tr(L^-1 (1/n) sum V_i V_i')`` with ``L = (1/n) sum e1 x x'`` over the
    rows ``V_i = e1 (rho delta - x'theta) x``, plus ``M psi_i`` for scores fit
    in ``mode``, with ``psi`` from :func:`_correction_rows`."""
    X, tf = fit.X, fit.theta_fit
    n = X.shape[0]
    V = (tf.e1 * tf.residuals)[:, None] * X
    psi = _correction_rows(fit.scores, mode)
    if psi is not None:
        V = V + psi @ _m_matrix(fit).T
    return _gram_trace(_weighted_gram(X, tf.e1) / n, V.T @ V / n)


def penalty_cbd(fit: SpecFit) -> float:
    """Optimism estimate when the scores come from balance-moment GMM.

    The influence rows carry a correction for the GMM estimation step,
    ``V_i = e1 (rho delta - x'theta) x + M psi_i``, ``psi_i = -K h_i`` with
    ``K = (G'WG)^-1 G'W``.  psi is built on each call, one block of moment
    rows at a time, so no n-row array of moments is held.  A constant score
    gets no correction.
    """
    return _influence_penalty(fit, PsMode.CBD)


def penalty_mle(fit: SpecFit) -> float:
    """Optimism estimate when the scores come from maximum likelihood.

    The estimation-step correction projects the weighted residual influence
    onto the logistic score s_i = (d - e1) x, the first-order effect of the
    MLE: ``V_i = e1 (rho delta - x'theta) x + M psi_i`` with
    ``psi_i = I^-1 s_i``.  Because
    ``-M = E[(influence)(score)']`` under the model, the correction is a
    projection residual and shrinks the optimism relative to known scores.
    A constant score gets no correction.
    """
    return _influence_penalty(fit, PsMode.MLE)


def sigma_hat_sq(d, delta) -> float:
    """Sum of the within-group population variances of the outcome change."""
    d = np.asarray(d).astype(bool)
    delta = np.asarray(delta, dtype=float)
    n1 = int(d.sum())
    n0 = int((~d).sum())
    if n1 < 2 or n0 < 2:
        raise DegenerateGroupError(
            f"need at least two units per group for the change variance (n1={n1}, n0={n0})"
        )
    v1 = float(np.var(delta[d]))
    v0 = float(np.var(delta[~d]))
    return v1 + v0


def qicw_penalty(d, delta, p_dim: int) -> float:
    """Comparator penalty: 2 sigma^2 times the parameter count ``p_dim``,
    intercept included, scaled by the treated share.

    The underlying quasi-likelihood is a treated-group objective, so its
    effective parameter count enters scaled by n1/n.  Every spec carries the
    intercept, so counting it moves every total by the same amount.
    """
    d = np.asarray(d).astype(bool)
    share = float(d.mean())
    return 2.0 * sigma_hat_sq(d, delta) * p_dim * share


@dataclass(frozen=True)
class PsConfig:
    """How :func:`fit_scores` produces the propensity scores.

    ``e1_known`` holds the scores in known mode and is ignored otherwise.
    ``weighting`` picks the GMM weighting matrix in CBD mode.  The score
    fits run at the fitting routines' default tolerances.

    ``ps_intercept`` controls whether the propensity design carries the
    working model's intercept column.  The default (False) fits the
    assignment model on the covariate columns alone, which keeps the
    log-odds through the origin; the effect model keeps its intercept either
    way.
    """

    mode: PsMode
    e1_known: np.ndarray | None = None
    weighting: Weighting = Weighting.IDENTITY
    ps_intercept: bool = False

    def __post_init__(self):
        if self.mode is PsMode.KNOWN and self.e1_known is None:
            raise SpecError("known propensity mode needs the e1_known vector")


@dataclass(frozen=True)
class CriterionValue:
    gof: float
    penalty: float
    kind: CriterionKind
    model_spec: ModelSpec

    @property
    def total(self) -> float:
        return self.gof + self.penalty


@dataclass(frozen=True)
class SelectionResult:
    """Forward-selection trace: the path of accepted additions and the final fit."""

    path: tuple[tuple[int | None, CriterionValue], ...]
    final_spec: ModelSpec
    final_fit: ThetaFit
    skipped: tuple[tuple[int, str], ...] = ()


@dataclass(frozen=True)
class ScoreFit:
    """Scores ``e1`` fit to ``dataset`` in ``mode`` on the design ``X_ps`` by
    ``ps_fit`` (``None`` for known or constant scores)."""

    dataset: Dataset = field(repr=False)
    mode: PsMode
    X_ps: np.ndarray
    e1: np.ndarray
    ps_fit: CbdFit | MleFit | None


@dataclass(frozen=True)
class SpecFit:
    """The score fit and the effect fit of one spec, shared across criteria."""

    spec: ModelSpec
    X: np.ndarray
    scores: ScoreFit
    theta_fit: ThetaFit


def _ps_design(dataset: Dataset, spec: ModelSpec, config: PsConfig) -> np.ndarray:
    ps_spec = ModelSpec(spec.selected, include_intercept=config.ps_intercept)
    if ps_spec.dimension == 0:
        return np.empty((dataset.n, 0))
    return design_matrix(dataset, ps_spec)


def fit_scores(dataset: Dataset, spec: ModelSpec, config: PsConfig) -> ScoreFit:
    """Scores for ``dataset``: ``config.e1_known``, or fit on ``spec``'s
    propensity design by maximum likelihood or balance-moment GMM (an empty
    design gives the treated share).  Known scores that are not one finite
    value strictly inside (0, 1) per unit raise :class:`SpecError`; an
    unconverged fit raises :class:`ConvergenceError`."""
    if config.mode is PsMode.KNOWN:
        e1 = np.asarray(config.e1_known, dtype=float)
        if e1.shape != (dataset.n,):
            raise SpecError(f"known propensity scores have shape {e1.shape}, "
                            f"not ({dataset.n},)")
        if not np.all((e1 > 0.0) & (e1 < 1.0)):
            raise SpecError("known propensity scores must lie strictly inside (0, 1)")
        return ScoreFit(dataset, config.mode, np.empty((dataset.n, 0)), e1, None)
    d = dataset.treated
    X_ps = _ps_design(dataset, spec, config)
    if X_ps.shape[1] == 0:
        # No assignment model to fit: a constant score, the treated share.
        return ScoreFit(dataset, config.mode, X_ps, np.full(dataset.n, float(d.mean())), None)
    if config.mode is PsMode.MLE:
        return _scores_of(dataset, X_ps, fit_mle(X_ps, d))
    return _scores_of(dataset, X_ps, fit_cbd(X_ps, d, weighting=config.weighting))


def _scores_of(dataset: Dataset, X_ps: np.ndarray, ps_fit: CbdFit | MleFit) -> ScoreFit:
    """The :class:`ScoreFit` of ``ps_fit``, a fit to ``dataset`` on the
    propensity design ``X_ps``; an unconverged fit raises
    :class:`ConvergenceError`."""
    mle = isinstance(ps_fit, MleFit)
    if not ps_fit.converged:
        raise ConvergenceError(f"{'likelihood' if mle else 'balance-moment'} fit did not converge")
    return ScoreFit(dataset, PsMode.MLE if mle else PsMode.CBD, X_ps,
                    predict_e1(ps_fit.model, X_ps), ps_fit)


def fit_spec(scores: ScoreFit, spec: ModelSpec) -> SpecFit:
    """Fit the effect model on ``spec`` against ``scores``, on the data they
    were fit to; each call makes a new fit."""
    dataset = scores.dataset
    X = design_matrix(dataset, spec)
    theta_fit = fit_theta(X, dataset.treated, delta_of(dataset), scores.e1,
                          column_names=spec.column_names(dataset))
    return SpecFit(spec=spec, X=X, scores=scores, theta_fit=theta_fit)


def proposed_penalty(fit: SpecFit, weight_power: int = 2) -> float:
    """Penalty of the proposed criterion for ``fit``, chosen by its score mode.

    Known scores take :func:`penalty_known` at ``weight_power``; estimated
    scores take :func:`penalty_mle` or :func:`penalty_cbd`.
    """
    mode = fit.scores.mode
    if mode is PsMode.KNOWN:
        return penalty_known(fit, weight_power=weight_power)
    return penalty_mle(fit) if mode is PsMode.MLE else penalty_cbd(fit)


def evaluate_criterion(fit: SpecFit, kind: CriterionKind) -> CriterionValue:
    """Score ``fit`` on the data its scores were fit to.

    ``PROPOSED`` adds :func:`proposed_penalty` to the weighted goodness of
    fit; ``QICW`` adds :func:`qicw_penalty` over the spec's dimension to the
    unweighted one.
    """
    d, dlt = fit.scores.dataset.treated, delta_of(fit.scores.dataset)
    if kind is CriterionKind.QICW:
        gof = gof_unweighted(fit)
        pen = qicw_penalty(d, dlt, fit.spec.dimension)
    else:
        gof = gof_weighted(fit)
        pen = proposed_penalty(fit)
    return CriterionValue(gof=gof, penalty=pen, kind=kind, model_spec=fit.spec)


@dataclass
class _Moments:
    """Sums over the units of the full candidate design ``X = [1, x_c...]``
    against one score fit, with ``e = e1`` and ``y = rho delta``.

    ``S = X'diag(e)X``, ``b = X'(e y)``, ``XX = X'X``, ``Xy = X'y``,
    ``eyy = sum e y^2`` and ``yy = sum y^2`` fit any spec on these columns
    and give both goodness-of-fit terms.  The proposed penalty adds
    ``C = X'diag(e^2 y^2)X``, ``T3_abc = sum e^2 y x_a x_b x_c`` and
    ``T4_abcd = sum e^2 x_a x_b x_c x_d``.  Estimated scores with an
    assignment model also carry the influence rows ``Z = psi`` of their fit
    (see :func:`_correction_rows`): ``E = X'diag(e y)Z``,
    ``F_acj = sum e x_a x_c Z_j``, ``ZZ = Z'Z``, ``U = X'diag(u)X_ps`` with
    ``u = e e0 (d-1) delta / e0^2``, and ``R_acj = sum e e0 x_a x_c X_ps,j``.
    """

    S: np.ndarray
    b: np.ndarray
    XX: np.ndarray
    Xy: np.ndarray
    eyy: float
    yy: float
    C: np.ndarray | None = None
    T3: np.ndarray | None = None
    T4: np.ndarray | None = None
    E: np.ndarray | None = None
    F: np.ndarray | None = None
    ZZ: np.ndarray | None = None
    U: np.ndarray | None = None
    R: np.ndarray | None = None


def _build_moments(scores: ScoreFit, columns: tuple[int, ...], penalty: bool) -> _Moments:
    """Sum the moments of the design on ``columns`` over the row blocks of
    :func:`propensity._row_slices`; the penalty sums only when ``penalty``
    is set.  The correction rows raise as :func:`_correction_rows` does."""
    dataset, e = scores.dataset, scores.e1
    df = dataset.treated.astype(float)
    dlt = delta_of(dataset)
    y = rho_weights(e, dataset.treated) * dlt
    n, p = dataset.n, len(columns) + 1
    Z = _correction_rows(scores, scores.mode) if penalty else None
    sums: dict[str, np.ndarray] = {}

    def add(name, value):
        sums[name] = sums[name] + value if name in sums else value

    for s in _row_slices(n):
        X = np.hstack([np.ones((s.stop - s.start, 1)), dataset.covariates[s, list(columns)]])
        es, ys = e[s], y[s]
        eX = es[:, None] * X
        add("S", X.T @ eX)
        add("b", eX.T @ ys)
        add("XX", X.T @ X)
        add("Xy", X.T @ ys)
        if not penalty:
            continue
        XX2 = (X[:, :, None] * X[:, None, :]).reshape(-1, p * p)
        e2 = es * es
        add("C", X.T @ ((e2 * ys * ys)[:, None] * X))
        add("T3", XX2.T @ ((e2 * ys)[:, None] * X))
        add("T4", XX2.T @ (e2[:, None] * XX2))
        if Z is None:
            continue
        X_ps, Zs = scores.X_ps[s], Z[s]
        e0 = 1.0 - es
        u = es * e0 * (df[s] - 1.0) * dlt[s] / (e0 * e0)
        add("E", X.T @ ((es * ys)[:, None] * Zs))
        add("F", XX2.T @ (es[:, None] * Zs))
        add("ZZ", Zs.T @ Zs)
        add("U", X.T @ (u[:, None] * X_ps))
        add("R", XX2.T @ ((es * e0)[:, None] * X_ps))
    for name, shape in (("T3", (p, p, p)), ("T4", (p,) * 4), ("F", (p, p, -1)),
                        ("R", (p, p, -1))):
        if name in sums:
            sums[name] = sums[name].reshape(shape)
    return _Moments(eyy=float(np.sum(e * y * y)), yy=float(np.sum(y * y)), **sums)


def _quad(theta: np.ndarray, G: np.ndarray) -> np.ndarray:
    return np.einsum("ka,ab,kb->k", theta, G, theta)


@dataclass
class _Search:
    """One forward search: its score fit, criterion, candidate-design
    moments and column ``position`` of each candidate, and the path so far."""

    scores: ScoreFit
    kind: CriterionKind
    moments: _Moments
    position: dict[int, int]
    qicw_unit: float | None
    remaining: list[int]
    path: list[tuple[int | None, CriterionValue]] = field(default_factory=list)
    skipped: list[tuple[int, str]] = field(default_factory=list)

    @property
    def spec(self) -> ModelSpec:
        return self.path[-1][1].model_spec

    def exact(self, spec: ModelSpec) -> tuple[float, float]:
        """``(gof, penalty)`` of ``spec`` from its own effect fit."""
        value = evaluate_criterion(fit_spec(self.scores, spec), self.kind)
        return value.gof, value.penalty

    def step(self, values: list[tuple[float, float] | None]) -> bool:
        """One round over the current spec plus each remaining candidate,
        given their moment ``(gof, penalty)`` values: score the ``None`` ones
        exactly and accept the best addition if it strictly lowers the
        criterion.  True while candidates remain after an addition."""
        best: tuple[float, float, int] | None = None
        for idx, value in zip(self.remaining, values):
            if value is None:
                try:
                    value = self.exact(self.spec.with_added(idx))
                except NumericalError as err:
                    self.skipped.append((idx, f"{type(err).__name__}: {err}"))
                    continue
            if best is None or value[0] + value[1] < best[0] + best[1]:
                best = (*value, idx)
        if best is None or best[0] + best[1] >= self.path[-1][1].total:
            return False
        gof, penalty, idx = best
        self.path.append((idx, CriterionValue(gof, penalty, self.kind, self.spec.with_added(idx))))
        self.remaining.remove(idx)
        return bool(self.remaining)


def _penalty_vv(search: _Search, theta: np.ndarray, J: np.ndarray,
                scale: np.ndarray) -> np.ndarray:
    """``D V'V D`` of the specs on columns ``J`` with coefficients ``theta``
    and column scales ``D = diag(scale)``, from ``search``'s moments."""
    moments, k = search.moments, np.arange(len(J))[:, None]
    outer = scale[:, :, None] * scale[:, None, :]

    def block(full):
        """The (J, J) block of each spec's p x p matrix, times D on both sides."""
        return full[k[:, :, None], J[:, :, None], J[:, None, :]] * outer

    T4tt = np.einsum("abcd,kc,kd->kab", moments.T4, theta, theta)
    if search.scores.mode is PsMode.KNOWN:
        return block(moments.C - T4tt)
    # V'V = C - 2 T3 theta + T4(theta, theta) + Q + Q' + A'(Z'Z)A with
    # Q = (E - F theta) A and A = M' = ((U - R theta) / n)'.
    VV = block(moments.C - 2.0 * np.einsum("abc,kc->kab", moments.T3, theta) + T4tt)
    if moments.E is not None:
        M = (moments.U - np.einsum("acj,kc->kaj", moments.R, theta))[k, J]
        A = np.swapaxes(M, 1, 2) * (scale[:, None, :] / search.scores.dataset.n)
        EF = (moments.E - np.einsum("acj,kc->kaj", moments.F, theta))[k, J]
        Q = scale[:, :, None] * EF @ A
        VV = VV + Q + np.swapaxes(Q, 1, 2) + np.swapaxes(A, 1, 2) @ moments.ZZ @ A
    return VV


def _moment_values(searches: list[_Search], S_all: np.ndarray, b_all: np.ndarray,
                   rounds: list[tuple[int, list[tuple[int, ...]]]]
                   ) -> list[list[tuple[float, float] | None]]:
    """``(gof, penalty)`` from moments of the specs in ``rounds``, pairs of
    an index into ``searches`` and the covariates of that search's specs,
    each with the intercept and all of one dimension.  ``S_all`` and
    ``b_all`` stack the searches' ``S`` and ``b`` on a leading axis.

    The gate, the gathers and the solves run once along one axis of every
    spec; they work one matrix at a time, so a spec's value does not depend
    on the others in the call.  The contractions with a search's own
    moments run once per search, on its scored specs alone, as a search
    scored by itself would run them.  A spec gets ``None`` where its Gram
    block is not finite, where the column-equilibrated block is not positive
    definite with condition number at most ``_MAX_MOMENT_CONDITION``, where
    that bound and the column scales leave the weighted design's condition
    number possibly above a tenth of ``MAX_CONDITION``, or where its moment
    values are not finite (a search's moments that overflowed in a column
    the spec does not hold): the exact path scores those.
    """
    flat = [(i, cols) for i, specs in rounds for cols in specs]
    values: list[tuple[float, float] | None] = [None] * len(flat)
    group = np.repeat(np.arange(len(rounds)), [len(specs) for _, specs in rounds])
    owner = np.array([i for i, _ in flat])
    J = np.array([[0] + [searches[i].position[c] for c in cols] for i, cols in flat])
    S = S_all[owner[:, None, None], J[:, :, None], J[:, None, :]]
    finite = True
    if not math.isfinite(S.sum()):
        # A block that overflowed fails the gate; the identity stands in for
        # it, so that the eigenvalue solver only meets finite matrices.
        finite = np.isfinite(S).all(axis=(1, 2))
        S[~finite] = np.eye(J.shape[1])
    diag = np.diagonal(S, axis1=1, axis2=2)
    scale = 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0))
    St = S * scale[:, :, None] * scale[:, None, :]
    eig = np.linalg.eigvalsh(St)
    cond = eig[:, -1] / np.where(eig[:, 0] > 0, eig[:, 0], np.nan)
    # cond(S_JJ) is at most cond times the spread of its diagonal, and the
    # weighted design's condition number is the square root of cond(S_JJ):
    # every spec scored here passes fit_theta's gate with a tenfold margin.
    spread = (scale.max(axis=1) / scale.min(axis=1)) ** 2
    ok = (finite & (diag > 0).all(axis=1) & (cond <= _MAX_MOMENT_CONDITION)
          & (cond * spread <= (MAX_CONDITION / 10) ** 2))
    if ok.any():
        # The scored specs, in equilibrated coordinates: with D = diag(scale),
        # St = D S_JJ D, theta = D St^-1 D b_J and tr(S_JJ^-1 B) = tr(St^-1 D B D).
        J, St, scale, owner = J[ok], St[ok], scale[ok], owner[ok]
        k = np.arange(len(J))[:, None]
        theta = np.zeros((len(J), S_all.shape[1]))
        b = scale * b_all[owner[:, None], J]
        theta[k, J] = scale * np.linalg.solve(St, b[:, :, None])[:, :, 0]
        gof, pen = np.empty(len(J)), np.empty(len(J))
        VV = np.empty_like(St)
        proposed = np.zeros(len(J), dtype=bool)
        bounds = np.searchsorted(group[ok], np.arange(len(rounds) + 1))
        for (i, _), lo, hi in zip(rounds, bounds[:-1], bounds[1:]):
            if lo == hi:
                continue
            search, rows = searches[i], slice(lo, hi)
            moments, th = search.moments, theta[rows]
            if search.kind is CriterionKind.QICW:
                gof[rows] = moments.yy - 2.0 * th @ moments.Xy + _quad(th, moments.XX)
                pen[rows] = search.qicw_unit * J.shape[1]
            else:
                gof[rows] = moments.eyy - 2.0 * th @ moments.b + _quad(th, moments.S)
                VV[rows] = _penalty_vv(search, th, J[rows], scale[rows])
                proposed[rows] = True
        if proposed.any():
            pen[proposed] = 2.0 * np.trace(np.linalg.solve(St[proposed], VV[proposed]),
                                           axis1=1, axis2=2)
        for j, g, q in zip(np.flatnonzero(ok), gof.tolist(), pen.tolist()):
            if math.isfinite(g + q):
                values[j] = (g, q)
    out, start = [], 0
    for _, specs in rounds:
        out.append(values[start:start + len(specs)])
        start += len(specs)
    return out


def _start(scores: ScoreFit, candidates, kinds: tuple[CriterionKind, ...]) -> list[_Search]:
    """One search per criterion in ``kinds`` on ``scores``, sharing one
    build of the moments; raises before any spec is scored as
    :func:`forward_select` does."""
    if not len(candidates):
        raise SpecError("forward selection needs at least one candidate")
    full = ModelSpec(tuple(candidates))
    full.validate_for(scores.dataset)
    candidates = tuple(sorted(full.selected))
    if not scores.dataset.treated.any():
        raise RankError("no treated units: the effect on the treated is undefined")
    position = {c: j for j, c in enumerate(candidates, start=1)}
    moments = _build_moments(scores, candidates, CriterionKind.PROPOSED in kinds)
    searches = []
    for kind in kinds:
        qicw_unit = None
        if kind is CriterionKind.QICW:
            qicw_unit = qicw_penalty(scores.dataset.treated, delta_of(scores.dataset), 1)
        searches.append(_Search(scores, kind, moments, position, qicw_unit, list(candidates)))
    return searches


def _run(searches: list[_Search]) -> None:
    """Run ``searches``, whose moments have one dimension, to their ends
    together: each round scores the candidates of every search still going
    in one :func:`_moment_values` call.  A search leaves the block when it
    stops."""
    if not searches:
        return
    S_all = np.stack([search.moments.S for search in searches])
    b_all = np.stack([search.moments.b for search in searches])
    intercept = ModelSpec((), include_intercept=True)
    start = [(i, [()]) for i in range(len(searches))]
    for search, [value] in zip(searches, _moment_values(searches, S_all, b_all, start)):
        # Only moments that overflowed leave the intercept-only start unscored.
        gof, penalty = value or search.exact(intercept)
        search.path.append((None, CriterionValue(gof, penalty, search.kind, intercept)))
    active = [i for i, search in enumerate(searches) if search.remaining]
    while active:
        rounds = [(i, [searches[i].spec.selected + (idx,) for idx in searches[i].remaining])
                  for i in active]
        values = _moment_values(searches, S_all, b_all, rounds)
        active = [i for (i, _), v in zip(rounds, values) if searches[i].step(v)]


def _finish(searches: list[_Search]) -> list[SelectionResult]:
    """The results of ``searches`` on one score fit, with one effect fit
    per distinct selected spec."""
    fits: dict[ModelSpec, ThetaFit] = {}
    results = []
    for search in searches:
        spec = search.spec
        if spec not in fits:
            fits[spec] = fit_spec(search.scores, spec).theta_fit
        results.append(SelectionResult(path=tuple(search.path), final_spec=spec,
                                       final_fit=fits[spec], skipped=tuple(search.skipped)))
    return results


def _select_block(units: list[tuple[ScoreFit, tuple[int, ...]]],
                  kinds: tuple[CriterionKind, ...]) -> list[list[SelectionResult] | NumericalError]:
    """:func:`forward_select` under each criterion in ``kinds`` for every
    ``(scores, candidates)`` unit, all with the same number of candidates,
    with the searches of the whole block run together (:func:`_run`).

    A unit gets one result per kind, each equal bit for bit to
    :func:`forward_select` on that unit alone, or the
    :class:`NumericalError` that the first of them would raise.
    """
    started: list[list[_Search] | NumericalError] = []
    for scores, candidates in units:
        try:
            started.append(_start(scores, candidates, kinds))
        except NumericalError as err:
            started.append(err)
    _run([search for unit in started if isinstance(unit, list) for search in unit])
    outcomes: list[list[SelectionResult] | NumericalError] = []
    for unit in started:
        if isinstance(unit, list):
            try:
                unit = _finish(unit)
            except NumericalError as err:
                unit = err
        outcomes.append(unit)
    return outcomes


def forward_select(
    scores: ScoreFit,
    candidates: tuple[int, ...] | list[int],
    kind: CriterionKind,
) -> SelectionResult:
    """Greedy covariate addition minimizing the criterion.

    Starts from the intercept-only model; each round scores the current spec
    plus each unused candidate and accepts the best addition only if it
    strictly lowers the criterion (ties break to the lowest candidate
    index).  Candidates that are not integers, out of range, negative or
    repeated raise :class:`SpecError` before the search; a candidate whose
    fit fails numerically (rank loss) is skipped with a diagnostic rather
    than aborting it.

    Every spec is fit against the fixed ``scores`` on their dataset and
    scored from moments of the full candidate design, summed on each call as
    the module docstring describes.  Only a spec whose column-equilibrated
    Gram block is too ill-conditioned for normal equations, or whose moments
    overflowed, is scored by :func:`fit_spec` and :func:`evaluate_criterion`,
    which raise or score it exactly; the intercept-only start passes that
    gate unless the moments overflowed.
    ``final_fit`` always comes from :func:`fit_spec`.  This is the block
    search of the Monte Carlo tables run on a block of one search, so a
    table's searches score exactly as this function does.

    A dataset with no treated unit raises :class:`RankError` before the
    search.  A score fit the proposed penalty cannot use (unconverged, or
    with a singular correction), scores outside (0, 1), and too few units
    per group for ``QICW``'s variance raise what the exact path raises.
    """
    searches = _start(scores, candidates, (kind,))
    _run(searches)
    return _finish(searches)[0]
