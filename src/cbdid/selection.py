"""Risk-based model selection criteria and the forward-selection driver.

Each criterion is "goodness of fit + penalty", where the penalty is a
plug-in estimate of the optimism (the expected gap between in-sample fit and
risk) of the weighted least-squares effect estimator.  The optimism accounts
for the sampling noise of the inverse-propensity-weighted changes, and, when
the propensity scores are themselves estimated, for the first-order effect of
that estimation step on the fitted coefficients.

Selection takes one score fit
-----------------------------
:func:`fit_scores` makes a :class:`ScoreFit`, which records the dataset and
score mode; a :class:`PsConfig` says only how it is fit.  Everything after it
reads the data from the score fit: :func:`fit_spec` fits a spec's effect
model against it, :func:`forward_select` scores every candidate spec against
it, and the criteria read everything from the resulting :class:`SpecFit`.
Specs sharing one :class:`ScoreFit` share the weighted-risk target; it
builds its GMM correction rows once and keeps each spec's effect fit.

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
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, ModelSpec, design_matrix, delta as delta_of
from .errors import ConvergenceError, DegenerateGroupError, NumericalError, RankError, SpecError
from .estimator import PsMode, ThetaFit, fit_theta
from .propensity import CbdFit, MleFit, Weighting, fit_cbd, fit_mle, moment_h, moment_jacobian, predict_e1

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


def penalty_known(fit: SpecFit, weight_power: int = 1) -> float:
    """Optimism estimate for the fit when the propensity scores are known.

    Computes ``2 tr(S^-1 B)`` with ``S = sum e1 x x'`` and
    ``B = sum (rho^2 delta^2 - (x'theta)^2) e1^w x x'``.  ``weight_power=1``
    (default) targets the plain squared-error risk of the weighted fit;
    ``weight_power=2`` targets the propensity-weighted risk.  The bracket is
    signed, so the value may be negative in finite samples; it is returned
    unmodified.
    """
    X, tf = fit.X, fit.theta_fit
    bracket = (tf.rho * delta_of(fit.scores.dataset)) ** 2 - tf.fitted**2
    S = _weighted_gram(X, tf.e1)
    B = X.T @ ((bracket * tf.e1**weight_power)[:, None] * X)
    try:
        return 2.0 * float(np.trace(np.linalg.solve(S, B)))
    except np.linalg.LinAlgError:
        raise RankError("singular weighted Gram matrix in penalty computation") from None


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


def _influence_penalty(fit: SpecFit, correction: np.ndarray | None = None) -> float:
    """``2 tr(L^-1 (1/n) sum V_i V_i')`` with ``L = (1/n) sum e1 x x'`` over the
    rows ``V_i = e1 (rho delta - x'theta) x``, plus the score fit's ``correction``."""
    X, tf = fit.X, fit.theta_fit
    n = X.shape[0]
    V = (tf.e1 * tf.residuals)[:, None] * X
    if correction is not None:
        V = V + correction
    L = _weighted_gram(X, tf.e1) / n
    Vn = V.T @ V / n
    try:
        return 2.0 * float(np.trace(np.linalg.solve(L, Vn)))
    except np.linalg.LinAlgError:
        raise RankError("singular weighted Gram matrix in penalty computation") from None


def _ps_fit(fit: SpecFit, mode: PsMode) -> CbdFit | MleFit | None:
    """The score fit behind ``fit``, which must have been made in ``mode``."""
    if fit.scores.mode is not mode:
        raise SpecError(f"{mode.value} penalty on {fit.scores.mode.value} scores")
    return fit.scores.ps_fit


def penalty_cbd(fit: SpecFit) -> float:
    """Optimism estimate when the scores come from balance-moment GMM.

    The influence rows carry a correction for the GMM estimation step,
    ``V_i = e1 (rho delta - x'theta) x - M K h_i`` with ``K = (G'WG)^-1 G'W``.
    ``H K'`` is built once per score fit and kept on ``fit.scores``.  A
    constant score gets no correction.
    """
    scores, cbd = fit.scores, _ps_fit(fit, PsMode.CBD)
    if cbd is None:
        return _influence_penalty(fit)
    if not cbd.converged:
        raise ConvergenceError("penalty_cbd requires a converged GMM fit")
    if scores.gmm_rows is None:
        d = scores.dataset.treated
        H = moment_h(cbd.model.alpha, scores.X_ps, d)
        G = moment_jacobian(cbd.model.alpha, scores.X_ps, d)
        GtW = G.T @ cbd.weight_matrix
        try:
            K = np.linalg.solve(GtW @ G, GtW)
        except np.linalg.LinAlgError:
            raise RankError("G'WG is singular in the GMM optimism correction") from None
        scores.gmm_rows = H @ K.T
    return _influence_penalty(fit, -(scores.gmm_rows @ _m_matrix(fit).T))


def penalty_mle(fit: SpecFit) -> float:
    """Optimism estimate when the scores come from maximum likelihood.

    The estimation-step correction projects the weighted residual influence
    onto the logistic score (d - e1) x, the first-order effect of the MLE:
    ``V_i = e1 (rho delta - x'theta) x + M I^-1 s_i``.  Because
    ``-M = E[(influence)(score)']`` under the model, the correction is a
    projection residual and shrinks the optimism relative to known scores.
    A constant score gets no correction.
    """
    scores, mle = fit.scores, _ps_fit(fit, PsMode.MLE)
    if mle is None:
        return _influence_penalty(fit)
    if not mle.converged:
        raise ConvergenceError("penalty_mle requires a converged likelihood fit")
    score_rows = (scores.dataset.treated.astype(float) - scores.e1)[:, None] * scores.X_ps
    M = _m_matrix(fit)
    try:
        correction = score_rows @ np.linalg.solve(mle.fisher_information, M.T)
    except np.linalg.LinAlgError:
        raise RankError("singular Fisher information in the optimism correction") from None
    return _influence_penalty(fit, correction)


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


@dataclass
class ScoreFit:
    """Scores ``e1`` fit to ``dataset`` in ``mode`` on the design ``X_ps`` by
    ``ps_fit`` (``None`` for known or constant scores).  ``gmm_rows`` holds the
    ``H K'`` rows :func:`penalty_cbd` builds on first use; ``effect_fits`` the
    design and effect fit of each spec :func:`fit_spec` fit against these
    scores (not its :class:`SpecFit`, whose reference back would make a cycle)."""

    dataset: Dataset = field(repr=False)
    mode: PsMode
    X_ps: np.ndarray
    e1: np.ndarray
    ps_fit: CbdFit | MleFit | None
    gmm_rows: np.ndarray | None = field(default=None, repr=False)
    effect_fits: dict = field(default_factory=dict, repr=False)


@dataclass
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
        ps_fit, label = fit_mle(X_ps, d), "likelihood"
    else:
        ps_fit, label = fit_cbd(X_ps, d, weighting=config.weighting), "balance-moment"
    if not ps_fit.converged:
        raise ConvergenceError(f"{label} fit did not converge")
    return ScoreFit(dataset, config.mode, X_ps, predict_e1(ps_fit.model, X_ps), ps_fit)


def fit_spec(scores: ScoreFit, spec: ModelSpec) -> SpecFit:
    """Fit the effect model on ``spec`` against ``scores``, on the data they
    were fit to.  A spec's effect fit against them is made once."""
    key = (spec.selected, spec.include_intercept)
    if key not in scores.effect_fits:
        dataset = scores.dataset
        X = design_matrix(dataset, spec)
        theta_fit = fit_theta(X, dataset.treated, delta_of(dataset), scores.e1,
                              column_names=spec.column_names(dataset))
        scores.effect_fits[key] = X, theta_fit
    X, theta_fit = scores.effect_fits[key]
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


def forward_select(
    scores: ScoreFit,
    candidates: tuple[int, ...] | list[int],
    kind: CriterionKind,
) -> SelectionResult:
    """Greedy covariate addition minimizing the criterion.

    Starts from the intercept-only model; each round scores the current spec
    plus each unused candidate and accepts the best addition only if it
    strictly lowers the criterion (ties break to the lowest candidate
    index).  Candidates that are out of range, negative or repeated raise
    :class:`SpecError` before the search; a candidate whose fit fails
    numerically (rank loss) is skipped with a diagnostic rather than aborting
    it.

    Every spec is fit against the fixed ``scores`` on their dataset;
    selections sharing ``scores`` share effect fits.
    """
    if not len(candidates):
        raise SpecError("forward selection needs at least one candidate")
    candidates = sorted(int(c) for c in candidates)
    ModelSpec(tuple(candidates)).validate_for(scores.dataset)

    def evaluate(spec: ModelSpec) -> tuple[SpecFit, CriterionValue]:
        fit = fit_spec(scores, spec)
        return fit, evaluate_criterion(fit, kind)

    fit, current = evaluate(ModelSpec((), include_intercept=True))
    path: list[tuple[int | None, CriterionValue]] = [(None, current)]
    skipped: list[tuple[int, str]] = []
    remaining = list(candidates)

    while remaining:
        best: tuple[float, int, SpecFit, CriterionValue] | None = None
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

    return SelectionResult(path=tuple(path), final_spec=fit.spec, final_fit=fit.theta_fit,
                           skipped=tuple(skipped))
