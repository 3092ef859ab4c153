"""Data generators, oracles, and the Monte Carlo table harness.

Every generator draws covariates uniformly on (0, 2), assigns treatment by a
logistic rule, and builds two-period outcomes whose change is linear in the
covariates for treated units.  Generators return the dataset together with a
hidden truth record (true scores, true effect curve) that only oracles may
consume, never estimators.

Replication streams are derived from ``(master seed, cell index, replication
index)`` so that results are bit-identical for any worker count.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import Dataset, ModelSpec, design_matrix, delta as delta_of
from .errors import NumericalError, SpecError
from .estimator import PsMode, att_summary, rho_weights
from .propensity import Weighting
from .propensity import fit_cbd  # noqa: F401 -- perfbench's span test wraps this binding
from .selection import (
    CriterionKind,
    PsConfig,
    fit_scores,
    fit_spec,
    forward_select,
    proposed_penalty,
    qicw_penalty,
)

__all__ = [
    "DgpFamily",
    "DgpSpec",
    "TruthRecord",
    "generate",
    "working_spec_for",
    "theta_star_exact",
    "theta_star_oracle",
    "bias_term",
    "empirical_risk",
    "tp_fp",
    "run_table",
    "McReport",
    "TABLE_IDS",
]

#: Share of failed replications above which a table run counts as failed.
MAX_FAILURE_RATE = 0.01

#: Rows per block of ``theta_star_oracle``'s covariate draws and running sums.
_ORACLE_BLOCK = 1 << 16


class DgpFamily(enum.Enum):
    ROBUSTNESS = "robustness"
    CASE_1_1 = "case-1-1"
    CASE_1_2 = "case-1-2"
    CASE_2_1 = "case-2-1"
    CASE_2_2 = "case-2-2"
    CASE_2_3 = "case-2-3"


@dataclass(frozen=True)
class _Family:
    """The design facts of one generator family."""

    n_covariates: int
    slopes: tuple[int, ...]  # covariates whose effect slope is beta*; the others' is 0
    intercept: float  # of the effect curve
    working: tuple[int, ...]  # covariates of the working model its study fits


_FAMILIES = {
    DgpFamily.ROBUSTNESS: _Family(2, (0,), 0.0, (0,)),
    DgpFamily.CASE_1_1: _Family(1, (0,), 1.0, (0,)),
    DgpFamily.CASE_1_2: _Family(2, (0, 1), 1.0, (0, 1)),
    DgpFamily.CASE_2_1: _Family(4, (0,), 1.0, (0, 1, 2, 3)),
    DgpFamily.CASE_2_2: _Family(4, (0, 1), 1.0, (0, 1, 2, 3)),
    DgpFamily.CASE_2_3: _Family(6, (0, 1), 1.0, (0, 1, 2, 3, 4, 5)),
}


@dataclass(frozen=True)
class DgpSpec:
    """One simulation setting: generator family, effect size, sample size."""

    family: DgpFamily
    beta_star: float
    n: int
    alpha_star: float | None = None

    def __post_init__(self):
        p = self.n_covariates + 1
        if self.n < 2 * p:
            raise SpecError(f"need n >= {2 * p} units for this family")
        if not np.isfinite(self.beta_star):
            raise SpecError("beta_star must be finite")
        if self.family is DgpFamily.ROBUSTNESS and self.alpha_star is None:
            raise SpecError("the robustness family needs alpha_star")
        if self.family is not DgpFamily.ROBUSTNESS and self.alpha_star is not None:
            raise SpecError("alpha_star only applies to the robustness family")
        if self.alpha_star is not None and not np.isfinite(self.alpha_star):
            raise SpecError("alpha_star must be finite")

    @property
    def n_covariates(self) -> int:
        return _FAMILIES[self.family].n_covariates


@dataclass(frozen=True)
class TruthRecord:
    """Hidden per-unit truth for oracles: never fed to estimators."""

    e1_true: np.ndarray
    effect_curve: np.ndarray
    theta_star: np.ndarray
    truth_slopes: tuple[int, ...]


def working_spec_for(family: DgpFamily) -> ModelSpec:
    """Default working model: the covariates the corresponding study fits."""
    return ModelSpec(_FAMILIES[family].working)


def theta_star_exact(spec: DgpSpec) -> np.ndarray:
    """Population working-model coefficients, exact for these generators.

    The effect curve is linear in the working design for every family, so
    the weighted projection equals the generating coefficients and does not
    depend on the weighting.
    """
    family = _FAMILIES[spec.family]
    slopes = [spec.beta_star if j in family.slopes else 0.0 for j in family.working]
    return np.array([family.intercept, *slopes])


def _true_logit(spec: DgpSpec, x: np.ndarray) -> np.ndarray:
    if spec.family is DgpFamily.ROBUSTNESS:
        return -x[:, 0] + spec.alpha_star * x[:, 1]
    if spec.family in (DgpFamily.CASE_1_1, DgpFamily.CASE_2_1):
        return -x[:, 0]
    return -x[:, 0] + x[:, 1]


def _effect_curve(spec: DgpSpec, x: np.ndarray) -> np.ndarray:
    b = spec.beta_star
    if spec.family is DgpFamily.ROBUSTNESS:
        return b * x[:, 0]
    if spec.family is DgpFamily.CASE_1_1:
        return 1.0 + b * x[:, 0]
    if spec.family is DgpFamily.CASE_1_2:
        return 1.0 + b * (x[:, 0] + x[:, 1])
    full = np.hstack([np.ones((x.shape[0], 1)), x])
    return full @ theta_star_exact(spec)


def generate(spec: DgpSpec, rng: np.random.Generator) -> tuple[Dataset, TruthRecord]:
    """Draw one dataset plus its hidden truth record.

    Draw order is fixed (covariates, assignment, baseline, the two noise
    vectors) so a given stream always yields the same sample.
    """
    n, k = spec.n, spec.n_covariates
    x = rng.uniform(0.0, 2.0, size=(n, k))
    e1 = 1.0 / (1.0 + np.exp(-_true_logit(spec, x)))
    d = rng.random(n) < e1
    y0 = rng.standard_normal(n)
    eps0 = rng.standard_normal(n)
    eps1 = rng.standard_normal(n)
    gain = _effect_curve(spec, x)
    y_post = y0 + np.where(d, gain + eps1, eps0)
    dataset = Dataset(
        covariates=x,
        treated=d,
        y_pre=y0,
        y_post=y_post,
        covariate_names=tuple(f"x{j + 1}" for j in range(k)),
    )
    truth = TruthRecord(
        e1_true=e1,
        effect_curve=gain,
        theta_star=theta_star_exact(spec),
        truth_slopes=_FAMILIES[spec.family].slopes,
    )
    return dataset, truth


def theta_star_oracle(
    spec: DgpSpec,
    mc_size: int = 10**6,
    seed: int | np.random.Generator = 0,
) -> tuple[np.ndarray, float]:
    """Monte Carlo solve of the population weighted normal equations.

    Integrates over ``mc_size`` fresh covariate draws using the true scores
    and the true effect curve, for the family's working model; returns
    ``(theta_star, att_star)`` where ``att_star`` is the treated-population
    mean of the fitted curve (computed by importance weighting with the true
    scores, so no assignment draws are needed).

    The draws are made and summed in blocks of a fixed number of rows, so
    memory does not grow with ``mc_size``; the blocks take the same doubles
    from ``seed`` as one ``(mc_size, k)`` draw would.  Raises
    :class:`SpecError` when ``mc_size`` is below 1 and
    :class:`NumericalError` when the Gram matrix is singular.
    """
    if mc_size < 1:
        raise SpecError(f"mc_size must be at least 1 (got {mc_size})")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    working = working_spec_for(spec.family)
    selected = list(working.selected)
    p = working.dimension
    gram, rhs, ex, e_sum = np.zeros((p, p)), np.zeros(p), np.zeros(p), 0.0
    for start in range(0, mc_size, _ORACLE_BLOCK):
        x = rng.uniform(0.0, 2.0, size=(min(_ORACLE_BLOCK, mc_size - start), spec.n_covariates))
        e1 = 1.0 / (1.0 + np.exp(-_true_logit(spec, x)))
        a = _effect_curve(spec, x)
        # The working design transposed, (p, m): row sums are contiguous.
        Xt = np.ones((p, x.shape[0]))
        Xt[int(working.include_intercept):] = x[:, selected].T
        eXt = Xt * e1
        gram += eXt @ Xt.T
        rhs += eXt @ a
        ex += eXt.sum(axis=1)
        e_sum += e1.sum()
    try:
        theta = np.linalg.solve(gram / mc_size, rhs / mc_size)
    except np.linalg.LinAlgError:
        raise NumericalError("singular Monte Carlo Gram matrix; increase mc_size") from None
    # The ATT is linear in theta: sum_i e1_i x_i'theta = (sum_i e1_i x_i)'theta.
    att = float(ex @ theta / e_sum)
    return theta, att


def bias_term(X, d, delta, e1_hat, theta_hat, theta_star, weighted: bool) -> float:
    """One replication's contribution to the risk-optimism Monte Carlo.

    ``2 sum_i w_i (rho_i delta_i - x_i' theta*) x_i'(theta_hat - theta*)``
    where ``w_i = e1_hat_i`` when ``weighted`` (estimated-score risk) and
    ``w_i = 1`` otherwise (plain squared-error risk, used with known scores).
    """
    rho = rho_weights(e1_hat, d)
    eps = rho * np.asarray(delta, dtype=float) - X @ theta_star
    shift = X @ (np.asarray(theta_hat) - np.asarray(theta_star))
    w = e1_hat if weighted else np.ones_like(eps)
    return 2.0 * float(np.sum(w * eps * shift))


def empirical_risk(theta_hat, theta_star, X, e1_true) -> float:
    """Weighted squared distance between fitted and true effect curves."""
    X = np.asarray(X, dtype=float)
    gap = X @ (np.asarray(theta_star, dtype=float) - np.asarray(theta_hat, dtype=float))
    return float(np.sum(np.asarray(e1_true, dtype=float) * gap * gap))


def tp_fp(selected: ModelSpec | tuple[int, ...], truth_slopes: tuple[int, ...]) -> dict[str, int]:
    """True/false positive counts of a selected covariate set (intercept excluded)."""
    chosen = set(selected.selected if isinstance(selected, ModelSpec) else selected)
    truth = set(truth_slopes)
    return {"tp": len(chosen & truth), "fp": len(chosen - truth)}


# ---------------------------------------------------------------------------
# Per-replication workers
# ---------------------------------------------------------------------------


def _rep_att(spec: DgpSpec, rng) -> dict[str, float]:
    dataset, _ = generate(spec, rng)
    working = working_spec_for(spec.family)
    out = {}
    for label, mode, weighting in (
        ("cbd-id", PsMode.CBD, Weighting.IDENTITY),
        ("cbd-opt", PsMode.CBD, Weighting.OPTIMAL),
        ("mle", PsMode.MLE, Weighting.IDENTITY),
    ):
        # The misspecification study models the assignment on the full
        # working design, intercept included.
        config = PsConfig(mode=mode, weighting=weighting, ps_intercept=True)
        # One estimator failing (typically a degenerate optimal weight) does
        # not discard the replication for the others.
        try:
            out[label] = fit_spec(fit_scores(dataset, working, config), working).theta_fit.att
        except NumericalError:
            out[label] = np.nan
    return out


def _rep_bias(spec: DgpSpec, mode: PsMode, weighting: Weighting, rng) -> dict[str, float]:
    dataset, truth = generate(spec, rng)
    working = working_spec_for(spec.family)
    config = PsConfig(
        mode=mode,
        e1_known=truth.e1_true if mode is PsMode.KNOWN else None,
        weighting=weighting,
    )
    fit = fit_spec(fit_scores(dataset, working, config), working)
    d = dataset.treated
    dlt = delta_of(dataset)
    # Known-score cells report the plain squared-error-risk convention
    # (weight_power=1 penalty, unweighted truth term); estimated-score cells
    # report the weighted-risk convention matching their criteria.
    return {
        "true": bias_term(fit.X, d, dlt, fit.scores.e1, fit.theta_fit.theta, truth.theta_star,
                          weighted=mode is not PsMode.KNOWN),
        "proposal": proposed_penalty(fit, weight_power=1),
        "qicw": qicw_penalty(d, dlt, working.dimension),
    }


def _rep_sel(spec: DgpSpec, mode: PsMode, weighting: Weighting, rng) -> dict[str, float]:
    dataset, truth = generate(spec, rng)
    candidates = tuple(range(spec.n_covariates))
    config = PsConfig(
        mode=mode,
        e1_known=truth.e1_true if mode is PsMode.KNOWN else None,
        weighting=weighting,
    )
    full = ModelSpec(candidates)
    X_full = design_matrix(dataset, full)
    # Shared by both criteria, so the fixed scores are fit once.
    scores = fit_scores(dataset, full, config)
    out: dict[str, float] = {}
    for label, kind in (("proposal", CriterionKind.PROPOSED), ("qicw", CriterionKind.QICW)):
        result = forward_select(scores, candidates, kind)
        padded = np.zeros(full.dimension)
        padded[0] = result.final_fit.theta[0]
        for slot, cov in enumerate(result.final_spec.selected, start=1):
            padded[1 + cov] = result.final_fit.theta[slot]
        counts = tp_fp(result.final_spec, truth.truth_slopes)
        out[f"{label}_risk"] = empirical_risk(padded, truth.theta_star, X_full, truth.e1_true)
        out[f"{label}_tp"] = float(counts["tp"])
        out[f"{label}_fp"] = float(counts["fp"])
    return out


# ---------------------------------------------------------------------------
# Table harness
# ---------------------------------------------------------------------------

_BETAS = (0.1, 0.5, 1.0, 3.0)
_NS = (200, 400, 600)
_BIAS_FAMILIES = (DgpFamily.CASE_1_1, DgpFamily.CASE_1_2)
_SEL_FAMILIES = (DgpFamily.CASE_2_1, DgpFamily.CASE_2_2, DgpFamily.CASE_2_3)


@dataclass(frozen=True)
class _TableDef:
    """One study table: its stream index, replication worker and cell grid.

    ``worker(spec, rng=rng)`` returns one replication's statistics.  The
    cells run over ``families``, then the betas, ``alphas`` and sizes.  An
    ``att`` table's worker returns one ATT per estimator, NaN where that
    estimator's fit failed, and its cells add the oracle ATT.
    """

    index: int
    worker: Callable[..., dict[str, float]]
    families: tuple[DgpFamily, ...]
    alphas: tuple[float | None, ...] = (None,)
    att: bool = False

    def cells(self) -> list[DgpSpec]:
        return [DgpSpec(family, beta, n, alpha) for family in self.families
                for beta in _BETAS for alpha in self.alphas for n in _NS]


TABLE_IDS: dict[str, _TableDef] = {
    "att-comparison": _TableDef(0, _rep_att, (DgpFamily.ROBUSTNESS,), (1.0, 3.0), att=True),
    "bias-known": _TableDef(
        1, partial(_rep_bias, mode=PsMode.KNOWN, weighting=Weighting.IDENTITY), _BIAS_FAMILIES),
    "bias-cbd-id": _TableDef(
        2, partial(_rep_bias, mode=PsMode.CBD, weighting=Weighting.IDENTITY), _BIAS_FAMILIES),
    "bias-mle": _TableDef(
        3, partial(_rep_bias, mode=PsMode.MLE, weighting=Weighting.IDENTITY), _BIAS_FAMILIES),
    "sel-known": _TableDef(
        4, partial(_rep_sel, mode=PsMode.KNOWN, weighting=Weighting.IDENTITY), _SEL_FAMILIES),
    "sel-cbd-id": _TableDef(
        5, partial(_rep_sel, mode=PsMode.CBD, weighting=Weighting.IDENTITY), _SEL_FAMILIES),
    "sel-cbd-opt": _TableDef(
        6, partial(_rep_sel, mode=PsMode.CBD, weighting=Weighting.OPTIMAL), _SEL_FAMILIES),
    "sel-mle": _TableDef(
        7, partial(_rep_sel, mode=PsMode.MLE, weighting=Weighting.IDENTITY), _SEL_FAMILIES),
}


def _run_one(args) -> tuple[dict | None, str | None]:
    table, spec, master_seed, cell_idx, rep = args
    rng = np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(table.index, cell_idx, rep))
    )
    try:
        return table.worker(spec, rng=rng), None
    except NumericalError as err:
        return None, f"{type(err).__name__}: {err}"


@dataclass
class CellReport:
    spec: DgpSpec
    stats: dict[str, float]
    reps_used: int
    failures: tuple[tuple[int, str], ...] = ()
    raw: dict[str, list[float]] | None = None


@dataclass
class McReport:
    table_id: str
    reps: int
    seed: int
    cells: list[CellReport] = field(default_factory=list)

    @property
    def failure_rate(self) -> float:
        failed = sum(len(c.failures) for c in self.cells)
        total = self.reps * len(self.cells)
        return failed / total if total else 0.0

    def check_failure_rate(self, max_failure_rate: float = MAX_FAILURE_RATE) -> None:
        """Raise :class:`NumericalError` if the failure rate exceeds ``max_failure_rate``."""
        if self.failure_rate > max_failure_rate:
            raise NumericalError(
                f"replication failure rate {self.failure_rate:.2%} exceeds "
                f"{max_failure_rate:.2%}"
            )

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "table": self.table_id,
            "reps": self.reps,
            "seed": self.seed,
            "failure_rate": self.failure_rate,
            "cells": [
                {
                    "key": {"family": c.spec.family.value, "beta": c.spec.beta_star,
                            "alpha": c.spec.alpha_star, "n": c.spec.n},
                    "stats": c.stats,
                    "reps_used": c.reps_used,
                    "failures": list(c.failures),
                    **({"raw": c.raw} if c.raw is not None else {}),
                }
                for c in self.cells
            ],
        }


def _aggregate_att(values, att_true) -> dict[str, float]:
    stats = {"true": att_true}
    for label in ("cbd-id", "cbd-opt", "mle"):
        arr = np.array([v[label] for v in values])
        ok = arr[np.isfinite(arr)]
        # An estimator that failed in every replication reports NaN.
        summary = att_summary(ok) if ok.size else dict.fromkeys(("mean", "lower", "upper"), np.nan)
        stats[f"{label}_mean"] = summary["mean"]
        stats[f"{label}_lo"] = summary["lower"]
        stats[f"{label}_hi"] = summary["upper"]
        stats[f"{label}_failures"] = float(arr.size - ok.size)
    return stats


def run_table(
    table_id: str,
    reps: int = 500,
    seed: int = 0,
    jobs: int = 1,
    dump_raw: bool = False,
    max_failure_rate: float = MAX_FAILURE_RATE,
) -> McReport:
    """Run every cell of one simulation-study table grid.

    Per-replication streams are keyed by (seed, cell, replication), and the
    aggregation is a fixed-order reduction, so any ``jobs`` count produces
    the same report bit for bit.  A replication counts as failed once, also
    in the ATT table, where its entry names every estimator that failed.  A
    failure rate above ``max_failure_rate`` raises :class:`NumericalError`.
    """
    if table_id not in TABLE_IDS:
        raise SpecError(f"unknown table {table_id!r}; valid: {sorted(TABLE_IDS)}")
    if reps < 1 or jobs < 1:
        raise SpecError(f"reps and jobs must be at least 1 (got reps={reps}, jobs={jobs})")
    table = TABLE_IDS[table_id]
    cells = table.cells()
    work = [
        (table, spec, seed, cell_idx, rep)
        for cell_idx, spec in enumerate(cells)
        for rep in range(reps)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_one, work, chunksize=16))
    else:
        outcomes = list(map(_run_one, work))

    report = McReport(table_id=table_id, reps=reps, seed=seed)
    for cell_idx, spec in enumerate(cells):
        values, failures = [], []
        for rep, (v, err) in enumerate(outcomes[cell_idx * reps:(cell_idx + 1) * reps]):
            if err is not None:
                failures.append((rep, err))
                continue
            values.append(v)
            if table.att:
                # _rep_att records a failed estimator as NaN.
                failed = [label for label, value in v.items() if not np.isfinite(value)]
                if failed:
                    failures.append((rep, f"{', '.join(failed)}: fit failed"))
        keys = sorted(values[0]) if values else []
        if table.att:
            oracle_rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(table.index, cell_idx, 1 << 20))
            )
            _, att_true = theta_star_oracle(spec, seed=oracle_rng)
            stats = _aggregate_att(values, att_true)
        else:
            stats = {k: float(np.mean([v[k] for v in values])) for k in keys}
        raw = {k: [float(v[k]) for v in values] for k in keys} if dump_raw else None
        report.cells.append(CellReport(spec, stats, len(values), tuple(failures), raw))
    report.check_failure_rate(max_failure_rate)
    return report
