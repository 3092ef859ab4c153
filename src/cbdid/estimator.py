"""Weighted least-squares estimation of the conditional treatment effect.

The outcome change of each unit is scaled by inverse-propensity weights so
that its conditional mean identifies the treatment effect curve; the curve's
working-model coefficients solve propensity-weighted normal equations, and
the scalar effect on the treated averages the fitted curve over treated
units.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionError, PositivityError, RankError

__all__ = ["PsMode", "ThetaFit", "rho_weights", "fit_theta", "att_summary"]

#: Hard gate on the weighted design's condition number.
MAX_CONDITION = 1e12


class PsMode(enum.Enum):
    """Where the propensity scores driving a fit came from."""

    KNOWN = "known"
    MLE = "mle"
    CBD = "cbd"


def rho_weights(e1: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Signed inverse-propensity weights: 1/e1 for treated, -1/(1-e1) for control."""
    e1 = np.asarray(e1, dtype=float)
    d = np.asarray(d).astype(bool)
    if e1.shape != d.shape:
        raise DimensionError("e1 and d must have the same shape")
    if not np.all((e1 > 0.0) & (e1 < 1.0)):
        raise PositivityError("propensity scores must lie strictly inside (0, 1)")
    return np.where(d, 1.0 / e1, -1.0 / (1.0 - e1))


@dataclass(frozen=True)
class ThetaFit:
    """Solution of the propensity-weighted normal equations.

    ``att`` is the mean of the fitted values x' theta over treated units.
    """

    theta: np.ndarray
    e1: np.ndarray
    rho: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    att: float
    condition_number: float
    normal_eq_residual: float


def fit_theta(
    X: np.ndarray,
    d: np.ndarray,
    delta: np.ndarray,
    e1: np.ndarray,
    column_names: tuple[str, ...] | None = None,
) -> ThetaFit:
    """Solve the weighted normal equations for the working-model coefficients.

    Minimizes sum_i e1_i (rho_i delta_i - x_i' theta)^2 with one
    least-squares call on the sqrt(e1)-scaled design, which also returns
    the design's singular values.  Designs with condition number above
    ``MAX_CONDITION`` are rejected with :class:`RankError`, the offending
    columns named; so is a design with fewer rows than columns, whose
    condition number counts as infinite.
    """
    X = np.asarray(X, dtype=float)
    d = np.asarray(d).astype(bool)
    delta = np.asarray(delta, dtype=float)
    e1 = np.asarray(e1, dtype=float)
    n, p = X.shape
    if d.shape != (n,) or delta.shape != (n,) or e1.shape != (n,):
        raise DimensionError("X, d, delta and e1 disagree on the number of units")
    if not d.any():
        raise RankError("no treated units: the effect on the treated is undefined")

    rho = rho_weights(e1, d)
    sw = np.sqrt(e1)
    A = sw[:, None] * X
    y = sw * (rho * delta)

    # rcond=0.0: numpy's default cut-off, eps * max(n, p), would truncate
    # large designs that pass the gate below.
    theta, _, _, sv = np.linalg.lstsq(A, y, rcond=0.0)
    cond = float(sv[0] / sv[-1]) if sv.size == p and sv[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        offenders = _suspect_columns(A, column_names)
        raise RankError(
            f"weighted design is ill-conditioned (cond={cond:.3e}); "
            f"suspect columns: {offenders}"
        )

    fitted = X @ theta
    residuals = rho * delta - fitted
    grad = X.T @ (e1 * residuals)
    scale = max(1.0, float(np.max(np.abs(X.T @ (e1 * rho * delta)))))
    att = float(np.mean(fitted[d]))
    return ThetaFit(
        theta=theta,
        e1=e1,
        rho=rho,
        fitted=fitted,
        residuals=residuals,
        att=att,
        condition_number=cond,
        normal_eq_residual=float(np.max(np.abs(grad)) / scale),
    )


def _suspect_columns(A: np.ndarray, names: tuple[str, ...] | None) -> list[str]:
    """Columns with near-zero contribution in the R factor of a rank probe,
    and every column past R's diagonal when there are fewer rows than
    columns."""
    p = A.shape[1]
    diag = np.abs(np.diag(np.linalg.qr(A, mode="r")))
    ref = diag.max() if diag.max() > 0 else 1.0
    bad = [j for j in range(diag.size) if diag[j] < 1e-12 * ref or not np.isfinite(diag[j])]
    bad += range(diag.size, p)
    if not bad:
        bad = [int(np.argmin(diag))]
    if names is None:
        return [f"column {j}" for j in bad]
    return [names[j] for j in bad]


def att_summary(values: Iterable) -> dict[str, float]:
    """Mean and empirical 95% interval of scalar effects or ThetaFit results.

    The interval is the 2.5% and 97.5% empirical percentiles under the
    linear-interpolation quantile convention.
    """
    arr = np.asarray(
        [v.att if isinstance(v, ThetaFit) else float(v) for v in values], dtype=float
    )
    if arr.size == 0:
        raise DimensionError("att_summary needs at least one value")
    lo, hi = np.percentile(arr, [2.5, 97.5], method="linear")
    return {"mean": float(arr.mean()), "lower": float(lo), "upper": float(hi)}
