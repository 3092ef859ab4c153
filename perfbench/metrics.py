"""Names and units of every metric the benchmark prints, and the per-layer
arithmetic over recorded spans.  ``BENCHMARK.json`` lists the same names."""

from __future__ import annotations

import statistics

from perfbench.spans import self_times

#: End-to-end metrics printed by every untraced run, with their units.
END_TO_END = {
    "setup_s": "s",
    "import_s": "s",
    "rate_per_s": "1/s",
    "heavy_rate_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

_TIMED = (
    "data.load_csv", "data.design_matrix",
    "propensity.fit_cbd.identity", "propensity.fit_cbd.optimal", "propensity.fit_mle",
    "propensity.moment_h", "propensity.moment_jacobian",
    "estimator.fit_theta",
    "selection.forward_select", "selection.penalty_cbd", "selection.penalty_mle",
    "selection.penalty_known", "selection.evaluate_criterion",
    "simlab.generate", "simlab.theta_star_oracle", "simlab.run_table",
    "cli.main",
)
_COUNTED = (
    "data.load_csv", "propensity.fit_cbd.identity", "propensity.fit_cbd.optimal",
    "propensity.fit_mle", "estimator.fit_theta", "selection.forward_select",
    "simlab.theta_star_oracle",
)
_ITERATED = ("propensity.fit_cbd.identity", "propensity.fit_cbd.optimal", "propensity.fit_mle")
_UNIQUE = ("propensity.fit_cbd", "estimator.fit_theta")

#: Per-layer metrics printed by every traced run, with their units.
PER_LAYER = {
    **{f"{n}.s": "s" for n in _TIMED},
    **{f"{n}.calls": "count" for n in _COUNTED},
    **{f"{n}.iter_mean": "count" for n in _ITERATED},
    **{f"{n}.unique_frac": "ratio" for n in _UNIQUE},
    "cli.import.total_s": "s",
    "cli.import.scipy_s": "s",
    "trace.overhead_frac": "ratio",
}


def _matches(name: str, base: str) -> bool:
    return name == base or name.startswith(base + ".")


def unique_frac(spans: list[dict], base: str) -> float:
    """Distinct inputs over calls of ``base``.  Inputs are distinct per run id
    (one run_table call or one CLI process), the scope in which a repeated
    fit could have been shared."""
    prints = [(s["run_id"], s["fingerprint"]) for s in spans if _matches(s["name"], base)]
    return len(set(prints)) / len(prints) if prints else 0.0


def unique_frac_by_unit(spans: list[dict], base: str) -> dict[str, float]:
    """:func:`unique_frac` per unit of work, from run ids ``"<label>|<unit>"``."""
    units: dict[str, list[dict]] = {}
    for s in spans:
        units.setdefault(s["run_id"].split("|", 1)[-1], []).append(s)
    fracs = {unit: unique_frac(group, base) for unit, group in sorted(units.items())}
    return {unit: frac for unit, frac in fracs.items() if frac}


def layer_values(spans: list[dict], passes: int, import_total_s: float,
                 import_scipy_s: float, overhead_frac: float) -> dict[str, float]:
    """Per-layer values from the spans of ``passes`` traced passes.

    ``.s`` is self seconds per pass and ``.calls`` calls per pass.
    ``.iter_mean`` averages the ``iterations`` of the returned fits and
    ``.unique_frac`` is :func:`unique_frac`; both are 0 where the workload
    never calls the function.
    """
    own = self_times(spans)
    out: dict[str, float] = {}
    for base in _TIMED:
        out[f"{base}.s"] = sum(t for s, t in zip(spans, own) if s["name"] == base) / passes
    for base in _COUNTED:
        out[f"{base}.calls"] = sum(s["name"] == base for s in spans) / passes
    for base in _ITERATED:
        iters = [s["iterations"] for s in spans
                 if s["name"] == base and s["iterations"] is not None]
        out[f"{base}.iter_mean"] = statistics.fmean(iters) if iters else 0.0
    for base in _UNIQUE:
        out[f"{base}.unique_frac"] = unique_frac(spans, base)
    out["cli.import.total_s"] = import_total_s
    out["cli.import.scipy_s"] = import_scipy_s
    out["trace.overhead_frac"] = overhead_frac
    return out


def as_metrics(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    """``{"name": {"value": v, "unit": u}}`` in the order of ``units``."""
    if set(values) != set(units):
        raise ValueError(f"metric names {sorted(values)} != {sorted(units)}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
