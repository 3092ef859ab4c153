"""Command-line interface: estimate, select, simulate.

Every run prints its fully resolved configuration into the output header so
that a run can be reproduced from its own output.  Exit codes: 0 success,
2 input/configuration error, 3 numerical/convergence failure.  ``select``
reports a block that fails numerically as an error entry beside the other
blocks, and exits 3 once the whole output is written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from .data import CsvSchema, Dataset, ModelSpec, load_csv, split_blocks
from .errors import DataError, NumericalError, SpecError
from .estimator import PsMode
from .propensity import Weighting
from .propensity import fit_cbd  # noqa: F401 -- perfbench's span test wraps this binding
from .selection import (
    CriterionKind,
    PsConfig,
    evaluate_criterion,
    fit_scores,
    fit_spec,
    forward_select,
)
from .simlab import TABLE_IDS, run_table

__all__ = ["main"]


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbdid",
        description="Doubly robust difference-in-differences estimation, "
        "model selection, and simulation tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value file; command-line flags win")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("csv", "md", "json"), default="md")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--no-banner", action="store_true",
                       help="suppress the timestamp line for byte-identical reruns")

    def add_data(p):
        p.add_argument("--data", required=True, help="CSV input path")
        p.add_argument("--treat", required=True, help="treatment indicator column")
        p.add_argument("--ypre", help="pre-period outcome column")
        p.add_argument("--ypost", help="post-period outcome column")
        p.add_argument("--delta", help="outcome-change column (alternative to ypre/ypost)")
        p.add_argument("--covars", required=True, help="comma-separated covariate columns")
        p.add_argument("--ps", default="cbd",
                       help="propensity mode: known:<col> | mle | cbd")
        p.add_argument("--weighting", choices=("identity", "optimal"), default="identity")
        p.add_argument("--ps-intercept", action="store_true",
                       help="include the intercept in the propensity design")

    est = sub.add_parser("estimate", help="fit the effect model on the full covariate set")
    add_data(est)
    add_common(est)

    sel = sub.add_parser("select", help="forward selection of effect-model covariates")
    add_data(sel)
    sel.add_argument("--criterion", choices=("proposed", "qicw"), default="proposed")
    sel.add_argument("--blocks", type=int, default=1,
                     help="split rows round-robin into this many blocks and select per block")
    add_common(sel)

    sim = sub.add_parser("simulate", help="run one simulation-study table grid")
    sim.add_argument("--table", required=True,
                     help=f"table id, one of: {', '.join(sorted(TABLE_IDS))}")
    sim.add_argument("--reps", type=int, default=500)
    sim.add_argument("--paper", action="store_true", help="full 3000-replication run")
    sim.add_argument("--jobs", type=int, default=1)
    sim.add_argument("--dump-raw", action="store_true",
                     help="include raw per-replication values (json format)")
    add_common(sim)
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Prepend options from a --config file; explicit flags win (parsed later).

    Every on/off flag is off by default, so ``key=false`` adds nothing.
    """
    idx = next((i for i, arg in enumerate(argv)
                if arg == "--config" or arg.startswith("--config=")), None)
    if idx is None:
        return argv
    _, eq, path = argv[idx].partition("=")
    if not eq:
        try:
            path = argv[idx + 1]
        except IndexError:
            raise _CliError("--config needs a file path", 2) from None
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as err:
        raise _CliError(f"cannot read config file: {err}", 2) from None
    extra: list[str] = []
    for line in lines:
        if "=" not in line:
            raise _CliError(f"config line is not key=value: {line!r}", 2)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if value.lower() in ("true", ""):
            extra.append(f"--{key}")
        elif value.lower() != "false":
            extra.extend([f"--{key}", value])
    # Insert after the subcommand so argparse attaches them to it.
    return argv[:1] + extra + argv[1:]


def _parse_ps(value: str):
    if value == "mle":
        return PsMode.MLE, None
    if value == "cbd":
        return PsMode.CBD, None
    if value.startswith("known:"):
        col = value.split(":", 1)[1]
        if not col:
            raise _CliError("--ps known:<col> needs a column name", 2)
        return PsMode.KNOWN, col
    raise _CliError(f"invalid --ps value {value!r}; use known:<col>, mle, or cbd", 2)


def _load_dataset(args) -> tuple[Dataset, PsMode]:
    """Load the panel named by the data flags.

    With ``--ps known:<col>`` the score column is loaded as one more
    covariate, after the named ones, so it is parsed and split into blocks
    like every other column; :func:`_ps_config` splits it off again.
    :func:`~cbdid.selection.fit_scores` checks the scores themselves.
    """
    mode, known_col = _parse_ps(args.ps)
    covars = tuple(c.strip() for c in args.covars.split(",") if c.strip())
    if not covars:
        raise _CliError("--covars must name at least one column", 2)
    try:
        schema = CsvSchema(
            treat_col=args.treat,
            covariate_cols=covars + ((known_col,) if known_col else ()),
            y_pre_col=args.ypre,
            y_post_col=args.ypost,
            delta_col=args.delta,
        )
        dataset = load_csv(args.data, schema)
    except OSError as err:
        raise _CliError(f"cannot read --data {args.data}: {err.strerror}", 2) from None
    except DataError as err:
        raise _CliError(str(err), 2) from None
    return dataset, mode


def _ps_config(args, dataset: Dataset, mode: PsMode) -> tuple[Dataset, PsConfig]:
    """Split the known-score column off ``dataset`` and build the score config."""
    e1_known = None
    if mode is PsMode.KNOWN:
        e1_known = dataset.covariates[:, -1].copy()
        dataset = Dataset(
            covariates=dataset.covariates[:, :-1],
            treated=dataset.treated,
            y_pre=dataset.y_pre,
            y_post=dataset.y_post,
            covariate_names=dataset.covariate_names[:-1],
        )
    config = PsConfig(mode=mode, e1_known=e1_known, weighting=Weighting(args.weighting),
                      ps_intercept=args.ps_intercept)
    return dataset, config


_CONFIG_EXCLUDE = ("command", "out", "config")


def _resolved_config(args) -> dict[str, str]:
    return {k: str(v) for k, v in sorted(vars(args).items())
            if k not in _CONFIG_EXCLUDE and v is not None}


def _emit(args, rows: list[dict], payload: dict):
    """Write one command's output to ``--out`` or stdout.

    JSON is ``payload`` alone.  md and csv start with the banner (unless
    ``--no-banner``) and the config line; md then adds the payload's title,
    if it has one, and both end with ``rows`` as a table whose columns are
    the keys of every row, in the order they first appear.
    """
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [] if args.no_banner else [f"# generated {time.strftime('%Y-%m-%d %H:%M:%S')}"]
        lines.append("# config: " + " ".join(
            f"{k.replace('_', '-')}={v}" for k, v in _resolved_config(args).items()))
        header = list(dict.fromkeys(key for row in rows for key in row))
        if args.format == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([r.get(h, "") for h in header] for r in rows)
            text = "\n".join(lines) + "\n" + buf.getvalue()
        else:
            if "title" in payload:
                lines.append(f"# {payload['title']}")
            table = [header] + [[str(r.get(h, "")) for h in header] for r in rows]
            widths = [max(len(row[j]) for row in table) for j in range(len(header))]

            def md_row(cells):
                return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"

            lines.append(md_row(header))
            lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
            lines.extend(md_row(cells) for cells in table[1:])
            text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise _CliError(f"cannot write --out {args.out}: {err.strerror}", 2) from None
    else:
        sys.stdout.write(text)


def _check_out(path: str) -> None:
    """Fail before any work if ``path`` cannot be written; leave it as it was."""
    existed = os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as err:
        raise _CliError(f"cannot write --out {path}: {err.strerror}", 2) from None
    if not existed:
        os.remove(path)


def _cmd_estimate(args) -> int:
    dataset, mode = _load_dataset(args)
    dataset, config = _ps_config(args, dataset, mode)
    spec = ModelSpec(tuple(range(dataset.n_covariates)))
    fit = fit_spec(fit_scores(dataset, spec, config), spec)
    value = evaluate_criterion(fit, CriterionKind.PROPOSED)
    ps_fit, theta_fit = fit.scores.ps_fit, fit.theta_fit

    names = spec.column_names(dataset)
    rows = [{"coefficient": n, "estimate": f"{v:.6g}"}
            for n, v in zip(names, theta_fit.theta)]
    rows.append({"coefficient": "ATT", "estimate": f"{theta_fit.att:.6g}"})
    diagnostics = {
        "att": theta_fit.att,
        "theta": dict(zip(names, map(float, theta_fit.theta))),
        "criterion": {"kind": value.kind.value, "gof": value.gof,
                      "penalty": value.penalty, "total": value.total},
        "normal_eq_residual": theta_fit.normal_eq_residual,
        "condition_number": theta_fit.condition_number,
    }
    if ps_fit is not None and fit.scores.mode is PsMode.CBD:
        diagnostics["propensity"] = {
            "foc_norm": ps_fit.foc_norm,
            "balance_residual_sup": ps_fit.moment_residual_norm,
            "converged": ps_fit.converged,
            "iterations": ps_fit.iterations,
        }
        rows.append({"coefficient": "balance-residual-sup",
                     "estimate": f"{ps_fit.moment_residual_norm:.3g}"})
        rows.append({"coefficient": "foc-norm", "estimate": f"{ps_fit.foc_norm:.3g}"})
    elif ps_fit is not None:
        diagnostics["propensity"] = {
            "score_norm": ps_fit.score_norm,
            "converged": ps_fit.converged,
            "iterations": ps_fit.iterations,
        }
    rows.append({"coefficient": "criterion-total", "estimate": f"{value.total:.6g}"})
    _emit(args, rows, {"schema": 1, "title": "estimate", "config": _resolved_config(args),
                       **diagnostics})
    return 0


def _cmd_select(args) -> int:
    dataset, mode = _load_dataset(args)
    kind = CriterionKind(args.criterion)
    rows, payload = [], {"blocks": []}
    failed = False
    for b, block in enumerate(split_blocks(dataset, args.blocks), start=1):
        block, config = _ps_config(args, block, mode)
        candidates = tuple(range(block.n_covariates))
        columns = ("intercept", *block.covariate_names)
        try:
            scores = fit_scores(block, ModelSpec(candidates), config)
            result = forward_select(scores, candidates, kind)
        except NumericalError as err:
            reason = f"{type(err).__name__}: {err}"
            print(f"numerical failure: block {b} of --blocks {args.blocks}: {reason}",
                  file=sys.stderr)
            rows.append({"block": b, **dict.fromkeys((*columns, "criterion"), ""),
                         "error": reason})
            payload["blocks"].append({"block": b, "error": reason})
            failed = True
            continue
        coef = dict.fromkeys(columns, 0.0)
        names = result.final_spec.column_names(block)
        for name, value in zip(names, result.final_fit.theta):
            coef[name] = float(value)
        row = {"block": b}
        row.update({k: f"{v:.4g}" if v else "0" for k, v in coef.items()})
        row["criterion"] = f"{result.path[-1][1].total:.6g}"
        rows.append(row)
        payload["blocks"].append({
            "block": b,
            "selected": [block.covariate_names[i] for i in result.final_spec.selected],
            "coefficients": coef,
            "att": result.final_fit.att,
            "path": [
                {"added": None if i is None else block.covariate_names[i],
                 "gof": v.gof, "penalty": v.penalty, "total": v.total}
                for i, v in result.path
            ],
            "skipped": [{"covariate": block.covariate_names[i], "reason": r}
                        for i, r in result.skipped],
        })
    _emit(args, rows, {"schema": 1, "title": "select", "config": _resolved_config(args),
                       **payload})
    return 3 if failed else 0


def _cmd_simulate(args) -> int:
    if args.table not in TABLE_IDS:
        raise _CliError(
            f"unknown table {args.table!r}; valid ids: {', '.join(sorted(TABLE_IDS))}", 2
        )
    reps = 3000 if args.paper else args.reps
    started = time.time()
    # The failure gate applies once the table, failures included, is written.
    report = run_table(args.table, reps=reps, seed=args.seed, jobs=args.jobs,
                       dump_raw=args.dump_raw, max_failure_rate=float("inf"))
    elapsed = time.time() - started
    failures = sum(len(c.failures) for c in report.cells)
    payload = {**report.to_json_dict(), "config": _resolved_config(args)}
    rows = [{**{k: v for k, v in cell["key"].items() if v is not None},
             **{k: f"{v:.4g}" for k, v in cell["stats"].items()}}
            for cell in payload["cells"]]
    _emit(args, rows, payload)
    print(f"table {args.table}: reps={reps} failures={failures} "
          f"({report.failure_rate:.2%}) wall={elapsed:.1f}s", file=sys.stderr)
    report.check_failure_rate()
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config_file(argv)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
        if args.out:
            _check_out(args.out)
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "select":
            return _cmd_select(args)
        return _cmd_simulate(args)
    except _CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except (DataError, SpecError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
