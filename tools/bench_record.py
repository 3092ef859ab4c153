"""Record the benchmark of this checkout in one file per change.

    python3 tools/bench_record.py PR [--seconds S] [--out PATH]
    python3 tools/bench_record.py PR --against BENCH_<n>.json [--out PATH]

Runs ``perfbench/run.py`` on every workload it declares, once with
``--trace 0`` and ``TRACED_RUNS`` (three) times with ``--trace 1``, at seed 3
and ``--seconds`` (default 30), one run at a time, and then times the test
runs of ``TESTS`` (Tier-1 and acceptance criterion 6), one ``pytest`` run
each.  Everything runs in a temporary copy of ``src/``, ``perfbench/``,
``tests/``, ``tools/``, ``pyproject.toml`` and ``BENCHMARK.json``, so the
reports in this checkout's ``.perfbench_out/`` and any benchmark run going
on in it are left alone.  From the reports the runs leave, it writes
``BENCH_<PR>.json`` at the root of the checkout (or ``--out``), holding:

* ``commit``: the commit checked out when the record was made.  A change
  records itself before it is committed, so this is its base commit and
  ``dirty`` is true; ``src_sha256``, a digest of the package source that was
  run (:func:`src_digest`), is what identifies the code measured.
* ``machine``: the machine facts of the first report;
* per workload: the five end-to-end metrics of the untraced run, each
  per-layer metric of the traced runs as their median ``value`` with its
  ``min`` and ``max``, ``correct`` (every run matched the reference), and
  ``attempted`` and ``failed`` summed over all runs;
* ``tests``: per test run, its wall time ``wall_s`` (seconds, ``pytest``
  start-up included), its ``exit_code`` and the last line ``pytest`` printed.

Nothing under ``perfbench/`` is changed.  Exits 1 when a run does not match
the reference or a test run fails (the file is still written), and 2 on a
usage error or when a run leaves no report.

With ``--against OLD``, nothing runs: the record ``BENCH_<PR>.json`` (or
``--out``) is compared with ``OLD``, and Markdown tables are printed
(:func:`compare`): each workload's five end-to-end metrics in both records,
with the ratio new/old, then its per-layer metrics whose values differ
between the records, which show the layers where a change lands, and, when
either record holds test runs, their wall times.  A metric that may be
negative, ``trace.overhead_frac``, shows the difference new - old in place
of the ratio.  A layer recorded with its range in both records shows it.
A record's traced runs follow each other within minutes, so a range holds
one phase of its host and does not tell how far apart two records' hosts
were.  Exits 2 when either record is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
#: One seed for every record, so that records of successive changes run
#: the same inputs.
SEED = 3
#: Traced runs per workload, whose per-layer figures give a median and a range.
TRACED_RUNS = 3
#: The timed test runs: name and ``pytest`` arguments, run from the copy's root
#: with ``src`` on the path.
TESTS = {
    "tier1": ("--continue-on-collection-errors",),
    "criterion6": ("tests/test_acceptance.py::TestCriterion6",),
}
#: What the copy holds of the checkout: the runs need no other file.
COPIED = ("src", "perfbench", "tests", "tools", "pyproject.toml", "BENCHMARK.json")


def src_digest(root: Path = ROOT) -> str:
    """SHA-256 over every ``*.py`` file under ``src/``, in path order: each
    file adds its path relative to ``root``, a NUL, its bytes and a NUL."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def run_workload(copy: Path, workload: str, seconds: int, trace: int) -> dict:
    """Run one benchmark workload in the checkout copy ``copy`` and return
    its report."""
    report = copy / ".perfbench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    print("+ " + " ".join(cmd[1:]), file=sys.stderr, flush=True)
    subprocess.run(cmd, cwd=copy, stdout=subprocess.DEVNULL)
    if not report.is_file():
        print(f"error: {' '.join(cmd[1:])} left no report", file=sys.stderr)
        raise SystemExit(2)
    return json.loads(report.read_text())


def run_tests(copy: Path, args: tuple[str, ...]) -> dict:
    """Run ``pytest`` with ``args`` in the checkout copy ``copy``, with its
    ``src`` on the path, and return the run's wall time, exit code and last
    line of output."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ("src", env.get("PYTHONPATH"))))
    print("+ " + " ".join(cmd[1:]), file=sys.stderr, flush=True)
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    return {"wall_s": wall, "exit_code": done.returncode, "summary": lines[-1] if lines else ""}


def layer_ranges(reports: list[dict]) -> dict[str, dict]:
    """Each per-layer metric of the traced ``reports`` as the median
    ``value`` of its runs with their ``min`` and ``max``, in the first
    report's order."""
    metrics = [report["result"]["metrics"] for report in reports]
    ranges = {}
    for name, first in metrics[0].items():
        values = [m[name]["value"] for m in metrics if name in m]
        ranges[name] = {"value": statistics.median(values), "min": min(values),
                        "max": max(values), "unit": first["unit"]}
    return ranges


def record(pr: int, seconds: int, names: tuple[str, ...],
           tests: dict[str, tuple[str, ...]] | None = None) -> dict:
    """The record of the workloads ``names`` and the test runs ``tests``
    (name to ``pytest`` arguments; none by default)."""
    workloads, machine = {}, None
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        copy = Path(tmp)
        for part in COPIED:
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, copy / part,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / part, copy / part)
        for workload in names:
            plain = run_workload(copy, workload, seconds, 0)
            traced = [run_workload(copy, workload, seconds, 1) for _ in range(TRACED_RUNS)]
            machine = machine or plain["machine"]
            runs = [report["result"] for report in (plain, *traced)]
            workloads[workload] = {
                "correct": all(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "end_to_end": plain["result"]["metrics"],
                "per_layer": layer_ranges(traced),
            }
        timed = {name: run_tests(copy, args) for name, args in (tests or {}).items()}
    return {
        "pr": pr,
        "commit": git("rev-parse", "HEAD") or None,
        "dirty": bool(git("status", "--porcelain", "--", "src")),
        "src_sha256": src_digest(),
        "seed": SEED,
        "seconds": seconds,
        "traced_runs": TRACED_RUNS,
        "machine": machine,
        "workloads": workloads,
        "tests": timed,
    }


#: The end-to-end metrics every record holds per workload, in BENCHMARK.json's order.
END_TO_END = ("setup_s", "import_s", "rate_per_s", "heavy_rate_per_s", "peak_rss_mb")
#: Metrics compared by their difference new - old, since their value may be
#: zero or negative, where a ratio means nothing.
DIFFERENCE = ("trace.overhead_frac",)


def compare(old: dict, new: dict, old_name: str, new_name: str) -> str:
    """Markdown tables comparing the records ``old`` and ``new``: each
    workload's end-to-end metrics, then its per-layer metrics whose values
    differ between the records, with the ratio new/old (the difference
    new - old for the metrics in ``DIFFERENCE``), then, when either record
    holds test runs, each run's wall time with the ratio new/old, and its
    exit code when it failed.  A metric with a range
    in both records shows ``median (min-max)`` on each side.  A value missing
    from either record reads ``-``.  Workloads follow ``new``'s order, then any
    only in ``old``; layers follow ``new``'s order, then any only in ``old``."""
    def cell(m: dict | None, ranged: bool) -> str:
        if not m:
            return "-"
        value = f"{m['value']:.4g}"
        return f"{value} ({m['min']:.4g}-{m['max']:.4g})" if ranged else value

    def wall(run: dict | None) -> str:
        if not run:
            return "-"
        failed = f" (exit {run['exit_code']})" if run["exit_code"] else ""
        return f"{run['wall_s']:.4g}{failed}"

    def row(workload: str, metric: str, a: dict | None, b: dict | None) -> str:
        unit = (b or a or {}).get("unit", "")
        change = "-"
        if a and b and metric in DIFFERENCE:
            change = f"new-old {b['value'] - a['value']:+.3f}"
        elif a and b and a["value"]:
            change = f"{b['value'] / a['value']:.3f}"
        ranged = bool(a and b and "min" in a and "min" in b)
        return (f"| {workload} | {metric} | {unit} | {cell(a, ranged)} | {cell(b, ranged)} "
                f"| {change} |")

    tables = [[f"| workload | {kind} | unit | {old_name} | {new_name} | new/old |",
               "|---|---|---|---|---|---|"] for kind in ("metric", "layer")]
    names = list(new["workloads"]) + [w for w in old["workloads"] if w not in new["workloads"]]
    for workload in names:
        before, after = (record["workloads"].get(workload, {}) for record in (old, new))
        for metric in END_TO_END:
            a, b = (side.get("end_to_end", {}).get(metric) for side in (before, after))
            tables[0].append(row(workload, metric, a, b))
        layers_before, layers_after = before.get("per_layer", {}), after.get("per_layer", {})
        for layer in list(layers_after) + [m for m in layers_before if m not in layers_after]:
            a, b = layers_before.get(layer), layers_after.get(layer)
            if (a or {}).get("value") != (b or {}).get("value"):
                tables[1].append(row(workload, layer, a, b))
    runs_before, runs_after = old.get("tests", {}), new.get("tests", {})
    if runs_before or runs_after:
        tables.append([f"| test run | unit | {old_name} | {new_name} | new/old |",
                       "|---|---|---|---|---|"])
    for name in list(runs_after) + [t for t in runs_before if t not in runs_after]:
        a, b = runs_before.get(name), runs_after.get(name)
        change = f"{b['wall_s'] / a['wall_s']:.3f}" if a and b else "-"
        tables[2].append(f"| {name} | s | {wall(a)} | {wall(b)} | {change} |")
    return "\n\n".join("\n".join(table) for table in tables) + "\n"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="number of the change, used in the file name")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<PR>.json)")
    parser.add_argument("--against", type=Path,
                        help="compare the record with this one instead of running")
    args = parser.parse_args(argv)
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    if args.against:
        missing = [str(p) for p in (args.against, out) if not p.is_file()]
        if missing:
            print(f"error: no record {', '.join(missing)}", file=sys.stderr)
            return 2
        old, new = (json.loads(p.read_text()) for p in (args.against, out))
        print(compare(old, new, args.against.name, out.name), end="")
        return 0
    # Importing perfbench.run pins BLAS threads in os.environ; neither that
    # nor the repository root on sys.path outlives the import.
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", [str(ROOT), *sys.path]):
        from perfbench.run import WORKLOADS

    bench = record(args.pr, args.seconds, WORKLOADS, TESTS)
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    passed = all(t["exit_code"] == 0 for t in bench["tests"].values())
    return 0 if passed and all(w["correct"] for w in bench["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
