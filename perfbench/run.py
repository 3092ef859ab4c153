"""cbdid benchmark: one workload, checked against the stored reference.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {mc-select,mc-att-bias,cli} \
        --seed N --seconds S --trace {0,1}

Each workload is a closed loop run by one process at a time (``jobs=1``,
single-threaded BLAS): the next unit of work starts when the previous one
ends, until ``--seconds`` have passed; the unit in flight is finished.
The process and its children stay on one CPU, and every time is adjusted
for the machine's speed by ``perfbench/speed.py``.
Every output is compared with ``perfbench/reference.json``.  The last line
of standard output is the result JSON; the full report, with machine facts
and the metrics under the names used in ``perfbench/README.md``, is printed
before it and written to ``.perfbench_out/``.  Exits 1 when an output does
not match the reference and 2 when the package source is missing.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere in this process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import TYPE_CHECKING  # noqa: E402

if TYPE_CHECKING:
    from perfbench.speed import Gauge

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc-select", "mc-att-bias", "cli")
SETUPS = 3
IMPORT_SAMPLES = 9


def _median(values) -> float:
    return float(statistics.median(values))


class Run:
    """State of one benchmark run: counts, mismatches and recorded spans."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.spans: list[dict] = []

    def mismatch(self, where: str, problems: list[str]) -> None:
        self.problems += [f"{where}: {p}" for p in problems]


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "git_sha": sha,
        "platform": platform.platform(),
    }


def _openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded into this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    counts = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                counts[Path(lib).name] = int(getter())
                break
    return counts


class ImportSampler:
    """Fresh-interpreter ``import cbdid`` timings, ``IMPORT_SAMPLES`` of them
    evenly spaced over the run between units of work, so that they span the
    whole run rather than one moment of it.  Traced runs take
    ``-X importtime`` profiles instead."""

    def __init__(self, trace: bool, gauge: Gauge, seconds: float):
        self.trace, self.gauge = trace, gauge
        self.spacing = seconds / IMPORT_SAMPLES
        self.started = time.perf_counter()
        self.samples: list = []

    def when_due(self) -> None:
        """Take a sample if the run has reached the next one's time."""
        if time.perf_counter() - self.started >= len(self.samples) * self.spacing:
            self.take()

    def take(self) -> None:
        from perfbench.workloads import import_profile, timed_python

        if self.trace:
            self.samples.append(import_profile(timed_python("import cbdid", "-X", "importtime")[1]))
        else:
            self.samples.append(self.gauge.time(timed_python, "import cbdid", child=True)[0])

    def result(self) -> dict:
        while len(self.samples) < IMPORT_SAMPLES:
            self.take()
        if not self.trace:
            return {"import_s": _median(map(self.gauge.adjusted, self.samples)),
                    "import_raw_s": [self.gauge.raw(u) for u in self.samples]}
        return {"import_total_s": _median(p[0] for p in self.samples),
                "import_scipy_s": _median(p[1] for p in self.samples)}


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------


def run_mc(run: Run, reference: dict, gauge: Gauge) -> dict:
    from perfbench.check import compare_mc
    from perfbench.spans import Tracer
    from perfbench.workloads import (
        MC_HEAVY_TABLE, MC_JOBS, MC_RATE_TABLES, MC_SETUP_TABLE, McJob, count_units,
        mc_entries, run_mc_job, timed_python,
    )

    jobs = MC_JOBS[run.workload]
    entries = mc_entries(run.workload, run.seed)
    setup_table = MC_SETUP_TABLE[run.workload]
    setup_code = ("from cbdid.simlab import run_table; "
                  f"run_table({setup_table!r}, reps=1, seed=0, max_failure_rate=float('inf'))")
    setups = [gauge.time(timed_python, setup_code, child=True)[0] for _ in range(SETUPS)]
    run_mc_job(McJob(setup_table, 1), entries[0])  # first-call costs stay out of the loop

    #: (table, entry) -> replications per call, and the gauge's unit ids.
    reps: dict[tuple[str, int], int] = {}
    samples: dict[tuple[str, int], list[int]] = {}

    def one_round(master: int, tracer: Tracer | None, label: str) -> float:
        """Run every job once on pool entry ``master``; return the raw seconds."""
        total = 0.0
        for job in jobs:
            if tracer is None:
                imports.when_due()
            else:
                tracer.run_id = f"{label}/seed={master}|{job.table}"
            unit, (_, summary) = gauge.time(run_mc_job, job, master)
            want = reference["mc"][job.key(master)]
            run.mismatch(f"{label} {job.key(master)}", compare_mc(summary, want["outcome"], job.reps))
            reps_total, attempted, failed = count_units(job.table, job.reps, summary, want["n_cells"])
            run.attempted += attempted
            run.failed += failed
            if tracer is None:
                reps[job.table, master] = reps_total
                samples.setdefault((job.table, master), []).append(unit)
            total += gauge.raw(unit)
        return total

    rounds, traced_rounds, ratios = 0, 0, []
    imports = ImportSampler(run.trace, gauge, run.seconds)
    deadline = time.perf_counter() + run.seconds
    while rounds < len(entries) or time.perf_counter() < deadline:
        master = entries[rounds % len(entries)]
        untraced = one_round(master, None, f"round{rounds}")
        if run.trace:
            with Tracer() as tracer:
                ratios.append(one_round(master, tracer, f"round{rounds}-traced") / untraced)
            run.spans += tracer.span_dicts()
            traced_rounds += 1
        rounds += 1

    def rate(tables: tuple[str, ...], adjusted: bool = True) -> float:
        """Replications per second over ``tables``; each (table, entry) pair
        contributes its median seconds over the run's rounds."""
        seconds_of = gauge.adjusted if adjusted else gauge.raw
        keys = [key for key in samples if key[0] in tables]
        seconds = sum(_median(map(seconds_of, samples[key])) for key in keys)
        return sum(reps[key] for key in keys) / seconds

    rate_tables = MC_RATE_TABLES[run.workload]
    heavy = (MC_HEAVY_TABLE[run.workload],)
    return {
        "setup_s": _median(map(gauge.adjusted, setups)),
        "setup_raw_s": [gauge.raw(u) for u in setups],
        **imports.result(),
        "entries": entries,
        "rounds": rounds,
        "rate_per_s": rate(rate_tables),
        "heavy_rate_per_s": rate(heavy),
        "raw_rate_per_s": rate(rate_tables, adjusted=False),
        "raw_heavy_rate_per_s": rate(heavy, adjusted=False),
        "table_reps_per_s": {job.table: rate((job.table,)) for job in jobs},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes_traced": traced_rounds,
        "overhead_frac": _median(ratios) - 1.0 if ratios else None,
    }


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


def run_cli(run: Run, reference: dict, workdir: Path, gauge: Gauge) -> dict:
    from perfbench.check import compare_values
    from perfbench.workloads import CLI_CALLS, cli_outputs, pool_index, run_cli_call, write_csvs

    index = pool_index(run.seed)
    want = reference["cli"][str(index)]
    setups, csvs = [], {}
    for _ in range(SETUPS):
        unit, csvs = gauge.time(write_csvs, workdir, index)
        setups.append(unit)
    for size, info in csvs.items():
        run.mismatch(f"csv {size}", compare_values(info["sha256"], want["csv"][size]["sha256"]))
    paths = {size: info["path"] for size, info in csvs.items()}

    #: call key -> the gauge's unit ids of its untraced calls.
    samples: dict[str, list[int]] = {}

    def one_pass(label: str, traced: bool) -> float:
        """Run every CLI call once; return the raw seconds."""
        total = 0.0
        for call in CLI_CALLS:
            if not traced:
                imports.when_due()
            run_id = f"{label}|{call.key}"
            spans_file = (workdir / f"spans-{label}-{call.size}-{call.name}.json"
                          if traced else None)
            unit, (_, code, stdout, stderr) = gauge.time(
                run_cli_call, call, paths, spans_file, run_id, child=not traced)
            run.attempted += 1
            if code != 0:
                run.failed += 1
                run.mismatch(run_id, [f"exit {code}: {stderr.strip()[-400:]}"])
            else:
                run.mismatch(run_id, compare_values(cli_outputs(call, stdout),
                                                    want["outputs"][call.key]))
            if traced and spans_file.exists():
                run.spans += json.loads(spans_file.read_text())
            if not traced:
                samples.setdefault(call.key, []).append(unit)
            total += gauge.raw(unit)
        return total

    passes, traced_passes, ratios = 0, 0, []
    imports = ImportSampler(run.trace, gauge, run.seconds)
    deadline = time.perf_counter() + run.seconds
    while passes == 0 or time.perf_counter() < deadline:
        untraced = one_pass(f"pass{passes}", traced=False)
        if run.trace:
            ratios.append(one_pass(f"pass{passes}-traced", traced=True) / untraced)
            traced_passes += 1
        passes += 1

    def call_s(size: str, adjusted: bool = True) -> float:
        """Mean over the calls of one size of each call's median seconds."""
        seconds_of = gauge.adjusted if adjusted else gauge.raw
        return statistics.fmean(_median(map(seconds_of, units))
                                for key, units in samples.items() if key.startswith(size + "/"))

    return {
        "setup_s": _median(map(gauge.adjusted, setups)),
        "setup_raw_s": [gauge.raw(u) for u in setups],
        **imports.result(),
        "csv": {size: {"rows": info["rows"], "bytes": info["bytes"]} for size, info in csvs.items()},
        "passes": passes,
        "rate_per_s": 1.0 / call_s("small"),
        "heavy_rate_per_s": 1.0 / call_s("large"),
        "small_call_s": call_s("small"),
        "small_call_samples": sum(len(ts) for key, ts in samples.items()
                                  if key.startswith("small/")),
        "large_estimate_s": _median(map(gauge.adjusted, samples["large/estimate-cbd"])),
        "large_select_s": _median(map(gauge.adjusted, samples["large/select-cbd"])),
        "raw_small_call_s": call_s("small", adjusted=False),
        "raw_large_call_s": call_s("large", adjusted=False),
        "call_seconds": {key: [(gauge.raw(u), gauge.adjusted(u)) for u in units]
                         for key, units in samples.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "passes_traced": traced_passes,
        "overhead_frac": _median(ratios) - 1.0 if ratios else None,
    }


# ---------------------------------------------------------------------------
# Result
# ---------------------------------------------------------------------------

#: The names each workload's figures go by in the report, and the measured
#: key behind each; the result publishes some of them under generic names.
_NAMED = {
    "mc-select": {"sel_reps_per_s": "rate_per_s", "sel_cbd_opt_reps_per_s": "heavy_rate_per_s"},
    "mc-att-bias": {"bias_reps_per_s": "rate_per_s", "att_reps_per_s": "heavy_rate_per_s"},
    "cli": {"small_call_s": "small_call_s", "large_estimate_s": "large_estimate_s",
            "large_select_s": "large_select_s"},
}
_NAMED_ALL = ("setup_s", "import_s", "peak_rss_mb")


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "MiB" if name.endswith("_mb") else "ratio"


def result_json(run: Run, measured: dict) -> dict:
    from perfbench.metrics import END_TO_END, PER_LAYER, as_metrics, layer_values

    if run.trace:
        values = layer_values(run.spans, measured["passes_traced"], measured["import_total_s"],
                              measured["import_scipy_s"], measured["overhead_frac"])
        metrics = as_metrics(values, PER_LAYER)
    else:
        metrics = as_metrics({k: measured[k] for k in END_TO_END}, END_TO_END)
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cbdid" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'cbdid'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import cbdid

    if Path(cbdid.__file__).resolve().parent != (ROOT / "src" / "cbdid").resolve():
        print(f"error: imported cbdid from {cbdid.__file__}, not this checkout", file=sys.stderr)
        return 2
    from perfbench.speed import KERNEL_REF_S, Gauge, pin_to_one_cpu
    from perfbench.workloads import REFERENCE

    reference = json.loads(REFERENCE.read_text())
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    machine = machine_facts()  # before pinning, so that nproc counts every allowed CPU
    cpu = pin_to_one_cpu()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    gauge = Gauge(workdir)
    try:
        if args.workload == "cli":
            measured = run_cli(run, reference, workdir, gauge)
        else:
            measured = run_mc(run, reference, gauge)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = result_json(run, measured)
    keys = {**{name: name for name in _NAMED_ALL}, **_NAMED[args.workload]}
    named = {name: {"value": measured[key], "unit": _unit(name)}
             for name, key in keys.items() if key in measured}
    named["failed_frac"] = {"value": run.failed / run.attempted, "unit": "ratio"}
    if run.trace:
        from perfbench.metrics import unique_frac_by_unit

        named["unique_frac_by_unit"] = {
            base: unique_frac_by_unit(run.spans, base)
            for base in ("propensity.fit_cbd", "estimator.fit_theta")
        }
    speed = {"cpu": cpu, "kernel_ref_s": KERNEL_REF_S, "kernel_median_s": _median(gauge.samples),
             "kernel_inside_samples": len(gauge.inside)}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "machine": machine, "named": named,
        "speed": speed, "kernel_samples": gauge.samples, "kernel_inside": gauge.inside,
        "units": gauge.units,
        "measured": measured, "problems": run.problems, "result": result,
    }
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (outdir / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if run.trace:
        (outdir / f"{stem}-spans.jsonl").write_text(
            "".join(json.dumps(s) + "\n" for s in run.spans))
    for problem in run.problems[:20]:
        print(f"MISMATCH {problem}", file=sys.stderr)
    print("report " + json.dumps({k: report[k] for k in ("workload", "seed", "machine", "named",
                                                           "speed")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
