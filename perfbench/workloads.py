"""What each workload runs, how its inputs follow from the seed, and how one
unit of work is executed and summarised for the reference check.

Inputs come from a pool of ``POOL`` entries.  A Monte Carlo run with seed
``s`` alternates between ``MC_ENTRIES`` entries of ``MC_POOL``, starting at
``s``; a CLI run uses the small panel of entry ``s % POOL``.
``perfbench/reference.json`` holds the expected outputs of every entry, so
any seed can be checked.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
POOL = 12


#: Master seeds of the Monte Carlo runs: the pool without entries 0 and 7,
#: whose ``sel-cbd-opt`` and ``att-comparison`` tables each contain a
#: replication that fails by design (a GMM fit that does not converge, which
#: ``run_table`` records instead of raising).  The workloads are chosen so
#: that no unit fails; the reference check still compares every cell's
#: failure count, so a change that makes a replication fail fails the run.
MC_POOL = (1, 2, 3, 4, 5, 6, 8, 9, 10, 11)
#: Pool entries per Monte Carlo run.  The selection tables' cost follows
#: the draw (the length of each selection path), so ``mc-select`` averages
#: over two; the ATT and bias tables' cost barely does, and one entry gives
#: them more repeats per run.
MC_ENTRIES = {"mc-select": 2, "mc-att-bias": 1}


def pool_index(seed: int) -> int:
    return seed % POOL


def mc_entries(workload: str, seed: int) -> list[int]:
    """The master seeds a Monte Carlo run alternates between."""
    return [MC_POOL[(seed + j) % len(MC_POOL)] for j in range(MC_ENTRIES[workload])]


def child_env() -> dict:
    """Environment for every interpreter the benchmark starts: the package
    from this checkout's ``src`` and single-threaded BLAS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


# ---------------------------------------------------------------------------
# Monte Carlo workloads: one unit of work is one run_table call
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McJob:
    table: str
    reps: int

    def key(self, master: int) -> str:
        return f"{self.table}/reps={self.reps}/seed={master}"


MC_JOBS = {
    "mc-select": (
        McJob("sel-known", 1),
        McJob("sel-mle", 1),
        McJob("sel-cbd-id", 1),
        McJob("sel-cbd-opt", 1),
    ),
    "mc-att-bias": (
        McJob("att-comparison", 5),
        McJob("bias-known", 20),
        McJob("bias-cbd-id", 20),
        McJob("bias-mle", 20),
    ),
}
#: Tables pooled into ``rate_per_s`` and the table behind ``heavy_rate_per_s``.
MC_RATE_TABLES = {
    "mc-select": ("sel-known", "sel-mle", "sel-cbd-id", "sel-cbd-opt"),
    "mc-att-bias": ("bias-known", "bias-cbd-id", "bias-mle"),
}
MC_HEAVY_TABLE = {"mc-select": "sel-cbd-opt", "mc-att-bias": "att-comparison"}
#: Cheapest table of each workload: a fresh interpreter's first result is the set-up.
MC_SETUP_TABLE = {"mc-select": "sel-known", "mc-att-bias": "bias-known"}
_ATT_ESTIMATORS = ("cbd-id", "cbd-opt", "mle")


def summarise_report(report) -> dict:
    """The parts of a McReport the reference check compares."""
    return {
        "cells": [
            {"reps_used": c.reps_used, "failed": len(c.failures), "stats": c.stats}
            for c in report.cells
        ]
    }


def count_units(table: str, reps: int, summary: dict, n_cells: int) -> tuple[int, int, int]:
    """(replications, attempted, failed) with the benchmark's own denominators.

    A selection or bias replication is one unit.  An att-comparison
    replication fits three estimators, and each fit is a unit, so its failed
    count is the failed fits rather than ``McReport.failure_rate``'s mixture.
    A run_table call that raised counts every unit as failed.
    """
    per_rep = 3 if table == "att-comparison" else 1
    replications = reps * n_cells
    attempted = replications * per_rep
    if "error" in summary:
        return replications, attempted, attempted
    if per_rep == 1:
        return replications, attempted, sum(c["failed"] for c in summary["cells"])
    failed = 0
    for c in summary["cells"]:
        failed += per_rep * (reps - c["reps_used"])
        failed += sum(int(c["stats"].get(f"{e}_failures", 0)) for e in _ATT_ESTIMATORS)
    return replications, attempted, failed


def run_mc_job(job: McJob, master: int) -> tuple[float, dict]:
    """Run one table with failures counted instead of raised; return
    (wall seconds, summary)."""
    from cbdid.simlab import run_table

    started = time.perf_counter()
    try:
        report = run_table(job.table, reps=job.reps, seed=master, jobs=1,
                           max_failure_rate=float("inf"))
    except Exception as err:  # recorded, counted as failed and checked
        seconds = time.perf_counter() - started
        traceback.print_exc(file=sys.stderr)
        return seconds, {"error": type(err).__name__}
    seconds = time.perf_counter() - started
    return seconds, summarise_report(report)


# ---------------------------------------------------------------------------
# CLI workload: one unit of work is one `python -m cbdid.cli` process
# ---------------------------------------------------------------------------

SMALL_ROWS = 300
LARGE_ROWS = 50_000
CSV_COLUMNS = ("treat", "ypre", "ypost", "x1", "x2", "x3", "x4", "x5", "x6", "e1")
_COMMON = ["--treat", "treat", "--ypre", "ypre", "--ypost", "ypost",
           "--covars", "x1,x2,x3,x4,x5,x6", "--format", "json", "--no-banner"]


@dataclass(frozen=True)
class CliCall:
    size: str  # "small" | "large"
    name: str
    args: tuple[str, ...]

    @property
    def key(self) -> str:
        return f"{self.size}/{self.name}"

    def argv(self, csv_paths: dict[str, Path]) -> list[str]:
        return [self.args[0], "--data", str(csv_paths[self.size]), *self.args[1:], *_COMMON]


CLI_CALLS = (
    CliCall("small", "estimate-mle", ("estimate", "--ps", "mle")),
    CliCall("small", "estimate-cbd", ("estimate", "--ps", "cbd")),
    CliCall("small", "estimate-cbd-optimal", ("estimate", "--ps", "cbd", "--weighting", "optimal")),
    CliCall("small", "estimate-known", ("estimate", "--ps", "known:e1")),
    CliCall("small", "select-proposed", ("select", "--criterion", "proposed")),
    CliCall("small", "select-qicw-blocks3", ("select", "--criterion", "qicw", "--blocks", "3")),
    CliCall("large", "estimate-cbd", ("estimate", "--ps", "cbd")),
    CliCall("large", "select-cbd", ("select", "--ps", "cbd")),
)
#: The large panel is the same for every seed.  The cost of the large
#: ``select`` follows the length of its selection path (16 to 21 candidate
#: fits), so a panel drawn per seed would make that figure measure the draw
#: rather than the program.
LARGE_ENTRY = 0


def write_csvs(workdir: Path, index: int) -> dict[str, dict]:
    """Write the small panel of pool entry ``index`` and the large panel of
    entry ``LARGE_ENTRY`` (Case 2-3, true scores in column ``e1``).
    Returns path, rows, bytes and digest of each."""
    from cbdid.simlab import DgpFamily, DgpSpec, generate

    out = {}
    for slot, (size, rows) in enumerate((("small", SMALL_ROWS), ("large", LARGE_ROWS))):
        entry = index if size == "small" else LARGE_ENTRY
        rng = np.random.default_rng(np.random.SeedSequence(entry, spawn_key=(slot,)))
        dataset, truth = generate(DgpSpec(DgpFamily.CASE_2_3, beta_star=1.0, n=rows), rng)
        table = np.column_stack([dataset.treated, dataset.y_pre, dataset.y_post,
                                 dataset.covariates, truth.e1_true])
        path = workdir / f"panel-{size}.csv"
        np.savetxt(path, table, delimiter=",", header=",".join(CSV_COLUMNS), comments="",
                   fmt=["%d"] + ["%.10g"] * (table.shape[1] - 1))
        data = path.read_bytes()
        out[size] = {"path": path, "rows": rows, "bytes": len(data),
                     "sha256": hashlib.sha256(data).hexdigest()}
    return out


def cli_outputs(call: CliCall, stdout: str) -> dict:
    """The values of one CLI JSON output that the reference check compares."""
    payload = json.loads(stdout)
    if call.args[0] == "estimate":
        return {"att": payload["att"], "theta": payload["theta"],
                "criterion_total": payload["criterion"]["total"]}
    return {"blocks": [
        {"selected": b["selected"], "coefficients": b["coefficients"], "att": b["att"],
         "criterion_total": b["path"][-1]["total"]}
        for b in payload["blocks"]
    ]}


def run_cli_call(call: CliCall, csv_paths: dict[str, Path], traced_spans: Path | None = None,
                 run_id: str = "", samples: Path | None = None) -> tuple[float, int, str, str]:
    """Run one CLI call in a fresh interpreter; return (wall seconds, exit code,
    stdout, stderr).  With ``traced_spans`` the call runs under the span
    tracer, which writes its spans to that file.  With ``samples`` it runs
    through ``perfbench/sampled.py``, which writes its kernel samples there."""
    if traced_spans is None:
        cmd = [sys.executable, *_sampled(samples), "-m", "cbdid.cli", *call.argv(csv_paths)]
    else:
        cmd = [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), run_id,
               str(traced_spans), *call.argv(csv_paths)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=150)
    return time.perf_counter() - started, proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# Fresh-interpreter timings
# ---------------------------------------------------------------------------


def _sampled(samples: Path | None) -> list[str]:
    """Arguments that run a ``-c``/``-m`` target under the kernel sampler."""
    return [] if samples is None else [str(ROOT / "perfbench" / "sampled.py"), str(samples)]


def timed_python(code: str, *flags: str, samples: Path | None = None) -> tuple[float, str]:
    """Wall seconds of a fresh ``python -c code``; returns (seconds, stderr).
    With ``samples`` it runs through ``perfbench/sampled.py``."""
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, *_sampled(samples), "-c", code], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"python -c {code!r} failed:\n{proc.stderr}")
    return seconds, proc.stderr


def import_profile(stderr: str) -> tuple[float, float]:
    """(cumulative seconds of ``cbdid``, summed self seconds of ``scipy*``
    modules) from ``-X importtime`` output."""
    total = scipy_self = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = (part.strip() for part in line[12:].split("|"))
        if name == "cbdid":
            total = int(cumulative_us) / 1e6
        if name == "scipy" or name.startswith("scipy."):
            scipy_self += int(self_us) / 1e6
    return total, scipy_self
