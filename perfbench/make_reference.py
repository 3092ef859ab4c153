"""Regenerate ``perfbench/reference.json``: the expected outputs of every
pool entry of every workload.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter results, and say so in the
change; the benchmark fails any run whose outputs leave the tolerances in
``perfbench/check.py``.  Takes a few minutes on one core.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (  # noqa: E402
    CLI_CALLS, MC_JOBS, POOL, REFERENCE, cli_outputs, run_cli_call, run_mc_job, write_csvs,
)


def _rounded(value):
    """Floats to 12 significant digits: far inside the check's 1e-6 tolerance."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def main() -> int:
    reference = {"pool": POOL, "mc": {}, "cli": {}}
    for index in range(POOL):
        for jobs in MC_JOBS.values():
            for job in jobs:
                _, summary = run_mc_job(job, index)
                n_cells = len(summary.get("cells", ()))
                reference["mc"][job.key(index)] = {"n_cells": n_cells, "outcome": summary}
        workdir = ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            csvs = write_csvs(workdir, index)
            paths = {size: info["path"] for size, info in csvs.items()}
            outputs = {}
            for call in CLI_CALLS:
                _, code, stdout, stderr = run_cli_call(call, paths)
                if code != 0:
                    raise SystemExit(f"{call.key} on entry {index} exited {code}:\n{stderr}")
                outputs[call.key] = cli_outputs(call, stdout)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        reference["cli"][str(index)] = {
            "csv": {size: {k: info[k] for k in ("rows", "bytes", "sha256")}
                    for size, info in csvs.items()},
            "outputs": outputs,
        }
        print(f"pool entry {index} done", file=sys.stderr)
    REFERENCE.write_text(json.dumps(_rounded(reference), separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
