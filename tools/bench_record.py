"""Record the benchmark of this checkout in one file per change.

    python3 tools/bench_record.py PR [--seconds S] [--out PATH]

Runs ``perfbench/run.py`` on every workload it declares, once with
``--trace 0`` and once with ``--trace 1``, at seed 3 and ``--seconds``
(default 30), one run at a time.  The runs take place in a temporary copy of
``src/`` and ``perfbench/``, so the reports in this checkout's
``.perfbench_out/`` and any benchmark run going on in it are left alone.
From the reports the runs leave, it writes ``BENCH_<PR>.json`` at the root
of the checkout (or ``--out``), holding:

* ``commit``: the commit checked out when the record was made.  A change
  records itself before it is committed, so this is its base commit and
  ``dirty`` is true; ``src_sha256``, a digest of the package source that was
  run (:func:`src_digest`), is what identifies the code measured.
* ``machine``: the machine facts of the first report;
* per workload: the five end-to-end metrics of the untraced run, the
  per-layer metrics of the traced run, ``correct`` (both runs matched the
  reference), and ``attempted`` and ``failed`` summed over both runs.

Nothing under ``perfbench/`` is changed.  Exits 1 when a run does not match
the reference (the file is still written), and 2 on a usage error or when a
run leaves no report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: One seed for every record, so that records of successive changes run
#: the same inputs.
SEED = 3


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


def record(pr: int, seconds: int, names: tuple[str, ...]) -> dict:
    workloads, machine = {}, None
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        copy = Path(tmp)
        for part in ("src", "perfbench"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for workload in names:
            plain, traced = (run_workload(copy, workload, seconds, trace) for trace in (0, 1))
            machine = machine or plain["machine"]
            runs = (plain["result"], traced["result"])
            workloads[workload] = {
                "correct": all(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "end_to_end": plain["result"]["metrics"],
                "per_layer": traced["result"]["metrics"],
            }
    return {
        "pr": pr,
        "commit": git("rev-parse", "HEAD") or None,
        "dirty": bool(git("status", "--porcelain", "--", "src")),
        "src_sha256": src_digest(),
        "seed": SEED,
        "seconds": seconds,
        "machine": machine,
        "workloads": workloads,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="number of the change, used in the file name")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<PR>.json)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench.run import WORKLOADS

    bench = record(args.pr, args.seconds, WORKLOADS)
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if all(w["correct"] for w in bench["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
