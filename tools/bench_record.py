"""Record the benchmark of this checkout in one file per change.

    python3 tools/bench_record.py PR [--seconds S] [--out PATH]
    python3 tools/bench_record.py PR --against BENCH_<n>.json [--out PATH]

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

With ``--against OLD``, nothing runs: the record ``BENCH_<PR>.json`` (or
``--out``) is compared with ``OLD``, and two Markdown tables are printed
(:func:`compare`): each workload's five end-to-end metrics in both records,
with the ratio new/old, and then its per-layer metrics whose values differ
between the records, which show the layers where a change lands.  Exits 2
when either record is missing.
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


#: The end-to-end metrics every record holds per workload, in BENCHMARK.json's order.
END_TO_END = ("setup_s", "import_s", "rate_per_s", "heavy_rate_per_s", "peak_rss_mb")


def compare(old: dict, new: dict, old_name: str, new_name: str) -> str:
    """Two Markdown tables comparing the records ``old`` and ``new``: each
    workload's end-to-end metrics, then its per-layer metrics whose values
    differ between the records, with the ratio new/old.  A value missing from
    either record reads ``-``.  Workloads follow ``new``'s order, then any
    only in ``old``; layers follow ``new``'s order, then any only in ``old``."""
    def row(workload: str, metric: str, a: dict | None, b: dict | None) -> str:
        unit = (b or a or {}).get("unit", "")
        ratio = f"{b['value'] / a['value']:.3f}" if a and b and a["value"] else "-"
        cells = [f"{m['value']:.4g}" if m else "-" for m in (a, b)]
        return f"| {workload} | {metric} | {unit} | {cells[0]} | {cells[1]} | {ratio} |"

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
    sys.path.insert(0, str(ROOT))
    from perfbench.run import WORKLOADS

    bench = record(args.pr, args.seconds, WORKLOADS)
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if all(w["correct"] for w in bench["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
