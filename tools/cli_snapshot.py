"""Write the ``--no-banner`` output of a fixed set of CLI calls, one file per call.

    python3 tools/cli_snapshot.py OUTDIR

Every call runs in md, csv and json.  The panel calls are the benchmark's
small-panel calls plus four more (``select --ps known:e1 --blocks 3``,
``select --ps mle``, ``select --ps cbd --weighting optimal`` and ``estimate
--ps mle --ps-intercept``), on the small panel of each benchmark pool entry
(``perfbench.workloads.write_csvs``); the table calls are
``simulate --reps 2 --seed 1`` on every table, with ``--dump-raw`` in json.
One more table call takes the failure path: ``sel-cbd-opt`` at seed 0, where
one of 72 replications fails, writes its table with the failure entry and
exits 3 (the 1% failure gate).
The benchmark's two large calls, ``estimate --ps cbd`` and ``select --ps
cbd``, run in json only on the 50,000-row panel, which spans several parse
blocks and several blocks of the selection moments.  Ingestion has calls of
its own: an ``estimate`` call on each of three malformed copies of the first
rows of entry 0's small panel (a short row, a non-numeric covariate,
``treat=2``).
Those exit 2 and write no output; their stderr goes into
``bad-<case>.stderr``.
Two calls on entry 0 fit designs with fewer rows than columns: ``estimate
--ps known:e1`` on the first four data rows of the small panel exits 3
(stderr in ``few-rows.stderr``), and ``select --ps known:e1 --blocks 60``
(in md, csv and json), whose 5-row blocks cannot fit its specs of more
than five columns, lists those specs as skipped and exits 0.  The same
call on entry 1 (in md, csv and json) fails numerically in its block 31,
which has no treated unit.
Four ``select`` calls on entry 0 (in md, csv and json) fail numerically in
some or all of their blocks: ``--ps known:e1 --criterion qicw`` and ``--ps
mle``, each at ``--blocks 60`` and ``--blocks 30``.  Each of these calls,
and the one on entry 1, writes a failure entry for those blocks beside the
others and exits 3; its stderr goes into ``<output>.stderr``.
Every call's exit code goes into ``exit-codes.txt``, so ``diff -r`` of the
snapshots of two checkouts lists every output, recorded stderr and exit code
a change altered, which for a pure refactor must be none.  An exception
that escapes the CLI counts as exit 1, with its ``Type: message`` as the
call's stderr, and the snapshot goes on.  Exits 1 if any call's exit code
differs from the expected one (3 for the failure-path call, the four-row
estimate and the five failed-block calls, 2 for the malformed panels, 0 for
every other); that call's stderr is printed.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from cbdid.cli import main as cli_main  # noqa: E402
from cbdid.simlab import TABLE_IDS  # noqa: E402
from perfbench.workloads import CLI_CALLS, POOL, CliCall, write_csvs  # noqa: E402

FORMATS = ("md", "csv", "json")
PANEL_CALLS = tuple(c for c in CLI_CALLS if c.size == "small") + (
    CliCall("small", "select-known-blocks3", ("select", "--ps", "known:e1", "--blocks", "3")),
    CliCall("small", "select-mle", ("select", "--ps", "mle")),
    CliCall("small", "select-cbd-optimal", ("select", "--ps", "cbd", "--weighting", "optimal")),
    CliCall("small", "estimate-mle-ps-intercept", ("estimate", "--ps", "mle", "--ps-intercept")),
)


#: The benchmark's large calls: their 50,000-row panel spans several parse
#: blocks and several blocks of the selection moments.
LARGE_CALLS = tuple(c for c in CLI_CALLS if c.size == "large")
#: The call each malformed panel is given, with that panel as its small panel.
MALFORMED_CALL = next(c for c in CLI_CALLS if c.key == "small/estimate-cbd")
#: The call given the first four data rows of entry 0's small panel.
FEW_ROWS_CALL = next(c for c in CLI_CALLS if c.key == "small/estimate-known")
#: A call whose 5-row blocks are narrower than its widest specs.  It exits 0
#: on entry 0; most other entries have 5-row blocks without a treated unit.
NARROW_BLOCKS_CALL = CliCall("small", "select-known-blocks60",
                             ("select", "--ps", "known:e1", "--blocks", "60"))
#: Calls with blocks that fail numerically; each exits 3 on entry 0.
FAILED_BLOCK_CALLS = tuple(
    CliCall("small", f"select-{name}-blocks{blocks}",
            ("select", *args, "--blocks", str(blocks)))
    for name, args in (("known-qicw", ("--ps", "known:e1", "--criterion", "qicw")),
                       ("mle", ("--ps", "mle")))
    for blocks in (60, 30)
)
#: The entry whose ``NARROW_BLOCKS_CALL`` meets a block with no treated unit
#: (block 31); it exits 3.
UNTREATED_BLOCK_ENTRY = 1
#: Name of each malformed panel and how it breaks data row 3 of its source.
MALFORMED = {
    "short-row": lambda cells: cells[:5],
    "non-numeric-covariate": lambda cells: cells[:5] + ["n/a"] + cells[6:],
    "treat-2": lambda cells: ["2"] + cells[1:],
}


#: (table, seed, expected exit code) of the ``simulate`` calls.
TABLE_CALLS = tuple((table, 1, 0) for table in sorted(TABLE_IDS)) + (("sel-cbd-opt", 0, 3),)


def run_call(argv: list[str], out: Path, codes: dict[str, int], expected: int = 0,
             stderr: Path | None = None) -> bool:
    """Run one CLI call in this process with its output going to ``out``;
    record its exit code in ``codes``, its stderr in ``stderr`` if given,
    and say whether the code was ``expected``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli_main([*argv, "--out", str(out)])
        except Exception as exc:  # a traceback's exit code; the snapshot goes on
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    codes[out.name] = code
    if stderr is not None:
        stderr.write_text(err.getvalue())
    if code != expected:
        print(f"{out.name}: exit {code}, expected {expected}\n{err.getvalue()}", file=sys.stderr)
    return code == expected


def run_malformed(source: Path, outdir: Path, codes: dict[str, int]) -> bool:
    """Write each malformed panel next to ``source`` and run its call."""
    header, *rows = source.read_text().splitlines()[:6]
    ok = True
    for case, corrupt in MALFORMED.items():
        rows_out = [*rows[:2], ",".join(corrupt(rows[2].split(","))), *rows[3:]]
        panel = source.with_name(f"bad-{case}.csv")
        panel.write_text("\n".join([header, *rows_out]) + "\n")
        ok &= run_call(MALFORMED_CALL.argv({"small": panel}), outdir / f"bad-{case}.json",
                       codes, expected=2, stderr=outdir / f"bad-{case}.stderr")
    return ok


def run_few_rows(source: Path, outdir: Path, codes: dict[str, int]) -> bool:
    """Write the first four data rows of ``source`` next to it and run
    ``FEW_ROWS_CALL`` on them."""
    panel = source.with_name("few-rows.csv")
    panel.write_text("".join(source.read_text().splitlines(keepends=True)[:5]))
    return run_call(FEW_ROWS_CALL.argv({"small": panel}), outdir / "few-rows.json", codes,
                    expected=3, stderr=outdir / "few-rows.stderr")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    ok = True
    codes: dict[str, int] = {}
    start_dir = os.getcwd()
    with tempfile.TemporaryDirectory() as panels:
        # The outputs echo the --data path, so the calls read the panels
        # by a relative path from inside their directory.
        os.chdir(panels)
        try:
            for entry in range(POOL):
                csvs = write_csvs(Path(panels), entry)
                paths = {size: Path(info["path"].name) for size, info in csvs.items()}
                for call in PANEL_CALLS:
                    for fmt in FORMATS:
                        # The later --format overrides the call's own json.
                        ok &= run_call([*call.argv(paths), "--format", fmt],
                                       outdir / f"{entry:02d}-{call.name}.{fmt}", codes)
                if entry == 0:
                    for call in LARGE_CALLS:
                        ok &= run_call(call.argv(paths),
                                       outdir / f"{entry:02d}-large-{call.name}.json", codes)
                    ok &= run_malformed(paths["small"], outdir, codes)
                    for fmt in FORMATS:
                        ok &= run_call([*NARROW_BLOCKS_CALL.argv(paths), "--format", fmt],
                                       outdir / f"{entry:02d}-{NARROW_BLOCKS_CALL.name}.{fmt}",
                                       codes)
                    ok &= run_few_rows(paths["small"], outdir, codes)
                    for call in FAILED_BLOCK_CALLS:
                        for fmt in FORMATS:
                            out = outdir / f"{entry:02d}-{call.name}.{fmt}"
                            ok &= run_call([*call.argv(paths), "--format", fmt], out, codes,
                                           expected=3, stderr=Path(f"{out}.stderr"))
                if entry == UNTREATED_BLOCK_ENTRY:
                    for fmt in FORMATS:
                        out = outdir / f"{entry:02d}-{NARROW_BLOCKS_CALL.name}.{fmt}"
                        ok &= run_call([*NARROW_BLOCKS_CALL.argv(paths), "--format", fmt], out,
                                       codes, expected=3, stderr=Path(f"{out}.stderr"))
        finally:
            os.chdir(start_dir)
    for table, seed, expected in TABLE_CALLS:
        name = f"simulate-{table}" + ("" if seed == 1 else f"-seed{seed}")
        for fmt in FORMATS:
            raw = ["--dump-raw"] if fmt == "json" else []
            ok &= run_call(["simulate", "--table", table, "--reps", "2", "--seed", str(seed),
                            "--no-banner", "--format", fmt, *raw],
                           outdir / f"{name}.{fmt}", codes, expected)
    (outdir / "exit-codes.txt").write_text(
        "".join(f"{name} {code}\n" for name, code in sorted(codes.items())))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
