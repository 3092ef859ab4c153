"""Write the ``--no-banner`` output of a fixed set of CLI calls, one file per call.

    python3 tools/cli_snapshot.py OUTDIR

``CALLS`` is the call table.  Each record names a call, the benchmark pool
entries it runs on (``perfbench.workloads.write_csvs``), its formats, its
expected exit code (a failing call's stderr is kept as ``<output>.stderr``)
and an optional rewrite of the entry's small-panel lines, which the call
then reads as ``<name>.csv``.  Outputs are ``<entry:02d>-<name>.<format>``,
with ``large-<name>`` for a large-panel call.  The table holds:

- on every entry's small panel, in md, csv and json: the benchmark's
  small-panel calls and four more;
- in json on the 50,000-row panel, which spans several parse and moment
  blocks: the benchmark's two large calls and an optimal-weighting estimate;
- on entry 0, an estimate on three malformed copies of the small panel's
  first rows (a short row, a non-numeric covariate, ``treat=2``; exit 2)
  and on its first four data rows, fewer rows than columns (exit 3);
- ``select --ps known:e1 --blocks 60``, whose 5-row blocks cannot fit its
  specs of more than five columns: it skips them and exits 0 on entry 0,
  and on entry 1 fails in block 31, which has no treated unit (exit 3);
- on entry 0, ``select --ps known:e1 --criterion qicw`` and ``--ps mle``,
  each at ``--blocks 60`` and ``30``, with failed blocks (exit 3).

The ``simulate`` calls, in their own loop, run ``--reps 2 --seed 1`` on
every table, with ``--dump-raw`` in json, plus ``sel-cbd-opt`` at seed 0,
whose one failed replication of 72 trips the 1% failure gate (exit 3).
Exit codes go into ``exit-codes.txt``, so ``diff -r`` of two checkouts'
snapshots lists every output, kept stderr and exit code a change altered.
An escaping exception counts as exit 1 with ``Type: message`` as stderr.
Exits 1, printing that call's stderr, if any exit code is unexpected.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from cbdid.cli import main as cli_main  # noqa: E402
from cbdid.simlab import TABLE_IDS  # noqa: E402
from perfbench.workloads import CLI_CALLS, POOL, CliCall, write_csvs  # noqa: E402

FORMATS = ("md", "csv", "json")
EVERY_ENTRY = tuple(range(POOL))


class Snap(NamedTuple):
    call: CliCall
    entries: tuple[int, ...] = (0,)
    formats: tuple[str, ...] = FORMATS
    expected: int = 0
    rewrite: Callable[[list[str]], list[str]] | None = None


def _bad_row(lines: list[str], corrupt: Callable[[list[str]], list[str]]) -> list[str]:
    """The header and first five data rows, ``corrupt`` applied to row 3's cells."""
    return [*lines[:3], ",".join(corrupt(lines[3].split(","))), *lines[4:6]]


def _select(name: str, *args: str) -> CliCall:
    return CliCall("small", f"select-{name}", ("select", *args))


JSON = ("json",)
ESTIMATE_CBD = ("estimate", "--ps", "cbd")
KNOWN_QICW = ("--ps", "known:e1", "--criterion", "qicw")
NARROW_BLOCKS = _select("known-blocks60", "--ps", "known:e1", "--blocks", "60")
CALLS = (
    *(Snap(c, EVERY_ENTRY) for c in CLI_CALLS if c.size == "small"),
    Snap(_select("known-blocks3", "--ps", "known:e1", "--blocks", "3"), EVERY_ENTRY),
    Snap(_select("mle", "--ps", "mle"), EVERY_ENTRY),
    Snap(_select("cbd-optimal", "--ps", "cbd", "--weighting", "optimal"), EVERY_ENTRY),
    Snap(CliCall("small", "estimate-mle-ps-intercept",
                 ("estimate", "--ps", "mle", "--ps-intercept")), EVERY_ENTRY),
    *(Snap(c, formats=JSON) for c in CLI_CALLS if c.size == "large"),
    Snap(CliCall("large", "estimate-cbd-optimal",
                 ("estimate", "--ps", "cbd", "--weighting", "optimal")), formats=JSON),
    Snap(CliCall("small", "bad-short-row", ESTIMATE_CBD), formats=JSON, expected=2,
         rewrite=partial(_bad_row, corrupt=lambda cells: cells[:5])),
    Snap(CliCall("small", "bad-non-numeric-covariate", ESTIMATE_CBD), formats=JSON, expected=2,
         rewrite=partial(_bad_row, corrupt=lambda cells: cells[:5] + ["n/a"] + cells[6:])),
    Snap(CliCall("small", "bad-treat-2", ESTIMATE_CBD), formats=JSON, expected=2,
         rewrite=partial(_bad_row, corrupt=lambda cells: ["2"] + cells[1:])),
    Snap(CliCall("small", "few-rows", ("estimate", "--ps", "known:e1")), formats=JSON,
         expected=3, rewrite=lambda lines: lines[:5]),
    Snap(NARROW_BLOCKS),
    Snap(NARROW_BLOCKS, (1,), expected=3),
    Snap(_select("known-qicw-blocks60", *KNOWN_QICW, "--blocks", "60"), expected=3),
    Snap(_select("known-qicw-blocks30", *KNOWN_QICW, "--blocks", "30"), expected=3),
    Snap(_select("mle-blocks60", "--ps", "mle", "--blocks", "60"), expected=3),
    Snap(_select("mle-blocks30", "--ps", "mle", "--blocks", "30"), expected=3),
)
#: (table, seed, expected exit code) of the ``simulate`` calls.
TABLE_CALLS = tuple((table, 1, 0) for table in sorted(TABLE_IDS)) + (("sel-cbd-opt", 0, 3),)


def output_name(entry: int, call: CliCall, fmt: str) -> str:
    name = call.name if call.size == "small" else f"{call.size}-{call.name}"
    return f"{entry:02d}-{name}.{fmt}"


def table_output_name(table: str, seed: int, fmt: str) -> str:
    return f"simulate-{table}" + ("" if seed == 1 else f"-seed{seed}") + f".{fmt}"


def run_call(argv: list[str], out: Path, codes: dict[str, int], expected: int,
             keep_stderr: bool = False) -> bool:
    """Run one CLI call in this process with its output going to ``out``;
    record its exit code in ``codes``, its stderr in ``<out>.stderr`` if
    ``keep_stderr``, and say whether the code was ``expected``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli_main([*argv, "--out", str(out)])
        except Exception as exc:  # a traceback's exit code; the snapshot goes on
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    codes[out.name] = code
    if keep_stderr:
        Path(f"{out}.stderr").write_text(err.getvalue())
    if code != expected:
        print(f"{out.name}: exit {code}, expected {expected}\n{err.getvalue()}", file=sys.stderr)
    return code == expected


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
        # The outputs echo --data, so the calls read the panels by relative path.
        os.chdir(panels)
        try:
            for entry in range(POOL):
                csvs = write_csvs(Path(panels), entry)
                paths = {size: Path(info["path"].name) for size, info in csvs.items()}
                for snap in (s for s in CALLS if entry in s.entries):
                    call_paths = paths
                    if snap.rewrite is not None:
                        lines = snap.rewrite(paths["small"].read_text().splitlines())
                        call_paths = {**paths, "small": Path(f"{snap.call.name}.csv")}
                        call_paths["small"].write_text("\n".join(lines) + "\n")
                    for fmt in snap.formats:
                        # The later --format overrides the call's own json.
                        ok &= run_call([*snap.call.argv(call_paths), "--format", fmt],
                                       outdir / output_name(entry, snap.call, fmt), codes,
                                       snap.expected, snap.expected != 0)
        finally:
            os.chdir(start_dir)
    for table, seed, expected in TABLE_CALLS:
        for fmt in FORMATS:
            raw = ["--dump-raw"] if fmt == "json" else []
            ok &= run_call(["simulate", "--table", table, "--reps", "2", "--seed", str(seed),
                            "--no-banner", "--format", fmt, *raw],
                           outdir / table_output_name(table, seed, fmt), codes, expected)
    (outdir / "exit-codes.txt").write_text(
        "".join(f"{name} {code}\n" for name, code in sorted(codes.items())))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
