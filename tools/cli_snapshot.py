"""Snapshot the ``--no-banner`` output of a fixed set of CLI calls, or compare
the snapshots of a revision and of the working tree.

    python3 tools/cli_snapshot.py OUTDIR
    python3 tools/cli_snapshot.py --against REV [OUTDIR]

``CALLS`` is the call table.  Each record names a call, the benchmark pool
entries it runs on (``perfbench.workloads.write_csvs``), its formats, its
expected exit code (a failing call's stderr is kept as ``<output>.stderr``)
and an optional rewrite of the entry's small-panel lines, which the call
then reads as ``<name>.csv``.  ``TABLE_CALLS`` runs ``simulate --reps 2`` on
every table at seeds 0 to 3, in json with ``--dump-raw`` and at seed 1 in md
and csv too.  Outputs are ``<NN>-<name>.<format>``, NN a call's pool entry or
a table's seed, with ``large-<name>`` for a large-panel call and
``simulate-<table>`` for a table.  Exit codes go into ``exit-codes.txt``; an
escaping exception counts as exit 1 with ``Type: message`` as stderr.  Exits
1, printing that call's stderr, if any exit code is unexpected.

``--against`` runs this call table on REV (``git archive``) and on the working
tree, each in a fresh interpreter, into ``OUTDIR/rev`` and ``OUTDIR/tree``
(emptied first; without OUTDIR, a temporary directory).  It exits 0 when they
are byte-identical, and 1 when JSON floats are the only difference: per call
or table (an output name without ``NN-``) and key path (``[*]`` for list
indices) it prints the number of files whose floats differ and the largest
relative drift |a - b| / max(|a|, |b|).  It exits 2 on any other difference
(with a unified diff without context for a file that is not JSON), when a
side stops before writing ``exit-codes.txt``, and on a git or usage error.
It prints each distinct difference once per call, with the number of files
that have it and the first of them.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import difflib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
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
    # The 50,000-row panel spans several parse and moment blocks.
    *(Snap(c, formats=JSON) for c in CLI_CALLS if c.size == "large"),
    Snap(CliCall("large", "estimate-cbd-optimal",
                 ("estimate", "--ps", "cbd", "--weighting", "optimal")), formats=JSON),
    # Malformed copies of the small panel's first rows, and its first four
    # data rows: fewer rows than columns.
    Snap(CliCall("small", "bad-short-row", ESTIMATE_CBD), formats=JSON, expected=2,
         rewrite=partial(_bad_row, corrupt=lambda cells: cells[:5])),
    Snap(CliCall("small", "bad-non-numeric-covariate", ESTIMATE_CBD), formats=JSON, expected=2,
         rewrite=partial(_bad_row, corrupt=lambda cells: cells[:5] + ["n/a"] + cells[6:])),
    Snap(CliCall("small", "bad-treat-2", ESTIMATE_CBD), formats=JSON, expected=2,
         rewrite=partial(_bad_row, corrupt=lambda cells: ["2"] + cells[1:])),
    Snap(CliCall("small", "few-rows", ("estimate", "--ps", "known:e1")), formats=JSON,
         expected=3, rewrite=lambda lines: lines[:5]),
    # 5-row blocks cannot fit specs of more than five columns: entry 0 skips
    # them, and entry 1 fails in block 31, which has no treated unit.
    Snap(NARROW_BLOCKS),
    Snap(NARROW_BLOCKS, (1,), expected=3),
    Snap(_select("known-qicw-blocks60", *KNOWN_QICW, "--blocks", "60"), expected=3),
    Snap(_select("known-qicw-blocks30", *KNOWN_QICW, "--blocks", "30"), expected=3),
    Snap(_select("mle-blocks60", "--ps", "mle", "--blocks", "60"), expected=3),
    Snap(_select("mle-blocks30", "--ps", "mle", "--blocks", "30"), expected=3),
)
#: (table, seed, formats, expected exit code) of the ``simulate`` calls.  At
#: seed 0 one ``sel-cbd-opt`` replication of 72 fails, over the 1% gate.
TABLE_CALLS = tuple(
    (table, seed, FORMATS if seed == 1 or failing else JSON, 3 if failing else 0)
    for table in sorted(TABLE_IDS) for seed in range(4)
    for failing in [(table, seed) == ("sel-cbd-opt", 0)])


def output_name(entry: int, call: CliCall, fmt: str) -> str:
    name = call.name if call.size == "small" else f"{call.size}-{call.name}"
    return f"{entry:02d}-{name}.{fmt}"


def table_output_name(table: str, seed: int, fmt: str) -> str:
    return f"{seed:02d}-simulate-{table}.{fmt}"


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


def snapshot(outdir: Path) -> int:
    """Write the snapshot into ``outdir``; 1 if an exit code is unexpected."""
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
    for table, seed, formats, expected in TABLE_CALLS:
        for fmt in formats:
            raw = ["--dump-raw"] if fmt == "json" else []
            ok &= run_call(["simulate", "--table", table, "--reps", "2", "--seed", str(seed),
                            "--no-banner", "--format", fmt, *raw],
                           outdir / table_output_name(table, seed, fmt), codes, expected)
    (outdir / "exit-codes.txt").write_text(
        "".join(f"{name} {code}\n" for name, code in sorted(codes.items())))
    return 0 if ok else 1


def float_drift(a, b, path: str, drift: dict[str, float], problems: list[str]) -> None:
    """Add to ``drift`` the relative drift of every float of ``b`` from ``a``
    by key path; add to ``problems`` every difference that is not a float's."""
    where = path or "(top level)"
    if isinstance(a, float) and isinstance(b, float):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            scale = max(abs(a), abs(b))
            rel = abs(a - b) / scale if math.isfinite(scale) else math.inf
            drift[where] = max(drift.get(where, 0.0), rel)
    elif type(a) is not type(b):
        problems.append(f"{where}: {type(a).__name__} {a!r} against {type(b).__name__} {b!r}")
    elif isinstance(a, dict) and a.keys() == b.keys():
        for key in a:
            float_drift(a[key], b[key], f"{path}.{key}" if path else key, drift, problems)
    elif isinstance(a, list) and len(a) == len(b):
        for x, y in zip(a, b):
            float_drift(x, y, f"{path}[*]", drift, problems)
    elif isinstance(a, dict):
        problems.append(f"{where}: keys {sorted(a)} against {sorted(b)}")
    elif isinstance(a, list):
        problems.append(f"{where}: {len(a)} items against {len(b)}")
    elif a != b:
        problems.append(f"{where}: {a!r} against {b!r}")


def compare(rev: Path, tree: Path) -> int:
    """Print the float drift and every other difference between two snapshot
    directories; return the exit code of ``--against``."""
    names, tree_names = ({p.relative_to(d) for p in d.rglob("*") if p.is_file()}
                         for d in (rev, tree))
    problems = [f"only in {rev}: {name}" for name in sorted(names - tree_names)]
    problems += [f"only in {tree}: {name}" for name in sorted(tree_names - names)]
    drifts: dict[tuple[str, str], list[float]] = {}
    differs: dict[tuple[str, str], list[str]] = {}  # (call, difference): file names
    both = sorted(names & tree_names)
    for name in both:
        old, new = (rev / name).read_bytes(), (tree / name).read_bytes()
        if old == new:
            continue
        drift, found = {}, []  # key path: largest drift; other differences
        if name.suffix == ".json":
            try:
                float_drift(json.loads(old), json.loads(new), "", drift, found)
            except ValueError as err:
                found.append(f"not JSON: {err}")
        if not (drift or found):  # not JSON, or JSON of equal values
            diff = difflib.unified_diff(old.decode(errors="replace").splitlines(),
                                        new.decode(errors="replace").splitlines(), n=0,
                                        lineterm="")
            # Past its ---/+++ lines a diff without context names no file and
            # holds no unchanged line, so the same change in two files reads once.
            found.append("\n".join(["bytes differ", *list(diff)[2:]]))
        call = re.sub(r"^\d\d-", "", name.stem)
        for path, rel in drift.items():
            drifts.setdefault((call, path), []).append(rel)
        for problem in found:
            differs.setdefault((call, problem), []).append(str(name))
    print(f"{len(both)} files in both directories; float drift in {len(drifts)} key paths")
    for (call, path), rels in sorted(drifts.items()):
        print(f"  {call}: {path}: {len(rels)} files, max relative drift {max(rels):.2e}")
    for (call, problem), files in sorted(differs.items()):
        first, _, rest = problem.partition("\n")
        problems.append(f"{call}: {first} ({len(files)} files, first {files[0]})"
                        + (f"\n{rest}" if rest else ""))
    for problem in problems:
        print(f"DIFFERS {problem}")
    return 2 if problems else 1 if drifts else 0


def against(rev: str, outdir: Path | None) -> int:
    """Snapshot ``rev`` and the working tree with this file's call table,
    each in a fresh interpreter, and compare the two snapshots."""
    with tempfile.TemporaryDirectory() as work:
        out = (outdir or Path(work)).resolve()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--prefix=checkout/", rev],
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", work], input=archive, check=True)
        shutil.copy(__file__, Path(work, "checkout", "tools", "cli_snapshot.py"))
        for side, root in (("rev", Path(work, "checkout")), ("tree", ROOT)):
            shutil.rmtree(out / side, ignore_errors=True)
            # The codes are compared from exit-codes.txt, whose absence marks a crash.
            subprocess.run([sys.executable, str(root / "tools" / "cli_snapshot.py"),
                            str(out / side)])
            if not (out / side / "exit-codes.txt").is_file():
                print(f"cli_snapshot: {side} stopped before exit-codes.txt", file=sys.stderr)
                return 2
        return compare(out / "rev", out / "tree")


def main(argv: list[str]) -> int:
    if len(argv) == 1 and not argv[0].startswith("-"):
        return snapshot(Path(argv[0]).resolve())
    if argv[:1] != ["--against"] or len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    try:
        return against(argv[1], Path(argv[2]) if argv[2:] else None)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"cli_snapshot: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
