"""Compare two snapshot directories and report the float drift between them.

    python3 tools/snapshot_drift.py REV_DIR TREE_DIR

The directories are the two that ``tools/snapshot_diff.sh REV OUTDIR`` keeps
(``OUTDIR/rev`` and ``OUTDIR/tree``).  Both must hold the same files.  Every
file that is not JSON (the md and csv outputs, the recorded stderr and
``exit-codes.txt``) must be byte-identical.  A JSON file must have the same
keys, the same list lengths and the same non-float values; only its floats
may differ.  For each key path whose floats differ (list indices written as
``[*]``), one line gives the number of files it differs in and the largest
relative drift |a - b| / max(|a|, |b|) over them.

Exits 0 when floats are the only difference (or there is none), 1 on any
other difference, each of which is printed, and 2 on a usage error.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def float_drift(a, b, path: str, drift: dict[str, float], problems: list[str]) -> None:
    """Add to ``drift`` the relative drift of every float of ``b`` from ``a``
    by key path; add to ``problems`` every difference that is not a float's."""
    where = path or "(top level)"
    if isinstance(a, float) and isinstance(b, float):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            scale = max(abs(a), abs(b))
            rel = abs(a - b) / scale if math.isfinite(scale) else math.inf
            drift[path] = max(drift.get(path, 0.0), rel)
    elif type(a) is not type(b):
        problems.append(f"{where}: {type(a).__name__} {a!r} against {type(b).__name__} {b!r}")
    elif isinstance(a, dict):
        if a.keys() != b.keys():
            problems.append(f"{where}: keys {sorted(a)} against {sorted(b)}")
            return
        for key in a:
            float_drift(a[key], b[key], f"{path}.{key}" if path else key, drift, problems)
    elif isinstance(a, list):
        if len(a) != len(b):
            problems.append(f"{where}: {len(a)} items against {len(b)}")
            return
        for x, y in zip(a, b):
            float_drift(x, y, f"{path}[*]", drift, problems)
    elif a != b:
        problems.append(f"{where}: {a!r} against {b!r}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rev, tree = (Path(arg) for arg in argv)
    names = {p.relative_to(rev) for p in rev.rglob("*") if p.is_file()}
    tree_names = {p.relative_to(tree) for p in tree.rglob("*") if p.is_file()}
    problems = [f"only in {rev}: {name}" for name in sorted(names - tree_names)]
    problems += [f"only in {tree}: {name}" for name in sorted(tree_names - names)]
    files: dict[str, int] = {}
    worst: dict[str, float] = {}
    for name in sorted(names & tree_names):
        old, new = (rev / name).read_bytes(), (tree / name).read_bytes()
        if old == new:
            continue
        if name.suffix != ".json":
            problems.append(f"{name}: bytes differ")
            continue
        drift: dict[str, float] = {}
        found: list[str] = []
        try:
            float_drift(json.loads(old), json.loads(new), "", drift, found)
        except ValueError as err:
            found.append(f"not JSON: {err}")
        problems += [f"{name}: {problem}" for problem in found]
        if not (drift or found):
            problems.append(f"{name}: bytes differ with equal values")
        for path, rel in drift.items():
            files[path] = files.get(path, 0) + 1
            worst[path] = max(worst.get(path, 0.0), rel)
    compared = len(names & tree_names)
    print(f"{compared} files in both directories; float drift in {len(files)} key paths")
    for path in sorted(files):
        print(f"  {path}: {files[path]} files, max relative drift {worst[path]:.2e}")
    for problem in problems:
        print(f"DIFFERS {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
