"""Comparison of one run's outputs with ``perfbench/reference.json``.

Numbers must agree within ``REL`` relative or ``ABS`` absolute.  That admits
the ~8e-7 drift a different GMM solver is expected to bring and nothing
looser.  Selection true/false-positive means may move by one flipped
selection, ``1/reps``.
"""

from __future__ import annotations

import math

REL = 1e-6
ABS = 1e-9


def close(a, b, rel: float = REL, abs_: float = ABS) -> bool:
    if a is None or b is None:
        return a is b
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def compare_values(got, want, path: str = "") -> list[str]:
    """Recursive comparison of JSON-like trees; numbers by :func:`close`."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [m for k in want for m in compare_values(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in compare_values(g, w, f"{path}[{i}]")]
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        ok = isinstance(got, (int, float)) and not isinstance(got, bool) and close(got, want)
        return [] if ok else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def compare_mc(summary: dict, want: dict, reps: int) -> list[str]:
    """McReport cell stats within REL/ABS; ``*_tp``/``*_fp`` means within 1/reps."""
    if "error" in want or "error" in summary:
        return [] if summary == want else [f"outcome {summary} != {want}"]
    if len(summary["cells"]) != len(want["cells"]):
        return [f"{len(summary['cells'])} cells != {len(want['cells'])}"]
    problems = []
    for i, (got, exp) in enumerate(zip(summary["cells"], want["cells"])):
        where = f"cell {i}"
        for field in ("reps_used", "failed"):
            if got[field] != exp[field]:
                problems.append(f"{where} {field}: {got[field]} != {exp[field]}")
        if set(got["stats"]) != set(exp["stats"]):
            problems.append(f"{where} stats keys {sorted(got['stats'])} != {sorted(exp['stats'])}")
            continue
        for key, value in exp["stats"].items():
            if key.endswith(("_tp", "_fp")):
                ok = close(got["stats"][key], value, rel=0.0, abs_=1.0 / reps + 1e-12)
            else:
                ok = close(got["stats"][key], value)
            if not ok:
                problems.append(f"{where} {key}: {got['stats'][key]!r} != {value!r}")
    return problems
