"""Peak memory and wall time of one CLI call.

    python3 tools/peak_rss.py ARGS...

Runs ``python -m cbdid.cli ARGS`` in a fresh interpreter, with the package
from this checkout's ``src`` and single-threaded BLAS, as the benchmark runs
its CLI calls.  The call's stdout and stderr pass through unchanged; when it
exits, one line on stderr gives its peak resident set size (``ru_maxrss``
from ``os.wait4``, so that of this call alone) and its wall time::

    peak_rss_mb 107.4 wall_s 1.93 exit 0

Exits with the call's exit code (2 on a usage error).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict[str, str]:
    """This environment with ``src`` first on the path and one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def measure(args: list[str]) -> tuple[float, float, int]:
    """(peak RSS in MiB, wall seconds, exit code) of ``python -m cbdid.cli args``."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "cbdid.cli", *args], env=child_env())
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    # The child is reaped; tell Popen so that it does not wait for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024, wall, proc.returncode


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    peak, wall, code = measure(argv)
    print(f"peak_rss_mb {peak:.1f} wall_s {wall:.2f} exit {code}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
