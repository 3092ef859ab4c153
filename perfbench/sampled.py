"""Run Python code or a module in this interpreter while the speed kernel is
sampled, the way :class:`perfbench.speed.Gauge` samples a unit that runs in
its own process.

Usage: python perfbench/sampled.py SAMPLES_JSON (-c CODE | -m MODULE) [ARG...]

Runs the code, or the module as ``__main__`` with ``ARG...`` as its
arguments, exactly as ``python -c`` or ``python -m`` would.  When it ends,
the kernel seconds of every sample go to ``SAMPLES_JSON``, and the process
exits with the target's exit code.
"""

import json
import runpy
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# What ``python -c`` and ``python -m`` put first on the path when they run
# from the repository root, as the benchmark runs them.
sys.path[0] = str(ROOT)

from perfbench.speed import INTERVAL_S, kernel  # noqa: E402

_samples: list[float] = []


def _on_timer(signum, frame) -> None:
    started = time.perf_counter()
    kernel()
    _samples.append(time.perf_counter() - started)


def main() -> None:
    out, mode, target, args = Path(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
    signal.signal(signal.SIGALRM, _on_timer)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        if mode == "-c":
            sys.argv = ["-c", *args]
            exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
        else:
            sys.argv = [target, *args]
            runpy.run_module(target, run_name="__main__", alter_sys=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        out.write_text(json.dumps(_samples))


if __name__ == "__main__":
    main()
