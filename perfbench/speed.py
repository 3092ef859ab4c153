"""Machine-speed adjustment of the benchmark's timings.

The benchmark runs on a share of a host whose other tenants slow a core by
up to 2x, in phases that last from a fraction of a second to minutes.  A
whole run can sit inside one slow phase, so no statistic over the run's own
samples removes it.  The :class:`Gauge` therefore reads the core's speed
from a fixed :func:`kernel`, which calls nothing from cbdid, and scales
each unit of work to the kernel's reference speed::

    adjusted = raw * KERNEL_REF_S / mean(kernel seconds while the unit ran)

While a unit runs, a timer signal runs the kernel every ``INTERVAL_S``
seconds in the process doing the work, so the samples cover the unit's whole
duration; their time is taken out of the unit's.  A child process runs its
work through ``perfbench/sampled.py``, which samples the same way and hands
the samples back.  A unit that ends before the first signal reads the
median of the kernel samples taken between units, ``WINDOW`` on each side
of it.

A change to cbdid moves ``raw`` and leaves the kernel alone, so it moves the
adjusted time by the same share.  A slow phase stretches both and cancels.
The kernel mixes interpreted Python with small numpy solves, as the
package's own fits do.  The process and every child it starts stay on one
CPU (:func:`pin_to_one_cpu`), because the phases differ between the CPUs.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import time
from pathlib import Path

import numpy as np

#: Kernel seconds on an uncontended core of the machine the bounds were set
#: on (2-vCPU KVM guest, Xeon Sapphire Rapids, Python 3.11, numpy 2).  It
#: only converts kernel units back to seconds; every run uses the same value.
KERNEL_REF_S = 0.0020
#: Seconds between kernel samples while a unit runs: about 2% of the
#: unit's time, and 20 or more samples in a unit of 2 s.
INTERVAL_S = 0.1
#: Kernel calls per sample between units, so that one such sample spans
#: about 20 ms.
BETWEEN_CALLS = 10
#: Samples between units on each side of a unit that reads them.
WINDOW = 2

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((600, 6))
_GRAM = _X.T @ _X


def kernel() -> float:
    """Fixed work of about 2 ms: an interpreted loop and 50 small solves."""
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    total = float(acc)
    for i in range(50):
        fitted = _X @ np.linalg.solve(_GRAM, _X.T @ _X[:, i % 6])
        total += float(np.exp(-fitted * fitted).sum())
    return total


def pin_to_one_cpu() -> int:
    """Keep this process, and the children it starts, on its lowest allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Gauge:
    """Times units of work together with the kernel's speed.

    :meth:`time` returns a unit id; read its times with :meth:`raw` and
    :meth:`adjusted` once the run has ended, when the samples after it are
    known.
    """

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        kernel()  # first-call costs stay out of the samples
        #: Kernel seconds per call, sampled between units.
        self.samples: list[float] = []
        #: Kernel seconds of the samples taken inside units, in order.
        self.inside: list[float] = []
        #: (raw seconds, index of the sample just before, first and end
        #: index into ``inside``) per unit.
        self.units: list[tuple[float, int, int, int]] = []
        self._between()

    def _between(self) -> None:
        started = time.perf_counter()
        for _ in range(BETWEEN_CALLS):
            kernel()
        self.samples.append((time.perf_counter() - started) / BETWEEN_CALLS)

    def _on_timer(self, signum, frame) -> None:
        started = time.perf_counter()
        kernel()
        self.inside.append(time.perf_counter() - started)

    def time(self, fn, *args, child: bool = False, **kwargs):
        """Run ``fn`` once; return (unit id, its result).

        With ``child=True``, ``fn`` runs its work in a child process and
        takes a ``samples`` keyword: the file where ``perfbench/sampled.py``
        leaves the child's kernel samples.  This process then samples
        nothing while it waits, because its samples would compete with the
        child for the CPU.
        """
        before, first = len(self.samples) - 1, len(self.inside)
        if child:
            kwargs["samples"] = path = self.workdir / f"kernel-{len(self.units)}.json"
        else:
            previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        started = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - started
            if not child:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        if child and path.exists():
            self.inside += json.loads(path.read_text())
            path.unlink()
        end = len(self.inside)
        raw = seconds - sum(self.inside[first:end])
        self.units.append((raw, before, first, end))
        self._between()
        return len(self.units) - 1, out

    def raw(self, unit: int) -> float:
        """The unit's seconds, without the kernel samples taken inside it."""
        return self.units[unit][0]

    def adjusted(self, unit: int) -> float:
        """The unit's seconds at the kernel's reference speed."""
        raw, before, first, end = self.units[unit]
        if end > first:
            return raw * KERNEL_REF_S / statistics.fmean(self.inside[first:end])
        around = self.samples[max(0, before - WINDOW + 1):before + 1 + WINDOW]
        return raw * KERNEL_REF_S / statistics.median(around)
