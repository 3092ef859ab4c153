"""Span tracer that wraps cbdid's public layer functions from outside the package.

A :class:`Tracer` replaces each target function at every module-global
binding inside ``cbdid.*`` (found by object identity, so ``fit_cbd`` imported
into ``selection``, ``simlab`` and ``cli`` is wrapped everywhere), records one
span per call in memory, and puts the originals back on :meth:`restore`.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import sys
import time
from dataclasses import asdict, dataclass, is_dataclass
from enum import Enum

import numpy as np

#: (module, function) pairs wrapped by the traced run.  The span name is
#: ``<layer>.<function>`` where the layer is the module name without ``cbdid.``.
TARGETS = (
    ("cbdid.data", "load_csv"),
    ("cbdid.data", "design_matrix"),
    ("cbdid.propensity", "fit_cbd"),
    ("cbdid.propensity", "fit_mle"),
    ("cbdid.propensity", "moment_h"),
    ("cbdid.propensity", "moment_jacobian"),
    ("cbdid.estimator", "fit_theta"),
    ("cbdid.selection", "forward_select"),
    ("cbdid.selection", "evaluate_criterion"),
    ("cbdid.selection", "penalty_cbd"),
    ("cbdid.selection", "penalty_mle"),
    ("cbdid.selection", "penalty_known"),
    ("cbdid.simlab", "generate"),
    ("cbdid.simlab", "theta_star_oracle"),
    ("cbdid.simlab", "run_table"),
    ("cbdid.cli", "main"),
)

#: Functions whose distinct-input share is measured.  Their arguments are
#: bound with defaults applied before fingerprinting, so positional and
#: keyword calls of the same fit count as one input.
FINGERPRINTED = {"propensity.fit_cbd", "estimator.fit_theta"}

#: Name of the spans that hold the tracer's own argument binding and hashing.
OVERHEAD_SPAN = "trace.fingerprint"


@dataclass
class Span:
    """One call of a wrapped function.  ``parent`` is the id of the enclosing
    span in the same run, or None at the top."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    fingerprint: str | None = None
    iterations: int | None = None


def fingerprint(value) -> str:
    """Content digest of an argument tree (arrays, dataclasses, enums, scalars)."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"nd{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).data)
    elif isinstance(value, Enum):
        h.update(f"enum{type(value).__qualname__}.{value.name}".encode())
    elif is_dataclass(value) and not isinstance(value, type):
        h.update(type(value).__qualname__.encode())
        _feed(h, vars(value))
    elif isinstance(value, (list, tuple)):
        h.update(f"seq{type(value).__name__}{len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        h.update(f"map{len(value)}".encode())
        for key, item in value.items():
            h.update(f"{key!r}=".encode())
            _feed(h, item)
    elif value is None or isinstance(value, (bool, int, float, str, bytes, np.generic)):
        h.update(f"{type(value).__name__}:{value!r}".encode())
    else:
        raise TypeError(f"cannot fingerprint a {type(value).__name__}")


def _span_name(base: str, bound: inspect.BoundArguments) -> str:
    if base == "propensity.fit_cbd":
        return f"{base}.{bound.arguments['weighting'].value}"
    return base


class Tracer:
    """Installs span-recording wrappers over :data:`TARGETS`.

    Use as a context manager, or call :meth:`install` and :meth:`restore`.
    Spans stay in :attr:`spans` until the caller writes them out.
    """

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._originals: list = []
        self.wrappers: list = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        # Import every target module before patching any, so that no module
        # imported later binds a wrapper that restore() does not know about.
        modules = [importlib.import_module(name) for name, _ in TARGETS]
        for module, (module_name, func_name) in zip(modules, TARGETS):
            original = getattr(module, func_name)
            layer = module_name.removeprefix("cbdid.")
            wrapper = self._wrap(f"{layer}.{func_name}", original)
            self._originals.append(original)
            self.wrappers.append(wrapper)
            for mod in _cbdid_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        leftover = unwrapped_aliases(self._originals)
        if leftover:
            self.restore()
            raise RuntimeError(f"unwrapped aliases left: {leftover}")

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        leftover = unwrapped_aliases(self.wrappers)
        if leftover:
            raise RuntimeError(f"wrappers left after restore: {leftover}")

    def _wrap(self, base: str, original):
        signature = inspect.signature(original)
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            name, digest = base, None
            if base in FINGERPRINTED:
                # Binding and hashing are the tracer's own work: they are
                # recorded as a sibling span so no layer's self time holds them.
                started = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                name = _span_name(base, bound)
                digest = fingerprint(bound.arguments)
                tracer._add(OVERHEAD_SPAN, started, time.perf_counter(), parent)
            span = tracer._add(name, 0.0, 0.0, parent)
            span.fingerprint = digest
            tracer._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            iterations = getattr(result, "iterations", None)
            if isinstance(iterations, int):
                span.iterations = iterations
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", base)
        return traced

    def _add(self, name: str, start: float, end: float, parent: int | None) -> Span:
        span = Span(len(self.spans), name, start, end, parent, self.run_id)
        self.spans.append(span)
        return span

    def span_dicts(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _cbdid_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cbdid" or name.startswith("cbdid."))]


def unwrapped_aliases(objects) -> list[str]:
    """Module-global names in ``cbdid.*`` still bound to any of ``objects``."""
    wanted = {id(o) for o in objects}
    return sorted(
        f"{mod.__name__}.{attr}"
        for mod in _cbdid_modules()
        for attr, value in vars(mod).items()
        if id(value) in wanted
    )


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span: its duration minus the union of the parts of
    its interval that its direct children cover.  Parents are looked up
    within the same run id."""
    children: dict[tuple[str, int], list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["run_id"], s["parent"]), []).append(s)
    out = []
    for s in spans:
        covered = 0.0
        reach = s["start"]
        intervals = sorted(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get((s["run_id"], s["id"]), ())
        )
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(max(s["end"] - s["start"] - covered, 0.0))
    return out
