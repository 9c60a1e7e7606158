"""Span recording around sepnet's public functions, from outside ``src/``.

``Tracer.installed()`` replaces every public function wherever a
``sepnet.*`` module has bound its name (``separation.rollout`` and
``harness.rollout`` are both the wrapper of ``netmodel.rollout``), and
every public classmethod or staticmethod of a ``sepnet`` class, so a call
cannot reach the original through another import. Instance methods are not
wrapped: modems and media step once per time step, and a span there would
cost more than the work it measures. Leaving the block restores the
originals.

A span records its name (defining module and qualified name), its parent
span, its duration and the time its direct children covered; self time is
the difference. Counters for work done are read from the call's arguments
and result by the functions in ``COUNTERS``.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    duration: float
    child_time: float
    counts: dict = field(default_factory=dict)

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _bind(fn):
    """Map a call's arguments to parameter names, cheaply."""
    names = list(inspect.signature(fn).parameters)

    def bound(args, kwargs):
        out = dict(zip(names, args))
        out.update(kwargs)
        return out

    return bound


def _search_min(a, result):
    return {"comparisons": a["blocks"].shape[0] * a["codebook"].cardinality}


def _search_within(a, result):
    rows = a["codebook"].cardinality
    if a.get("restrict") is not None:
        rows = min(rows, a["restrict"])
    return {"comparisons": a["blocks"].shape[0] * rows}


def _codebook(a, result):
    return {"bytes": result.entries.nbytes}


def _rollout(a, result):
    return {"steps": result.horizon, "lane_steps": result.horizon * result.lanes}


def _measure(a, result):
    # Separated pairs report how often the channel decoder missed the sent
    # message (xi); plain pairs have no decoder.
    if not hasattr(result, "xi_hat"):
        return {}
    return {"decodes": result.trials, "decode_fails": round(result.xi_hat * result.trials)}


def _ba(a, result):
    return {"iterations": result.iterations, "unconverged": int(not result.converged)}


def _sample(a, result):
    return {"symbols": int(a["n"])}


COUNTERS = {
    "codec.batch_min_distortion_rows": _search_min,
    "codec.batch_unique_within_decode": _search_within,
    "codec.Codebook.generate": _codebook,
    "netmodel.rollout": _rollout,
    "separation.measure_end_to_end": _measure,
    "ratedist.blahut_arimoto": _ba,
    "probcore.sample_iid_array": _sample,
}


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('sepnet.')}.{fn.__qualname__}"


def _sepnet_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "sepnet" or n.startswith("sepnet."))]


def _is_sepnet(obj) -> bool:
    return getattr(obj, "__module__", "").split(".")[0] == "sepnet"


class Tracer:
    """Collects spans while installed; ``spans`` lists them as they end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[list] = []  # [sid, child_time] per open span
        self._ids = itertools.count()
        self._wrappers: dict = {}  # original function -> wrapper

    def _enter(self):
        parent = self._stack[-1][0] if self._stack else None
        frame = [next(self._ids), 0.0]
        self._stack.append(frame)
        return frame, parent

    def _exit(self, frame, parent, name, duration, counts) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append(Span(frame[0], parent, name, duration, frame[1], counts))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame, parent = self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, parent, name, time.perf_counter() - t0, {})

    def wrap(self, fn):
        """The traced stand-in for ``fn``; one wrapper per function."""
        if fn in self._wrappers:
            return self._wrappers[fn]
        name = _span_name(fn)
        counter = COUNTERS.get(name)
        bind = _bind(fn) if counter else None

        def traced(*args, **kwargs):
            frame, parent = self._enter()
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = time.perf_counter() - t0
                counts = {}
                if counter is not None and result is not None:
                    counts = counter(bind(args, kwargs), result)
                self._exit(frame, parent, name, duration, counts)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        self._wrappers[fn] = traced
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap sepnet's public functions for the duration of the block."""
        undo = []
        try:
            for module in _sepnet_modules():
                for attr, value in list(vars(module).items()):
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(value) and _is_sepnet(value):
                        undo.append((module, attr, value))
                        setattr(module, attr, self.wrap(value))
                    elif inspect.isclass(value) and value.__module__ == module.__name__:
                        undo.extend(self._wrap_class(value))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _wrap_class(self, cls) -> list:
        undo = []
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, (classmethod, staticmethod)):
                undo.append((cls, attr, value))
                setattr(cls, attr, type(value)(self.wrap(value.__func__)))
        return undo

    def unwrapped_bindings(self) -> list[str]:
        """Public sepnet functions still bound unwrapped (empty while
        installed)."""
        wrapped = set(self._wrappers.values())
        missed = []
        for module in _sepnet_modules():
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and _is_sepnet(value) and value not in wrapped):
                    missed.append(f"{module.__name__}.{attr}")
        return missed
