"""In-memory span recording for the traced benchmark run.

The traced run times each layer from outside the program: it replaces a
layer's public entry point, at the module attribute its caller looks it
up through, with a wrapper that records a span around the call.  Spans
live in memory (name, start, end, parent, operation id and a few
attributes read off the call) and are written out once the run ends.

Nothing here is imported by an untimed run, and :func:`install` returns
an undo list, so the program is left exactly as it was found.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One recorded call of a wrapped entry point."""

    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``op`` tags every span opened after it is set."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, self.clock(), 0.0, parent, self.op, dict(attrs))
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = self.clock()

    def wrap(self, func: Callable, name: str,
             describe: Callable[..., dict] | None = None) -> Callable:
        """``func`` timed as span ``name``; ``describe(args, kwargs,
        result)`` adds attributes after the call returns, and a call
        that raises is marked ``raised``."""

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as rec:
                try:
                    result = func(*args, **kwargs)
                except BaseException:
                    rec.attrs["raised"] = True
                    raise
                if describe is not None:
                    rec.attrs.update(describe(args, kwargs, result))
                return result

        return wrapper

    def write(self, path: str) -> None:
        """Dump the spans as JSON lines, with their self times."""
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (rec, self_s) in enumerate(zip(self.spans, selfs)):
                row = {"index": index, **asdict(rec), "self": self_s}
                handle.write(json.dumps(row, default=repr) + "\n")


#: A wrap target: (module, attribute path, span name, describe hook).
Target = tuple[str, str, str, "Callable[..., dict] | None"]


def install(recorder: Recorder, targets: list[Target]) -> list[tuple]:
    """Wrap every target in place; returns the undo list for
    :func:`uninstall`."""
    undo = []
    for module_name, path, name, describe in targets:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        setattr(owner, attr, recorder.wrap(original, name, describe))
        undo.append((owner, attr, original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so self times never go negative; for
    properly nested spans the self times of a tree sum to its root's
    duration.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec.parent is not None:
            children.setdefault(rec.parent, []).append((rec.start, rec.end))
    out = []
    for index, rec in enumerate(spans):
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, rec.start), min(hi, rec.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append(rec.duration - covered)
    return out
