"""Span recording at module boundaries, from outside the program.

The vloc modules import names directly (``from .retrieval import top_k``),
so a span has to be installed where each name is looked up: on the module
or class that does the lookup (``vloc.pipeline.top_k``, ``Pipeline.
on_observation``). ``Patches`` swaps such attributes and restores them.
Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field

from .metrics import self_time


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    phase: str          # "setup" or "pass"
    op: object          # observation, query or tick id; None outside ops
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans. The workload sets ``phase``, ``op`` and ``truth``
    (the simulator ground-truth pose of the current op, read by notes)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.phase = "setup"
        self.op = None
        self.truth = None
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name, fn, note=None, pre=None):
        """A traced stand-in for ``fn``. ``name`` is a span name or a
        function of (args, kwargs) giving one. ``pre(args, kwargs)`` runs
        before the span opens, ``note(args, kwargs, result, pre_value)``
        after it closes; ``note`` returns the span's attributes."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            before = pre(args, kwargs) if pre is not None else None
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.spans.append(Span(sid, span_name, start, end, parent,
                                         tracer.phase, tracer.op,
                                         {"error": type(exc).__name__}))
                raise
            end = tracer.clock()
            tracer._stack.pop()
            attrs = note(args, kwargs, result, before) if note is not None else {}
            tracer.spans.append(Span(sid, span_name, start, end, parent,
                                     tracer.phase, tracer.op, attrs))
            return result

        return traced

    def self_times(self) -> dict:
        """Span id -> duration minus the time its child spans cover."""
        children: dict[int, list] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        return {s.id: self_time(s.start, s.end, children.get(s.id, ()))
                for s in self.spans}

    def write(self, path) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s), default=str) + "\n")


class Patches:
    """Context manager: set attributes, restore the originals on exit.

    Each target is (owner, attribute, make) where ``make(original)``
    returns the replacement."""

    def __init__(self, targets):
        self.targets = list(targets)
        self._saved = []

    def __enter__(self):
        for owner, attr, make in self.targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False
