"""In-memory span tracing of geomcode's public functions, for the traced run.

`Tracer.install()` replaces every public geomcode function under each name
a geomcode module binds it by, plus `LdpcCode.from_parity` and
`SumProductDecoder.__init__`/`decode`, with a wrapper that records a span
(name, start, end, parent, command).  Spans are recorded only while a
command runs (`Tracer.command` is set), so the benchmark's own checks,
which call the same library, leave no spans.  `uninstall()` restores the
original bindings.

Functions called once per field element, matrix entry or frame cost about
as much as a span would, so they are counted instead (`COUNT_ONLY`); their
time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, NamedTuple

COUNT_ONLY = frozenset({
    "projective.quadric_contains",
    "constructions.canonical_hyperbolic_label",
    "constructions.conic_quadric",
    "sim.noise_sigma",
})


class Span(NamedTuple):
    id: int
    parent: int | None
    command: str
    name: str
    start: float
    end: float


def span_name(fn: Callable) -> str:
    """Module-relative qualified name: "gf2.rank2", "sim.LdpcCode.from_parity"."""
    return f"{fn.__module__.removeprefix('geomcode.')}.{fn.__qualname__}"


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of its direct children.  The tracer's spans nest properly:
    a child starts and ends inside its parent, and siblings do not overlap."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - child_time[s.id]
    return dict(out)


def _decode_result(tracer: "Tracer", args: tuple, result) -> None:
    _, iterations, converged = result
    tracer.counts["sim.decode_iterations"] += iterations
    tracer.counts["sim.converged"] += bool(converged)


def _write_result(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["alist.bytes_written"] += os.path.getsize(args[1])


# Extra counts taken from a call's arguments or result.
RESULT_HOOKS = {
    "sim.SumProductDecoder.decode": _decode_result,
    "alist.write_alist": _write_result,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.command: str | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.counts, self._stack = [], Counter(), []

    def wrap(self, fn: Callable) -> Callable:
        name = span_name(fn)
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.command is not None:
                    self.counts[name + "_calls"] += 1
                return fn(*args, **kwargs)
            return counted

        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.command is None:
                return fn(*args, **kwargs)
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, parent, self.command, name, start, end))
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public geomcode function under each module binding."""
        from geomcode.sim import LdpcCode, SumProductDecoder

        for modname, module in list(sys.modules.items()):
            if not modname.startswith("geomcode.") or module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__.startswith("geomcode.")):
                    self._patch(module, attr, self.wrap(obj))
        from_parity = LdpcCode.__dict__["from_parity"].__func__
        self._patch(LdpcCode, "from_parity", classmethod(self.wrap(from_parity)))
        for attr in ("__init__", "decode"):
            self._patch(SumProductDecoder, attr, self.wrap(SumProductDecoder.__dict__[attr]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
