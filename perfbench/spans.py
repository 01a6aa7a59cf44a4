"""Span tracer that wraps a program's public functions from outside.

The benchmark measures each layer without touching the program: a
:class:`Tracer` replaces selected functions and methods with wrappers
that record one span per call (name, start, end, parent span, thread)
and restores the originals when it is closed.  Spans stay in memory
until the run ends.

A span's *self time* is its duration minus the part of that interval
its child spans cover.  Self times are taken on the main thread only,
so they add up to at most the step's wall time: when a layer hands
row blocks to the kernel tier's ``map_chunks`` thread pool, the wait
counts as that layer's time.  The lanes' own spans (parented to the
main-thread span that was open when they started) appear only in the
Chrome trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager

__all__ = ["Tracer"]


def _add(a, b):
    if isinstance(b, tuple):
        return tuple(x + y for x, y in zip(a or (0,) * len(b), b))
    return a + b


class Tracer:
    def __init__(self) -> None:
        #: One entry per span: [name, start, end, parent, tid, n].
        #: ``parent`` is an index into this list, or -1; ``n`` is the
        #: work count the wrapper's ``measure`` read off the call.
        self.spans: list[list] = []
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span stack -----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list[int], int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, threading.get_ident(), 0])
        stack.append(idx)
        return stack, idx

    @staticmethod
    def _close(stack: list[int], idx: int, span: list) -> None:
        span[2] = time.perf_counter()
        stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        stack, idx = self._open(name)
        try:
            yield
        finally:
            self._close(stack, idx, self.spans[idx])

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, fn, name: str, measure):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stack, idx, spans[idx])
            if measure is not None:
                spans[idx][5] = measure(args, result)
            return result

        return traced

    def wrap(self, target: str, name: str, measure=None) -> None:
        """Trace every call of ``target`` (``"pkg.module:Class.method"``
        or ``"pkg.module:function"``) as a span called ``name``.

        A module-level function is replaced in every loaded module of
        the same package that imported it by name; a method is replaced
        on the class that defines it, so subclasses that inherit it are
        traced too.  ``measure(args, result)`` returns the call's work
        count (pairs, bytes, ...) as a number or a tuple of numbers,
        kept on its span.
        """
        modname, _, qual = target.partition(":")
        obj = importlib.import_module(modname)
        owner = None
        for part in qual.split("."):
            owner, obj = obj, inspect.getattr_static(obj, part)
        if isinstance(obj, (staticmethod, classmethod, property)):
            raise TypeError(f"{target}: only plain functions can be traced")
        attr = qual.rsplit(".", 1)[-1]
        wrapped = self._wrapper(obj, name, measure)
        if inspect.isclass(owner):
            self._patch(owner, attr, wrapped)
            return
        package = modname.split(".", 1)[0]
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith(package):
                continue
            for key, value in list(vars(mod).items()):
                if value is obj:
                    self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def close(self) -> None:
        """Restore every wrapped function (in reverse patch order)."""
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- analysis -----------------------------------------------------------

    def summary(self, t0: float, t1: float) -> dict[str, dict]:
        """Per span name, over spans that started inside ``[t0, t1)``:
        summed ``self`` and ``wall`` seconds, ``calls``, and work ``n``
        (summed element by element when calls measure tuples) with its
        largest single value ``max``."""
        main = self._main
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span[3] >= 0 and span[4] == main:
                children.setdefault(span[3], []).append((span[1], span[2]))
        out: dict[str, dict] = {}
        for idx, (name, start, end, _parent, tid, n) in enumerate(self.spans):
            if tid != main or not t0 <= start < t1:
                continue
            covered = 0.0
            cursor = start
            for a, b in sorted(children.get(idx, ())):
                a, b = max(a, cursor), min(b, end)
                if b > a:
                    covered += b - a
                    cursor = b
            entry = out.setdefault(name, {"self": 0.0, "wall": 0.0, "calls": 0, "n": 0, "max": n})
            entry["self"] += (end - start) - covered
            entry["wall"] += end - start
            entry["calls"] += 1
            entry["n"] = _add(entry["n"], n)
            entry["max"] = max(entry["max"], n)
        return out

    def chrome_events(self, t0: float, t1: float, pid: int = 1) -> list[dict]:
        """Spans started inside ``[t0, t1)`` as Chrome trace events
        (complete ``"X"`` events, microseconds; loads in Perfetto)."""
        tids: dict[int, int] = {}
        events = []
        for name, start, end, _parent, tid, _n in self.spans:
            if not t0 <= start < t1:
                continue
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": tids.setdefault(tid, len(tids)),
            })
        return events
