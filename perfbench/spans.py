"""Per-layer tracing from outside the library.

:class:`Tracer` replaces every public function of the given modules with
a wrapper that counts calls and accumulates self time: the wall time of
the call minus the time of the wrapped calls nested in it. Functions one
module imports from another (``bijection.canonicalize``) are the same
object in both namespaces, so both bindings get the same wrapper.

Spans (name, start, end, parent) are kept in memory for calls at most
``SPAN_DEPTH`` wrapped levels deep -- the ``cli.run`` call and the
library calls it makes directly -- and written out once, by the caller,
when the run ends. Deeper calls are far too many to keep (a
``trace --mu-max 12`` makes about two million) and only feed the
counters. :meth:`Tracer.remove` restores every original binding, so an
untraced pass runs the library's own functions.
"""

from __future__ import annotations

import inspect
from time import perf_counter

SPAN_DEPTH = 1


class Stat:
    __slots__ = ("calls", "self_s", "items")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.items = 0


class Tracer:
    def __init__(self, modules, on_return=None):
        """``on_return`` maps a traced name to a callback on each result."""
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[list] = []  # [span id, child seconds] per open call
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        on_return = on_return or {}
        wrappers = {}
        for module in modules:
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                wrappers[fn] = self._wrap(name, fn, on_return.get(name))
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if inspect.isfunction(fn) and fn in wrappers:
                    self._patch(module, attr, wrappers[fn])

    def count_constructions(self, name: str, cls) -> None:
        """Count instances of a dataclass through its ``__post_init__``."""
        original = cls.__post_init__
        stat = self.stats.setdefault(name, Stat())

        def post_init(instance):
            stat.calls += 1
            original(instance)

        self._patch(cls, "__post_init__", post_init)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _enter(self) -> tuple[list, float]:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame, perf_counter()

    def _leave(self, name: str, stat: Stat, frame: list, start: float) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - start
        stat.self_s += duration - frame[1]
        if stack:
            stack[-1][1] += duration
        if len(stack) <= SPAN_DEPTH:
            parent = stack[-1][0] if stack else None
            self.spans.append((frame[0], name, start, end, parent))

    def _wrap(self, name, fn, on_return):
        stat = self.stats.setdefault(name, Stat())

        if inspect.isgeneratorfunction(fn):
            # Time each resumption of the generator; count what it yields.
            def generator(*args, **kwargs):
                stat.calls += 1
                inner = fn(*args, **kwargs)
                while True:
                    frame, start = self._enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._leave(name, stat, frame, start)
                    stat.items += 1
                    yield item

            return generator

        def wrapper(*args, **kwargs):
            stat.calls += 1
            frame, start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, stat, frame, start)
            if on_return is not None:
                on_return(stat, args, result)
            return result

        return wrapper

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent}
            for i, name, start, end, parent in sorted(self.spans)
        ]
