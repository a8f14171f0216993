"""Spans recorded from outside ``src/``: the traced pass's only machinery.

The benchmark measures layers without touching them.  For one traced pass a
:class:`Tracer` replaces each layer's public callable (a module function
wherever it was imported by name, or a class attribute) with a wrapper that
records a span; when the pass ends — normally or by exception — every
callable is put back, so the untraced runs never see a wrapper.

A span is ``(name, start, end, parent, session)``.  ``parent`` is the index
of the span that was open when this one started; ``session`` is the id of
the simulated session the work belongs to, inherited from the nearest
enclosing span that names one.  A span's *self time* is its duration minus
the durations of its direct children, so every instant of the root span is
attributed to exactly one name and the self times sum to the root's wall.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_clock = time.perf_counter

Span = Tuple[int, float, float, int, int]
"""``(name index, start, end, parent span index or -1, session id or -1)``."""

SessionOf = Callable[[tuple, dict], int]
Count = Callable[[tuple, dict, Any], float]


class Tracer:
    """In-memory span recorder plus the install/restore of its wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.spans: List[Optional[Span]] = []
        self.counters: Dict[str, float] = {}
        # Open spans, innermost last: [span index, name index, start, session].
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _name(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def _enter(self, name_index: int, session: int = -1) -> None:
        stack = self._stack
        if session < 0 and stack:
            session = stack[-1][3]
        stack.append([len(self.spans), name_index, 0.0, session])
        self.spans.append(None)
        stack[-1][2] = _clock()

    def _exit(self) -> None:
        end = _clock()
        index, name_index, start, session = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans[index] = (name_index, start, end, parent, session)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span (the root of a pass)."""
        self._enter(self._name(name))
        try:
            yield
        finally:
            self._exit()

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(
        self,
        name: str,
        fn: Callable,
        session_of: Optional[SessionOf] = None,
        count: Optional[Tuple[str, Count]] = None,
    ) -> Callable:
        name_index = self._name(name)
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            enter(
                name_index,
                session_of(args, kwargs) if session_of is not None else -1,
            )
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if count is not None:
                self.add(count[0], count[1](args, kwargs, result))
            return result

        return traced

    def _wrap_iterator(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function: each ``next()`` becomes one span."""
        name_index = self._name(name)
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = fn(*args, **kwargs)
            while True:
                enter(name_index)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    leave()
                yield item

        return traced

    # ------------------------------------------------------------------
    # Install / restore
    # ------------------------------------------------------------------
    def patch_function(
        self,
        name: str,
        module: Any,
        attr: str,
        session_of: Optional[SessionOf] = None,
        count: Optional[Tuple[str, Count]] = None,
    ) -> None:
        """Wrap a module-level function everywhere ``repro`` bound it.

        ``from x import f`` copies the binding, so the wrapper is installed
        in every loaded ``repro`` module whose namespace holds the original
        object, under whatever name it was imported as.
        """
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, session_of, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(
        self,
        name: str,
        cls: type,
        attr: str,
        session_of: Optional[SessionOf] = None,
        count: Optional[Tuple[str, Count]] = None,
        iterator: bool = False,
    ) -> None:
        """Wrap a method on the class that defines it (once per class)."""
        owner = next(c for c in cls.__mro__ if attr in vars(c))
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return
        original = vars(owner)[attr]
        wrapper = (
            self._wrap_iterator(name, original)
            if iterator
            else self._wrap(name, original, session_of, count)
        )
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original callable back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def closed_spans(self) -> List[Span]:
        return [span for span in self.spans if span is not None]

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: ``calls``, ``self_s``, ``total_s`` and the list of
        durations."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: Dict[str, Dict[str, Any]] = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": []}
            for name in self.names
        }
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            entry = out[self.names[span[0]]]
            duration = span[2] - span[1]
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[index]
            entry["total_s"] += duration
            entry["durations"].append(duration)
        return out

    def to_rows(self) -> List[dict]:
        """Spans as JSON-ready rows (what ``--out`` writes)."""
        return [
            {
                "id": index,
                "name": self.names[span[0]],
                "start": span[1],
                "end": span[2],
                "parent": span[3],
                "session": span[4],
            }
            for index, span in enumerate(self.spans)
            if span is not None
        ]
