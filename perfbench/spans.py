"""In-memory wall-clock spans around the public functions of each layer.

A :class:`Tracer` installs a wrapper on a class or module attribute,
records one span per call (name, start, end, parent, request id) and
puts the original attribute back on :meth:`Tracer.uninstall`.  Spans
nest through a parent stack, so only synchronous calls may be wrapped
(an ``async def`` is accepted when it never suspends, like a service's
``start``).  Nothing here touches the program's canonical telemetry:
the spans live in plain lists and leave the process only through the
benchmark's own output.

Every wrapped attribute belongs to a *group* (a layer metric).  A span
is *outer* when no enclosing span belongs to the same group, so a
group's inclusive time is the sum of its outer spans and recursion or
nested helpers of one layer are never counted twice.  A span's *self*
time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

_clock = time.perf_counter_ns

#: ``(args, kwargs) -> request id`` for spans that start a request
RequestOf = Callable[[tuple, dict], Any]
#: ``(args, kwargs, result) -> value`` stored on the span after the call
NoteOf = Callable[[tuple, dict, Any], Any]


class Tracer:
    """Spans in parallel lists, plus the wrappers that produce them."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.groups: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.requests: List[Any] = []
        self.notes: List[Any] = []
        self.outer: List[bool] = []
        self._stack: List[int] = []
        self._depth: Dict[str, int] = {}
        #: restore callbacks, run newest first by :meth:`uninstall`
        self._restore: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, group: str, request: Any) -> int:
        index = len(self.names)
        stack = self._stack
        parent = stack[-1] if stack else -1
        if request is None and parent >= 0:
            request = self.requests[parent]
        depth = self._depth.get(group, 0)
        self._depth[group] = depth + 1
        self.names.append(name)
        self.groups.append(group)
        self.parents.append(parent)
        self.requests.append(request)
        self.notes.append(None)
        self.outer.append(depth == 0)
        self.ends.append(0)
        stack.append(index)
        self.starts.append(_clock())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = _clock()
        self._stack.pop()
        self._depth[self.groups[index]] -= 1

    @contextmanager
    def span(self, name: str, group: Optional[str] = None) -> Iterator[int]:
        """A span opened by the benchmark itself (e.g. a workload root)."""
        index = self._open(name, group or name, None)
        try:
            yield index
        finally:
            self._close(index)

    # -- wrappers ----------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        group: Optional[str] = None,
        request: Optional[RequestOf] = None,
        note: Optional[NoteOf] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *owner* is a class (the attribute must be defined on that class
        itself, not inherited) or a module.
        """
        if inspect.isclass(owner):
            if attr not in owner.__dict__:
                raise AttributeError(
                    f"{owner.__qualname__}.{attr} is inherited; wrap the "
                    "class that defines it"
                )
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        setattr(owner, attr, self.wrapper(original, name, group, request, note))
        self.on_uninstall(lambda: setattr(owner, attr, original))

    def on_uninstall(self, restore: Callable[[], None]) -> None:
        """Register *restore* to run when the tracer uninstalls."""
        self._restore.append(restore)

    def wrapper(
        self,
        original: Callable[..., Any],
        name: str,
        group: Optional[str] = None,
        request: Optional[RequestOf] = None,
        note: Optional[NoteOf] = None,
    ) -> Callable[..., Any]:
        """A span-recording stand-in for *original* (not installed)."""
        if not callable(original):
            raise TypeError(f"{name}: {original!r} is not a function")
        group = group or name
        tracer = self

        if inspect.iscoroutinefunction(original):

            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                index = tracer._open(
                    name, group, request(args, kwargs) if request else None
                )
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer._close(index)
                if note is not None:
                    tracer.notes[index] = note(args, kwargs, result)
                return result

        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                index = tracer._open(
                    name, group, request(args, kwargs) if request else None
                )
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(index)
                if note is not None:
                    tracer.notes[index] = note(args, kwargs, result)
                return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            self._restore.pop()()

    @property
    def installed(self) -> int:
        return len(self._restore)

    @contextmanager
    def installed_while(self) -> Iterator["Tracer"]:
        """Uninstall on exit, whatever happened inside."""
        try:
            yield self
        finally:
            self.uninstall()

    # -- aggregation -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def self_ns(self) -> List[int]:
        """Per span: duration minus the part its children cover."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        out = list(own)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= own[index]
        return out

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)

    def write_jsonl(self, path: Path) -> None:
        """One JSON object per span: name, start, end, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, name in enumerate(self.names):
                request = self.requests[index]
                out.write(json.dumps({
                    "span": index,
                    "name": name,
                    "start_ns": self.starts[index],
                    "end_ns": self.ends[index],
                    "parent": self.parents[index],
                    "request": list(request) if request else None,
                }) + "\n")


class SpanSummary:
    """Per-group totals computed once from a finished tracer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.self_ns = tracer.self_ns()
        self.inclusive_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.self_by_name: Dict[str, int] = {}
        for index, group in enumerate(tracer.groups):
            name = tracer.names[index]
            self.self_by_name[name] = (
                self.self_by_name.get(name, 0) + self.self_ns[index]
            )
            if tracer.outer[index]:
                duration = tracer.ends[index] - tracer.starts[index]
                self.inclusive_ns[group] = (
                    self.inclusive_ns.get(group, 0) + duration
                )
                self.calls[group] = self.calls.get(group, 0) + 1

    def seconds(self, group: str) -> float:
        return self.inclusive_ns.get(group, 0) / 1e9

    def self_seconds(self, name: str) -> float:
        return self.self_by_name.get(name, 0) / 1e9

    def count(self, group: str) -> int:
        return self.calls.get(group, 0)

    def total_self_seconds(self) -> float:
        return sum(self.self_ns) / 1e9

    def notes(self, name: str) -> List[Any]:
        tracer = self.tracer
        return [
            note
            for span_name, note in zip(tracer.names, tracer.notes)
            if span_name == name
        ]

    def seconds_by_note(self, group: str) -> Dict[Any, float]:
        """Inclusive seconds of *group*'s outer spans, keyed by note."""
        tracer = self.tracer
        out: Dict[Any, float] = {}
        for index, span_group in enumerate(tracer.groups):
            if span_group == group and tracer.outer[index]:
                key = tracer.notes[index]
                duration = tracer.ends[index] - tracer.starts[index]
                out[key] = out.get(key, 0.0) + duration / 1e9
        return out

    def child_count(self, name: str, parent_name: str) -> int:
        """Spans called *name* whose direct parent is called *parent_name*."""
        tracer = self.tracer
        names = tracer.names
        return sum(
            1
            for index, parent in enumerate(tracer.parents)
            if names[index] == name and parent >= 0
            and names[parent] == parent_name
        )
