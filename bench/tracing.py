"""In-memory spans around names that alegeo code looks up at call time.

A probe wraps one public name (a module function, a method on a class, a
classmethod or an attribute of an object such as a click command).  Every
call through the wrapper records a span (name, id, parent id, start, end)
and may add to named counters.  Module functions are replaced in every
``alegeo`` module that bound the same object, so a function imported with
``from .x import f`` is wrapped where its caller looks it up.  Nothing in
the program is edited; ``Tracer.uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import types
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    id: int
    parent: int  # 0 for a root span
    start: float
    end: float


@dataclass(frozen=True)
class Probe:
    """Span ``name`` around ``getattr(owner, attr)``.

    ``before(args, kwargs)`` runs ahead of the call and its value is passed
    on; ``after(token, args, kwargs, result, seconds)`` runs after every
    call, with ``result`` None when the call raised, and gives counter
    increments as a dict (or None).
    """

    name: str
    owner: object
    attr: str
    after: Callable | None = None
    before: Callable | None = None


class Tracer:
    """Collects spans and counters; install() patches, uninstall() restores.

    install() returns a mark; uninstall(mark) undoes only what was
    installed after it, and uninstall() undoes everything.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, probe: Probe, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = probe.before(args, kwargs) if probe.before else None
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(probe.name, sid, parent, start, end))
                if probe.after:
                    counts = probe.after(token, args, kwargs, result,
                                         end - start)
                    if counts:
                        with self._lock:
                            self.counters.update(counts)
        return wrapper

    def install(self, probes):
        mark = len(self._patches)
        for probe in probes:
            self._install(probe)
        return mark

    def _install(self, probe):
        owner, attr = probe.owner, probe.attr
        if isinstance(owner, types.ModuleType):
            fn = getattr(owner, attr)
            new = self.wrap(probe, fn)
            for mod in [m for key, m in list(sys.modules.items())
                        if key == "alegeo" or key.startswith("alegeo.")]:
                for name in [k for k, v in vars(mod).items() if v is fn]:
                    self._patches.append((mod, name, fn))
                    setattr(mod, name, new)
            return
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(probe, raw.__func__))
        else:
            new = self.wrap(probe, raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self, mark=0):
        while len(self._patches) > mark:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id -> duration minus the part its child spans cover.

    Children are clipped to their parent's interval first, so a child that
    outlives its parent (possible only across threads) is not subtracted
    beyond the parent's own duration.
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            children[s.parent].append((max(s.start, parent.start),
                                       min(s.end, parent.end)))
    return {s.id: (s.end - s.start)
            - union_length([iv for iv in children[s.id] if iv[1] > iv[0]])
            for s in spans}


def summarize(spans):
    """Per span name: ``<name>.calls``, ``<name>.s`` and ``<name>.self_s``."""
    own = self_times(spans)
    calls = Counter(s.name for s in spans)
    total = defaultdict(float)
    alone = defaultdict(float)
    for s in spans:
        total[s.name] += s.end - s.start
        alone[s.name] += own[s.id]
    out = {}
    for name, n in calls.items():
        out[name + ".calls"] = n
        out[name + ".s"] = total[name]
        out[name + ".self_s"] = alone[name]
    return out
