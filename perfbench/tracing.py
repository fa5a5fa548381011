"""Spans around the calls into each paraeval layer, recorded from outside.

``Tracer.install`` wraps every public function of the layer modules and
rebinds the wrapper under every name a paraeval module holds for that
function (``paraeval.cli.build_paragraphs`` as well as
``paraeval.paragraphs.build_paragraphs``), so the calls the CLI makes go
through it. Each call appends one span (name, start, end, parent index)
to an in-memory list; ``self_times`` reduces the list afterwards. Counter
hooks run after a span closes and get a ``trace.hook`` span of their own,
so their cost is charged to the tracer, not to the layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

LAYERS = ("fileio", "model", "paragraphs", "metrics", "metaeval", "noise",
          "sampling")
# Called once per paragraph or token count; a span per call would cost more
# than the call and bury the layers that do the work.
UNTRACED = frozenset({"paragraphs.aggregate_score",
                      "metrics.whitespace_token_count",
                      "metrics.char_token_count"})

# A hook gets the tracer, the call's positional arguments and its result.
Hook = Callable[["Tracer", tuple, object], None]


class Tracer:
    """Wraps paraeval's layer functions and records nested spans."""

    def __init__(self, hooks: dict[str, Hook]):
        self.hooks = hooks
        self.spans: list = []
        self.counters: Counter = Counter()
        self.units: dict = {}
        self.hook_errors: set[str] = set()
        self.found: set[str] = set()
        self._stack = [-1]
        self._patches: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "paraeval"
                                         or name.startswith("paraeval."))]
        for layer in LAYERS:
            module = importlib.import_module(f"paraeval.{layer}")
            for attr, fn in sorted(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self.found.add(name)
                wrapper = self._wrap(name, fn, self.hooks.get(name))
                for holder in modules:
                    for held, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, held, fn))
                            setattr(holder, held, wrapper)

    def uninstall(self) -> None:
        for holder, held, fn in reversed(self._patches):
            setattr(holder, held, fn)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()
        self.units = {}

    def root(self, name: str, fn: Callable, *args):
        """Call fn under a top-level span (a CLI command)."""
        return self._wrap(name, fn, None)(*args)

    def _wrap(self, name: str, fn: Callable, hook: Optional[Hook]) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook_start = clock()
                try:
                    hook(self, args, result)
                except (AttributeError, TypeError, IndexError, KeyError, OSError):
                    self.hook_errors.add(name)
                spans.append(("trace.hook", hook_start, clock(), parent))
            return result

        return wrapper


def self_times(spans: list) -> tuple[dict[str, float], Counter]:
    """Self seconds and call counts per span name.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because paraeval runs one thread here.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for index, (name, start, end, _) in enumerate(spans):
        totals[name] += (end - start) - child[index]
        calls[name] += 1
    return dict(totals), calls
