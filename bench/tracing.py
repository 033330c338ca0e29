"""Spans around the package's public functions, installed for traced runs only.

Each public function of the traced modules is replaced, in every package
module that binds it, by a wrapper that records a span: its id, the
enclosing span, the current op id, a name such as
``processes.classify``, and its start and end in nanoseconds.  Patching the
binding sites (``mglab.processes.conditional_expectation``, not only
``mglab.conditioning.conditional_expectation``) is what makes nested calls
visible.  The ``numeric`` helpers run once per element, so they only count
calls: a span each would cost more than the work it measures.

Spans stay in memory and are written out once, when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

TRACED_MODULES = (
    "cli", "jsonio", "measure", "numeric", "integration", "conditioning", "processes",
    "montecarlo",
)
COUNT_ONLY = ("numeric",)
# The CLI's load and emit steps are private helpers; they are the layer
# boundaries that the in-process repeat of a verify call must separate.
PRIVATE_BOUNDARIES = {("cli", "_load_json"): "jsonio.load", ("cli", "_emit"): "cli.emit"}


# Spans of this function are named per functional kind, since a terminal
# estimate and a per-path stopping rule differ in cost by orders of magnitude.
BY_KIND = "montecarlo.estimate_functional"


def _span_name(name: str, args, kwargs) -> str:
    if name != BY_KIND:
        return name
    functional = args[1] if len(args) > 1 else kwargs.get("functional")
    return f"{name}.{getattr(functional, 'kind', 'unknown')}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around a block, for the benchmark's own op roots."""
        sid = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, name, t0, time.perf_counter_ns())

    def _open(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, t0: int, t1: int) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, parent, self.op_id, name, t0, t1))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open()
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, _span_name(name, args, kwargs), t0, time.perf_counter_ns())

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, package) -> None:
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in TRACED_MODULES}
        sites = [package, *modules.values()]
        for short, module in modules.items():
            targets = {
                name: obj for name, obj in vars(module).items()
                if inspect.isfunction(obj) and obj.__module__ == module.__name__
                and (not name.startswith("_") or (short, name) in PRIVATE_BOUNDARIES)
            }
            for name, fn in targets.items():
                label = PRIVATE_BOUNDARIES.get((short, name), f"{short}.{name}")
                make = self._counter if short in COUNT_ONLY else self._wrap
                wrapper = make(label, fn)
                for site in sites:
                    for attr, value in list(vars(site).items()):
                        if value is fn:
                            self._patches.append((site, attr, fn))
                            setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._patches):
            setattr(site, attr, fn)
        self._patches.clear()

    # -- output ---------------------------------------------------------------

    def dump(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover (ns)."""
    child_ns: dict[int, int] = defaultdict(int)
    for sid, parent, _, _, t0, t1 in spans:
        if parent is not None:
            child_ns[parent] += t1 - t0
    return {sid: (t1 - t0) - child_ns[sid] for sid, _, _, _, t0, t1 in spans}
