"""Span tracing around the package's public functions, from outside.

The wrappers replace each traced function at every module-level name that
refers to it, which is where its callers look it up, and are removed
again by ``uninstall``. Nothing under ``src/`` is edited. Spans nest: a
span's self time is its duration minus the time covered by its child
spans, so the self times of all spans add up to the root's duration.
Spans are aggregated in memory as they close (calls and self time per
name) rather than stored one by one.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) pairs traced under the name "<module>.<function>"
FUNCTIONS = (
    ("graph", "load_graph"),
    ("graph", "validate"),
    ("cone", "neg_inverse"),
    ("cone", "lipman_status"),
    ("cone", "fundamental_cycle"),
    ("conditions", "check_star"),
    ("conditions", "check_star_star"),
    ("conditions", "star_witness"),
    ("classify", "nash_verdict"),
    ("vanishing", "realization_criterion"),
    ("vanishing", "laufer_criterion"),
    ("cli", "report_to_dict"),
)
GENERATOR = ("classify", "enumerate_graphs")  # traced per next(), as "<name>.next"
METHOD = ("graph", "ResolutionGraph", "intersection_matrix")


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []  # [start, time covered by children]
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.yielded: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _enter(self) -> None:
        self.stack.append([perf_counter(), 0.0])

    def _exit(self, name: str) -> None:
        end = perf_counter()
        start, covered = self.stack.pop()
        if self.stack:
            self.stack[-1][1] += end - start
        self.calls[name] += 1
        self.self_s[name] += end - start - covered

    def exclude(self, seconds: float) -> None:
        """Leave out time that ran inside the innermost open span but is not
        the program's, as if it were a child span."""
        if self.stack:
            self.stack[-1][1] += seconds

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name)

        return traced

    def generator_span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(name)
                self.yielded[name] += 1
                yield item

        return traced

    def install(self, package: str = "nashcone") -> None:
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        wrappers = [self.span(f"{mod}.{fn}", getattr(sys.modules[f"{package}.{mod}"], fn))
                    for mod, fn in FUNCTIONS]
        mod, fn = GENERATOR
        original = getattr(sys.modules[f"{package}.{mod}"], fn)
        wrappers.append(self.generator_span(f"{mod}.{fn}.next", original))
        for traced in wrappers:
            original = traced.__wrapped__
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, value))
                        setattr(m, attr, traced)
        mod, cls_name, meth = METHOD
        cls = getattr(sys.modules[f"{package}.{mod}"], cls_name)
        original = vars(cls)[meth]
        self._restore.append((cls, meth, original))
        setattr(cls, meth, self.span(f"{mod}.{meth}", original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
