"""In-memory span recorder that times koopcert's public functions from outside.

``Tracer.install()`` replaces each target function, in every loaded koopcert
module that binds it (``koopcert.cli.fit_koopman``, ``koopcert.estimator.gram``,
``koopcert.kernels.gram`` for the import inside ``read_model``, ...), with a
wrapper that records a span: name, start, end, parent span and the sweep leg
it ran in. ``uninstall()`` puts every original back. The program itself is
not edited, so a traced pass runs the same code as an untraced one.

Spans stay in memory until the benchmark asks for them. The program runs on
one thread, so the child spans of a span never overlap and the time they cover
is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    leg: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps target functions while installed and collects their spans.

    targets maps (defining module, function name) to (span name, hook); a
    hook, when given, is called as hook(args, kwargs, result) after the call
    and returns attributes to store on the span.
    """

    def __init__(self, targets: dict):
        self.targets = targets
        self.spans: list[Span] = []
        self.leg: str | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "koopcert" or name.startswith("koopcert.")]
        try:
            for (modname, fname), (span_name, hook) in self.targets.items():
                original = getattr(importlib.import_module(modname), fname, None)
                if original is None:
                    # A later version may drop or move a function; its
                    # metrics then read zero instead of breaking the run.
                    self.missing.append(f"{modname}.{fname}")
                    continue
                wrapper = self._wrap(original, span_name, hook)
                for mod in modules:
                    if vars(mod).get(fname) is original:
                        self._patched.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            mod, fname, original = self._patched.pop()
            setattr(mod, fname, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, name: str, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=stack[-1] if stack else None, leg=self.leg)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                span.attrs.update(hook(args, kwargs, result))
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]
