"""Span recording around stftuniq's public functions, installed from outside.

The package has no hooks of its own, so the tracer replaces each traced
function at every module binding through which it can be reached:
`from .windows import time_window_values` copies the name into stft, and
a call from stft only goes through a wrapper placed there. Spans (name,
start, end, parent) stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive seconds, self seconds and call count per span name."""
        inclusive: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        for i, s in enumerate(self.spans):
            d = s.end - s.start
            inclusive[s.name] = inclusive.get(s.name, 0.0) + d
            own[s.name] = own.get(s.name, 0.0) + d - child_time[i]
            calls[s.name] = calls.get(s.name, 0) + 1
        return inclusive, own, calls

    def covered(self, root: str) -> float:
        """Seconds of `root` spans covered by their direct children."""
        roots = {i for i, s in enumerate(self.spans) if s.name == root}
        return sum(s.end - s.start for s in self.spans if s.parent in roots)

    def adopt(self, path) -> None:
        """Append the spans and counts another process wrote, under the open span.

        perf_counter reads the system-wide monotonic clock on Linux, so the
        child's timestamps line up with this process's own.
        """
        parent = self._stack[-1] if self._stack else -1
        offset = len(self.spans)
        with open(path, encoding="utf-8") as fp:
            for line in fp:
                rec = json.loads(line)
                if "counts" in rec:
                    for key, n in rec["counts"].items():
                        self.count(key, n)
                    continue
                up = rec["parent"] + offset if rec["parent"] >= 0 else parent
                self.spans.append(Span(rec["name"], rec["start"], rec["end"], up))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for s in self.spans:
                fp.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent}) + "\n")
            fp.write(json.dumps({"counts": self.counts}) + "\n")


def _rebind(old, new) -> None:
    """Point every stftuniq module attribute bound to `old` at `new`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "stftuniq" or mod_name.startswith("stftuniq.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def _nodes_per_point(signal, quad) -> int:
    """Time nodes one transform evaluation integrates over, summed over both levels."""
    values = getattr(signal, "values", None)
    if values is not None:
        return int(values.size)
    return 2 * quad.nodes + 4 * quad.nodes


def _point_count(points) -> int:
    return len(getattr(points, "points", points))


def _counting(tracer: Tracer, name: str, fn, counts):
    """Span `fn` as `name` and add counts(arguments) to the tracer before each call."""
    sig = inspect.signature(fn)
    timed = tracer.span(name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        for key, n in counts(bound.arguments).items():
            tracer.count(key, n)
        return timed(*args, **kwargs)
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the traced public functions of stftuniq at every binding."""
    import stftuniq.entire as entire
    import stftuniq.quadrature as quadrature
    import stftuniq.sampling as sampling
    import stftuniq.stft as stft
    import stftuniq.windows as windows

    for mod, attr in ((quadrature, "line_nodes"), (stft, "global_phase_residual"),
                      (sampling, "density_index"), (sampling, "classify_sequence"),
                      (entire, "build_counterexample_product"),
                      (entire, "canonical_product_log_magnitudes"),
                      (entire, "canonical_product_eval")):
        orig = getattr(mod, attr)
        _rebind(orig, tracer.span(f"{mod.__name__.split('.')[-1]}.{attr}", orig))

    # computed counts: two refinement levels of 2*nodes and 4*nodes points each
    counted = (
        (windows.time_window_values, "windows.time_window_values",
         lambda a: {"windows.time_window_values.exps":
                    int(np.size(a["ts"])) * 6 * a["quad"].nodes}),
        (stft.spectrogram_on_set, "stft.spectrogram_on_set",
         lambda a: {"stft.kernel.exps": _point_count(a["points"]) * _nodes_per_point(a["f"], a["quad"])}),
        (stft.discriminate, "stft.discriminate",
         lambda a: {"stft.kernel.exps": _point_count(a["points"])
                    * (_nodes_per_point(a["f"], a["quad"]) + _nodes_per_point(a["h"], a["quad"]))}),
    )
    for orig, name, counts in counted:
        _rebind(orig, _counting(tracer, name, orig, counts))

    orig_closed = windows.time_window_closed_form

    @functools.wraps(orig_closed)
    def time_window_closed_form(window):
        closed = orig_closed(window)
        if closed is None:
            return None
        return _counting(tracer, "windows.closed_form", closed,
                         lambda a: {"windows.closed_form.evals": 1})
    _rebind(orig_closed, time_window_closed_form)
