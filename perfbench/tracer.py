"""Spans around calls into geotraj's public functions, taken from outside.

``Tracer.install`` imports every ``geotraj`` module, wraps each public
function once, and rebinds the wrapper on *every* module attribute that is
bound to that function object, so ``from .x import f`` names are caught too.
The scalar and batch methods of ``geodesy.GeoContext`` are wrapped on the
class. Nothing inside the program is edited.

Spans stay in memory as ``[name, start, end, parent, n_in, n_out]`` and are
written once, by ``Tracer.dump``, when the traced run ends. A span's self time
is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from pathlib import Path
from time import perf_counter

GEOCONTEXT_METHODS = ("enu_to_utm", "utm_to_enu", "enu_to_utm_batch",
                      "utm_to_enu_batch")
# Functions whose first argument's length is recorded (poses handed in).
COUNT_INPUT = {"matching.detect_dwells"}


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.wrapped: set[str] = set()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_input = name in COUNT_INPUT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count_input and args:
                span[4] = _length(args[0])
            span[5] = _length(result)
            return result

        self.wrapped.add(name)
        return traced

    def install(self) -> None:
        import geotraj

        modules = [geotraj] + [importlib.import_module(info.name)
                               for info in pkgutil.walk_packages(geotraj.__path__,
                                                                 "geotraj.")]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[id(value)] = self._wrap(f"{_short(mod.__name__)}.{attr}",
                                                     value)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
        ctx_class = getattr(getattr(geotraj, "geodesy", None), "GeoContext", None)
        for meth in GEOCONTEXT_METHODS:
            fn = getattr(ctx_class, meth, None)
            if inspect.isfunction(fn):
                setattr(ctx_class, meth, self._wrap(f"geodesy.GeoContext.{meth}", fn))

    def dump(self, path: Path, wall_s: float) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"wall_s": wall_s, "wrapped": sorted(self.wrapped), "names": names,
               "spans": [[index[s[0]], s[1], s[2], s[3], s[4], s[5]]
                         for s in self.spans]}
        path.write_text(json.dumps(doc), encoding="utf-8")


def _length(value):
    try:
        return len(value)
    except TypeError:
        return None


def summarize(doc: dict) -> dict:
    """Per function name: calls, total and self seconds, entry calls and
    seconds (spans whose parent lies in another module), and the summed
    input/output lengths."""
    names = doc["names"]
    spans = doc["spans"]
    child_s = [0.0] * len(spans)
    for name_i, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, dict] = {}
    for k, (name_i, start, end, parent, n_in, n_out) in enumerate(spans):
        name = names[name_i]
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "entry_calls": 0, "entry_s": 0.0,
                                    "n_in": 0, "n_out": 0})
        dur = end - start
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_s[k]
        layer = name.split(".", 1)[0]
        if parent < 0 or names[spans[parent][0]].split(".", 1)[0] != layer:
            row["entry_calls"] += 1
            row["entry_s"] += dur
        row["n_in"] += n_in or 0
        row["n_out"] += n_out or 0
    return out
