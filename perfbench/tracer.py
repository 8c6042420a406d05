"""Span tracing at psdparam's module boundaries, installed from outside.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper that records a span (name, start, end, parent, verdict) in flat
arrays, under every name the function is bound to, so calls through
imported names such as ``definiteness.min_eig`` or ``cli.parse_poly`` are
traced too.  A few wrappers also record counts where the work happens.
``uninstall`` restores the original functions.  Nothing in the program is
edited.
"""

from __future__ import annotations

import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("intervals", "symlinalg", "parametric", "definiteness", "cubic", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.verdict = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._current_verdict = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(result)`` may count."""
        nid = self._id(name)
        stack, name_id, parent, verdict, start, end = (
            self._stack, self.name_id, self.parent, self.verdict, self.start, self.end,
        )

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            verdict.append(self._current_verdict)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_verdict(self) -> None:
        """Tag the spans that follow with the next verdict number."""
        self._current_verdict += 1

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        modules = [getattr(package, m) for m in MODULES]
        targets = {}
        for mod in modules:
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    targets[obj] = f"{mod.__name__.rsplit('.', 1)[1]}.{name}"
        after = {
            "symlinalg.spectral_radius_nonneg": lambda r: self.counts.update(perron_iterations=r.iterations),
        }
        wrappers = {fn: self.span(name, fn, after.get(name)) for fn, name in targets.items()}
        for mod in [package, *modules]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])

        im = package.intervals.IntervalMatrix
        self._patch(im, "symmetric_parts", self.span("intervals.symmetric_parts", im.symmetric_parts))

        enum = package.parametric.VertexEnumeration
        getitem = enum.__getitem__
        counts = self.counts

        def counted_getitem(obj, i):
            item = getitem(obj, i)
            counts["vertices_visited"] += 1
            return item

        self._patch(enum, "__getitem__", counted_getitem)

    def _patch(self, owner, name, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict:
        names = np.array(self.name_id, dtype=np.int32)
        parents = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        inner = parents >= 0
        child = np.bincount(parents[inner], weights=dur[inner], minlength=len(dur))
        return {"name": names, "parent": parents, "dur": dur, "self": dur - child}

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            verdict=np.array(self.verdict, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )


class SpanStats:
    """Totals over a tracer's spans, by function name and by parent name."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self._names = tracer.names
        self._name = a["name"]
        self._dur = a["dur"]
        self._self = a["self"]
        parents = a["parent"]
        self._parent_name = np.where(parents >= 0, self._name[np.maximum(parents, 0)], -1)

    def _mask(self, name: str, parent: str | None = None):
        if name not in self._names:
            return np.zeros(len(self._name), dtype=bool)
        mask = self._name == self._names.index(name)
        if parent is not None:
            pid = self._names.index(parent) if parent in self._names else -2
            mask &= self._parent_name == pid
        return mask

    def calls(self, name: str, parent: str | None = None) -> int:
        return int(self._mask(name, parent).sum())

    def ms(self, name: str, parent: str | None = None) -> float:
        """Inclusive time of the named spans, in milliseconds."""
        return float(self._dur[self._mask(name, parent)].sum()) * 1e3

    def self_ms(self, module: str) -> float:
        """Self time of every span whose function lives in ``module``."""
        ids = [i for i, n in enumerate(self._names) if n.startswith(module + ".")]
        return float(self._self[np.isin(self._name, ids)].sum()) * 1e3
