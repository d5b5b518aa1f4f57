"""Outside-in span tracer for the kempe_covers layers.

The package has no trace hooks of its own, so this module wraps its public
functions from the outside. A name imported with ``from .covering import
compose`` is a second binding of the same function in the importing module,
so every module namespace that binds a wrapped function gets the wrapper;
calls between layers are then traced too. ``EdgeColoring.__init__``,
``Multigraph.__init__`` and ``CoveringMap.vertex_fiber`` are wrapped on their
classes.

Spans are kept in memory as columns (name, phase, instance, parent, start,
end) and written out once by :meth:`Tracer.write`. Self time is a span's
duration minus the durations of its direct children, accumulated per
(phase, name) as spans close.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

#: layer modules whose public functions are wrapped; ``cli`` only dispatches
#: and ``errors`` does no work, so neither is a layer
LAYERS = ("graph", "coloring", "covering", "alignment", "equivalence", "oracle", "serialize")

#: (module, class, method, span name, extra counter, counter from (args, result))
METHODS = (
    ("graph", "Multigraph", "__init__", "graph.Multigraph.init", "edges", lambda a, r: len(a[2])),
    ("coloring", "EdgeColoring", "__init__", "coloring.EdgeColoring.init", "entries", lambda a, r: len(a[2])),
    ("covering", "CoveringMap", "vertex_fiber", "covering.CoveringMap.vertex_fiber", None, None),
)

#: extra counters on wrapped functions: span name -> (counter, counter from (args, result))
FUNCTION_COUNTERS = {
    "covering.lift_switch": ("lifted", lambda a, r: len(r)),
    "oracle.enumerate_legal_colorings": ("colorings", lambda a, r: len(r)),
}


class Tracer:
    """Records spans while ``phase`` is set; does nothing while it is None."""

    def __init__(self):
        self.phase: str | None = None
        self.instance = -1
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._phases: list[str] = []
        self._phase_ids: dict[str, int] = {}
        self._name = array("i")
        self._phase = array("i")
        self._instance = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[list] = []  # [span index, child time]
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counters: dict[tuple[str, str], int] = defaultdict(int)

    def _intern(self, table: list, ids: dict, key: str) -> int:
        if key not in ids:
            ids[key] = len(table)
            table.append(key)
        return ids[key]

    def wrap(self, name: str, fn, counter=None):
        count_name, count = counter or (None, None)
        name_id = self._intern(self._names, self._name_ids, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            index = len(self._start)
            self._name.append(name_id)
            self._phase.append(self._intern(self._phases, self._phase_ids, phase))
            self._instance.append(self.instance)
            self._parent.append(self._stack[-1][0] if self._stack else -1)
            frame = [index, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            self._start.append(start)
            self._end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._end[index] = end
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                key = (phase, name)
                self.calls[key] += 1
                self.self_s[key] += duration - frame[1]
            if count is not None:
                self.counters[(phase, f"{name}.{count_name}")] += count(args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function of the layer modules in every binding."""
        modules = [package] + [
            m for m in list(sys.modules.values())
            if getattr(m, "__name__", "").startswith(package.__name__ + ".")
        ]
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr, fn in vars(module).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, fn, FUNCTION_COUNTERS.get(name))
                for m in modules:
                    for bound, value in vars(m).copy().items():
                        if value is fn:
                            setattr(m, bound, wrapper)
        for layer, cls_name, method, name, count_name, count in METHODS:
            cls = getattr(sys.modules[f"{package.__name__}.{layer}"], cls_name)
            counter = (count_name, count) if count_name else None
            setattr(cls, method, self.wrap(name, getattr(cls, method), counter))

    # -- results ---------------------------------------------------------

    @staticmethod
    def span_cost(calls: int = 20000) -> float:
        """Seconds a traced call takes longer than a plain one, measured on a no-op."""
        probe = Tracer()
        probe.phase = "probe"

        def noop():
            return None

        def fastest(fn) -> float:
            times = []
            for _ in range(5):
                t = perf_counter()
                for _ in range(calls):
                    fn()
                times.append(perf_counter() - t)
            return min(times)

        return max(0.0, fastest(probe.wrap("probe", noop)) - fastest(noop)) / calls

    @property
    def span_count(self) -> int:
        return len(self._start)

    def total(self, table: dict, name: str, phases=None) -> float:
        return sum(v for (p, n), v in table.items() if n == name and (phases is None or p in phases))

    def write(self, path) -> None:
        """Write every span as one tab-separated line (gzip), with a header."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tname\tphase\tinstance\tparent\tstart\tend\n")
            names, phases = self._names, self._phases
            for k in range(len(self._start)):
                fh.write(
                    f"{k}\t{names[self._name[k]]}\t{phases[self._phase[k]]}\t{self._instance[k]}"
                    f"\t{self._parent[k]}\t{self._start[k]:.9f}\t{self._end[k]:.9f}\n"
                )
