"""Benchmark-local span recorder for the `tripods` package.

`Tracer.install()` replaces the public functions and methods of each module
with timing wrappers, in every module namespace where callers look them up
(a name imported with `from .x import f` is a second binding of the same
object), so that no program source changes.  `uninstall()` restores them.

A span has a name, a layer (the module that defines the function), start
and end times, a parent (the innermost enclosing span) and a tag inherited
from the enclosing operation.  A span's self time is its duration minus the
time its children cover.  Spans opened on a census worker thread hang under
the census span that started the pool; because they run concurrently, the
time they cover is the union of their intervals.

Spans of layer-boundary functions (`STORED`) are kept in memory and written
out with `dump()`.  The arithmetic of `quadratic` and the small helpers run
thousands of times per tripod, so their spans only add to per-name totals.
"""

from __future__ import annotations

import functools
import inspect as pyinspect
import json
import threading
from threading import get_ident
from time import perf_counter_ns

LAYERS = ("quadratic", "lattice", "geometry", "topology", "census", "analytics",
          "reporting", "cli")

# spans kept individually; every other wrapped function is counted in totals
STORED = {
    "cli.main",
    "census.census", "census.lattice_points_in_disk", "census.convergence_scan",
    "census.nonreduced_census", "census.random_lattice_experiment",
    "census.enumerate_tripods",
    "geometry.Tripod.from_coords", "geometry.classify", "geometry.classify_heuristic",
    "geometry.tripod_volume_and_index",
    "lattice.lattice_points_on_open_segment", "lattice.heuristic_points_on_open_segment",
    "topology.self_intersections", "topology.fiber_tripods",
    "analytics.mc_omega_volume",
}
# functions that call themselves through their module global
RECURSIVE = {"reporting.dumps_json"}
# float-path coordinate maps run in the innermost loop of the heuristic
# segment query; a span per call would multiply that path's time, so their
# time counts as their caller's
UNWRAPPED = {"lattice.LatticeSpec.embed_float", "lattice.LatticeSpec.to_lattice_coords_float"}
STORE_LIMIT = 500_000

# frame slots
_NID, _T0, _CHILD, _TAG, _SID, _XCHILD = range(6)


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class Tracer:
    """Records spans of wrapped calls; one instance per traced round."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []          # nid -> (name, layer)
        self.totals: dict[tuple[int, str], list[int]] = {}  # (nid, tag) -> [calls, ns, self_ns]
        self.spans: list[tuple] = []   # (sid, parent sid, nid, tag, t0, t1, worker)
        self.dropped = 0
        self.census_results: list[tuple[str, int, int]] = []  # (tag, pairs, tripods)
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack: list[list] = []
        self._census_frames: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self._sid = 0
        self._lock = threading.Lock()
        self._ops: dict[str, object] = {}

    # -- recording --------------------------------------------------------

    def _worker_stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, layer: str, tag_of=None, on_exit=None, store=False):
        nid = len(self.names)
        self.names.append((name, layer))
        stored = store or name in STORED
        recursive = name in RECURSIVE
        tracer = self
        main_ident = self._main_ident
        main_stack = self._main_stack
        census_frames = self._census_frames
        lock = self._lock
        tots: dict[str, list[int]] = {}

        def close(frame, parent, worker, t0, t1):
            dur = t1 - t0
            child = frame[_CHILD]
            if frame[_XCHILD]:
                child += _union_ns(frame[_XCHILD])
            if parent is not None:
                if worker:
                    if parent[_XCHILD] is None:
                        parent[_XCHILD] = []
                    parent[_XCHILD].append((t0, t1))
                else:
                    parent[_CHILD] += dur
            tag = frame[_TAG]
            tot = tots.get(tag)
            if tot is None:
                tot = tots[tag] = tracer.totals[(nid, tag)] = [0, 0, 0]
            tot[0] += 1
            tot[1] += dur
            tot[2] += dur - child
            if stored:
                if len(tracer.spans) < STORE_LIMIT:
                    tracer.spans.append((frame[_SID], parent[_SID] if parent else 0, nid,
                                         tag, t0, t1, worker))
                else:
                    tracer.dropped += 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() == main_ident:
                stack = main_stack
                parent = stack[-1] if stack else None
                worker = False
            else:
                # census worker threads: their first span hangs under the census
                stack = tracer._worker_stack()
                parent = stack[-1] if stack else (census_frames[-1] if census_frames else None)
                worker = not stack and parent is not None
            if recursive and parent is not None and parent[_NID] == nid:
                return fn(*args, **kwargs)
            tag = tag_of(args) if tag_of else (parent[_TAG] if parent else "")
            if stored:
                with lock:
                    tracer._sid += 1
                    sid = tracer._sid
            else:
                sid = parent[_SID] if parent else 0
            frame = [nid, 0, 0, tag, sid, None]
            stack.append(frame)
            if on_exit is not None:
                census_frames.append(frame)
            frame[_T0] = t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if on_exit is not None:
                    census_frames.pop()
                if stack is main_stack:
                    close(frame, parent, worker, t0, t1)
                else:
                    with lock:
                        close(frame, parent, worker, t0, t1)
            if on_exit is not None:
                on_exit(tag, result)
            return result

        return wrapper

    def op(self, tag: str, fn, *args):
        """Run fn(*args) as the root span of one benchmark operation."""
        runner = self._ops.get(tag)
        if runner is None:
            runner = self._ops[tag] = self._wrap(
                _call, f"bench.{tag}", "bench", tag_of=lambda _a: tag, store=True)
        return runner(fn, *args)

    # -- installation -----------------------------------------------------

    def install(self, package_modules: dict[str, object]) -> None:
        """Wrap public functions of tripods modules, by their defining module."""
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = package_modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if pyinspect.isfunction(obj):
                    tag_of = on_exit = None
                    if f"{layer}.{attr}" == "census.census":
                        tag_of = _census_tag
                        on_exit = self._census_done
                    originals[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer, tag_of, on_exit)
                elif pyinspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        # rebind every namespace that holds one of the wrapped functions
        for mod in package_modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapped = originals.get(id(obj))
                if wrapped is not None and pyinspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped)

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr in ("__setattr__", "__repr__", "__str__", "_coerce", "__class_getitem__"):
                continue
            if attr.startswith("_") and not (attr.startswith("__") and attr.endswith("__")):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in UNWRAPPED:
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, layer))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, layer))
            elif pyinspect.isfunction(raw):
                if raw.__name__ != attr:      # an alias such as __radd__ = __add__
                    name = f"{layer}.{cls.__name__}.{raw.__name__}"
                new = self._wrap(raw, name, layer)
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def _census_done(self, tag: str, report) -> None:
        self.census_results.append((tag, report.total_tuples_scanned, report.all_tripods))

    # -- queries ----------------------------------------------------------

    def layer_self_s(self, layer: str, tag: str | None = None) -> float:
        return sum(tot[2] for (nid, t), tot in self.totals.items()
                   if self.names[nid][1] == layer and (tag is None or t == tag)) / 1e9

    def calls(self, name: str, tag: str | None = None) -> int:
        return sum(tot[0] for (nid, t), tot in self.totals.items()
                   if self.names[nid][0] == name and (tag is None or t == tag))

    def total_s(self, name: str) -> float:
        return sum(tot[1] for (nid, _t), tot in self.totals.items()
                   if self.names[nid][0] == name) / 1e9

    def durations_ms(self, name: str) -> list[float]:
        nids = {i for i, (n, _l) in enumerate(self.names) if n == name}
        return [(t1 - t0) / 1e6 for (_s, _p, nid, _t, t0, t1, _w) in self.spans if nid in nids]

    def dump(self, path: str) -> None:
        """Write the stored spans and the per-name totals as JSON."""
        data = {
            "names": [list(n) for n in self.names],
            "totals": [[self.names[nid][0], tag, *tot] for (nid, tag), tot in self.totals.items()],
            "dropped_spans": self.dropped,
            "span_fields": ["id", "parent", "name", "tag", "start_ns", "end_ns", "worker"],
            "spans": [[s[0], s[1], self.names[s[2]][0], s[3], s[4], s[5], s[6]]
                      for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


def _call(fn, *args):
    return fn(*args)


def _census_tag(args) -> str:
    return "census-exact" if args[0].lattice.is_exact else "census-float"
