"""Per-layer spans around the public functions of quditcat, for the traced run.

`install` wraps every public function of the layer modules (fock, coherent,
parity, lmg, husimi, variational) and puts the wrapper on every quditcat
module attribute that holds the original, since callers look functions up
in different places: `cli` binds `diagonalize` with `from ... import`,
`variational` binds `dcat` the same way, and `husimi` calls
`husimi_values` through its own globals.  `FockBasis.__init__`, `rank` and
`unrank` are wrapped on the class.

Sweeps run on thread pools, so every thread keeps its own span stack.  A
span's self time is its duration minus that of its direct children, and
it is charged to the nearest enclosing *layer*: a span named in `LAYERS`,
else `other` for helpers called outside any layer.  Time outside every
span is charged to `cli`.  The pools are replaced by a subclass that
records each task as a root on its worker thread and the caller's wait
for the pool as excluded time, so that the charges add up to the
sweep's thread time: the caller's wall time minus its pool waits, plus
the wall time of every task.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

LAYER_MODULES = ("fock", "coherent", "parity", "lmg", "husimi", "variational")

LAYERS = {
    "fock.FockBasis",
    "coherent.spin_matrix",
    "lmg.build_hamiltonian",
    "lmg.diagonalize",
    "husimi.husimi_values",
    "husimi.wehrl_entropy",
    "husimi.moment_analytic",
    "husimi.husimi_grid",
    "husimi.count_humps",
    "parity.dcat",
    "variational.maximize_overlap",
    "variational.variational_cat",
}

# span name -> layer its self time is charged to; other spans inherit the
# layer of the span that called them
LAYER_OF = {name: name for name in LAYERS}
LAYER_OF["fock.FockBasis.rank"] = "fock.FockBasis"
LAYER_OF["fock.FockBasis.unrank"] = "fock.FockBasis"

ROOT = "cli"
POOL = "<pool>"
OTHER = "other"


class _Frame:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer: str, start: float):
        self.layer = layer
        self.start = start
        self.child = 0.0


class _ThreadState:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, float] = defaultdict(float)
        self.thread_s = 0.0

    def inside(self, layer: str) -> bool:
        return any(frame.layer == layer for frame in self.stack)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def enter(self, st: _ThreadState, name: str) -> _Frame:
        if name in (ROOT, POOL):
            layer = name
        elif name in LAYER_OF:
            layer = LAYER_OF[name]
        elif st.stack and st.stack[-1].layer not in (ROOT, POOL):
            layer = st.stack[-1].layer
        else:
            layer = OTHER
        frame = _Frame(layer, time.perf_counter())
        st.stack.append(frame)
        return frame

    def leave(self, st: _ThreadState, frame: _Frame) -> None:
        dur = time.perf_counter() - frame.start
        st.stack.pop()
        if frame.layer == POOL:
            st.thread_s -= dur
        else:
            st.self_s[frame.layer] += dur - frame.child
        if frame.layer == ROOT:
            st.thread_s += dur
        if st.stack:
            st.stack[-1].child += dur

    def root(self, fn, *args, **kwargs):
        st = self.state()
        frame = self.enter(st, ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave(st, frame)

    def span(self, fn, name: str, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self.state()
            st.calls[name] += 1
            frame = self.enter(st, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(st, frame)
            if observe is not None:
                observe(st, args, kwargs, result)
            return result

        return wrapper

    def totals(self) -> dict:
        out = {"thread_s": 0.0, "self_s": {}, "calls": {}, "counts": {}, "maxima": {}}
        for st in self._states:
            if st.stack:
                raise RuntimeError("a span was still open when the sweep ended")
            out["thread_s"] += st.thread_s
            for field in ("self_s", "calls", "counts"):
                for key, value in getattr(st, field).items():
                    out[field][key] = out[field].get(key, 0) + value
            for key, value in st.maxima.items():
                out["maxima"][key] = max(out["maxima"].get(key, 0.0), value)
        return out


def _array_mb(value) -> float:
    # sparse blocks count too, so the metric survives a sparse solver
    if hasattr(value, "nbytes"):
        return value.nbytes / 1e6
    if hasattr(value, "data") and hasattr(value, "indices"):
        return sum(getattr(value, a).nbytes for a in ("data", "indices", "indptr")) / 1e6
    return 0.0


def _observe_diagonalize(st, args, kwargs, result):
    mb = sum(_array_mb(a) for a in args if not hasattr(a, "states"))
    st.maxima["lmg.diagonalize.matrix_mb"] = max(st.maxima["lmg.diagonalize.matrix_mb"], mb)


def _observe_husimi_values(st, args, kwargs, result):
    st.counts["husimi.husimi_values.points"] += len(result)


def _observe_wehrl(st, args, kwargs, result):
    st.maxima["husimi.wehrl_entropy.se_max"] = max(
        st.maxima["husimi.wehrl_entropy.se_max"], float(result[1])
    )


def _observe_dcat(st, args, kwargs, result):
    if st.inside("variational.maximize_overlap"):
        st.counts["variational.maximize_overlap.dcat_calls"] += 1


OBSERVERS = {
    "lmg.diagonalize": _observe_diagonalize,
    "husimi.husimi_values": _observe_husimi_values,
    "husimi.wehrl_entropy": _observe_wehrl,
    "parity.dcat": _observe_dcat,
}


def _quditcat_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "quditcat" or name.startswith("quditcat."))
    ]


def _rebind(replacements: dict) -> None:
    """Point every quditcat module attribute holding an original at its wrapper."""
    for mod in _quditcat_modules():
        for attr, value in list(vars(mod).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of an imported quditcat; call once per process."""
    import quditcat.fock as fock
    import quditcat.variational as variational

    replacements = {}
    for short in LAYER_MODULES:
        mod = sys.modules[f"quditcat.{short}"]
        for attr, value in list(vars(mod).items()):
            if (
                attr.startswith("_")
                or isinstance(value, type)
                or not callable(value)
                or getattr(value, "__module__", None) != mod.__name__
            ):
                continue
            name = f"{short}.{attr}"
            replacements[id(value)] = tracer.span(value, name, OBSERVERS.get(name))
    _rebind(replacements)

    cls = fock.FockBasis
    cls.__init__ = tracer.span(cls.__init__, "fock.FockBasis")
    cls.rank = tracer.span(cls.rank, "fock.FockBasis.rank")
    cls.unrank = tracer.span(cls.unrank, "fock.FockBasis.unrank")

    variational.minimize = _count_starts(tracer, variational.minimize)

    pool_cls = _traced_pool(tracer)
    _rebind({id(ThreadPoolExecutor): pool_cls})


def _count_starts(tracer: Tracer, minimize):
    """Count optimizer starts (and the unconverged ones) inside maximize_overlap."""

    @functools.wraps(minimize)
    def counted(*args, **kwargs):
        res = minimize(*args, **kwargs)
        st = tracer.state()
        if st.inside("variational.maximize_overlap"):
            st.counts["variational.maximize_overlap.starts"] += 1
            if not res.success:
                st.counts["variational.maximize_overlap.starts_failed"] += 1
        return res

    return counted


def _traced_pool(tracer: Tracer):
    class TracedPool(ThreadPoolExecutor):
        """Runs each task as a root span; the owner's wait is excluded time."""

        def __enter__(self):
            st = tracer.state()
            self._wait = (st, tracer.enter(st, POOL))
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                st, frame = self._wait
                tracer.leave(st, frame)

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.root, fn, *args, **kwargs)

    return TracedPool
