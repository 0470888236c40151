"""In-memory span tracer installed around lamlab's public functions.

The tracer lives entirely in the benchmark: it replaces, for the duration of a
traced run, every module-global name that refers to a public function of a
traced lamlab module with a wrapper, and puts the originals back afterwards.
Because the wrapper is installed under each name a calling module looks up
(for example ``lamlab.envelope_oracle.region_map`` as well as
``lamlab.regions.region_map``), calls are seen no matter which module makes
them.  Names that a later version of lamlab removes are simply not found; the
metrics derived from them read 0 and are listed as absent.

Each span records (id, name, parent id, thread, start, end).  The parent comes
from a per-thread stack; work submitted to a ``ThreadPoolExecutor`` is
parented to the span that submitted it.  Functions of count-only modules get a
call counter and no span, because they are too small to carry one.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import types
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np

NO_PARENT = -1


class Tracer:
    """Span and call-count recorder for one traced run."""

    def __init__(self, span_modules, count_modules, probes=None):
        self.span_modules = tuple(span_modules)
        self.count_modules = tuple(count_modules)
        self.probes = dict(probes or {})
        self.names: list[str] = []
        self.layers: list[str] = []
        self.counters: dict[str, itertools.count] = {}
        self.probe_values: dict[str, list] = {}
        self.errors: dict[int, str] = {}
        self.absent: list[str] = []
        self._records = array("d")
        self._ids = itertools.count()
        self._threads = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple] = []
        self._installed = False

    # -- installation -----------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.base = NO_PARENT
            local.tix = next(self._threads)
        return local

    def current(self) -> int:
        """Id of the innermost open span on this thread (or its base)."""
        local = self._thread_state()
        return local.stack[-1] if local.stack else local.base

    def _span_wrapper(self, fn, nid: int, probe=None):
        clock = time.perf_counter
        record = self._records.extend
        new_id = self._ids.__next__
        state = self._thread_state
        errors = self.errors
        probe_values = self.probe_values.setdefault(self.names[nid], []) if probe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = state()
            stack = local.stack
            sid = new_id()
            parent = stack[-1] if stack else local.base
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[sid] = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                record((sid, nid, parent, local.tix, t0, t1))
            if probe is not None:
                probe_values.append(probe(args, kwargs, result))
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        tick = self.counters.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()  # itertools.count.__next__ is atomic under the GIL
            return fn(*args, **kwargs)

        return wrapper

    @staticmethod
    def _public_functions(mod):
        return {name: obj for name, obj in vars(mod).items()
                if not name.startswith("_") and isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__}

    def wrap(self, fn, name: str, layer: str = "bench"):
        """Span wrapper for one of the benchmark's own operations."""
        return self._span_wrapper(fn, self._name_id(name, layer))

    def install(self, expected=()):
        """Wrap the public functions and patch the pool's submit.

        ``expected`` lists dotted names the caller derives metrics from; those
        not found are recorded in ``absent``.
        """
        if self._installed:
            raise RuntimeError("tracer already installed")
        replacement = {}
        for modname, counted in ([(m, False) for m in self.span_modules]
                                 + [(m, True) for m in self.count_modules]):
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.absent.append(modname)
                continue
            layer = modname.rsplit(".", 1)[-1]
            for name, fn in self._public_functions(mod).items():
                full = f"{layer}.{name}"
                if counted:
                    wrapped = self._count_wrapper(fn, full)
                else:
                    wrapped = self._span_wrapper(fn, self._name_id(full, layer),
                                                 self.probes.get(full))
                replacement[id(fn)] = (fn, wrapped)
        package = self.span_modules[0].split(".", 1)[0] if self.span_modules else ""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for gname, gval in list(vars(mod).items()):
                hit = replacement.get(id(gval))
                if hit is not None and hit[0] is gval:
                    setattr(mod, gname, hit[1])
                    self._restore.append((mod, gname, gval))
        known = set(self.names) | set(self.counters)
        self.absent.extend(name for name in expected if name not in known)

        tracer = self
        original_submit = ThreadPoolExecutor.submit

        def submit(pool, fn, /, *args, **kwargs):
            parent = tracer.current()

            def run(*a, **k):
                local = tracer._thread_state()
                saved = local.base
                local.base = parent
                try:
                    return fn(*a, **k)
                finally:
                    local.base = saved

            return original_submit(pool, run, *args, **kwargs)

        ThreadPoolExecutor.submit = submit
        self._restore.append((ThreadPoolExecutor, "submit", original_submit))
        self._installed = True

    def uninstall(self):
        """Put every replaced name back; safe to call more than once."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        self._installed = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------

    def table(self) -> "SpanTable":
        return SpanTable(self)

    def count(self, name: str) -> int:
        """Calls seen by a count-only wrapper (0 when the name is absent)."""
        counter = self.counters.get(name)
        if counter is None:
            return 0
        return int(repr(counter)[6:-1])  # "count(N)": reading it must not advance it

    def dump(self, path: str):
        """Write all spans to a compressed .npz file."""
        t = self.table()
        np.savez_compressed(path, id=t.sid, name=t.nid, parent=t.parent, thread=t.tix,
                            start=t.t0, end=t.t1, names=np.array(self.names))


class SpanTable:
    """Column view of the recorded spans, sorted by span id."""

    def __init__(self, tracer: Tracer):
        rec = np.frombuffer(tracer._records, dtype=float).reshape(-1, 6)
        rec = rec[np.argsort(rec[:, 0], kind="stable")]
        self.tracer = tracer
        self.sid = rec[:, 0].astype(np.int64)
        self.nid = rec[:, 1].astype(np.int64)
        self.parent = rec[:, 2].astype(np.int64)
        self.tix = rec[:, 3].astype(np.int64)
        self.t0 = rec[:, 4]
        self.t1 = rec[:, 5]
        self.dur = self.t1 - self.t0
        # row of each span id (parents are stored by id)
        self._row = np.full(int(self.sid.max()) + 1 if len(self.sid) else 0, -1, dtype=np.int64)
        self._row[self.sid] = np.arange(len(self.sid))
        layer_names = sorted(set(tracer.layers))
        self.layer_index = {name: i for i, name in enumerate(layer_names)}
        name_layer = np.array([self.layer_index[l] for l in tracer.layers] or [0])
        self.layer = name_layer[self.nid] if len(self.nid) else np.zeros(0, dtype=np.int64)

    def _ids_for(self, name: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.tracer.names) if n == name]
        return np.isin(self.nid, ids)

    def of(self, name: str) -> np.ndarray:
        """Durations in seconds of every span with this name."""
        return self.dur[self._ids_for(name)]

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self._ids_for(name)))

    def p50_us(self, name: str) -> float:
        d = self.of(name)
        return float(np.median(d)) * 1e6 if len(d) else 0.0

    def total_s(self, name: str) -> float:
        return float(self.of(name).sum())

    def threads_per_owner(self, owners: np.ndarray, name: str) -> int:
        """Most distinct threads that ran ``name`` as a direct child of one owner span."""
        prow = self.parent_rows()
        named = self._ids_for(name)
        return max((len(np.unique(self.tix[named & (prow == row)]))
                    for row in np.flatnonzero(owners)), default=0)

    def in_layer(self, layer: str) -> np.ndarray:
        idx = self.layer_index.get(layer)
        if idx is None:
            return np.zeros(len(self.sid), dtype=bool)
        return self.layer == idx

    def parent_rows(self) -> np.ndarray:
        rows = np.full(len(self.sid), -1, dtype=np.int64)
        has = self.parent >= 0
        rows[has] = self._row[self.parent[has]]
        return rows

    def children_of(self, parents: np.ndarray) -> np.ndarray:
        """Spans whose parent is one of the marked spans."""
        prow = self.parent_rows()
        out = np.zeros(len(self.sid), dtype=bool)
        has = prow >= 0
        out[has] = parents[prow[has]]
        return out

    def top_level(self, layer: str) -> np.ndarray:
        """Spans of a layer whose parent is not in that layer."""
        mine = self.in_layer(layer)
        return mine & ~self.children_of(mine)

    def errors_in(self, layer: str, error: str) -> int:
        """Exceptions of one type leaving the layer (raised by a top-level span)."""
        top = self.top_level(layer)
        return sum(1 for sid, name in self.tracer.errors.items()
                   if name == error and top[self._row[sid]])

    def self_time(self, owners: np.ndarray, children: np.ndarray) -> float:
        """Sum over owner spans of their duration minus the union of child intervals.

        ``children`` marks the spans to subtract; each is charged to the owner
        found by walking up its parents (spans on pool threads included).
        """
        prow = self.parent_rows()
        # walk every span up one parent per step until it meets an owner
        anc = prow.copy()
        found = np.full(len(self.sid), -1, dtype=np.int64)
        live = anc >= 0
        while live.any():
            hit = live & owners[np.maximum(anc, 0)]
            found[hit] = anc[hit]
            live &= ~hit
            anc[live] = prow[anc[live]]
            live &= anc >= 0
        total = 0.0
        sel = children & (found >= 0)
        for row in np.flatnonzero(owners):
            mine = sel & (found == row)
            total += self.dur[row] - _union_length(self.t0[mine], self.t1[mine])
        return total


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    if len(starts) == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    covered = 0.0
    cur_s, cur_e = starts[order[0]], ends[order[0]]
    for s, e in zip(starts[order[1:]], ends[order[1:]]):
        if s > cur_e:
            covered += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    return float(covered + (cur_e - cur_s))
