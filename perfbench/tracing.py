"""Spans around the public functions of ``indefstring``, and the per-layer
metrics computed from them.

``Tracer.install()`` replaces every public function of the traced modules by
a wrapper, in every ``indefstring`` module namespace that holds it, so calls
between modules are traced too.  Each call records a span ``(id, name, start,
end, parent, task, info)``; spans stay in memory until the run ends.  Self
time is a span's duration minus the part of it covered by its child spans.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import math
import statistics
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("coefficients", "propagation", "weyl", "canonical", "spectral", "convergence", "cli")

# (name, unit) of every per-layer metric, in the order they are printed.
PER_LAYER = (
    ("weyl.weyl_m.calls", "count"),
    ("weyl.weyl_m.self_s", "s"),
    ("weyl.m_truncated.calls", "count"),
    ("weyl.m_truncated.self_s", "s"),
    ("weyl.sweeps_per_z", "sweeps/z"),
    ("weyl.classify.self_s", "s"),
    ("propagation.transfer_matrices.calls", "count"),
    ("propagation.transfer_matrices.self_s", "s"),
    ("propagation.bp_z_steps", "count"),
    ("propagation.fundamental_system.self_s", "s"),
    ("coefficients.validate_spec.calls", "count"),
    ("coefficients.validate_spec.self_s", "s"),
    ("coefficients.coefficient_view.misses", "count"),
    ("coefficients.coefficient_view.self_s", "s"),
    ("spectral.transfer_polynomials.self_s", "s"),
    ("spectral.discrete_eigenvalues.self_s", "s"),
    ("spectral.spectral_measure_discrete.self_s", "s"),
    ("spectral.stieltjes_inversion.self_s", "s"),
    ("spectral.stieltjes_inversion.m_points", "count"),
    ("canonical.string_to_hamiltonian.self_s", "s"),
    ("canonical.hamiltonian_to_string.self_s", "s"),
    ("canonical.canonical_m_grid.self_s", "s"),
    ("canonical.pieces", "count"),
    ("convergence.string_convergence_check.self_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.main.self_s", "s"),
)


def _breakpoints(spec, x_max: float) -> int:
    """Breakpoints of a string at or below x_max: 0, atoms, density ends, a finite L."""
    pts = {0.0}
    for measure in (spec.omega, spec.upsilon):
        pts.update(x for x, _ in measure.atoms)
        for a, b, _ in measure.density:
            pts.add(a)
            if math.isfinite(b):
                pts.add(b)
    if math.isfinite(spec.length):
        pts.add(spec.length)
    return sum(1 for p in pts if p <= x_max)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _info_transfer(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    x_max = float(np.max(np.asarray(_arg(args, kwargs, 2, "xs"), dtype=float)))
    return (spec, x_max, int(np.size(_arg(args, kwargs, 1, "z"))))


def _info_z_count(args, kwargs, result):
    return int(np.size(_arg(args, kwargs, 1, "z")))


def _info_pieces(args, kwargs, result):
    return len(result.pieces)


# Extra data recorded per call, computed from the arguments and the result.
_INFO = {
    "propagation.transfer_matrices": _info_transfer,
    "weyl.m_truncated": _info_z_count,
    "canonical.string_to_hamiltonian": _info_pieces,
}


class Tracer:
    """Installs the wrappers and keeps the spans of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.task = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self.view_cache = None

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        info_fn = _INFO.get(name)
        spans = self.spans
        main_stack = self._main_stack

        def wrapper(*args, **kwargs):
            stack = self._stack()
            # Calls on worker threads (cli --jobs) belong to the span that started the pool.
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            sid = next(self._ids)
            stack.append(sid)
            info = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if info_fn is not None:
                    info = (info_fn, args, kwargs, result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, self.task, info))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"indefstring.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                own_function = inspect.isfunction(obj) and obj.__module__ == module.__name__
                if own_function or (short == "coefficients" and attr == "coefficient_view"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        self.view_cache = importlib.import_module("indefstring.coefficients").coefficient_view
        for name, module in list(sys.modules.items()):
            if name != "indefstring" and not name.startswith("indefstring."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def view_misses(self) -> int:
        return self.view_cache.cache_info().misses

    def finished_spans(self) -> list[tuple]:
        """Spans with their extra data reduced to one number each."""
        cache: dict = {}
        out = []
        for sid, name, t0, t1, parent, task, info in self.spans:
            value = None
            if info is not None:
                info_fn, args, kwargs, result = info
                value = info_fn(args, kwargs, result)
                if name == "propagation.transfer_matrices":
                    spec, x_max, n_z = value
                    key = (id(spec), x_max)
                    if key not in cache:
                        cache[key] = (spec, _breakpoints(spec, x_max))
                    value = cache[key][1] * n_z
            out.append((sid, name, t0, t1, parent, task, value))
        return out


def write_spans(path: Path, spans) -> None:
    """One tab-separated line per span: id, name, start, end, parent, task, info."""
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "wt", encoding="utf-8") as fh:
        for sid, name, t0, t1, parent, task, value in spans:
            task_text = "" if task is None else f"{task[0]}:{task[1]}"
            fh.write(f"{sid}\t{name}\t{t0!r}\t{t1!r}\t{parent}\t{task_text}\t"
                     f"{'' if value is None else value}\n")


def read_spans(path: Path, tag: str, task) -> list[tuple]:
    """Spans written by ``write_spans`` in another process, all assigned to ``task``."""
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        sid, name, t0, t1, parent, _, value = line.split("\t")
        out.append((f"{tag}{sid}", name, float(t0), float(t1), f"{tag}{parent}", task,
                    int(value) if value else None))
    return out


def _union_length(intervals) -> float:
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def per_layer(spans, rounds: int, view_misses: int, startups=()) -> dict:
    """Per-layer metrics per timed round, from spans whose task is set."""
    timed = [s for s in spans if s[5] is not None]
    by_id = {s[0]: s for s in timed}
    children = defaultdict(list)
    for s in timed:
        if s[4] in by_id:
            children[s[4]].append((s[2], s[3]))
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for sid, name, t0, t1, *_ in timed:
        calls[name] += 1
        kids = [(max(lo, t0), min(hi, t1)) for lo, hi in children.get(sid, ())]
        self_s[name] += (t1 - t0) - _union_length(kids)

    def ancestor_named(s, wanted):
        parent = by_id.get(s[4])
        while parent is not None:
            if parent[1] == wanted:
                return True
            parent = by_id.get(parent[4])
        return False

    sweeps = sum(1 for s in timed if s[1] == "propagation.transfer_matrices"
                 and ancestor_named(s, "weyl.weyl_m"))
    bp_z = sum(s[6] for s in timed if s[1] == "propagation.transfer_matrices")
    m_points = 0
    for s in timed:
        parent = by_id.get(s[4])
        if parent is not None and parent[1] == "spectral.stieltjes_inversion":
            if s[1] == "weyl.weyl_m":
                m_points += 1
            elif s[1] == "weyl.m_truncated":
                m_points += s[6]
    pieces = sum(s[6] for s in timed if s[1] == "canonical.string_to_hamiltonian")

    values = {}
    for metric, _ in PER_LAYER:
        if metric.endswith(".calls"):
            values[metric] = calls[metric[: -len(".calls")]] / rounds
        elif metric.endswith(".self_s"):
            values[metric] = self_s[metric[: -len(".self_s")]] / rounds
    values["weyl.sweeps_per_z"] = sweeps / calls["weyl.weyl_m"] if calls["weyl.weyl_m"] else 0.0
    values["propagation.bp_z_steps"] = bp_z / rounds
    values["coefficients.coefficient_view.misses"] = view_misses / rounds
    values["spectral.stieltjes_inversion.m_points"] = m_points / rounds
    values["canonical.pieces"] = pieces / rounds
    values["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    return values
