"""Propagation of the string equation -u'' = z w' u + z^2 Upsilon' u.

Between consecutive coefficient breakpoints both densities are constant, so
the second-order equation has the constant coefficient kappa = z*a + z^2*b
and its transfer matrix P in (u, u') variables is the exact trig/hyperbolic
form; a point mass contributes the unimodular jump J = [[1, 0], [-g, 1]] with
g = z*alpha + z^2*mu.  The product is therefore exact (up to rounding) on the
whole representable coefficient class.

A sweep walks the intervals between consecutive points (coefficient
breakpoints and sample positions).  Each interval is one step P J: the jump of
the point mass at its left end, then the piece.  The step matrices of many
steps and many z are built as arrays in one vectorized pass, laid out
(2, 2, steps, z) with z last, and the run of steps between two sample
positions is reduced by pairwise levels in log depth, later step on the left
(Blelloch, "Prefix sums and their applications", 1990).  A run's steps are
stored in the fold's pair order (:func:`_order`), so each level composes two
contiguous halves that pair steps 2j and 2j + 1.  Runs are also cut at
multiples of ``_BLOCK_STEPS`` steps, so the order of every product, and so
every rounding, is the same for any number of z: each z of a grid comes out
bit for bit as in a one-z call.

Two constants bound the memory, not the result.  Runs of at most
``_BUDGET`` step x z matrices (every run at one z) are built up to
``_BUDGET`` matrices at a time, and consecutive runs of one length in a build
are folded together, stacked on an axis of their own.
A larger run takes the wide path: it is built and folded a column of z at a
time, at most ``_COLUMN`` step x z matrices per column, in one workspace per
sweep that every column reuses: the step matrices, two fold levels that
alternate (and hold the second product of a composition and the scratch of
a build), and the entries of pieces with a density.  Fresh arrays of a
column's size lie above the allocator's mmap threshold, and each would fault
in new pages.  The fold runs in two stages where that makes its operations
larger: each column is folded down to at most ``_TAIL`` partial products,
and the last levels run once over as many columns as a quarter of
``_COLUMN`` matrices then hold.  The pairs are those of a one-stage fold.
With ``rescale``, a fold level is checked against ``_BIG`` only where a
bound on its entries allows that it exceeds it.

A walk of at least one full block and ``_SPLIT_WORK`` step x z matrices is
swept on ``_WORKERS`` threads, one per CPU the process may run on, each over
a contiguous chunk of z with its own workspace.  numpy releases the
interpreter lock inside its loops, so the chunks run in parallel, and since
every z comes out as in a one-z call, the result does not depend on the
number of threads.

With ``rescale`` the entries are kept in range by positive per-z factors,
which spoil det = 1 but keep entry ratios (hence Weyl quotients): a piece
whose phase has |Im s h| > ``_EXP_PHASE`` is built times e^{-|Im s h|}, and a
product level or a state whose entries exceed ``_BIG`` is divided by its
largest entry.  The public evaluators raise :class:`ComputationError`,
naming the first z, where a result is not finite; without ``rescale`` that
happens once a solution outgrows the double range.

What a sweep derives from the string and the sample positions without z (the
points, the runs, and the steps' lengths, point masses and densities in pair
order) is its plan, a :class:`_Walk`.  It is built once per string and
positions, on first use, and kept with the string's coefficient view, so later
sweeps at other z start at once; the positions are still checked on every call.

Every coefficient breakpoint is a step boundary, and states are reported with
left-continuous conventions: the value at x never includes a point mass
sitting exactly at x.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientView, StringSpec, coefficient_view
from .errors import ComputationError, PositionOutOfRange

# Runs of steps are cut at multiples of this many steps before they are folded.
_BLOCK_STEPS = 256
# Step x z matrices built in one pass of the narrow path (and the switch to
# the wide path).
_BUDGET = 1 << 12
# Step x z matrices in one column of the wide path.
_COLUMN = 1 << 14
# The wide path folds each column down to at most this many partial
# products, and the rest over a group of columns.
_TAIL = 16
# Threads of a long sweep: one per CPU the process may run on.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# A sweep with a full block and at least this many step x z matrices is split.
_SPLIT_WORK = 1 << 16
# A rescaled piece whose phase has |Im s h| beyond this is built times e^{-|Im s h|}.
_EXP_PHASE = 300.0
# With rescale, matrices with an entry beyond this are divided by their largest entry.
_BIG = 1e120


@dataclass(frozen=True)
class SystemState:
    """Solution sample: value, first-order-system component, quasi-derivative.

    ``f2 = u' + n_z(x) u`` stays absolutely continuous across point masses;
    ``quasi = u' + z w(x) u`` is the quasi-derivative, equal to
    ``f2 - z^2 Upsilon(x) f``.
    """

    x: float
    f: complex
    f2: complex
    quasi: complex


@dataclass(frozen=True)
class FundamentalSystem:
    """Fundamental pair theta, phi with theta(0)=phi'(0-)=1, theta'(0-)=phi(0)=0."""

    z: complex
    xs: tuple[float, ...]
    theta: tuple[SystemState, ...]
    phi: tuple[SystemState, ...]
    wronskian: complex


def _series_entries(y: np.ndarray, h: np.ndarray):
    return 1.0 - y / 2.0 + y * y / 24.0, h * (1.0 - y / 6.0 + y * y / 120.0)


def _closed_entries(kappa: np.ndarray, h: np.ndarray, rescale: bool, ws: _Workspace | None):
    s = np.sqrt(kappa, out=_out(ws, "s", kappa.shape))
    sh = np.multiply(s, h, out=_out(ws, "sh", kappa.shape))
    S = np.sin(sh, out=_out(ws, "sin", kappa.shape))
    S /= s
    # The phases of the far pieces, read before cos overwrites sh.
    far = np.abs(sh.imag, out=_out(ws, "t", kappa.shape, float)) > _EXP_PHASE if rescale else None
    if far is not None and far.any():
        x, y = sh.real[far], sh.imag[far]
    else:
        far = None
    C = np.cos(sh, out=sh)
    if far is not None:
        # e^{+-i s h - t}: one has modulus 1, the other at most e^{-2 _EXP_PHASE}.
        t = np.abs(y)
        up = np.exp(-y - t + 1j * x)
        down = np.exp(y - t - 1j * x)
        C[far] = (up + down) / 2.0
        S[far] = (up - down) / (2j * s[far])
    return C, S


def _piece_entries(kappa: np.ndarray, h: np.ndarray, rescale: bool, ws: _Workspace | None):
    """Entries of the constant-coefficient transfer, elementwise.

    Returns (C, S) with C = cos(s h) and S = sin(s h)/s for s = sqrt(kappa);
    series branches keep the kappa -> 0 limit exact.  With ``rescale``, C and
    S of a piece whose phase has |Im s h| > _EXP_PHASE come times
    e^{-|Im s h|}.  C and S of the closed form lie in buffers of ``ws`` if
    given.
    """
    y = np.multiply(kappa, h * h, out=_out(ws, "sh", kappa.shape))
    small = np.abs(y, out=_out(ws, "t", kappa.shape, float)) < 1e-12
    if not small.any():
        return _closed_entries(kappa, h, rescale, ws)
    if small.all():
        return _series_entries(y, h)
    h = np.broadcast_to(h, y.shape)
    big = ~small
    out = []
    for series, closed in zip(_series_entries(y[small], h[small]),
                              _closed_entries(kappa[big], h[big], rescale, None)):
        entry = np.empty_like(y)
        entry[small] = series
        entry[big] = closed
        out.append(entry)
    return out


def _at_steps(view: CoefficientView, left: np.ndarray):
    """Point masses of ``view`` at the left ends ``left`` (0 off its breakpoints)
    and its densities on the intervals that start there."""
    j = np.searchsorted(view.bp, left, side="right") - 1
    hit = view.bp[j] == left
    return (np.where(hit, view.atom_omega[j], 0.0), np.where(hit, view.atom_upsilon[j], 0.0),
            view.dens_omega[j], view.dens_upsilon[j])


class _Steps:
    """Steps as arrays: step k is the point masses of ``view`` at left[k], then
    the piece of length h[k] with the densities on the interval that starts
    at left[k]."""

    def __init__(self, view: CoefficientView, left: np.ndarray, h: np.ndarray):
        self.h = h
        self.aw, self.au, self.da, self.db = _at_steps(view, left)
        # Decided per set of steps and per step, so a step is built the same
        # way whatever range of steps and z it is built with.
        self.upsilon_atoms = bool(np.any(self.au))
        self.atomic = bool(np.any(self.aw) or self.upsilon_atoms)
        self.dense = (self.da != 0.0) | (self.db != 0.0)
        self.free = self.atomic and not self.dense.any()

    def _pieces(self, steps: slice, z: np.ndarray, zz: np.ndarray, rescale: bool,
                ws: _Workspace | None, out: np.ndarray):
        """C, S and -kappa S of the pieces, each broadcast to (steps, z.size),
        in buffers of ``ws`` if given.  Where only some steps have a density,
        they are written into out[1, 1], out[0, 1] and out[1, 0] instead, and
        come back as None.  kappa = 0 on a step without density, where the
        series entries are exact."""
        h = self.h[steps]
        dense = np.flatnonzero(self.dense[steps])
        if dense.size == 0:
            return 1.0, h[:, None], 0.0
        rows = slice(None) if dense.size == h.size else dense
        shape = (dense.size, z.size)
        kappa = np.multiply(z[None, :], self.da[steps][rows, None], out=_out(ws, "kappa", shape))
        kappa += np.multiply(zz[None, :], self.db[steps][rows, None], out=_out(ws, "sh", shape))
        C, S = _piece_entries(kappa, h[rows, None], rescale, ws)
        kS = np.multiply(np.negative(kappa, out=kappa), S, out=kappa)
        if dense.size == h.size:
            return C, S, kS
        # The free entries everywhere, then the dense steps over them.
        for entry, free, value in ((out[1, 1], 1.0, C), (out[0, 1], h[:, None], S), (out[1, 0], 0.0, kS)):
            entry[...] = free
            entry[dense] = value
        return None, None, None

    def matrices(self, lo: int, hi: int, z: np.ndarray, zz: np.ndarray, rescale: bool,
                 ws: _Workspace | None = None):
        """Step matrices P J of steps lo..hi-1 at each z (zz = z^2), with shape
        (2, 2, hi - lo, z.size): the matrix first, z last.  Built in the
        buffers of ``ws`` if given (its fold buffers serve as scratch), else in
        fresh arrays."""
        steps = slice(lo, hi)
        shape = (2, 2, hi - lo, z.size)
        out = np.empty(shape, dtype=complex) if ws is None else ws.take("steps", shape)
        if self.free:
            # [[1 - h g, h], [-g, 1]] from -g, its zeros made +0 as below.
            g = np.multiply(z[None, :], -self.aw[steps, None], out=out[1, 0])
            if self.upsilon_atoms:
                g -= np.multiply(zz[None, :], self.au[steps, None], out=out[1, 1])
            g += 0.0
            np.add(np.multiply(self.h[steps, None], g, out=out[0, 0]), 1.0, out=out[0, 0])
            out[0, 1], out[1, 1] = self.h[steps, None], 1.0
            return out
        C, S, kS = self._pieces(steps, z, zz, rescale, ws, out)
        placed = C is None
        if placed:
            C, S, kS = out[1, 1], out[0, 1], out[1, 0]
        if self.atomic:
            # g = z alpha + z^2 mu, then C - S g and kS - C g, with out[:, 1] as
            # scratch unless it holds the pieces.
            if placed:
                g, tmp = out[0, 0], _out(ws, "odd", shape[2:])
            else:
                g, tmp = out[0, 1], out[1, 1]
            np.multiply(z[None, :], self.aw[steps, None], out=g)
            g += np.multiply(zz[None, :], self.au[steps, None], out=tmp)
            np.subtract(kS, np.multiply(C, g, out=tmp), out=out[1, 0])
            np.subtract(C, np.multiply(S, g, out=tmp), out=out[0, 0])
        else:
            out[0, 0] = C
            if not placed:
                out[1, 0] = kS
        if not placed:
            out[0, 1] = S
            out[1, 1] = C
        return out


class _Walk(_Steps):
    """The steps from 0 to the last sample position: step k covers (points[k],
    points[k+1]).  ``targets`` are the point indices of the sample positions,
    in increasing order; run k (steps cuts[k] to cuts[k+1] - 1) is stored in
    its pair order.  The positions must lie in [0, L]; :func:`_sweep_closed`
    checks them."""

    def __init__(self, view: CoefficientView, xs: np.ndarray):
        xs = np.unique(xs)
        points = np.unique(np.concatenate([xs, view.bp[view.bp <= xs[-1]]]))
        self.points = points
        self.targets = np.searchsorted(points, xs)
        self.steps = points.size - 1
        self.cuts = np.union1d(self.targets, np.arange(0, self.steps, _BLOCK_STEPS)).tolist()
        runs = itertools.pairwise(self.cuts)
        stored = np.concatenate([np.zeros(0, int)] + [lo + _order(hi - lo) for lo, hi in runs])
        super().__init__(view, points[stored], np.diff(points)[stored])


class _Workspace:
    """Flat buffers that every column of a sweep's wide path reuses for its
    piece entries, step matrices, fold levels and products."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, key: str, shape: tuple[int, ...], dtype=complex) -> np.ndarray:
        """A C-contiguous array of ``shape`` on buffer ``key`` (always of one
        ``dtype``): it overwrites what the last take of ``key`` returned."""
        size = math.prod(shape)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[key] = np.empty(size, dtype=dtype)
        return buffer[:size].reshape(shape)


def _out(ws: _Workspace | None, key: str, shape: tuple[int, ...], dtype=complex):
    """``ws.take(key, shape, dtype)`` as the ``out`` of a ufunc: None, so a
    fresh array, without ``ws``."""
    return None if ws is None else ws.take(key, shape, dtype)


def _compose(left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None,
             tmp: np.ndarray | None = None) -> np.ndarray:
    """``left`` after ``right`` for arrays of 2 x 2 matrices, with the matrix
    on the two leading axes.  ``tmp``, of the shape of the result, takes the
    second product."""
    out = np.multiply(left[:, :1], right[:1], out=out)
    out += np.multiply(left[:, 1:2], right[1:2], out=tmp)
    return out


def _largest_part(mats: np.ndarray) -> float:
    """The largest |real or imaginary part| of an entry of ``mats``; nan if one is nan."""
    parts = mats.view(float)
    return max(parts.max(), -parts.min()) if parts.size else 0.0


def _normalize(mats: np.ndarray) -> float:
    """Divide, in place, each matrix of a contiguous array (matrix on the two
    leading axes) whose largest real or imaginary part exceeds _BIG by it.
    Returns :func:`_largest_part` before, if no matrix is divided, else nan."""
    largest = _largest_part(mats)
    if largest <= _BIG:  # a nan fails
        return largest
    parts = mats.view(float).reshape(mats.shape + (2,))
    big = np.abs(parts).max(axis=(0, 1, -1))
    parts /= np.where(big > _BIG, big, 1.0)[None, None, ..., None]
    return math.nan


@functools.lru_cache(maxsize=None)
def _order(n: int) -> np.ndarray:
    """The pair order of n steps: position p holds step _order(n)[p]; p and
    p + n // 2 hold steps 2j and 2j + 1, and an odd last step sits at the end."""
    pairs = 2 * _order(n - n // 2)[:n // 2] if n > 1 else np.zeros(0, dtype=int)
    return np.concatenate([pairs, pairs + 1] + [[n - 1]] * (n % 2))


def _fold(mats: np.ndarray, rescale: bool, ws: _Workspace | None = None,
          steps: int = 1) -> np.ndarray:
    """The product of the steps on the second last axis, in the pair order of
    :func:`_order`, later step on the left, by levels that compose the second
    half after the first, down to at most ``steps`` partial products (in pair
    order too); axes between the matrix and the steps hold separate products.
    With ``ws`` the levels alternate between two of its buffers, and the second
    product of a composition goes into the other one at the first level
    (``mats`` lies in neither), then into the buffer of the steps.

    With ``rescale``, a level is normalized only where its entries may exceed
    _BIG: an entry of a product has parts of at most 4 b^2 if the factors'
    parts are at most b (the unpaired last step of a level keeps b, which
    exceeds 4 b^2 only where b < 1/4, far below _BIG)."""
    keys = ("even", "odd", "odd")
    bound = _largest_part(mats) if rescale and mats.shape[-2] > steps else 0.0
    while mats.shape[-2] > steps:
        n = mats.shape[-2]
        half = n // 2
        shape = mats.shape[:-2] + (n - half, mats.shape[-1])
        if ws is None:
            level, tmp = np.empty(shape, dtype=complex), None
        else:
            level = ws.take(keys[0], shape)
            tmp = ws.take(keys[2], mats.shape[:-2] + (half, mats.shape[-1]))
            keys = (keys[1], keys[0], "steps")
        _compose(mats[..., half:2 * half, :], mats[..., :half, :], out=level[..., :half, :], tmp=tmp)
        if n % 2:
            level[..., half, :] = mats[..., -1, :]
        if rescale:
            # 1 + 1e-12 covers the rounding of the products and their sum.
            bound = 4.0 * bound * bound * (1.0 + 1e-12)
            if not bound <= _BIG:
                bound = _normalize(level)
        mats = level
    return mats


def _walk_states(walk: _Walk, z: np.ndarray, rescale: bool) -> dict:
    """Closed-form transfer in (u, u') variables along ``walk``, vectorized
    over a 1-D complex z.

    Returns the state at each sample position, keyed by position.  A state
    has shape (2, 2, z.size): a solution with u(0)=d1, u'(0-)=d2 has
    (u(x), u'(x-)) = state[:, 0] d1 + state[:, 1] d2.  ``rescale`` scales
    each z's state by a positive factor to keep it finite.
    """
    records = {}
    with np.errstate(over="ignore", invalid="ignore"):
        zz = z * z
        state = np.zeros((2, 2, z.size), dtype=complex)
        state[0, 0] = state[1, 1] = 1.0
        # The products of runs first, first + 1, ... at every z; run k is next.
        products, first, k = [], 0, 0
        ws = _Workspace()  # its buffers are made by the first wide block
        for target in walk.targets.tolist():
            while walk.cuts[k] < target:
                lo, hi = walk.cuts[k:k + 2]
                if (hi - lo) * z.size > _BUDGET:
                    state = _advance_in_columns(walk, lo, hi, z, zz, state, rescale, ws)
                else:
                    if k >= first + len(products):
                        products, first = _run_products(walk, k, z, zz, rescale), k
                    state = _compose(products[k - first], state)
                    if rescale:
                        _normalize(state)
                k += 1
            records[float(walk.points[target])] = state
    return records


def _run_products(walk: _Walk, k: int, z, zz, rescale: bool) -> list:
    """The products of runs k, k + 1, ... of ``walk`` that fit in one build of
    _BUDGET step x z matrices, consecutive runs of one length folded together."""
    end = bisect.bisect_right(walk.cuts, walk.cuts[k] + _BUDGET // max(1, z.size)) - 1
    mats = walk.matrices(walk.cuts[k], walk.cuts[end], z, zz, rescale)
    products, a = [], 0
    for n, group in itertools.groupby(hi - lo for lo, hi in itertools.pairwise(walk.cuts[k:end + 1])):
        count = len(list(group))
        folded = _fold(mats[:, :, a:a + count * n].reshape(2, 2, count, n, z.size), rescale)
        products += [folded[:, :, r, 0] for r in range(count)]
        a += count * n
    return products


def _advance_in_columns(walk: _Walk, lo: int, hi: int, z, zz, state, rescale: bool,
                        ws: _Workspace):
    """``state`` carried over steps lo..hi-1, building the steps of a column of
    z at a time in the buffers of ``ws``.

    Where several columns fit in a quarter of _COLUMN matrices once folded
    down to at most _TAIL steps, each column is folded only that far, and the
    last levels run once over such a group of columns: the same pairs in the
    same order, in fewer and larger operations."""
    out = np.empty_like(state)
    width = max(1, _COLUMN // (hi - lo))
    tail = hi - lo
    while tail > _TAIL:
        tail -= tail // 2
    per_group = max(1, _COLUMN // (4 * tail * width))
    if per_group == 1:
        tail = 1
    for g in range(0, z.size, per_group * width):
        group = slice(g, g + per_group * width)
        if per_group > 1:
            run = ws.take("tail", (2, 2, tail, z[group].size))
        for c in range(g, min(g + per_group * width, z.size), width):
            cols = slice(c, c + width)
            part = _fold(walk.matrices(lo, hi, z[cols], zz[cols], rescale, ws), rescale, ws, tail)
            if per_group > 1:
                run[..., c - g:c - g + part.shape[3]] = part
            else:
                run = part
        run = _fold(run, rescale, ws)[:, :, 0]
        _compose(run, state[..., group], out=out[..., group], tmp=ws.take("product", run.shape))
    if rescale:
        _normalize(out)
    return out


def _sweep_closed(view, z, xs, rescale: bool = False):
    """All states of :func:`_walk_states`, keyed by sample position.

    The positions are checked on every call; the walk to them is built once
    per view and positions and kept with the view.  A walk of at least one
    full block and _SPLIT_WORK step x z matrices is swept on _WORKERS threads
    (:func:`_split_states`).  Raises :class:`ComputationError`, naming the
    first z, when a state is not finite.
    """
    z = np.asarray(z, dtype=complex)
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise PositionOutOfRange("need at least one sample position")
    if not np.all(np.isfinite(xs)):
        raise PositionOutOfRange("sample positions must be finite")
    lo, hi = xs.min(), xs.max()
    if lo < 0.0 or hi > view.length:
        raise PositionOutOfRange(f"sample positions must lie in [0, {view.length}], got [{lo}, {hi}]")
    walk = view.plan(("walk", xs.tobytes()), lambda: _Walk(view, xs))
    workers = 1
    if walk.steps >= _BLOCK_STEPS and z.size * walk.steps >= _SPLIT_WORK:
        workers = min(_WORKERS, z.size)
    if workers > 1:
        records = _split_states(walk, z, rescale, workers)
    else:
        records = _walk_states(walk, z, rescale)
    finite = np.all([np.isfinite(state).all(axis=(0, 1)) for state in records.values()], axis=0)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ComputationError(f"transfer matrix at z={complex(z[k])} is not finite")
    return records


def _split_states(walk: _Walk, z: np.ndarray, rescale: bool, workers: int) -> dict:
    """The states of :func:`_walk_states`, keyed by sample position, from
    ``workers`` contiguous chunks of z swept on one thread each.  Every z
    comes out as in a one-z call, so the merged states are the same bits for
    any number of workers."""
    bounds = [z.size * k // workers for k in range(workers + 1)]
    parts, errors = [None] * workers, [None] * workers

    def sweep(k):
        try:
            parts[k] = _walk_states(walk, z[bounds[k]:bounds[k + 1]], rescale)
        except BaseException as exc:  # re-raised on the calling thread
            errors[k] = exc

    threads = [threading.Thread(target=sweep, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    sweep(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return {x: np.concatenate([part[x] for part in parts], axis=-1) for x in parts[0]}


def transfer_matrices(spec: StringSpec, z, xs, *, rescale: bool = False) -> np.ndarray:
    """Fundamental matrices M(x) in (u, u') variables at the given positions.

    Columns are the theta and phi solutions; result shape is
    ``(len(xs),) + shape(z) + (2, 2)`` and ``det M = 1`` along the sweep
    (unless ``rescale`` trades the determinant for overflow safety).  Raises
    :class:`ComputationError`, naming the first z, where M is not finite.
    """
    view = coefficient_view(spec)
    arr = np.atleast_1d(np.asarray(xs, dtype=float))
    zarr = np.asarray(z, dtype=complex)
    zflat = np.atleast_1d(zarr).ravel()
    records = _sweep_closed(view, zflat, arr, rescale=rescale)
    out = np.stack([records[float(x)] for x in arr])
    return np.ascontiguousarray(np.moveaxis(out, -1, 1)).reshape((len(arr),) + zarr.shape + (2, 2))


def fundamental_system(spec: StringSpec, z: complex, xs) -> FundamentalSystem:
    """Evaluate the fundamental pair theta, phi at the sample positions.

    Raises :class:`ComputationError` where the solutions are not finite.
    """
    view = coefficient_view(spec)
    arr = np.atleast_1d(np.asarray(xs, dtype=float))
    records = _sweep_closed(view, np.array([complex(z)]), arr)
    theta = []
    phi = []
    for x in arr:
        xf = float(x)
        (a, b), (c, d) = records[xf][..., 0]
        w_x = view.w(xf)
        ups_x = view.upsilon(xf)
        n_x = z * w_x + z * z * ups_x
        theta.append(SystemState(x=xf, f=complex(a), f2=complex(c + n_x * a),
                                 quasi=complex(c + z * w_x * a)))
        phi.append(SystemState(x=xf, f=complex(b), f2=complex(d + n_x * b),
                               quasi=complex(d + z * w_x * b)))
    (a, b), (c, d) = records[float(arr[-1])][..., 0]
    wronskian = complex(a * d - b * c)
    return FundamentalSystem(z=complex(z), xs=tuple(float(x) for x in arr),
                             theta=tuple(theta), phi=tuple(phi), wronskian=wronskian)
