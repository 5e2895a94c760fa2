"""Propagation of the string equation -u'' = z w' u + z^2 Upsilon' u.

Between consecutive coefficient breakpoints both densities are constant, so
the second-order equation has the constant coefficient kappa = z*a + z^2*b
and its transfer matrix P in (u, u') variables is the exact trig/hyperbolic
form; a point mass contributes the unimodular jump J = [[1, 0], [-g, 1]] with
g = z*alpha + z^2*mu.  The product is therefore exact (up to rounding) on the
whole representable coefficient class.

A sweep walks the intervals between consecutive points (coefficient
breakpoints and sample positions).  Each interval is one step P J: the jump of
the point mass at its left end, then the piece.  The run of steps between two
sample positions is cut into leaves, and the leaves are reduced by pairwise
levels in log depth, later leaf on the left (Blelloch, "Prefix sums and their
applications", 1990).  On a walk where a step has a density every leaf is
one step, a full 2 x 2 matrix.  On a walk without densities (a free walk:
point masses and free gaps only) a leaf is the product of up to
``_LEAF_STEPS`` = 4 consecutive steps, or ``_LONG_LEAF_STEPS`` = 16 on a walk
of at least one full block: it starts as its first step
[[1 - h g, h], [-g, 1]], and each further step is applied to its rows (row 1
-= g row 0, then row 0 += h row 1), which costs two complex and two
real-scalar products per step and z where composing two matrices costs eight
complex ones: folding the leaves then costs 2 complex products per step and
z with four-step leaves, and 0.5 with sixteen-step ones.  A run is padded at
its front with identity steps to a whole number of leaves, so a leaf's
arithmetic depends on the walk alone.  The leaves of many runs and many z are
built as arrays in one vectorized pass, laid out (2, 2, leaves, z) with z last.  A
run's leaves are stored in the fold's pair order (:func:`_order`), so each
level composes two contiguous halves that pair leaves 2j and 2j + 1.  Runs
are also cut at multiples of ``_BLOCK_STEPS`` steps, so the order of every
product, and so every rounding, is the same for any number of z: each z of a
grid comes out bit for bit as in a one-z call.

A Weyl value needs one row of the transfer matrix only: (1, 0) M(L) on a
finite string and (is + g, -1) M(x0) on a half-line, the Weyl solution swept
in from the right end (for point masses, the continued fraction of Beals,
Sattinger and Szmigielski, Adv. Math. 154, 2000).  On a free walk of at most
``_ROW_STEPS`` steps :func:`_row_sweep` computes that row: it applies the
steps last to first to a row (v0, v1), t = h v0 + v1, v0 -= g t, v1 = t, as
elementwise ufuncs over z, where the fold's fixed cost outweighs its log
depth.  One z is swept on Python floats, which round as numpy's float ufuncs
do, with numpy's complex product for g t alone (:func:`_row_sweep_one`): a
ufunc call on a tiny array costs about 1 us.  A one-z weyl_m on a 12-step
half-line took 65-68 us as four ufunc calls per step and takes 37-38 us, on
33 steps 113 and 46-50 us, and on no steps 20.5 us either way (2-vCPU shared
host, Python 3.11, numpy 2.4).  Which sweep runs depends on the walk alone,
so every z still comes out bit for bit as in a one-z call.  :func:`_row` is
the one place that chooses: every other walk folds the whole matrix and
takes that row of it, and :func:`transfer_matrices` and
:func:`fundamental_system` always fold.

A fold cuts z into chunks and columns, and since every z comes out as in a
one-z call, no cut changes the result, and the constants that set them
bound the memory only.  A walk of at least one full block and
``_SPLIT_WORK`` step x z products is swept on ``_WORKERS`` threads, one per
CPU the process may run on, each over a contiguous chunk of z (numpy
releases the interpreter lock inside its loops, so the chunks run in
parallel); a shorter walk is one chunk.  ``_COLUMN`` sets all three batch
sizes of a sweep.  A thread sweeps its chunk a column of z at a time, so
that the longest run holds at most ``_COLUMN`` leaf x z matrices, in one
workspace that every column reuses: the leaf matrices, two fold levels that
alternate, the scratch of a fold and of a composition, the entries of
pieces with a density, and the column's state.  Fresh arrays of a column's
size lie above the allocator's mmap threshold, and each would fault in new
pages.  In a column, runs are built together, up to ``_COLUMN`` leaf x z
matrices and at least one run, and consecutive runs of one number of leaves
in a build are folded together, stacked on an axis of their own.  A row
sweep makes its factors g at once up to ``_COLUMN`` step x z, else one step
at a time.

With ``rescale`` the entries are kept in range by positive per-z factors,
which spoil det = 1 but keep entry ratios (hence Weyl quotients): a piece
whose phase has |Im s h| > ``_EXP_PHASE`` is built times e^{-|Im s h|}, and a
leaf, a product level or a state whose entries exceed ``_BIG`` is divided by
its largest entry.  A fold level is checked against ``_BIG`` only where a
bound on its entries allows that it exceeds it, and so is a free leaf after
each of its steps, by a bound from max |z|, the point masses and the
lengths.  The public evaluators raise :class:`ComputationError`,
naming the first z, where a result is not finite; without ``rescale`` that
happens once a solution outgrows the double range.

What a sweep derives from the string and the sample positions without z (the
points, the runs and which of them have one number of leaves, the lengths,
point masses and densities of the leaves' steps in pair order, and on a
short free walk those of its steps last to first for the row sweep) is its
plan, a :class:`_Walk`.  It is built once per string and positions, on
first use, after the positions are checked, and kept in one bounded cache of
this module (:func:`_plan`, the ``_PLANS`` most recently used), so later
sweeps at other z start at once: a plan kept for the same positions means
they passed.

A call makes only the numpy calls its arithmetic needs: each check is one
reduction that passes on good input, and the value that fails it is looked
for only then, to name it in the error.  The state still starts as the
identity and composes the first run's product onto it: starting from that
product instead changes the sign of zero parts (the real part of
m_truncated(upsilon_lebesgue_halfline(), i, 0.5) comes out +0, not -0).

Every coefficient breakpoint is a step boundary, and states are reported with
left-continuous conventions: the value at x never includes a point mass
sitting exactly at x.
"""
from __future__ import annotations

import bisect
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientView, StringSpec, _distinct, coefficient_view
from .errors import ComputationError, PositionOutOfRange

# Runs of steps are cut at multiples of this many steps before they are folded.
_BLOCK_STEPS = 256
# Steps per leaf of the fold of a walk without densities: _LEAF_STEPS on a
# walk shorter than _BLOCK_STEPS, _LONG_LEAF_STEPS on a longer one.  Times of
# a one-z weyl_m / of weyl._m_values on finite-sweep's 1,000-z grid, by steps
# per leaf on every walk (finite-sweep atomic strings; one thread under
# taskset on a 2-vCPU shared host, Python 3.11, numpy 2.4; fastest of 200 or
# 40 / of 7 or 3 calls):
#
#   steps |  4             |  8             | 16             | 32
#   101   | 115 us/2.6 ms  | 124 us/2.6 ms  | 157 us/1.4 ms  | 202 us/1.5 ms
#   255   | 124 us/4.8 ms  | 132 us/4.3 ms  | 152 us/4.1 ms  | 207 us/2.3 ms
#   301   | 162 us/6.1 ms  | 164 us/5.1 ms  | 181 us/4.8 ms  | 227 us/2.9 ms
#   1001  | 206 us/16.9 ms | 204 us/14.0 ms | 218 us/12.5 ms | 236 us/11.9 ms
#   10001 | 579 us/151 ms  | 552 us/124 ms  | 570 us/116 ms  | 579 us/111 ms
#
# Sixteen-step leaves cost one-z calls 12-37% on walks of 101 to 301 steps,
# so walks under a block keep four steps, and their bytes (every walk of the
# benchmark's halfline-weyl, inverse-spectral and cli-files strings).  From
# a block on, the one-z cost fades (+6% at 1001 steps, none at 10001) and a
# wide grid gains 23-26%.  Thirty-two gain at most 5% more on wide grids of
# 1001 steps or more, and cost one-z calls more.
_LEAF_STEPS = 4
_LONG_LEAF_STEPS = 16
# The batch sizes of a sweep: leaf x z matrices of the longest run in one
# column of z, leaf x z matrices built in one pass of runs that fit together,
# and step x z factors a row sweep makes in one pass.
_COLUMN = 1 << 14
# Threads of a long sweep: one per CPU the process may run on.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# A sweep with a full block and at least this many step x z matrices is split.
_SPLIT_WORK = 1 << 16
# A rescaled piece whose phase has |Im s h| beyond this is built times e^{-|Im s h|}.
_EXP_PHASE = 300.0
# With rescale, matrices with an entry beyond this are divided by their largest entry.
_BIG = 1e120
# A Weyl value on a walk without densities of at most this many steps takes
# the row sweep.  The rule reads the walk alone, so it routes grids as well as
# one-z calls, and grids set it.  Times, row sweep against fold (2-vCPU
# shared host, Python 3.11, numpy 2.4; fastest of 5 x 20 or 5 x 300 calls):
# a one-z weyl_m, which sweeps its row on Python floats, took 0.37-0.42 of
# the fold's time at 29 to 35 steps (medians of six free strings per count,
# finite and half-lines, with and without upsilon atoms), 0.50 at 48, 0.6-0.75
# at 100 and about 1 at 200.  The elementwise sweep of a grid loses sooner:
# at 7 z 0.26 vs 0.22 ms from 48 steps and 0.25 vs 0.20 ms at 100, at 49 z
# 0.32 vs 0.31 ms at 100 steps, while at 33 it wins at 7, 49 and 1,000 z
# (0.11 vs 0.19 ms, 0.16 vs 0.23 ms, 2.4 vs 4.4 ms).  So the value stays.
# A change to the cost of the fold or of a row sweep (a FOUND line of
# CHANGES.md) moves these break-evens and must re-measure them.  Walks of at
# most this many steps lie under a block, so _LONG_LEAF_STEPS leaves none of
# them on another fold.
_ROW_STEPS = 33
# Sweep plans kept (:func:`_plan`), the least recently used going first; each
# keeps its coefficient view alive.  A perfbench process sweeps at most 13
# distinct plans, every round (inverse-spectral; finite-sweep 10, halfline-weyl
# 5, cli-files 1; seeds 1-3, 4 s runs), and a cache under 13 rebuilds each of
# them every round there; 64 keeps that working set with room to spare.
_PLANS = 64


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


def _closed_entries(kappa: np.ndarray, h: np.ndarray, rescale: bool, ws: _Workspace):
    s = np.sqrt(kappa, out=ws.take("s", kappa.shape))
    sh = np.multiply(s, h, out=ws.take("sh", kappa.shape))
    S = np.sin(sh, out=ws.take("sin", kappa.shape))
    S /= s
    # The phases of the far pieces, read before cos overwrites sh.
    far = np.abs(sh.imag, out=ws.take("t", kappa.shape, float)) > _EXP_PHASE if rescale else None
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


def _piece_entries(kappa: np.ndarray, h: np.ndarray, rescale: bool, ws: _Workspace):
    """Entries of the constant-coefficient transfer, elementwise.

    Returns (C, S) with C = cos(s h) and S = sin(s h)/s for s = sqrt(kappa),
    in buffers of ``ws``: the closed form everywhere, then the series where
    |kappa h^2| < 1e-12, which keeps the kappa -> 0 limit exact (at kappa = 0
    the closed form's 0/0 is an invalid that the sweep ignores).  With
    ``rescale``, C and S of a piece whose phase has |Im s h| > _EXP_PHASE
    come times e^{-|Im s h|}.
    """
    C, S = _closed_entries(kappa, h, rescale, ws)
    # The buffer of s is free once the closed form is made.
    y = np.multiply(kappa, h * h, out=ws.take("s", kappa.shape))
    small = np.abs(y, out=ws.take("t", kappa.shape, float)) < 1e-12
    if small.any():
        C[small], S[small] = _series_entries(y[small], np.broadcast_to(h, y.shape)[small])
    return C, S


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
                ws: _Workspace, out: np.ndarray):
        """C, S and -kappa S of the pieces, each broadcast to (steps, z.size),
        written into out[1, 1], out[0, 1] and out[1, 0].  Where only some
        steps have a density, the free values (kappa = 0, where the series
        entries are exact) go everywhere first and the dense steps over them."""
        h = self.h[steps]
        dense = np.flatnonzero(self.dense[steps])
        entries = (out[1, 1], out[0, 1], out[1, 0])
        if dense.size < h.size:
            for entry, free in zip(entries, (1.0, h[:, None], 0.0)):
                entry[...] = free
        if dense.size == 0:
            return
        rows = slice(None) if dense.size == h.size else dense
        shape = (dense.size, z.size)
        kappa = np.multiply(z[None, :], self.da[steps][rows, None], out=ws.take("kappa", shape))
        kappa += np.multiply(zz[None, :], self.db[steps][rows, None], out=ws.take("sh", shape))
        C, S = _piece_entries(kappa, h[rows, None], rescale, ws)
        # Not into kappa: numpy rounds a one-element complex product into one
        # of its inputs without the fused multiply-adds of every other size,
        # and a one-z call would lose the bits of its grid row.
        kS = np.multiply(np.negative(kappa, out=kappa), S, out=ws.take("kS", shape))
        for entry, value in zip(entries, (C, S, kS)):
            entry[rows] = value

    def matrices(self, lo: int, hi: int, z: np.ndarray, zz: np.ndarray, rescale: bool,
                 ws: _Workspace):
        """Step matrices P J of steps lo..hi-1 at each z (zz = z^2), with shape
        (2, 2, hi - lo, z.size): the matrix first, z last.  Built in the
        buffers of ``ws`` (a fold buffer serves as scratch)."""
        steps = slice(lo, hi)
        shape = (2, 2, hi - lo, z.size)
        out = ws.take("steps", shape)
        self._pieces(steps, z, zz, rescale, ws, out)
        C, S, kS = out[1, 1], out[0, 1], out[1, 0]
        if self.atomic:
            # g = z alpha + z^2 mu in out[0, 0], then C - S g and kS - C g.
            g, tmp = out[0, 0], ws.take("odd", shape[2:])
            np.multiply(z[None, :], self.aw[steps, None], out=g)
            g += np.multiply(zz[None, :], self.au[steps, None], out=tmp)
            np.subtract(kS, np.multiply(C, g, out=tmp), out=kS)
            np.subtract(C, np.multiply(S, g, out=tmp), out=g)
        else:
            out[0, 0] = C
        return out


class _Walk(_Steps):
    """The steps from 0 to the last sample position: step k covers (points[k],
    points[k+1]).  ``targets`` are the point indices of the sample positions,
    in increasing order, and ``samples`` pairs each position with the number
    of runs before it.  Run k is leaves cuts[k] to cuts[k+1] - 1, stored in
    its pair order, runs k to same[k] - 1 have one number of leaves, and no
    run has more than ``widest``.

    A leaf is the product of ``leaf_steps`` consecutive steps of one run: 1
    where a step has a density, else _LONG_LEAF_STEPS on a walk of at least
    _BLOCK_STEPS steps and _LEAF_STEPS on a shorter one (no more than the
    longest run has), and a run is padded at its front with identity steps
    (no length, no point mass) to a multiple of that.  Step s of the leaf at
    stored position j is step s * leaves + j of the arrays.  Raises
    :class:`PositionOutOfRange` unless the positions lie in [0, L]."""

    def __init__(self, view: CoefficientView, xs: np.ndarray):
        _check_positions(view, xs)
        xs = _distinct(xs)
        points = _distinct(xs, view.bp[view.bp <= xs[-1]])
        self.points = points
        self.targets = np.searchsorted(points, xs)
        self.steps = points.size - 1
        ends = _distinct(self.targets, np.arange(0, self.steps, _BLOCK_STEPS))
        self.samples = list(zip(xs.tolist(), np.searchsorted(ends, self.targets).tolist()))
        super().__init__(view, points[:-1], np.diff(points))
        # The steps, last first, for a row sweep (:func:`_row_sweep`): h, alpha
        # and mu, (|alpha|, mu, h) of each for its rescale bound, and
        # (sum |alpha|, sum mu, prod (1 + h)(1 + 1e-12)) for a bound on them all.
        self.row = None
        if self.steps <= _ROW_STEPS and not self.dense.any():
            floats = np.stack([self.h, self.aw, self.au])[:, ::-1]
            hs, alphas, mus = floats[0].tolist(), np.abs(floats[1]).tolist(), floats[2].tolist()
            self.row = (hs, floats[1, :, None], floats[2, :, None], list(zip(alphas, mus, hs)),
                        (sum(alphas), sum(mus), math.prod(1.0 + h for h in hs) * (1.0 + 1e-12) ** len(hs)))
        lengths = np.diff(ends)
        leaf = _LONG_LEAF_STEPS if self.steps >= _BLOCK_STEPS else _LEAF_STEPS
        size = min(leaf, int(lengths.max(initial=1))) if self.free else 1
        counts = -(-lengths // size)
        self.leaf_steps = size
        self.widest = int(counts.max(initial=1))
        self.cuts = np.concatenate([[0], np.cumsum(counts)]).tolist()
        self.same = list(range(1, len(counts) + 1))
        for k in reversed(range(len(counts) - 1)):
            if counts[k] == counts[k + 1]:
                self.same[k] = self.same[k + 1]
        # Run lo..hi-1 as n leaves of `size` steps, padded at its front with
        # the identity step: index `steps`, appended as zeros below.
        parts = [np.zeros((size, 0), int)]
        for lo, hi, n in zip(ends, ends[1:], counts.tolist()):
            padded = np.arange(hi - n * size, hi)
            padded[padded < lo] = self.steps
            parts.append(padded.reshape(n, size)[_order(n)].T)
        stored = np.concatenate(parts, axis=1).ravel()
        for name in ("h", "aw", "au", "da", "db", "dense"):
            setattr(self, name, np.append(getattr(self, name), False)[stored])
        # -alpha, mu and h of the leaves' steps as (size, leaves) arrays, and
        # a bound on every |point mass| and length, for the rescaled leaves.
        self.slots = np.stack([-self.aw, self.au, self.h]).reshape(3, size, -1)
        self.reach = [float(np.abs(a).max(initial=0.0)) for a in (self.aw, self.au, self.h)]

    def leaf_matrices(self, lo: int, hi: int, z: np.ndarray, zz: np.ndarray, rescale: bool,
                      ws: _Workspace):
        """Leaf matrices of leaves lo..hi-1 at each z, shaped as
        :meth:`matrices` shapes steps, in the buffers of ``ws``.
        Where a step has a density the leaves are the steps.  Else a leaf
        starts as its first step [[1 - h g, h], [-g, 1]], and each later step
        [[1, h], [0, 1]] [[1, 0], [-g, 1]] is applied to its rows: row 1 -= g
        row 0, then row 0 += h row 1.  With ``rescale`` the leaves are
        normalized after a step where a bound on their entries from max |z|,
        the point masses and the lengths may exceed _BIG.  The -g of one step
        of every leaf is made just before that step is applied, in a
        (leaves, z) buffer that each step reuses, so no buffer holds more
        than the leaf matrices whatever the leaf size."""
        if not self.free:
            return self.matrices(lo, hi, z, zz, rescale, ws)
        neg_aw, au, h = self.slots[:, :, lo:hi, None]
        shape = (2, 2, hi - lo, z.size)
        out = ws.take("steps", shape)
        g = ws.take("kappa", shape[2:])
        tmp = ws.take("sh", shape[2:]) if self.upsilon_atoms else None

        def minus_g(s):
            """-g of step s of every leaf, in the one buffer of every step."""
            np.multiply(z, neg_aw[s], out=g)
            if tmp is not None:
                np.subtract(g, np.multiply(zz, au[s], out=tmp), out=g)
            return g

        # The first step, its zeros made +0 as the general form makes them.
        np.add(minus_g(0), 0.0, out=out[1, 0])
        np.add(np.multiply(h[0], out[1, 0], out=out[0, 0]), 1.0, out=out[0, 0])
        out[0, 1], out[1, 1] = h[0], 1.0
        row = ws.take("odd", shape[1:])
        part, parts = row.view(float), out.view(float)
        row0, row1, parts0, parts1 = out[0], out[1], parts[0], parts[1]
        if rescale:
            # A step multiplies the largest |entry| by at most (1 + |g|)(1 + h),
            # with |g| <= |z| max|alpha| + |z|^2 max|mu|; the first step's
            # entries are at most that factor.  1e-12 covers the rounding.
            big_z = float(np.abs(z).max(initial=0.0))
            grow = (1.0 + big_z * self.reach[0] + big_z * big_z * self.reach[1]) * (1.0 + self.reach[2])
            grow *= 1.0 + 1e-12
            bound = grow
        for s in range(1, h.shape[0]):
            row1 += np.multiply(minus_g(s), row0, out=row)
            parts0 += np.multiply(h[s], parts1, out=part)
            if rescale:
                bound *= grow
                if not bound <= _BIG:
                    largest = _normalize(out)
                    # Parts at most _BIG (or largest), so moduli at most sqrt 2 times that.
                    bound = math.sqrt(2.0) * (_BIG if math.isnan(largest) else largest)
        return out


def _check_positions(view: CoefficientView, xs: np.ndarray) -> None:
    """Refuse sample positions that are missing, not finite or outside [0, L]:
    their min and max decide, and the finiteness test runs only where they fail."""
    if xs.size == 0:
        raise PositionOutOfRange("need at least one sample position")
    lo, hi = xs.min(), xs.max()  # nan if one is nan
    if 0.0 <= lo and hi <= view.length and hi < math.inf:
        return
    if not np.isfinite(xs).all():
        raise PositionOutOfRange("sample positions must be finite")
    raise PositionOutOfRange(f"sample positions must lie in [0, {view.length}], got [{lo}, {hi}]")


class _Workspace:
    """Flat buffers that every column a thread sweeps reuses: the leaf
    matrices of a build, the entries of its pieces with a density, two fold
    levels that alternate, the scratch of a fold and of a composition, and
    the column's state with its next value.  Fresh arrays of a column's size
    lie above the allocator's mmap threshold, and each would fault in new
    pages."""

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


def _compose(left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None,
             tmp: np.ndarray | None = None) -> np.ndarray:
    """``left`` after ``right`` for arrays of 2 x 2 matrices, with the matrix
    on the two leading axes: left[i, 0] right[0, j] + left[i, 1] right[1, j],
    in ``out``, with the second products in ``tmp`` (fresh arrays where not
    given)."""
    out = np.multiply(left[:, :1], right[:1], out=out)
    out += np.multiply(left[:, 1:2], right[1:2], out=tmp)
    return out


def _largest_part(mats: np.ndarray) -> float:
    """The largest |real or imaginary part| of an entry of ``mats``; nan if one is nan."""
    parts = mats.view(float)
    return max(parts.max(), -parts.min()) if parts.size else 0.0


def _normalize(mats: np.ndarray) -> float:
    """Divide, in place, each matrix of an array whose last axis is contiguous
    (matrix on the two leading axes) whose largest real or imaginary part
    exceeds _BIG by it.
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


def _fold(mats: np.ndarray, rescale: bool, ws: _Workspace) -> np.ndarray:
    """The product of the leaves on the second last axis, in the pair order of
    :func:`_order`, later leaf on the left, by levels that compose the second
    half after the first; axes between the matrix and the leaves hold separate
    products, and the leaf axis keeps length 1.
    The levels alternate between two buffers of ``ws``, and the second
    product of a composition goes into the other one at the first level
    (``mats`` lies in neither), then into a buffer of its own: the leaves'
    buffer still holds the runs of a build that are not folded yet.

    With ``rescale``, a level is normalized only where its entries may exceed
    _BIG: an entry of a product has parts of at most 4 b^2 if the factors'
    parts are at most b (the unpaired last leaf of a level keeps b, which
    exceeds 4 b^2 only where b < 1/4, far below _BIG).  So after one level
    or more no part of the result exceeds _BIG."""
    keys = ("even", "odd", "odd")
    bound = _largest_part(mats) if rescale and mats.shape[-2] > 1 else 0.0
    while mats.shape[-2] > 1:
        n = mats.shape[-2]
        half = n // 2
        level = ws.take(keys[0], mats.shape[:-2] + (n - half, mats.shape[-1]))
        tmp = ws.take(keys[2], mats.shape[:-2] + (half, mats.shape[-1]))
        keys = (keys[1], keys[0], "scratch")
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


def _sweep_chunk(walk: _Walk, z: np.ndarray, rescale: bool, records: dict, lo: int, hi: int):
    """Write the states of z[lo:hi] into their columns of ``records``.

    The chunk is swept a column of at most _COLUMN // ``walk.widest`` z at a
    time, in one workspace: runs are built together, up to _COLUMN leaf x z
    matrices and at least one run, the runs of a build with one number of
    leaves are folded together when the first of them is reached, and each
    run's product is composed onto the column's state.
    """
    ws, cuts = _Workspace(), walk.cuts
    width = max(1, _COLUMN // walk.widest)
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(lo, hi, width):
            cols = slice(c, min(c + width, hi))
            zc = z[cols]
            zz = zc * zc
            state, spare, tmp = (ws.take(key, (2, 2, zc.size)) for key in ("state", "spare", "product"))
            state[...] = np.eye(2)[:, :, None]
            # Runs k..end-1 are built from leaf `first` on, runs k..folded-1 are
            # folded, and run r's product is products[:, :, r - start, 0].
            k = end = folded = 0
            for x, runs in walk.samples:
                while k < runs:
                    a, b = cuts[k:k + 2]
                    if k == end:
                        end = max(k + 1, bisect.bisect_right(cuts, a + _COLUMN // zc.size) - 1)
                        mats, first = walk.leaf_matrices(a, cuts[end], zc, zz, rescale, ws), a
                    if k == folded:
                        folded, start = min(walk.same[k], end), k
                        group = mats[:, :, a - first:cuts[folded] - first]
                        products = _fold(group.reshape(2, 2, folded - k, b - a, zc.size), rescale, ws)
                    _compose(products[:, :, k - start, 0], state, out=spare, tmp=tmp)
                    state, spare = spare, state
                    # Folded over two or more leaves, the first run's product
                    # has no part above _BIG (:func:`_fold`), and composing it
                    # onto the identity changes no part's size.
                    if rescale and (k or b - a == 1):
                        _normalize(state)
                    k += 1
                records[x][..., cols] = state


@functools.lru_cache(maxsize=_PLANS)
def _plan(view: CoefficientView, xs: bytes) -> _Walk:
    """The plan of a sweep of ``view`` to the positions whose float64 bytes are
    ``xs``.  A refusal of the positions raises and is not cached."""
    return _Walk(view, np.frombuffer(xs))


def _walk_to(view: CoefficientView, xs) -> _Walk:
    """The plan of a sweep of ``view`` to the positions ``xs`` (:func:`_plan`)."""
    return _plan(view, np.asarray(xs, dtype=float).tobytes())


def _row_factors(walk: _Walk, z: np.ndarray):
    """g = z alpha + z^2 mu of each step of a row sweep, last first, from real
    products on the parts of z and z^2, so that a z gets the same bits however
    many are swept with it.  Where steps x z is at most _COLUMN they are
    the rows of one array, made in a call or three; else they come one step
    at a time in one buffer, which holds no more than the z."""
    _, alpha, mu, _, _ = walk.row
    parts = np.ascontiguousarray(z).view(float)
    squares = (z * z).view(float) if walk.upsilon_atoms else None
    if z.size * alpha.size <= _COLUMN:
        g = parts * alpha
        if squares is not None:
            g += squares * mu
        yield from g.view(complex)
        return
    g, t = np.empty_like(parts), np.empty_like(parts)
    for a, m in zip(alpha, mu):
        np.multiply(parts, a, out=g)
        if squares is not None:
            g += np.multiply(squares, m, out=t)
        yield g.view(complex)


def _first_check(walk: _Walk, big_z: float, largest: float) -> int:
    """The first step of a row sweep after which a row may have a part above
    _BIG, for rows of z up to ``big_z`` in modulus that start with parts up
    to ``largest``; the number of steps if there is none.

    Step s multiplies the largest |entry| by at most (1 + |g|)(1 + h), with
    |g| <= |z| |alpha| + |z|^2 mu; moduli are at most sqrt 2 times the
    largest part, and 1e-12 covers the rounding.  Where the bound on all the
    steps, exp(|z| sum |alpha| + |z|^2 sum mu) prod (1 + h), keeps every row
    under _BIG, the steps are not looked at one by one."""
    _, _, _, reach, (alphas, mus, lengths) = walk.row
    bound = math.sqrt(2.0) * largest
    grow = big_z * alphas + big_z * big_z * mus
    if grow <= 700.0 and bound * math.exp(grow) * lengths <= _BIG:
        return len(reach)
    for s, (a, m, h) in enumerate(reach):
        bound *= (1.0 + big_z * a + big_z * big_z * m) * (1.0 + h) * (1.0 + 1e-12)
        if not bound <= _BIG:
            return s
    return len(reach)


def _row_sweep(walk: _Walk, z: np.ndarray, w0, w1) -> np.ndarray:
    """The row (w0, w1) M at each z, for M the transfer along a walk with a row
    plan (``walk.row``), as an array (v0, v1) of shape (2, z.size).

    The steps are applied last to first: t = h v0 + v1, then v0 -= g t with
    g = z alpha + z^2 mu (:func:`_row_factors`), then v1 = t.  A z's row is
    divided by its own largest part where that exceeds _BIG, checked after
    every step from the first one where a bound on the rows may pass _BIG
    (:func:`_first_check`).  A row that is not finite gives a value of m that
    is not finite: once t is not finite, neither is v0.  Runs under the
    caller's np.errstate, with overflow and invalid ignored.

    Many z are swept as elementwise ufuncs over z.  One z is swept on Python
    floats (:func:`_row_sweep_one`), which round as the float ufuncs do."""
    hs = walk.row[0]
    row = np.empty((2, z.size), dtype=complex)
    row[0], row[1] = w0, w1
    if not hs:
        return row
    if z.size == 1:
        return _row_sweep_one(walk, z, row)
    first = _first_check(walk, float(np.abs(z).max(initial=0.0)), _largest_part(row))
    v0, v1 = row
    t = np.empty_like(v0)
    part, (parts0, parts1), rows = t.view(float), row.view(float), row[:, None]
    for s, (g_s, h_s) in enumerate(zip(_row_factors(walk, z), hs)):
        parts1 += np.multiply(h_s, parts0, out=part)
        v0 -= np.multiply(g_s, v1, out=t)
        if s >= first:
            _normalize(rows)
    return row


def _row_sweep_one(walk: _Walk, z: np.ndarray, row: np.ndarray) -> np.ndarray:
    """:func:`_row_sweep` at one z, from its start ``row`` of shape (2, 1),
    with the bytes of its row of a sweep of many z.

    The parts of the row are Python floats, and their products and sums round
    as numpy's float ufuncs do.  g v1 alone is numpy's complex product, which
    may be fused: into an array apart from its inputs, since a one-element
    product written into one of them is not fused.  A row that may pass _BIG
    is divided by :func:`_normalize`, held in ``row`` for that.  A part that
    is nan stays nan to the end, and :func:`_normalize` divides no row with
    one, so the largest part may pass over it."""
    parts = row.view(float).reshape(4)
    a0, b0, a1, b1 = parts.tolist()
    first = _first_check(walk, float(np.abs(z)[0]), max(abs(a0), abs(b0), abs(a1), abs(b1)))
    v1, t = row[1], np.empty(1, dtype=complex)
    for s, (g_s, h_s) in enumerate(zip(_row_factors(walk, z), walk.row[0])):
        a1 += h_s * a0
        b1 += h_s * b0
        parts[2], parts[3] = a1, b1
        product = np.multiply(g_s, v1, t).item()
        a0 -= product.real
        b0 -= product.imag
        if s >= first:
            parts[0], parts[1] = a0, b0
            _normalize(row[:, None])
            a0, b0, a1, b1 = parts.tolist()
    parts[0], parts[1] = a0, b0
    return row


def _sweep_closed(view, z, xs, rescale: bool = False) -> dict:
    """Closed-form transfer in (u, u') variables from 0 to the sample
    positions ``xs``, vectorized over a 1-D complex z.

    Returns the state at each sample position, keyed by position.  A state
    has shape (2, 2, z.size): a solution with u(0)=d1, u'(0-)=d2 has
    (u(x), u'(x-)) = state[:, 0] d1 + state[:, 1] d2.  ``rescale`` scales
    each z's state by a positive factor to keep it finite.  A walk without
    steps gives the identity at its one position.

    The walk to the positions is built once per view and positions, and kept
    in the plan cache (:func:`_plan`); the positions are checked when it is
    built (:class:`_Walk`), and a walk kept for the same positions passed that
    check.  The records are allocated first.  A walk of at least one full
    block and _SPLIT_WORK step x z matrices is then swept on _WORKERS
    threads, each over a contiguous chunk of z (:func:`_sweep_chunk`), the
    first on the calling thread; a shorter one is one chunk.  Each state is
    checked to be finite by one reduction; only where a check fails is the
    first z whose state is not finite looked for, and named in a
    :class:`ComputationError`.
    """
    z = np.asarray(z, dtype=complex)
    walk = _walk_to(view, xs)
    records = {x: np.empty((2, 2, z.size), dtype=complex) for x, _ in walk.samples}
    workers = 1
    if walk.steps >= _BLOCK_STEPS and z.size * walk.steps >= _SPLIT_WORK:
        workers = min(_WORKERS, z.size)
    bounds = [z.size * t // workers for t in range(workers + 1)]
    errors = [None] * workers

    def sweep(t):
        try:
            _sweep_chunk(walk, z, rescale, records, bounds[t], bounds[t + 1])
        except BaseException as exc:  # re-raised on the calling thread
            errors[t] = exc

    threads = [threading.Thread(target=sweep, args=(t,)) for t in range(1, workers)]
    for thread in threads:
        thread.start()
    sweep(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    if walk.steps and not all(np.isfinite(state).all() for state in records.values()):
        finite = np.all([np.isfinite(state).all(axis=(0, 1)) for state in records.values()], axis=0)
        k = int(np.argmin(finite))
        raise ComputationError(f"transfer matrix at z={complex(z[k])} is not finite")
    return records


def _row(view, x: float, z: np.ndarray, w0, w1) -> np.ndarray:
    """The row (w0, w1) M(x) at each z of the 1-D complex array ``z``, times a
    positive factor per z, as an array (v0, v1) of shape (2, z.size): swept
    back from x (:func:`_row_sweep`) where the walk to x has a row plan, else
    w0 M[0] + w1 M[1] of the rescaled fold.  Raises as the fold does
    (:func:`_sweep_closed`) where a state of it is not finite.  Runs under
    the caller's np.errstate, with overflow and invalid ignored."""
    walk = _walk_to(view, [x])
    if walk.row is not None:
        return _row_sweep(walk, z, w0, w1)
    mats = _sweep_closed(view, z, [x], rescale=True)[float(x)]
    return w0 * mats[0] + w1 * mats[1]


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
    for xf, w_x, ups_x in zip(arr.tolist(), view.w(arr).tolist(), view.upsilon(arr).tolist()):
        (a, b), (c, d) = records[xf][..., 0]
        n_x = z * w_x + z * z * ups_x
        theta.append(SystemState(x=xf, f=complex(a), f2=complex(c + n_x * a),
                                 quasi=complex(c + z * w_x * a)))
        phi.append(SystemState(x=xf, f=complex(b), f2=complex(d + n_x * b),
                               quasi=complex(d + z * w_x * b)))
    (a, b), (c, d) = records[float(arr[-1])][..., 0]
    wronskian = complex(a * d - b * c)
    return FundamentalSystem(z=complex(z), xs=tuple(float(x) for x in arr),
                             theta=tuple(theta), phi=tuple(phi), wronskian=wronskian)
