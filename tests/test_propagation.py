"""Tests for the transfer-matrix propagation of the first-order system."""

import math
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import oracle
from indefstring import catalog, propagation
from indefstring.coefficients import MeasureData, StringSpec, coefficient_view
from indefstring.errors import ComputationError, PositionOutOfRange
from indefstring.propagation import (
    _BLOCK_STEPS,
    fundamental_system,
    transfer_matrices,
)
from indefstring.weyl import m_truncated, standard_grid


def test_empty_string_solutions_are_linear():
    xs = [0.0, 0.25, 0.7, 1.0]
    for z in (1j, 2.0 + 0.5j, -3.0 + 0j):
        fs = fundamental_system(catalog.empty_string(), z, xs)
        for st_t, st_p, x in zip(fs.theta, fs.phi, xs):
            assert st_t.f == pytest.approx(1.0, abs=1e-14)
            assert st_p.f == pytest.approx(x, abs=1e-14)
        assert fs.wronskian == pytest.approx(1.0, abs=1e-14)


def test_atomic_string_endpoint_values():
    fs = fundamental_system(catalog.omega_atom_origin(), 1j, [1.0])
    assert fs.theta[0].f == pytest.approx(1.0 - 2.0j, abs=1e-14)
    assert fs.phi[0].f == pytest.approx(1.0, abs=1e-14)


def test_uniform_density_matches_cosh():
    fs = fundamental_system(catalog.uniform_string(), -1.0, [1.0])
    assert fs.theta[0].f.real == pytest.approx(np.cosh(1.0), abs=1e-8)
    assert abs(fs.theta[0].f.imag) < 1e-12


def _step_matrix(n, dx):
    """Exact step of F = (u, u' + n u) over dx while n = z w + z^2 Upsilon is constant."""
    return np.array([[1.0 - dx * n, dx], [-dx * n * n, 1.0 + dx * n]], dtype=complex)


def _hand_transfer(spec, z, x):
    """Product of constant-coefficient steps; exact for purely atomic data."""
    view = coefficient_view(spec)
    cuts = sorted({0.0, x} | {float(b) for b in view.bp if 0.0 < float(b) < x})
    mat = np.eye(2, dtype=complex)
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        n = z * view.w(mid) + z * z * view.upsilon(mid)
        mat = _step_matrix(n, hi - lo) @ mat
    return mat


def test_atomic_propagation_matches_hand_product():
    rng = np.random.default_rng(11)
    for _ in range(8):
        spec = catalog.random_discrete_string(rng)
        z = complex(rng.normal(), rng.normal() + 1.5)
        x = spec.length
        hand = _hand_transfer(spec, z, x)
        fs = fundamental_system(spec, z, [x])
        view = coefficient_view(spec)
        n_x = z * view.w(x) + z * z * view.upsilon(x)
        for col, st in ((0, fs.theta[0]), (1, fs.phi[0])):
            f, f2 = hand[0, col], hand[1, col]
            assert abs(st.f - f) <= 1e-12 * max(1.0, abs(f))
            expected_quasi = f2 - z * z * view.upsilon(x) * f
            assert abs(st.quasi - expected_quasi) <= 1e-11 * max(1.0, abs(f2))
            assert abs((st.f2 - n_x * st.f) - (f2 - n_x * f)) <= 1e-11 * max(1.0, abs(f2))


def test_wronskian_stays_at_one():
    zs = [1j, 1.3 + 0.7j, -2.0 + 1.0j, 4.0 + 0.2j]
    for spec in (catalog.mixed_example(), catalog.uniform_string(),
                 catalog.upsilon_atom_middle()):
        xs = np.linspace(0.0, spec.length, 9)
        for z in zs:
            fs = fundamental_system(spec, z, xs)
            assert abs(fs.wronskian - 1.0) < 1e-10
            for st_t, st_p in zip(fs.theta, fs.phi):
                w = st_t.f * st_p.quasi - st_t.quasi * st_p.f
                assert abs(w - 1.0) < 1e-10


def test_conjugation_symmetry():
    rng = np.random.default_rng(12)
    spec = catalog.mixed_example()
    for _ in range(5):
        z = complex(rng.normal(), rng.uniform(0.2, 3.0))
        fs = fundamental_system(spec, z, [1.5])
        gs = fundamental_system(spec, np.conj(z), [1.5])
        assert np.conj(fs.theta[0].f) == pytest.approx(gs.theta[0].f, abs=1e-12)
        assert np.conj(fs.phi[0].f) == pytest.approx(gs.phi[0].f, abs=1e-12)


def test_real_spectral_parameter_gives_real_solutions():
    for z in (-1.0, 0.5, 3.0):
        fs = fundamental_system(catalog.mixed_example(), z, [0.6, 1.9])
        for st in (*fs.theta, *fs.phi):
            assert abs(st.f.imag) < 1e-10
            assert abs(st.quasi.imag) < 1e-10


def _oracle_specs():
    specs = [spec for _, spec in catalog.REGRESSION_SPECS if np.isfinite(spec.length)]
    specs += [catalog.random_discrete_string(np.random.default_rng(seed)) for seed in range(8)]
    return specs


def _oracle_zs():
    # Standard grid plus tiny and large |z| in both half-planes and on the real axis.
    far = [r * np.exp(1j * t) for r in (1e-6, 30.0, 100.0)
           for t in (np.pi / 6, np.pi / 2, np.pi, -np.pi / 3)]
    return np.concatenate([standard_grid(), far])


def _relative_error(approx, ref) -> float:
    return float(np.max(np.abs(np.asarray(approx) - ref)) / np.max(np.abs(ref)))


def test_closed_engine_matches_mpmath_oracle():
    zs = _oracle_zs()
    for spec in _oracle_specs():
        atoms = {x for m in (spec.omega, spec.upsilon) for x, _ in m.atoms}
        xs = sorted({0.0, spec.length / 3.0, spec.length / 2.0, spec.length} | atoms)
        w = {x: complex(oracle.distribution(spec.omega, x)) for x in xs}
        ups = {x: complex(oracle.distribution(spec.upsilon, x)) for x in xs}
        mats = transfer_matrices(spec, zs, xs)
        for iz, z in enumerate(zs):
            ref = oracle.propagators(spec, z, xs)
            fs = fundamental_system(spec, z, xs)
            for k, x in enumerate(xs):
                r = np.array(ref[x].tolist(), dtype=complex)[:2, :2]
                for col, st in ((0, fs.theta[k]), (1, fs.phi[k])):
                    u, up = r[0, col], r[1, col]
                    expected = np.array([u, up + z * w[x] * u,
                                         up + (z * w[x] + z * z * ups[x]) * u])
                    # Columns differ in scale by up to |z|; compare each on its own.
                    assert _relative_error(mats[k, iz, :, col], r[:, col]) <= 1e-12, (spec, z, x)
                    got = [st.f, st.quasi, st.f2]
                    assert _relative_error(got, expected) <= 1e-12, (spec, z, x)


def _signed_atoms(n: int, seed: int) -> StringSpec:
    """A finite string with n small omega atoms of both signs and an upsilon density."""
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(0.0, 1.0, n))
    masses = rng.uniform(-0.5, 1.0, n) * (4.0 / n)
    return StringSpec(length=1.0, omega=MeasureData(atoms=tuple(zip(xs.tolist(), masses.tolist()))),
                      upsilon=MeasureData(density=((0.3, 0.7, 0.5),)))


def test_blocked_fold_matches_mpmath_oracle():
    # 700 steps: the runs to the last sample positions are folded over
    # several blocks; at 27 z a build holds four runs, then two, and at one z
    # all six.
    spec = _signed_atoms(700, 5)
    xs = [0.1, 0.5, 0.95, 1.0]
    zs = np.concatenate([standard_grid()[::2], [30.0 + 0.5j, -20.0 + 3.0j]])
    mats = transfer_matrices(spec, zs, xs)
    for iz in (12, 25, 26):
        z = zs[iz]
        ref = oracle.propagators(spec, z, xs)
        fs = fundamental_system(spec, z, xs)
        for k, x in enumerate(xs):
            r = np.array(ref[x].tolist(), dtype=complex)[:2, :2]
            for col, st in ((0, fs.theta[k]), (1, fs.phi[k])):
                assert _relative_error(mats[k, iz, :, col], r[:, col]) <= 1e-12, (z, x)
                assert _relative_error([st.f], [r[0, col]]) <= 1e-12, (z, x)


def test_free_strings_at_huge_z_match_the_oracle():
    # On strings without densities a leaf of 4 steps (16 on the walk of two
    # blocks) is normalized between its steps where |z| is large: at
    # |z| = 1e50 a upsilon atom multiplies by about |z|^2 mu = 1e100, so a few
    # unnormalized steps would overflow.
    specs = [_free_string(40, 2), _free_string(13, 8),
             catalog.random_discrete_string(np.random.default_rng(3), max_atoms=12),
             _free_string(2 * _BLOCK_STEPS, 2)]
    assert all(spec.upsilon.atoms and not spec.upsilon.density for spec in specs)
    for spec in specs:
        for z in (1e6 + 1j, 1e20j, 1e50 + 1e49j):
            m = m_truncated(spec, z, spec.length)
            ref = oracle.propagators(spec, z, [spec.length])[spec.length]
            want = complex(-ref[0, 0] / (z * ref[0, 1]))
            assert np.isfinite(m) and abs(m - want) <= 1e-12 * abs(want), (spec, z, m, want)


def _mixed_string(n: int, seed: int) -> StringSpec:
    """A finite string with n atoms, each an omega atom of either sign or an
    upsilon atom, and omega and upsilon densities on parts of [0, 1]."""
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(0.0, 1.0, n)).tolist()
    kinds = rng.integers(0, 3, n)
    masses = (rng.uniform(-0.5, 1.0, n) * (4.0 / n)).tolist()
    omega = [(x, m) for x, m, k in zip(xs, masses, kinds) if k < 2]
    upsilon = [(x, abs(m) / 4.0) for x, m, k in zip(xs, masses, kinds) if k == 2]
    return StringSpec(length=1.0,
                      omega=MeasureData(atoms=tuple(omega), density=((0.1, 0.35, 1.5), (0.6, 0.7, -0.8))),
                      upsilon=MeasureData(atoms=tuple(upsilon), density=((0.3, 0.55, 0.4),)))


def _free_string(n: int, seed: int) -> StringSpec:
    """A finite string with n atoms, each an omega atom of either sign or an
    upsilon atom, and no density: its walks fold leaves of several steps."""
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(0.0, 1.0, n)).tolist()
    kinds = rng.integers(0, 3, n)
    masses = (rng.uniform(-0.5, 1.0, n) * (4.0 / n)).tolist()
    omega = [(x, m) for x, m, k in zip(xs, masses, kinds) if k < 2]
    upsilon = [(x, abs(m) / 4.0) for x, m, k in zip(xs, masses, kinds) if k == 2]
    return StringSpec(length=1.0, omega=MeasureData(atoms=tuple(omega)),
                      upsilon=MeasureData(atoms=tuple(upsilon)))


@pytest.mark.parametrize("n_z", [1001, 1, 0])
def test_many_z_match_one_z_calls_bit_for_bit(n_z, monkeypatch):
    # Over 2 x _BLOCK_STEPS steps; at 1001 z the sweep is split over 1, 2 or
    # 3 threads, and each thread's chunk is swept a column of z at a time:
    # of the default width (75 z on the mixed string, 260 on the free one),
    # of one z (on 2 threads), and of 41 z, which leaves a partial column at
    # the end of each chunk of 500, 501, 333 or 334 z (on 2 and 3 threads).  The rescaled z reach |z| ~ 6e6
    # on the mixed string, where pieces take the e^{-|Im s h|} form and fold
    # levels are normalized, and |z| ~ 6e49 on the free string, where leaves
    # are normalized between their steps.  The free string's positions cut
    # its runs to 39, 217, 45, 211, 5 and 251 steps: a walk of a full block or
    # more, so leaves of _LONG_LEAF_STEPS steps, the first of each run padded.
    mixed, free = _mixed_string(3 * _BLOCK_STEPS, 17), _free_string(3 * _BLOCK_STEPS, 17)
    assert coefficient_view(mixed).bp.size > 2 * _BLOCK_STEPS
    free_bp = coefficient_view(free).bp
    rng = np.random.default_rng(3)
    zs = rng.uniform(-60.0, 60.0, n_z) + 1j * np.geomspace(1e-3, 20.0, n_z)
    column = propagation._COLUMN
    for spec, xs, big in ((mixed, [0.05, 0.5, 0.83, 1.0], 1e5),
                          (free, free_bp[[39, 301, 517]].tolist() + [1.0], 1e48)):
        widest = propagation._Walk(coefficient_view(spec), np.array(xs)).widest
        for rescale, z_scale in ((False, 1.0), (True, big)):
            grid = zs * z_scale
            one = [transfer_matrices(spec, z, xs, rescale=rescale) for z in grid]
            for width, workers in ((column, 1), (column, 2), (column, 3), (widest, 2),
                                   (41 * widest, 2), (41 * widest, 3)):
                monkeypatch.setattr(propagation, "_COLUMN", width)
                monkeypatch.setattr(propagation, "_WORKERS", workers)
                mats = transfer_matrices(spec, grid, xs, rescale=rescale)
                assert mats.shape == (len(xs), n_z, 2, 2)
                assert np.all(np.isfinite(mats))
                for k, z in enumerate(grid):
                    assert np.array_equal(mats[:, k], one[k]), (width, workers, z)
        monkeypatch.setattr(propagation, "_COLUMN", column)
        m = m_truncated(spec, zs, xs[2])
        assert np.array_equal(m, [m_truncated(spec, z, xs[2]) for z in zs])
    assert propagation._Walk(coefficient_view(free), np.array([1.0])).leaf_steps == propagation._LONG_LEAF_STEPS


@pytest.mark.parametrize("n_z", [1, 2, 3, 5, 17])
def test_long_walks_at_few_z_match_one_z_calls_bit_for_bit(n_z):
    """A density string of about 10^4 breakpoints and a free string of
    1.6 x 10^5 steps (leaves of _LONG_LEAF_STEPS steps), each of about 10^4
    leaves.  A build holds up to _COLUMN // n_z leaves, so a one-z call
    builds each walk in one pass and a grid of two or more z in several: each
    z of a grid still has the bytes of its one-z call, in rescaled transfer
    matrices at three positions and in m_truncated at L."""
    rng = np.random.default_rng(n_z)
    zs = rng.uniform(-60.0, 60.0, n_z) + 1j * rng.uniform(0.01, 20.0, n_z)
    xs = [0.3, 0.71, 1.0]
    for spec in (_mixed_string(10_000, 23), _free_string(10_000 * propagation._LONG_LEAF_STEPS, 23)):
        leaves = propagation._Walk(coefficient_view(spec), np.array(xs)).cuts[-1]
        assert propagation._COLUMN // 2 < leaves <= propagation._COLUMN
        mats = transfer_matrices(spec, zs, xs, rescale=True)
        m = m_truncated(spec, zs, 1.0)
        assert np.all(np.isfinite(mats)) and np.all(np.isfinite(m))
        for k, z in enumerate(zs):
            assert np.array_equal(mats[:, k], transfer_matrices(spec, z, xs, rescale=True)), z
            assert m[k].tobytes() == np.complex128(m_truncated(spec, z, 1.0)).tobytes(), z


@pytest.fixture
def started(monkeypatch):
    """The threads that start while the test runs."""
    threads = []

    class Recorded(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return threads


def test_long_sweeps_split_and_short_walks_stay_on_one_thread(monkeypatch, started):
    monkeypatch.setattr(propagation, "_WORKERS", 3)
    grid = 1j + np.linspace(-40.0, 40.0, 10_000)
    # 10^4 z over 16 atoms: a large grid, but the walk is shorter than a block.
    short = _signed_atoms(16, 4)
    assert coefficient_view(short).bp.size < _BLOCK_STEPS
    m_truncated(short, grid, short.length)
    assert started == []
    long = _mixed_string(3 * _BLOCK_STEPS, 17)
    m_truncated(long, grid[:64], long.length)
    assert started == []
    m_truncated(long, grid[:1001], long.length)
    assert len(started) == 2


def test_positions_are_checked_before_any_thread_starts(monkeypatch, started):
    monkeypatch.setattr(propagation, "_WORKERS", 2)
    spec = _mixed_string(3 * _BLOCK_STEPS, 17)
    with pytest.raises(PositionOutOfRange):
        transfer_matrices(spec, 1j + np.arange(1001.0), [0.5, 1.5])
    assert started == []


@pytest.mark.parametrize("workers", [2, 3])
def test_non_finite_z_in_the_last_chunk_is_named(monkeypatch, started, workers):
    # cosh(Im sqrt(z) h) overflows on the omega density at z = -1e12 + i.
    monkeypatch.setattr(propagation, "_WORKERS", workers)
    spec = _mixed_string(3 * _BLOCK_STEPS, 17)
    grid = np.append(1j + np.linspace(-40.0, 40.0, 1000), -1e12 + 1j)
    with pytest.raises(ComputationError, match=r"z=\(-1000000000000\+1j\).*not finite"):
        transfer_matrices(spec, grid, [0.5, 1.0])
    assert len(started) == workers - 1


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_an_error_in_a_chunk_reaches_the_caller(monkeypatch, started, failing):
    # The calling thread sweeps the first chunk and a worker thread each of
    # the others; an error in any chunk is raised from the call once every
    # thread has ended.
    monkeypatch.setattr(propagation, "_WORKERS", 3)
    spec = _mixed_string(3 * _BLOCK_STEPS, 17)
    grid = 1j + np.linspace(-40.0, 40.0, 1001)
    sweep_chunk, chunks = propagation._sweep_chunk, []

    def sweep_or_fail(walk, z, rescale, records, lo, hi):
        chunks.append((lo, hi))
        if (lo == 0) if failing == "caller" else (hi == z.size):
            raise RuntimeError(f"chunk {lo}:{hi} failed")
        sweep_chunk(walk, z, rescale, records, lo, hi)

    monkeypatch.setattr(propagation, "_sweep_chunk", sweep_or_fail)
    before = threading.active_count()
    match = {"caller": "chunk 0:333 failed", "worker": "chunk 667:1001 failed"}[failing]
    with pytest.raises(RuntimeError, match=match):
        transfer_matrices(spec, grid, [0.5, 1.0])
    assert sorted(chunks) == [(0, 333), (333, 667), (667, 1001)]
    assert len(started) == 2
    assert threading.active_count() == before


def _fold_checking_every_level(mats, normalize=True):
    """Pairwise fold of the steps in logical order, pairing the even and the
    odd steps, that normalizes every level (unless told not to), and how many
    levels it changed."""
    changed = 0
    while mats.shape[2] > 1:
        half = mats.shape[2] // 2
        level = np.concatenate([propagation._compose(mats[:, :, 1:2 * half:2], mats[:, :, 0:2 * half:2]),
                                mats[:, :, 2 * half:]], axis=2)
        before = level.copy()
        if normalize:
            propagation._normalize(level)
        changed += not np.array_equal(before, level)
        mats = level
    return mats[:, :, 0], changed


@pytest.mark.parametrize("rescale", [False, True])
def test_fold_in_pair_order_matches_an_even_odd_fold(rescale):
    # Near-identity steps keep the products in range; a few steps times 1e130
    # lie above _BIG, so the rescaled folds normalize some levels.
    rng = np.random.default_rng(11)
    assert 1e130 > propagation._BIG
    for n in range(1, 601):
        noise = rng.normal(size=(2, 2, n, 2)) + 1j * rng.normal(size=(2, 2, n, 2))
        mats = np.eye(2)[:, :, None, None] + 0.3 * noise
        mats[:, :, rng.integers(0, n, 2)] *= 1e130
        reference, _ = _fold_checking_every_level(mats, normalize=rescale)
        folded = propagation._fold(mats[:, :, propagation._order(n)], rescale, propagation._Workspace())
        assert folded.shape == (2, 2, 1, 2)
        assert np.all(np.isfinite(reference)) and np.array_equal(folded[:, :, 0], reference), n


def _leaves_step_by_step(view, points, lo, hi, z, rescale, size):
    """The leaves of steps lo..hi-1 between ``points`` in logical order, each
    built one step at a time: the run is padded at its front with identity
    steps to a multiple of ``size``, a leaf starts as the step matrix of its
    first step, each later step [[1, h], [0, 1]] [[1, 0], [-g, 1]] is applied
    to its rows, and with ``rescale`` the leaves are normalized after every
    step."""
    steps = propagation._Steps(view, points[:-1], np.diff(points))
    zz = z * z
    with np.errstate(over="ignore", invalid="ignore"):
        mats = steps.matrices(lo, hi, z, zz, rescale, propagation._Workspace())
        if size == 1:
            return mats
        # An identity step is index -1: no length and no point mass.
        aw, au, h = (np.append(a[lo:hi], 0.0) for a in (steps.aw, steps.au, steps.h))
        padded = [-1] * (-(hi - lo) % size) + list(range(hi - lo))
        leaves = []
        for first in range(0, len(padded), size):
            k = padded[first]
            leaf = np.eye(2, dtype=complex)[:, :, None] * np.ones(z.size) if k < 0 else mats[:, :, k].copy()
            for k in padded[first + 1:first + size]:
                leaf[1] += (z * -aw[k] - zz * au[k]) * leaf[0]
                leaf.view(float)[0] += h[k] * leaf.view(float)[1]
                if rescale:
                    propagation._normalize(leaf)
            leaves.append(leaf)
    return np.stack(leaves, axis=2)


@pytest.mark.parametrize("n_z", [1, 3, 9])
def test_narrow_sweep_matches_a_run_by_run_fold(n_z):
    # Sample positions on breakpoints cut the first block into six runs of 40
    # steps and one of 16, the second into runs of 25, 25, 25 and 181 (25, 25,
    # 28 and 178 on the free string, where 25 and 28 steps make 2 leaves of
    # _LONG_LEAF_STEPS = 16 steps each), and leave the third whole.  At 1 and
    # 3 z every run is built in one pass and runs of one number of leaves are
    # folded together; at 9 z the builds cut the walk.  The mixed string's
    # leaves are its steps; the free strings' leaves, built here one step at
    # a time in logical order, hold 16 steps on the walk of three blocks and
    # _LEAF_STEPS = 4 on the walk of 80 steps, so the test covers both sides
    # of the one-block rule.  On the 300-atom strings the runs are short (3
    # and 7 leaves, three of 7 on the mixed string folded together), so scratch of a
    # later level of one run's fold in the buffer of the leaves would reach
    # the leaves of a later run of the same build, not folded yet.
    rng = np.random.default_rng(5)
    zs = rng.uniform(-60.0, 60.0, n_z) + 1j * np.geomspace(1e-3, 20.0, n_z)
    long = [40, 80, 120, 160, 200, 240, 281, 306]
    for spec, size, big, cuts in ((_mixed_string(3 * _BLOCK_STEPS, 17), 1, 1e5, long + [331, 512, 768]),
                                  (_free_string(3 * _BLOCK_STEPS, 17), propagation._LONG_LEAF_STEPS, 1e48,
                                   long + [334, 512, 768]),
                                  (_free_string(300, 17), propagation._LEAF_STEPS, 1e48, [12, 40, 52, 80]),
                                  (_mixed_string(300, 17), 1, 1e5, [3, 10, 13, 20, 27, 34])):
        view = coefficient_view(spec)
        assert view.bp[0] == 0.0 and view.bp.size > cuts[-1]
        xs = view.bp[cuts]
        walk = propagation._Walk(view, xs)
        assert walk.leaf_steps == size
        ends = sorted(set(cuts) | set(range(0, cuts[-1], _BLOCK_STEPS)))
        assert walk.cuts == np.cumsum([0] + [-(-n // size) for n in np.diff(ends)]).tolist()
        for rescale, z_scale in ((False, 1.0), (True, big)):
            z = zs * z_scale
            state, want = np.eye(2, dtype=complex)[:, :, None] * np.ones(n_z), []
            for lo, hi in zip(ends[:-1], ends[1:]):
                leaves = _leaves_step_by_step(view, walk.points, lo, hi, z, rescale, size)
                run, _ = _fold_checking_every_level(leaves, normalize=rescale)
                state = propagation._compose(run, state)
                if rescale:
                    propagation._normalize(state)
                if hi in cuts:
                    want.append(np.moveaxis(state, -1, 0))
            got = transfer_matrices(spec, z, xs, rescale=rescale)
            assert np.all(np.isfinite(got)) and np.array_equal(got, want)


def test_free_steps_match_the_general_form_bit_for_bit():
    # Steps of a string without densities are built from -g in fewer passes,
    # as the first steps of leaves; on a walk whose runs are single steps the
    # leaves are the steps, and their bits, signed zeros included, are those
    # of the general form, with and without upsilon atoms and on steps
    # without a point mass.
    z = np.array([0.0, 2.0, -3.0, 1.5j, -1.5j, 1.0 + 1.0j, -4.0 - 0.5j, 1e5 + 3e4j])
    for upsilon in ((), ((0.3, 0.2), (0.7, 0.1))):
        spec = StringSpec(length=1.0, omega=MeasureData(atoms=((0.0, 0.5), (0.2, -0.3), (0.5, 1.0))),
                          upsilon=MeasureData(atoms=upsilon))
        view = coefficient_view(spec)
        free = propagation._Walk(view, np.array([0.2, 0.25, 0.3, 0.5, 0.7, 1.0]))
        assert free.free and free.leaf_steps == 1 and free.upsilon_atoms == bool(upsilon)
        general = propagation._Steps(view, free.points[:-1], np.diff(free.points))
        assert free.steps == general.h.size == len(free.cuts) - 1
        assert free.leaf_matrices(0, free.steps, z, z * z, False, propagation._Workspace()).tobytes() == \
            general.matrices(0, free.steps, z, z * z, False, propagation._Workspace()).tobytes()


def test_rescaled_fold_checks_every_level_that_may_normalize():
    # The fold skips a level's check where a bound on its entries stays below
    # _BIG; it must give the bits of a fold that checks every level.
    # The reference folds the steps in logical order, _fold in its pair order.
    view = coefficient_view(_mixed_string(3 * _BLOCK_STEPS, 17))
    points = propagation._Walk(view, np.array([1.0])).points
    walk = propagation._Steps(view, points[:-1], np.diff(points))
    changes = []
    for z in ([3.0 + 1j, -20.0 + 0.5j], [-1e9 + 1j, 1e5 + 3e4j, 3.0 + 1j]):
        z = np.array(z)
        for lo, hi in ((0, _BLOCK_STEPS), (_BLOCK_STEPS, _BLOCK_STEPS + 77)):
            logical = walk.matrices(lo, hi, z, z * z, True, propagation._Workspace())
            reference, changed = _fold_checking_every_level(logical)
            mats = logical[:, :, propagation._order(hi - lo)]
            assert np.array_equal(propagation._fold(mats, True, propagation._Workspace())[:, :, 0], reference)
            changes.append(changed)
    assert changes[:2] == [0, 0] and min(changes[2:]) > 0


def test_split_sweeps_agree_under_frequent_thread_switches(monkeypatch, started):
    # More threads than CPUs, switching between most numpy calls.
    spec = _mixed_string(3 * _BLOCK_STEPS, 17)
    grid = 1j + np.linspace(-40.0, 40.0, 1001)
    monkeypatch.setattr(propagation, "_WORKERS", 1)
    one = m_truncated(spec, grid, 1.0)
    monkeypatch.setattr(propagation, "_WORKERS", 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = m_truncated(spec, grid, 1.0)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(many, one)
    assert len(started) == 4 and not any(thread.is_alive() for thread in started)


def test_second_wide_sweep_takes_few_page_faults():
    pytest.importorskip("resource")
    # A fresh interpreter, so the count does not depend on what ran before.
    code = textwrap.dedent("""
        import resource
        import numpy as np
        from indefstring.coefficients import MeasureData, StringSpec
        from indefstring.weyl import m_truncated
        rng = np.random.default_rng(5)
        atoms = zip(np.sort(rng.uniform(0.0, 1.0, 1000)).tolist(), (rng.uniform(-0.5, 1.0, 1000) / 250).tolist())
        spec = StringSpec(length=1.0, omega=MeasureData(atoms=tuple(atoms)))
        grid = (np.linspace(-40.0, 40.0, 40)[:, None] + 1j * np.geomspace(0.1, 10.0, 25)).ravel()
        m_truncated(spec, grid, spec.length)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        m_truncated(spec, grid, spec.length)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 5000


def test_free_sweeps_take_no_buffer_above_four_columns(monkeypatch):
    # The leaf matrices of a build are the largest buffer, 2 x 2 x _COLUMN
    # entries at most; -g comes one step of the leaves at a time, in a
    # (leaves, z) buffer.  Made for all steps of sixteen-step leaves at once
    # it would hold 16 x _COLUMN entries, and peak memory would grow with it.
    sizes = []
    take = propagation._Workspace.take

    def recorded(self, key, shape, dtype=complex):
        sizes.append(math.prod(shape) * np.dtype(dtype).itemsize)
        return take(self, key, shape, dtype)

    monkeypatch.setattr(propagation._Workspace, "take", recorded)
    limit = 4 * propagation._COLUMN * np.dtype(complex).itemsize
    spec = _free_string(3 * _BLOCK_STEPS, 17)
    assert propagation._Walk(coefficient_view(spec), np.array([1.0])).leaf_steps == propagation._LONG_LEAF_STEPS
    for n_z in (1, 1001, 3000):
        zs = np.linspace(-40.0, 40.0, n_z) + 1j
        for rescale in (False, True):
            transfer_matrices(spec, zs, [0.3, 1.0], rescale=rescale)
        m_truncated(spec, zs, 1.0)
    assert limit // 2 < max(sizes) <= limit


def test_unscaled_evaluators_refuse_non_finite_values():
    # cosh(Im sqrt(z) h) overflows on the uniform string at z = -1e6 + i.
    spec, z = catalog.uniform_string(), -1e6 + 1j
    with pytest.raises(ComputationError, match=r"z=\(-1000000\+1j\).*not finite"):
        transfer_matrices(spec, [1j, z], [0.5, 1.0])
    with pytest.raises(ComputationError, match=r"z=\(-1000000\+1j\).*not finite"):
        fundamental_system(spec, z, [0.5, 1.0])
    # The rescaled sweep keeps the same matrix finite: its ratios are what a
    # Weyl quotient reads.
    assert np.all(np.isfinite(transfer_matrices(spec, z, [1.0], rescale=True)))


def test_transfer_shape_and_duplicates():
    zs = np.array([[1j, 2j], [1 + 1j, 3 + 0.5j]])
    mats = transfer_matrices(catalog.mixed_example(), zs, [0.5, 0.5, 1.0])
    assert mats.shape == (3, 2, 2, 2, 2)
    assert np.array_equal(mats[0], mats[1])


def test_position_out_of_range_rejected():
    with pytest.raises(PositionOutOfRange):
        fundamental_system(catalog.empty_string(), 1j, [1.5])


def test_positions_are_checked_after_a_planned_sweep():
    # The sweep plans kept with the view must not let a bad position through.
    spec = catalog.mixed_example()
    fundamental_system(spec, 1j, [0.5, 1.0])
    m_truncated(spec, 1j, spec.length)
    for bad in ([0.5, spec.length + 0.5], [math.nan], [math.inf], [-0.1], []):
        with pytest.raises(PositionOutOfRange):
            fundamental_system(spec, 1j, bad)
        with pytest.raises(PositionOutOfRange):
            transfer_matrices(spec, [1j, 2j], bad)
    for x in (spec.length + 0.5, math.nan, math.inf):
        with pytest.raises(PositionOutOfRange):
            m_truncated(spec, 1j, x)


def test_plans_for_caller_chosen_positions_stay_bounded(walks):
    # One plan per position swept; the cache keeps the _PLANS used last.
    spec = _mixed_string(50, 3)
    xs = np.linspace(1e-3, spec.length, propagation._PLANS + 10)
    for x in xs:
        fundamental_system(spec, 1j, [x])
    assert len(walks) == xs.size
    assert propagation._plan.cache_info().currsize == propagation._PLANS
    fundamental_system(spec, 1j, [xs[-1]])
    assert len(walks) == xs.size
    fundamental_system(spec, 1j, [xs[0]])
    assert len(walks) == xs.size + 1
    # A refusal is not kept as a plan, so a second call checks again.
    hits = propagation._plan.cache_info().hits
    for bad in (math.nan, spec.length + 0.5):
        for _ in range(2):
            with pytest.raises(PositionOutOfRange):
                fundamental_system(spec, 1j, [bad])
    assert propagation._plan.cache_info().hits == hits
    assert len(walks) == xs.size + 1


def test_threads_that_share_the_plan_cache_get_the_serial_bytes():
    # More threads than CPUs, switching often, sweep positions that overflow
    # the cache: every result must be the bytes of a call on one thread.
    spec = _mixed_string(50, 3)
    xs = np.linspace(1e-3, spec.length, propagation._PLANS + 10).tolist()
    want = {x: transfer_matrices(spec, 1j, [x]).tobytes() for x in xs}
    wrong = []

    def sweep(offset):
        try:
            for k in range(2 * len(xs)):
                x = xs[(7 * k + offset) % len(xs)]
                if transfer_matrices(spec, 1j, [x]).tobytes() != want[x]:
                    wrong.append(x)
        except Exception as exc:  # reported by the assertion below
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert propagation._plan.cache_info().currsize == propagation._PLANS
