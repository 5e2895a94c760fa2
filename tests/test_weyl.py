"""Tests for Weyl-function evaluation, representation constants, and flags."""

import cmath
import math

import mpmath
import numpy as np
import pytest

import oracle
from indefstring import catalog, propagation
from indefstring.canonical import canonical_m_grid, string_to_hamiltonian
from indefstring.coefficients import MeasureData, StringSpec, coefficient_view
from indefstring.errors import (
    ComputationError,
    ExtrapolationUnstable,
    NonRealRequired,
    PositionOutOfRange,
    ValidationError,
)
from indefstring.spectral import _richardson, stieltjes_inversion
from indefstring.weyl import (
    classify,
    integral_rep_constants,
    m_truncated,
    standard_grid,
    weyl_m,
    weyl_m_grid,
)


def _m_uniform(z):
    r = np.sqrt(complex(z))
    return -1.0 / (np.tan(r) * r)


def _m_negative_uniform(z):
    r = np.sqrt(complex(z))
    return -1.0 / (np.tanh(r) * r)


def test_standard_grid_covers_rectangle():
    zs = standard_grid()
    assert zs.shape == (49,)
    assert zs.real.min() == -5.0 and zs.real.max() == 5.0
    assert zs.imag.min() == pytest.approx(0.1) and zs.imag.max() == 5.0


def test_truncated_value_uniform_string():
    m = m_truncated(catalog.uniform_string(), -1.0 + 1e-9j, 1.0)
    assert m.real == pytest.approx(1.0 / np.tanh(1.0), abs=1e-7)


def test_truncated_value_empty_string():
    assert m_truncated(catalog.empty_string(), 1j, 1.0) == pytest.approx(1j, abs=1e-14)
    assert m_truncated(catalog.empty_string(), 2.0 + 1j, 0.5) == pytest.approx(
        -2.0 / (2.0 + 1j), abs=1e-14)


def test_truncated_value_atomic_string():
    assert m_truncated(catalog.omega_atom_origin(), 1j, 1.0) == pytest.approx(2.0 + 1j, abs=1e-13)


def test_real_spectral_parameter_rejected():
    with pytest.raises(NonRealRequired):
        weyl_m(catalog.empty_string(), 2.0)
    with pytest.raises(NonRealRequired):
        m_truncated(catalog.empty_string(), 2.0 + 0j, 1.0)
    # A part that is not finite is bad input too, not a numerical failure.
    for z in (complex(math.nan, 1.0), complex(1.0, math.nan), complex(math.inf, 1.0),
              complex(1.0, math.inf), complex(-math.inf, -math.inf)):
        for spec in (catalog.uniform_halfline(), catalog.uniform_string()):
            with pytest.raises(ValidationError, match="finite z"):
                weyl_m(spec, z)
        with pytest.raises(ValidationError, match="finite z"):
            m_truncated(catalog.uniform_string(), [1j, z], 0.5)


def test_finite_length_limit_is_attained():
    sample = weyl_m(catalog.mixed_example(), 1.4 + 0.6j)
    assert sample.truncation_x == 2.0


def test_closed_forms_at_spot_values():
    cases = [
        (catalog.empty_halfline(), 1j, 0.0),
        (catalog.upsilon_lebesgue_halfline(), 1j, 1j),
        (catalog.upsilon_lebesgue_halfline(), -2.0 + 0.5j, 1j),
        (catalog.uniform_halfline(), 1j, cmath.exp(1j * cmath.pi / 4.0)),
        (catalog.omega_atom_middle(), 1j, -1.0 / 1j + 1.0 / (4.0 - 1j)),
    ]
    for spec, z, expected in cases:
        sample = weyl_m(spec, z)
        assert sample.m == pytest.approx(expected, abs=1e-9)
    m = weyl_m(catalog.omega_atom_middle(), 1j).m
    assert m.real == pytest.approx(0.2352941, abs=1e-7)
    assert m.imag == pytest.approx(1.0588235, abs=1e-7)


def test_closed_forms_on_grid():
    zs = standard_grid()
    for spec, ref in ((catalog.uniform_string(), _m_uniform),
                      (catalog.negative_uniform_string(), _m_negative_uniform)):
        for z in zs:
            assert weyl_m(spec, complex(z)).m == pytest.approx(ref(z), abs=1e-10)


def test_halfline_uniform_on_grid():
    for z in standard_grid():
        expected = 1j / np.sqrt(complex(z))
        assert weyl_m(catalog.uniform_halfline(), complex(z)).m == pytest.approx(
            expected, abs=1e-8)


def test_conjugation_symmetry_of_m():
    spec = catalog.mixed_example()
    for z in (1j, 2.0 + 0.5j, -3.0 + 1.5j):
        assert np.conj(weyl_m(spec, z).m) == pytest.approx(
            weyl_m(spec, np.conj(z)).m, abs=1e-12)


def test_representation_constants_upsilon_atom():
    rep = integral_rep_constants(catalog.upsilon_atom_origin())
    assert rep.c1 == pytest.approx(3.0, abs=1e-6)
    assert rep.inv_L == pytest.approx(1.0, abs=1e-6)


def test_representation_constants_empty_string():
    rep = integral_rep_constants(catalog.empty_string(2.0))
    assert rep.c1 == pytest.approx(0.0, abs=1e-8)
    assert rep.inv_L == pytest.approx(0.5, abs=1e-8)


def test_representation_constants_stieltjes_atom():
    rep = integral_rep_constants(catalog.omega_atom_origin())
    assert rep.c1 == pytest.approx(0.0, abs=1e-8)
    assert rep.inv_L == pytest.approx(1.0, abs=1e-6)
    assert rep.c2 == pytest.approx(2.0, abs=1e-6)


def test_c2_reported_only_for_stieltjes_strings():
    assert integral_rep_constants(catalog.omega_atom_origin()).c2 is not None
    assert integral_rep_constants(catalog.upsilon_atom_origin()).c2 is None
    assert integral_rep_constants(catalog.omega_atom_middle(-1.0)).c2 is None
    # m(i eta) of the mixed example is finite up to eta = 1e6, so its constants
    # are estimated: no upsilon mass at 0 and L = 2.
    rep = integral_rep_constants(catalog.mixed_example())
    assert rep.c1 == pytest.approx(0.0, abs=1e-8)
    assert rep.inv_L == pytest.approx(0.5, abs=1e-8)
    assert rep.c2 is None


def test_representation_constants_are_read_off_the_string():
    # c1 = upsilon({0}), 1/L (0 on a half-line) and, on a Stieltjes string,
    # c2 = omega({0}), exactly, also where m has sqrt(z) and 1/eta terms that
    # a Richardson fit of m does not model (the uniform string, half-lines).
    at_zero = lambda measure: sum(m for x, m in measure.atoms if x == 0.0)
    rng = np.random.default_rng(13)
    specs = [spec for _, spec in catalog.REGRESSION_SPECS]
    specs += [catalog.random_discrete_string(rng) for _ in range(6)]
    specs += [_atomic_halfline(seed, upsilon0) for seed, upsilon0 in ((3, 0.0), (4, 0.8))]
    specs += [_short_free(steps, tail, seed=steps) for steps in (5, 20) for tail in (None, (0.5, 2.0))]
    specs.append(_tailed_halfline(0.5, 2.0))
    for spec in specs:
        stieltjes = classify(spec).stieltjes_structural
        want = (at_zero(spec.upsilon), 1.0 / spec.length, at_zero(spec.omega) if stieltjes else None)
        rep = integral_rep_constants(spec)
        assert (rep.c1, rep.inv_L, rep.c2) == want, spec


def _m_oracle(spec, z):
    """-theta/(z phi) at L from the 50-digit reference propagator."""
    ref = oracle.propagators(spec, z, [spec.length])[spec.length]
    return complex(-ref[0, 0] / (z * ref[0, 1]))


def _m_uniform_mp(z):
    with mpmath.workdps(50):
        r = mpmath.sqrt(mpmath.mpc(z))
        return complex(-mpmath.cot(r) / r)


def test_weyl_m_refuses_non_finite_values():
    # At large |Im sqrt(z)| the rescaled piece transfers stay finite, and so
    # does m.
    mixed = catalog.mixed_example()
    for spec, z, exact in ((catalog.uniform_string(), -1e6 + 1j, _m_uniform_mp(-1e6 + 1j)),
                           (mixed, 1e4j, _m_oracle(mixed, 1e4j))):
        assert abs(weyl_m(spec, z).m - exact) <= 1e-12 * abs(exact)
    # z^2 overflows at |z| = 1e160: the value is refused.
    with pytest.raises(ComputationError, match="not finite"):
        weyl_m(catalog.mixed_example(), 1e160j)
    # On a half-line z^2 overflows in the tail's s, or in the jump at x0; the
    # first such z is named.
    for spec in (catalog.upsilon_lebesgue_halfline(), _SWEEP_SPECS["atom"]):
        with pytest.raises(ComputationError, match=r"z=1e\+160j"):
            weyl_m_grid(spec, [1j, 1e160j, 2e160j])


def test_m_truncated_refuses_non_finite_values():
    exact = _m_uniform_mp(-1e6 + 1j)
    assert abs(m_truncated(catalog.uniform_string(), -1e6 + 1j, 1.0) - exact) <= 1e-12 * abs(exact)
    with pytest.raises(ComputationError, match="not finite"):
        m_truncated(catalog.mixed_example(), 1e160j, 2.0)
    zs = np.array([1j, 1e160j])
    with pytest.raises(ComputationError, match=r"z=1e\+160j"):
        m_truncated(catalog.mixed_example(), zs, 2.0)


def test_wide_range_finite_strings_match_oracles_or_raise():
    """|z| from 1e-8 to 1e6 on five rays from arg 1e-8 to pi - 1e-8, on finite
    strings: each value is finite and within 1e-10 of a 50-digit reference, or
    the evaluation raises a typed error; it is never NaN."""
    zs = [r * cmath.exp(1j * a) for r in np.logspace(-8, 6, 15)
          for a in (1e-8, 0.3, np.pi / 2, np.pi - 0.3, np.pi - 1e-8)]
    mixed = catalog.mixed_example()
    for spec, exact in ((catalog.uniform_string(), _m_uniform_mp),
                        (mixed, lambda z: _m_oracle(mixed, z))):
        for z in zs:
            try:
                (sample,) = weyl_m_grid(spec, [z])
            except ComputationError:
                continue
            ref = exact(z)
            assert cmath.isfinite(sample.m), z
            assert abs(sample.m - ref) <= 1e-10 * abs(ref), z


# -- one sweep per grid ---------------------------------------------------------


def _atomic_halfline(seed: int, upsilon0: float = 0.8) -> StringSpec:
    """Twelve positive omega atoms on [0, 2), one per cell, an upsilon atom
    ``upsilon0`` at 0 and a free tail."""
    rng = np.random.default_rng(seed)
    xs = (np.arange(12) + rng.uniform(0.1, 0.9, 12)) / 6.0
    masses = rng.uniform(0.2, 1.0, 12)
    return StringSpec(length=np.inf,
                      omega=MeasureData(atoms=tuple(zip(xs.tolist(), masses.tolist()))),
                      upsilon=MeasureData(atoms=((0.0, upsilon0),)))


def _many_atoms(n: int, length: float, seed: int) -> StringSpec:
    """n positive omega atoms on [0, min(length, 2)) and an upsilon density on
    [0.5, 1); a free tail when the length is infinite."""
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(0.0, min(length, 2.0), n))
    masses = rng.uniform(0.2, 1.0, n) * (4.0 / n)
    return StringSpec(length=length,
                      omega=MeasureData(atoms=tuple(zip(xs.tolist(), masses.tolist()))),
                      upsilon=MeasureData(density=((0.5, 1.0, 0.5),)))


def _density_pieces(n: int, seed: int) -> StringSpec:
    """A finite string on [0, 1] of n pieces, each with an omega density of
    either sign and an upsilon density, and an omega point mass in each gap
    between them."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.uniform(0.0, 1.0, 2 * n))
    pieces = list(zip(cuts[0::2].tolist(), cuts[1::2].tolist()))
    gaps = ((cuts[1:-1:2] + cuts[2::2]) / 2.0).tolist()
    density = lambda lo, hi: tuple((a, b, v) for (a, b), v in zip(pieces, rng.uniform(lo, hi, n).tolist()))
    return StringSpec(length=1.0,
                      omega=MeasureData(atoms=tuple(zip(gaps, rng.uniform(0.1, 0.5, n - 1).tolist())),
                                        density=density(-1.0, 3.0)),
                      upsilon=MeasureData(density=density(0.0, 2.0)))


_SWEEP_SPECS = {
    "uniform": catalog.uniform_halfline(),
    "upsilon": catalog.upsilon_lebesgue_halfline(),
    "empty": catalog.empty_halfline(),
    "atom": StringSpec(length=np.inf, omega=MeasureData(atoms=((0.5, 1.0),))),
    "atomic": _atomic_halfline(3),
    "finite": catalog.upsilon_atom_middle(),
    # Sweeps over several blocks of steps, built a few steps or a few z at a time.
    "finite-many": _many_atoms(3000, 2.0, 7),
    "halfline-many": _many_atoms(300, np.inf, 8),
    # Strings with a density: a one-z build of mixed_example() holds one
    # density step, and at 1e-6i its density piece has |kappa h^2| = 0.7e-12,
    # so the grid mixes series and closed-form entries where the one-z call
    # takes the series only.
    "mixed": catalog.mixed_example(),
    "uniform-string": catalog.uniform_string(),
    "density-pieces": _density_pieces(6, 11),
}
_rows = standard_grid().reshape(7, 7)[[1, 4]].ravel()
_far = np.array([955.336489125606 + 295.52020666133956j, -955.336489125606 + 295.52020666133956j])
_SWEEP_ZS = np.concatenate([_rows, _rows.conj(), 1j * 10.0 ** np.arange(-6, 7, 2), _far, _far.conj()])


@pytest.fixture(scope="module")
def grid_samples():
    return {name: weyl_m_grid(spec, _SWEEP_ZS) for name, spec in _SWEEP_SPECS.items()}


def test_grid_matches_one_z_calls_bit_for_bit(grid_samples):
    for name, spec in _SWEEP_SPECS.items():
        for z, got in zip(_SWEEP_ZS, grid_samples[name]):
            one = weyl_m(spec, z)
            assert (got.z, got.m, got.truncation_x) == (one.z, one.m, one.truncation_x), (name, z)


def _tailed_halfline(a: float, b: float) -> StringSpec:
    """omega and upsilon atoms and a finite density piece, then the tail
    densities (a, b) from the last breakpoint 1.5 on, which carries atoms of
    both measures."""
    return StringSpec(
        length=np.inf,
        omega=MeasureData(atoms=((0.3, 0.7), (1.1, -0.4), (1.5, 0.3)),
                          density=((0.6, 1.0, 0.8), (1.5, np.inf, a))),
        upsilon=MeasureData(atoms=((0.0, 0.4), (0.8, 0.5), (1.5, 0.2)),
                            density=((1.5, np.inf, b),) if b else ()))


_HALFLINES = {
    "uniform": catalog.uniform_halfline(),
    "upsilon": catalog.upsilon_lebesgue_halfline(),
    "atomic": _atomic_halfline(3, 0.0),
    "atomic-ups0": _atomic_halfline(4),
    **{f"tail {a}, {b}": _tailed_halfline(a, b) for a, b in ((0.5, 2.0), (-0.7, 1.0), (-1.0, 0.0))},
}
# |z| from 1e-8 to 1e6 on rays from arg 1e-8 to pi - 1e-8, and Im z = 1e-8
# on both sides of the origin; then the conjugates.
_wide = [r * cmath.exp(1j * t) for r in np.logspace(-8, 6, 8)
         for t in (1e-8, 0.3, np.pi / 2, np.pi - 0.3, np.pi - 1e-8)]
_wide += [x + 1e-8j for x in (1e-2, 1.0, 1e2, 1e4, 1e6, -1e-2, -1.0, -1e2, -1e4, -1e6)]
_WIDE_ZS = np.array(_wide + [z.conjugate() for z in _wide])


def _m_oracle_halfline(spec: StringSpec, z: complex) -> complex:
    """-theta/(z phi) from the 50-digit propagator, truncated at X = 1e40 on a
    free tail, else at X = x0 + 60/Im s past the last breakpoint x0, where the
    tail solution that grows has outgrown the one that decays by e^{120}."""
    view = coefficient_view(spec)
    x0, a, b = float(view.bp[-1]), view.dens_omega[-1], view.dens_upsilon[-1]
    with mpmath.workdps(oracle.DPS):
        zm = mpmath.mpc(z)
        s = mpmath.sqrt(zm * a + zm * zm * b)
        x = 1e40 if s == 0 else x0 + 60.0 / abs(float(s.imag))
        ref = oracle.propagators(spec, z, [x])[x]
        return complex(-ref[0, 0] / (zm * ref[0, 1]))


def test_halfline_matches_oracle_over_the_wide_range():
    """Every catalog half-line with a nonzero m, the benchmark's kind of
    atomic half-line (with and without an upsilon atom at 0) and atoms before
    three kinds of tail: within 1e-14 of the truncated 50-digit reference,
    symmetric under conjugation, and Herglotz (Im m sign(Im z) >= 0)."""
    half = _WIDE_ZS.size // 2
    for name, spec in _HALFLINES.items():
        samples = weyl_m_grid(spec, _WIDE_ZS)
        ms = np.array([s.m for s in samples])
        x0 = float(coefficient_view(spec).bp[-1])
        assert all(s.truncation_x == x0 for s in samples), name
        for z, m in zip(_WIDE_ZS, ms):
            ref = _m_oracle_halfline(spec, z)
            assert abs(m - ref) <= 1e-14 * abs(ref), (name, z, m, ref)
        assert np.array_equal(ms[half:], ms[:half].conj()), name
        assert np.all(ms.imag * np.sign(_WIDE_ZS.imag) >= 0.0), name


def test_halfline_closed_form_where_truncation_converges_slowly():
    """Im sqrt(z) = 5e-10 at z = 100 + 1e-8i, so truncating the uniform
    half-line even at x = 1.2e10 moves m by about 4e-6; the tail gives
    i/sqrt(z) up to rounding.  The empty half-line gives exactly 0, where a
    truncation at x gives -1/(z x)."""
    spec = catalog.uniform_halfline()
    for z in (100 + 1e-8j, 1e4 + 1e-8j, 1e6 + 1e-8j, 1e-4 * cmath.exp(1e-8j)):
        exact = 1j / cmath.sqrt(z)
        assert abs(weyl_m(spec, z).m - exact) <= 1e-14 * abs(exact), z
    for z in (1j, -3 + 1e-8j, 1e6 - 2j):
        sample = weyl_m(catalog.empty_halfline(), z)
        assert sample.m == 0.0 and sample.truncation_x == 0.0


# 1000 z over five decades of |z| and most of the upper half-plane.
_MANY_ZS = (np.logspace(-2, 3, 40)[:, None]
            * np.exp(1j * np.linspace(0.1, np.pi - 0.1, 25))[None, :]).ravel()


def test_many_z_match_one_z_calls():
    for name, spec in _SWEEP_SPECS.items():
        if np.isfinite(spec.length):
            continue
        samples = weyl_m_grid(spec, _MANY_ZS)
        for z, got in zip(_MANY_ZS, samples):
            one = weyl_m(spec, z)
            assert (got.z, got.m, got.truncation_x) == (one.z, one.m, one.truncation_x), (name, z)


def test_truncation_point_on_an_atom():
    """The last breakpoint 0.5 is the atom itself; the sweep's state there is
    the left limit, the atom's jump follows, and the Weyl function is
    alpha/(1 - z alpha a) = 1/(1 - z/2)."""
    spec = _SWEEP_SPECS["atom"]
    for z in (1 + 1j, -3 + 0.2j, 0.01 + 0.001j):
        exact = 1.0 / (1.0 - z / 2.0)
        sample = weyl_m(spec, z)
        assert sample.truncation_x == 0.5
        assert abs(sample.m - exact) <= 1e-9 * abs(exact), z


def _count_sweeps(monkeypatch) -> list:
    """Every sweep run from now on, fold (_sweep_closed) or row sweep
    (_row_sweep), as (kind, its sample positions)."""
    sweeps = []
    fold, row = propagation._sweep_closed, propagation._row_sweep

    def folded(view, z, xs, *args, **kwargs):
        sweeps.append(("fold", np.asarray(xs, dtype=float).tolist()))
        return fold(view, z, xs, *args, **kwargs)

    def swept(walk, *args, **kwargs):
        sweeps.append(("row", walk.points[walk.targets].tolist()))
        return row(walk, *args, **kwargs)

    monkeypatch.setattr(propagation, "_sweep_closed", folded)
    monkeypatch.setattr(propagation, "_row_sweep", swept)
    return sweeps


def test_one_grid_call_runs_one_sweep(monkeypatch):
    sweeps = _count_sweeps(monkeypatch)
    spec = catalog.uniform_halfline()
    for call, count in ((lambda: weyl_m_grid(spec, standard_grid()), 1),
                        (lambda: classify(spec), 1),
                        # The constants are read off the string, with no sweep.
                        (lambda: integral_rep_constants(catalog.empty_halfline()), 0)):
        sweeps.clear()
        call()
        assert len(sweeps) == count
    # The sweep on a half-line has one target: its last breakpoint.  A walk
    # without densities of at most _ROW_STEPS steps takes the row sweep.
    atomic = _atomic_halfline(3)
    for spec, x0, kind in ((catalog.uniform_halfline(), 0.0, "row"),
                           (atomic, atomic.omega.atoms[-1][0], "row"),
                           (_tailed_halfline(0.5, 2.0), 1.5, "fold")):
        sweeps.clear()
        weyl_m_grid(spec, standard_grid())
        assert sweeps == [(kind, [x0])]
    # A finite string's sweep ends at L.
    for spec, kind in ((catalog.upsilon_atom_middle(), "row"), (catalog.mixed_example(), "fold")):
        sweeps.clear()
        weyl_m_grid(spec, standard_grid())
        assert sweeps == [(kind, [spec.length])]


def test_each_string_plans_its_sweep_once(walks, monkeypatch):
    sweeps = _count_sweeps(monkeypatch)
    halfline, finite = catalog.uniform_halfline(), catalog.mixed_example()
    atomic, short = _atomic_halfline(3), catalog.upsilon_atom_middle()
    weyl_m_grid(halfline, standard_grid())
    m_truncated(finite, standard_grid(), finite.length)
    weyl_m_grid(atomic, standard_grid())
    m_truncated(short, standard_grid(), short.length)
    assert walks == [(halfline, True), (finite, False), (atomic, True), (short, True)]
    assert [kind for kind, _ in sweeps] == ["row", "fold", "row", "row"]
    walks.clear()
    weyl_m_grid(halfline, standard_grid() + 1.0)
    weyl_m(halfline, 2j)
    m_truncated(finite, 1j, finite.length)
    weyl_m_grid(finite, [3j])
    weyl_m(atomic, 2j)
    m_truncated(short, [1j, 2j], short.length)
    weyl_m_grid(short, [3j])
    assert walks == []
    assert len(sweeps) == 11
    # Each inversion evaluates m on a few dozen grids of its string.
    for spec, window, row in ((catalog.uniform_string(), (5.0, 45.0), False),
                              (catalog.upsilon_lebesgue_halfline(), (0.5, 3.0), True),
                              (catalog.omega_atom_middle(), (1.0, 30.0), True)):
        stieltjes_inversion(spec, window)
        assert walks == [(spec, row)]
        walks.clear()


def test_planned_sweeps_give_the_bits_of_a_cold_call():
    zs = np.concatenate([standard_grid(), [1e6j, -1e3 + 1e-2j, 1e-6 + 1e-8j]])
    specs = (catalog.uniform_halfline(), catalog.upsilon_lebesgue_halfline(), _atomic_halfline(3),
             catalog.mixed_example(), _many_atoms(300, 1.0, 5))
    runs = []
    for _ in range(2):
        coefficient_view.cache_clear()
        for _ in range(2):  # cold, then warm
            out = []
            for spec in specs:
                samples = weyl_m_grid(spec, zs)
                out.append(np.array([[s.m, s.truncation_x] for s in samples]))
                out.append(np.array([weyl_m(spec, z).m for z in zs[:3]]))
                if math.isfinite(spec.length):
                    out.append(propagation.transfer_matrices(spec, zs[:49], [0.3, spec.length]))
            runs.append(b"".join(a.tobytes() for a in out))
    assert runs[1:] == runs[:1] * 3


def test_wide_range_matches_closed_forms_or_raises():
    """|z| from 1e-8 to 1e6 on five rays from arg 1e-8 to pi - 1e-8: each value is
    finite and matches the closed form; none is refused."""
    zs = [r * cmath.exp(1j * a) for r in np.logspace(-8, 6, 15)
          for a in np.linspace(1e-8, np.pi - 1e-8, 5)]
    for spec, exact in ((catalog.uniform_halfline(), lambda z: 1j / cmath.sqrt(z)),
                        (catalog.upsilon_lebesgue_halfline(), lambda z: 1j)):
        for z in zs:
            (sample,) = weyl_m_grid(spec, [z])
            assert cmath.isfinite(sample.m)
            assert abs(sample.m - exact(z)) <= 1e-10 * abs(exact(z)), z


def _parts_bits(m: complex) -> bytes:
    """The bytes of m, so that signed zeros count."""
    return np.array([m.real, m.imag]).tobytes()


def test_one_z_calls_give_the_bytes_of_their_grid_rows():
    # Every catalog half-line, and twelve-atom free-tail half-lines with and
    # without an upsilon atom at 0, over the wide range and a ray of i 10^k.
    specs = [spec for _, spec in catalog.REGRESSION_SPECS if math.isinf(spec.length)]
    specs += [_atomic_halfline(seed, upsilon0) for seed, upsilon0 in ((3, 0.0), (4, 0.8), (5, 0.0), (6, 1.3))]
    zs = np.concatenate([_WIDE_ZS, 1j * 10.0 ** np.arange(-6, 7, 2)])
    for spec in specs:
        for z, got in zip(zs, weyl_m_grid(spec, zs)):
            one = weyl_m(spec, z)
            assert _parts_bits(one.m) == _parts_bits(got.m), (spec, z)
            assert (one.z, one.truncation_x) == (got.z, got.truncation_x)
    # On the empty half-line m is an exact zero whose signs depend on z.
    empty = catalog.empty_halfline()
    signs = set()
    for z, got in zip(zs, weyl_m_grid(empty, zs)):
        one = weyl_m(empty, z).m
        assert one == 0.0 and got.m == 0.0
        assert np.array_equal(np.signbit([one.real, one.imag]), np.signbit([got.m.real, got.m.imag])), z
        signs.add(tuple(np.signbit([one.real, one.imag])))
    assert len(signs) > 1
    # z^2 overflows at z = 1e160 i: refused on every one of them, named.
    for spec in specs:
        with pytest.raises(ComputationError, match=r"z=1e\+160j.*not finite"):
            weyl_m(spec, 1e160j)
        with pytest.raises(ComputationError, match=r"z=1e\+160j.*not finite"):
            weyl_m_grid(spec, [1j, 1e160j])


def _short_free(steps: int, tail=None, seed: int = 0) -> StringSpec:
    """A string without densities whose Weyl sweep has ``steps`` steps: omega
    atoms of both signs, one of them at 0, and upsilon atoms.  With ``tail``
    None it is finite, of length 1.5; else it is a half-line with omega and
    upsilon atoms at its last breakpoint x0 and the tail densities
    ``tail`` = (a, b) past x0."""
    rng = np.random.default_rng(seed)
    n = steps - 1 if tail is None else steps
    xs = np.sort(rng.uniform(0.05, 1.45, n)).tolist()
    masses = (rng.uniform(-0.5, 1.0, n) * (4.0 / n)).tolist()
    upsilon = [(x, abs(m) / 2.0) for k, (x, m) in enumerate(zip(xs, masses)) if k % 3 == 1]
    omega = [(0.0, 0.7)] + [(x, m) for k, (x, m) in enumerate(zip(xs, masses)) if k % 3 != 1]
    if tail is None:
        return StringSpec(1.5, MeasureData(atoms=tuple(omega)), MeasureData(atoms=tuple(upsilon)))
    (a, b), x0 = tail, xs[-1]
    return StringSpec(math.inf,
                      MeasureData(atoms=tuple(omega) + ((x0, 0.4),), density=((x0, math.inf, a),) if a else ()),
                      MeasureData(atoms=tuple(upsilon) + ((x0, 0.3),),
                                  density=((x0, math.inf, b),) if b else ()))


def _m_from_transfer(spec: StringSpec, zs: np.ndarray) -> np.ndarray:
    """m from the rescaled fold of :func:`transfer_matrices`: -theta/(z phi) at
    L, or on a half-line the tail solution e^{is(x - x0)} matched just after
    the point masses at its last breakpoint x0."""
    view = coefficient_view(spec)
    if math.isfinite(spec.length):
        mats = propagation.transfer_matrices(spec, zs, [spec.length], rescale=True)[0]
        return -mats[:, 0, 0] / (zs * mats[:, 0, 1])
    x0 = float(view.bp[-1])
    mats = propagation.transfer_matrices(spec, zs, [x0], rescale=True)[0]
    (theta, phi), (dtheta, dphi) = np.moveaxis(mats, 0, -1)
    g = zs * view.atom_omega[-1] + zs * zs * view.atom_upsilon[-1]
    s = np.sqrt(zs * view.dens_omega[-1] + zs * zs * view.dens_upsilon[-1])
    s = np.where(s.imag < 0.0, -s, s)
    return (1j * s * theta - (dtheta - g * theta)) / (zs * ((dphi - g * phi) - 1j * s * phi))


def test_short_free_walks_match_the_oracle_and_the_fold():
    """Walks of _ROW_STEPS steps take the row sweep and walks of one step
    more the fold: on finite strings and on half-lines with a free tail and
    with (a, b) tails, m is within 1e-13 of the 50-digit reference and of m
    read from the rescaled fold."""
    zs = np.array([1 + 1j, -3 + 0.2j, 0.01 + 0.001j, 40 - 2j, -1e3 + 30j, 1e-4j])
    for steps in (propagation._ROW_STEPS, propagation._ROW_STEPS + 1):
        for tail in (None, (0.0, 0.0), (0.5, 2.0), (-0.7, 1.0)):
            spec = _short_free(steps, tail, seed=steps)
            view = coefficient_view(spec)
            x0 = spec.length if tail is None else float(view.bp[-1])
            walk = propagation._walk_to(view, [x0])
            assert walk.steps == steps and (walk.row is not None) == (steps <= propagation._ROW_STEPS)
            ms = np.array([sample.m for sample in weyl_m_grid(spec, zs)])
            fold = _m_from_transfer(spec, zs)
            for z, m, m_fold in zip(zs, ms, fold):
                ref = _m_oracle(spec, z) if tail is None else _m_oracle_halfline(spec, z)
                assert abs(m - ref) <= 1e-13 * abs(ref), (steps, tail, z, m, ref)
                assert abs(m - m_fold) <= 1e-13 * abs(ref), (steps, tail, z, m, m_fold)


@pytest.fixture
def fresh_views():
    """An empty view cache before and after, so that no walk planned under one
    setting of the sweep constants is reused under another."""
    coefficient_view.cache_clear()
    yield
    coefficient_view.cache_clear()


def test_row_sweep_and_both_folds_match_the_oracle_on_random_free_strings(monkeypatch, fresh_views):
    """Every free walk may take the row sweep (_ROW_STEPS = 10**9), the fold of
    four-step leaves (_ROW_STEPS = 0) or the fold of one-step leaves (and
    _LEAF_STEPS = 1): on seeded free strings of 5 to 300 steps, finite and
    half-lines with a free and two (a, b) tails, each path is within 1e-10 of
    the 50-digit reference at every z of the wide range, none refused."""
    zs = np.array([r * cmath.exp(1j * a) for r in np.logspace(-8, 6, 15)
                   for a in (1e-8, 0.3, np.pi / 2, np.pi - 0.3, np.pi - 1e-8)])
    specs = [_short_free(steps, tail, seed=steps) for steps in (5, 19, 20, 64, 300)
             for tail in (None, (0.0, 0.0), (0.5, 2.0), (-0.7, 1.0))]
    refs = [np.array(oracle.free_weyl_m(spec, zs)) for spec in specs]
    for row_steps, leaf_steps in ((10 ** 9, propagation._LEAF_STEPS), (0, propagation._LEAF_STEPS), (0, 1)):
        monkeypatch.setattr(propagation, "_ROW_STEPS", row_steps)
        monkeypatch.setattr(propagation, "_LEAF_STEPS", leaf_steps)
        coefficient_view.cache_clear()
        for spec, ref in zip(specs, refs):
            samples = weyl_m_grid(spec, zs)
            walk = propagation._walk_to(coefficient_view(spec), [samples[0].truncation_x])
            assert (walk.row is not None) == bool(row_steps)
            assert walk.leaf_steps == min(leaf_steps, walk.steps)
            m = np.array([sample.m for sample in samples])
            assert np.all(np.abs(m - ref) <= 1e-10 * np.abs(ref)), (row_steps, leaf_steps, spec)


def test_row_sweep_one_z_calls_give_the_bytes_of_their_grid_rows(monkeypatch):
    """|z| from 1e-8 to 1e50 on a finite string and a half-line of _ROW_STEPS
    steps with upsilon atoms: every row of a grid, whose g come one step at a
    time, has the bytes of a one-z call, whose g come at once.  A grid with
    |z| = 1e50 checks the rows of all its z against _BIG after every step but
    the first, and divides a z's row by its own largest part only where that
    exceeds _BIG, as at |z| = 1e50 on several steps."""
    zs = np.array([r * cmath.exp(1j * t) for r in 10.0 ** np.arange(-8, 51)
                   for t in (1e-6, 0.7, 1.2, np.pi / 2, np.pi - 0.3)])
    zs = np.concatenate([zs, zs.conj()])
    assert zs.size * propagation._ROW_STEPS > propagation._COLUMN >= propagation._ROW_STEPS
    checks = []
    normalize = propagation._normalize

    def counted(rows):
        largest = normalize(rows)
        checks.append(math.isnan(largest))  # nan: a row was divided
        return largest

    monkeypatch.setattr(propagation, "_normalize", counted)
    for tail in (None, (0.5, 2.0)):
        spec = _short_free(propagation._ROW_STEPS, tail, seed=5)
        checks.clear()
        grid = weyl_m_grid(spec, zs)
        assert len(checks) >= propagation._ROW_STEPS - 1
        for z, got in zip(zs, grid):
            assert cmath.isfinite(got.m)
            assert _parts_bits(weyl_m(spec, z).m) == _parts_bits(got.m), (tail, z)
        checks.clear()
        weyl_m(spec, 1e50j)
        assert len(checks) >= propagation._ROW_STEPS - 1 and sum(checks) >= 3


def _discrete_string(n_omega: int, n_upsilon: int, seed: int) -> StringSpec:
    """A finite string on [0, 1] of n_omega positive omega and n_upsilon
    upsilon point masses at distinct positions, one per cell of
    [0.05, 0.95]: n_omega + n_upsilon + 1 steps from 0 to L."""
    rng = np.random.default_rng([seed, n_omega, n_upsilon])
    n = n_omega + n_upsilon
    xs = 0.05 + 0.9 * (np.arange(n) + rng.uniform(0.1, 0.9, n)) / n
    ups = rng.permutation(n) < n_upsilon
    masses = rng.uniform(0.5, 1.5, n)
    masses[~ups] *= 2.0 * n_omega / n / masses[~ups].sum()
    masses[ups] *= 0.5 * n_upsilon / n / masses[ups].sum()
    atoms = lambda sel: tuple(zip(xs[sel].tolist(), masses[sel].tolist()))
    return StringSpec(1.0, MeasureData(atoms=atoms(~ups)), MeasureData(atoms=atoms(ups)))


def test_free_strings_of_33_steps_take_only_row_sweeps(monkeypatch):
    """A 24-omega, 8-upsilon finite string has 33 steps: its grids, its
    Stieltjes inversion (the scan, the section search and the density
    samples) and the canonical Weyl function of its Hamiltonian all run row
    sweeps, never the fold; its grid rows, whose g come one step at a time,
    have the bytes of one-z calls, whose g come at once.  With one point mass
    more, 34 steps, the grid folds."""
    zs = np.concatenate([_WIDE_ZS, standard_grid(), _MANY_ZS[::2]])
    assert zs.size * 33 > propagation._COLUMN
    sweeps = _count_sweeps(monkeypatch)
    for seed in (1, 2):
        spec = _discrete_string(24, 8, seed)
        assert propagation._walk_to(coefficient_view(spec), [1.0]).steps == 33
        sweeps.clear()
        grid = weyl_m_grid(spec, zs)
        mu = stieltjes_inversion(spec, (1.0, 60.0))
        canonical_m_grid(string_to_hamiltonian(spec), standard_grid())
        assert mu.atoms and len(sweeps) > 3
        assert {kind for kind, _ in sweeps} == {"row"}, seed
        for z, got in zip(zs, grid):
            assert cmath.isfinite(got.m)
            assert _parts_bits(weyl_m(spec, z).m) == _parts_bits(got.m), (seed, z)
        longer = _discrete_string(25, 8, seed)
        sweeps.clear()
        weyl_m_grid(longer, zs)
        assert sweeps == [("fold", [1.0])]


def test_checks_keep_their_order_types_and_messages(monkeypatch):
    finite = catalog.mixed_example()
    # A sample position that is not finite, wherever it stands.
    for bad in (math.nan, math.inf, -math.inf):
        for xs in ([bad], [0.5, bad], [bad, 0.5]):
            with pytest.raises(PositionOutOfRange, match="sample positions must be finite"):
                propagation.transfer_matrices(finite, 1j, xs)
            with pytest.raises(PositionOutOfRange, match="sample positions must be finite"):
                propagation.fundamental_system(catalog.uniform_halfline(), 1j, xs)
    with pytest.raises(PositionOutOfRange, match=r"must lie in \[0, 2.0\], got \[-0.5, 1.0\]"):
        propagation.transfer_matrices(finite, 1j, [1.0, -0.5])
    # A real z is refused before a z with a part that is not finite.
    for spec in (catalog.uniform_halfline(), finite):
        for zs in ([2.0, complex(math.nan, 1.0)], [complex(math.nan, 1.0), 2.0]):
            with pytest.raises(NonRealRequired):
                weyl_m_grid(spec, zs)
            with pytest.raises(NonRealRequired):
                m_truncated(finite, zs, 1.0)
        with pytest.raises(ValidationError, match=r"finite z, got \(nan\+1j\)") as caught:
            weyl_m_grid(spec, [1j, complex(math.nan, 1.0), complex(1.0, math.inf)])
        assert caught.type is ValidationError
    # A state that is not finite in the last chunk of a sweep split over
    # three threads names its z.
    monkeypatch.setattr(propagation, "_WORKERS", 3)
    spec = _SWEEP_SPECS["finite-many"]
    grid = np.append(1j + np.linspace(-40.0, 40.0, 60), 1e160j)
    steps = coefficient_view(spec).bp.size - 1
    assert steps >= propagation._BLOCK_STEPS and grid.size * steps >= propagation._SPLIT_WORK
    with pytest.raises(ComputationError, match=r"transfer matrix at z=1e\+160j is not finite"):
        weyl_m_grid(spec, grid)


def test_structural_flags():
    def flags(spec):
        result = classify(spec)
        return result.stieltjes_structural, result.nonneg_spectrum_predicted

    assert flags(catalog.uniform_string()) == (True, True)
    assert flags(catalog.negative_uniform_string()) == (False, False)
    # upsilon mass at the origin forbids Stieltjes but not non-negative spectrum
    assert flags(catalog.upsilon_atom_origin()) == (False, True)


def test_classification_uniform_string():
    result = classify(catalog.uniform_string())
    assert result.herglotz and result.stieltjes
    assert result.stieltjes_structural and result.nonneg_spectrum_predicted
    assert result.stieltjes == result.stieltjes_structural


def test_classification_negative_density():
    result = classify(catalog.negative_uniform_string())
    assert result.herglotz
    assert not result.stieltjes
    assert not result.nonneg_spectrum_predicted
    assert result.stieltjes == result.stieltjes_structural


def test_classification_needs_a_sample():
    for spec in (catalog.uniform_string(), catalog.uniform_halfline()):
        with pytest.raises(ValidationError, match="at least one sample"):
            classify(spec, samples=[])


def test_classification_negative_atom():
    result = classify(catalog.omega_atom_middle(mass=-1.0))
    assert result.herglotz
    assert not result.stieltjes
    assert "min_im_m" in result.margins and "symmetry_defect" in result.margins


def test_nevanlinna_kernel_positive_semidefinite():
    rng = np.random.default_rng(21)
    spec = catalog.mixed_example()
    zs = [complex(rng.uniform(-3, 3), rng.uniform(0.3, 2.5)) for _ in range(3)]
    ms = [weyl_m(spec, z).m for z in zs]
    kern = np.array([[(mi - np.conj(mj)) / (zi - np.conj(zj))
                      for zj, mj in zip(zs, ms)]
                     for zi, mi in zip(zs, ms)])
    assert np.linalg.eigvalsh(kern).min() >= -1e-8 * max(1.0, np.abs(kern).max())


def test_richardson_refuses_a_tail_that_extrapolation_spreads():
    # The raw values have settled, so eliminating an eps^2 term can only move
    # the tail apart: it spreads by 1/99 against a raw spread of 0.
    with pytest.raises(ExtrapolationUnstable):
        _richardson([0.0, 1.0, 1.0], 10.0, (2,))
    assert _richardson([1.01, 1.0001, 1.000001], 10.0, (2,)) == pytest.approx(1.0, abs=1e-14)
    # Two values leave one after the first power, and the second is skipped.
    assert _richardson([1.1, 1.01], 10.0, (1, 2)) == pytest.approx(1.0, abs=1e-14)


def test_richardson_refuses_several_powers_with_unequal_ratios():
    with pytest.raises(ValueError, match="one ratio"):
        _richardson([1.1, 1.01, 1.0001], [10.0, 100.0], (1, 2))
    assert _richardson([1.1, 1.01, 1.001], [10.0, 10.0], (1, 2)) == pytest.approx(1.0, abs=1e-12)
