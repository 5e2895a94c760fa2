"""Tests for Weyl-function evaluation, representation constants, and flags."""

import cmath
import math

import mpmath
import numpy as np
import pytest

import oracle
from indefstring import catalog, propagation
from indefstring.coefficients import MeasureData, StringSpec, coefficient_view
from indefstring.errors import (
    ComputationError,
    ExtrapolationUnstable,
    NonRealRequired,
    ValidationError,
)
from indefstring.spectral import stieltjes_inversion
from indefstring.weyl import (
    _richardson,
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
}
_rows = standard_grid().reshape(7, 7)[[1, 4]].ravel()
_SWEEP_ZS = np.concatenate([_rows, _rows.conj(), 1j * 10.0 ** np.arange(-6, 7, 2)])


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


def test_one_grid_call_runs_one_sweep(monkeypatch):
    sweeps = []
    sweep = propagation._walk_states

    def counted(walk, *args, **kwargs):
        sweeps.append(walk.points[walk.targets])
        return sweep(walk, *args, **kwargs)

    monkeypatch.setattr(propagation, "_walk_states", counted)
    spec = catalog.uniform_halfline()
    for call in (lambda: weyl_m_grid(spec, standard_grid()),
                 lambda: classify(spec),
                 lambda: integral_rep_constants(catalog.empty_halfline())):
        sweeps.clear()
        call()
        assert len(sweeps) == 1
    # The sweep on a half-line has one target: its last breakpoint.
    atomic = _atomic_halfline(3)
    for spec, x0 in ((catalog.uniform_halfline(), 0.0), (atomic, atomic.omega.atoms[-1][0]),
                     (_tailed_halfline(0.5, 2.0), 1.5)):
        sweeps.clear()
        weyl_m_grid(spec, standard_grid())
        assert len(sweeps) == 1 and sweeps[0].tolist() == [x0]


@pytest.fixture
def walks(monkeypatch):
    """The string of every sweep plan (_Walk) built, from an empty view cache on."""
    built = []

    class Counted(propagation._Walk):
        def __init__(self, view, xs):
            built.append(view.spec)
            super().__init__(view, xs)

    monkeypatch.setattr(propagation, "_Walk", Counted)
    coefficient_view.cache_clear()
    yield built
    coefficient_view.cache_clear()


def test_each_string_plans_its_sweep_once(walks):
    halfline, finite = catalog.uniform_halfline(), catalog.mixed_example()
    weyl_m_grid(halfline, standard_grid())
    m_truncated(finite, standard_grid(), finite.length)
    assert walks == [halfline, finite]
    walks.clear()
    weyl_m_grid(halfline, standard_grid() + 1.0)
    weyl_m(halfline, 2j)
    m_truncated(finite, 1j, finite.length)
    weyl_m_grid(finite, [3j])
    assert walks == []
    # Each inversion evaluates m on a few dozen grids of its string.
    for spec, window in ((catalog.uniform_string(), (5.0, 45.0)),
                         (catalog.upsilon_lebesgue_halfline(), (0.5, 3.0))):
        stieltjes_inversion(spec, window)
        assert walks == [spec]
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
