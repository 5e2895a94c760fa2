"""Tests for Weyl-function evaluation, representation constants, and flags."""

import cmath
import math

import mpmath
import numpy as np
import pytest

import oracle
from indefstring import catalog, propagation, weyl
from indefstring.coefficients import MeasureData, StringSpec, coefficient_view
from indefstring.errors import (
    ComputationError,
    ExtrapolationUnstable,
    NonRealRequired,
    TruncationNotConverged,
    ValidationError,
)
from indefstring.weyl import (
    _richardson,
    _values_agree,
    classify,
    integral_rep_constants,
    m_truncated,
    standard_grid,
    structural_flags,
    weyl_m,
    weyl_m_grid,
    weyl_solution_psi,
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


def test_finite_length_limit_is_attained():
    sample = weyl_m(catalog.mixed_example(), 1.4 + 0.6j)
    assert sample.truncation_x == 2.0
    assert sample.est_error == 0.0


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


def _atomic_halfline(seed: int) -> StringSpec:
    """Twelve positive omega atoms on [0, 2), one per cell, an upsilon atom at 0
    and a free tail."""
    rng = np.random.default_rng(seed)
    xs = (np.arange(12) + rng.uniform(0.1, 0.9, 12)) / 6.0
    masses = rng.uniform(0.2, 1.0, 12)
    return StringSpec(length=np.inf,
                      omega=MeasureData(atoms=tuple(zip(xs.tolist(), masses.tolist()))),
                      upsilon=MeasureData(atoms=((0.0, 0.8),)))


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


def _doubling_schedule(spec: StringSpec) -> list[float]:
    """The positions x_k = xi(2^k 2^-40), k < 140, each kept if it moves on."""
    view = coefficient_view(spec)
    xs = [0.0]
    for k in range(140):
        x = view.xi(2.0 ** (k - 40))
        if x > xs[-1]:
            xs.append(x)
    return xs[1:]


def _truncated_or_nan(spec: StringSpec, zs: np.ndarray, x: float) -> np.ndarray:
    """m_truncated at each z, NaN where it is refused."""
    try:
        return m_truncated(spec, zs, x)
    except ComputationError:
        if zs.size == 1:
            return np.array([complex("nan")])
        return np.concatenate([_truncated_or_nan(spec, zs[k:k + 1], x) for k in range(zs.size)])


def _resweep_from_zero(spec: StringSpec, zs, xs, tol: float = 1e-10):
    """Reference: the truncation limit with a fresh sweep from 0 to every x_k,
    each z stopped by the same rule.  Returns each z's limit and x_k."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    m, stop = np.full(zs.size, complex("nan")), np.full(zs.size, np.nan)
    history = np.empty((zs.size, 0), dtype=complex)
    for x in xs:
        todo = np.isnan(stop)
        if not todo.any():
            break
        column = np.full(zs.size, complex("nan"))
        column[todo] = _truncated_or_nan(spec, zs[todo], x)
        history = np.column_stack([history, column])
        settled = _values_agree(history, tol)[0][:, -1] & todo
        m[settled], stop[settled] = history[settled, -1], x
    if np.isnan(stop).any():
        raise TruncationNotConverged(f"no limit at z={zs[np.isnan(stop)][0]}")
    return m, stop


def test_grid_matches_one_z_calls_bit_for_bit(grid_samples):
    for name, spec in _SWEEP_SPECS.items():
        for z, got in zip(_SWEEP_ZS, grid_samples[name]):
            one = weyl_m(spec, z)
            assert (got.z, got.m, got.truncation_x, got.est_error) == (
                one.z, one.m, one.truncation_x, one.est_error), (name, z)


def _check_against_resweep(spec: StringSpec, zs, samples, name):
    m, x = _resweep_from_zero(spec, zs, _doubling_schedule(spec))
    for k, got in enumerate(samples):
        assert got.truncation_x == x[k], (name, zs[k])
        assert abs(got.m - m[k]) <= 1e-14 * abs(m[k]), (name, zs[k])


def test_one_sweep_matches_resweeping_from_zero(grid_samples):
    for name, spec in _SWEEP_SPECS.items():
        if np.isfinite(spec.length):
            continue
        _check_against_resweep(spec, _SWEEP_ZS, grid_samples[name], name)
    # Both ways give up at the same point.
    z = 1e-4 * cmath.exp(1e-8j)
    spec = catalog.uniform_halfline()
    with pytest.raises(TruncationNotConverged):
        _resweep_from_zero(spec, z, _doubling_schedule(spec))
    with pytest.raises(TruncationNotConverged, match="z=\\(0.0001"):
        weyl_m_grid(catalog.uniform_halfline(), [1j, z, 2j])


# 1000 z: a pass then covers at most four truncation points of all z, and the
# z stop at points spread over many passes.
_MANY_ZS = (np.logspace(-2, 3, 40)[:, None]
            * np.exp(1j * np.linspace(0.1, np.pi - 0.1, 25))[None, :]).ravel()


def test_many_z_match_one_z_calls_and_resweeping():
    for name, spec in _SWEEP_SPECS.items():
        if np.isfinite(spec.length):
            continue
        samples = weyl_m_grid(spec, _MANY_ZS)
        for z, got in zip(_MANY_ZS, samples):
            one = weyl_m(spec, z)
            assert (got.z, got.m, got.truncation_x, got.est_error) == (
                one.z, one.m, one.truncation_x, one.est_error), (name, z)
        _check_against_resweep(spec, _MANY_ZS, samples, name)


def test_truncation_point_on_an_atom():
    """The truncation point 0.5 is the atom itself; the value there is the
    left limit, and the Weyl function is alpha/(1 - z alpha a) = 1/(1 - z/2)."""
    spec = _SWEEP_SPECS["atom"]
    assert 0.5 in coefficient_view(spec).truncation_points
    for z in (1 + 1j, -3 + 0.2j, 0.01 + 0.001j):
        exact = 1.0 / (1.0 - z / 2.0)
        assert abs(weyl_m(spec, z).m - exact) <= 1e-9 * abs(exact), z


def test_tol_must_be_finite_and_positive():
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="tol"):
            weyl_m(catalog.uniform_halfline(), 1 + 1j, tol=tol)
        with pytest.raises(ValidationError, match="tol"):
            weyl_m_grid(catalog.uniform_string(), [1 + 1j], tol=tol)


def test_one_grid_call_runs_one_sweep(monkeypatch):
    sweeps = []
    sweep = propagation._walk_states

    def counted(walk, *args, **kwargs):
        sweeps.append(walk.targets)
        return sweep(walk, *args, **kwargs)

    monkeypatch.setattr(weyl, "_walk_states", counted)
    monkeypatch.setattr(propagation, "_walk_states", counted)
    spec = catalog.uniform_halfline()
    for call in (lambda: weyl_m_grid(spec, standard_grid()),
                 lambda: classify(spec),
                 lambda: integral_rep_constants(catalog.empty_halfline())):
        sweeps.clear()
        call()
        assert len(sweeps) == 1
    # The sweep goes to the breakpoints below the truncation points, not to
    # each of the 140 points: one on a density half-line, at most 13 with 12 atoms.
    sweeps.clear()
    weyl_m_grid(catalog.uniform_halfline(), standard_grid())
    assert len(sweeps) == 1 and len(sweeps[0]) == 1
    sweeps.clear()
    weyl_m_grid(_atomic_halfline(3), standard_grid())
    assert len(sweeps) == 1 and 1 < len(sweeps[0]) <= 13


def test_wide_range_matches_closed_forms_or_raises():
    """|z| from 1e-8 to 1e6 on five rays from arg 1e-8 to pi - 1e-8: each value is
    finite and matches the closed form, or the evaluation raises a typed error."""
    zs = [r * cmath.exp(1j * a) for r in np.logspace(-8, 6, 15)
          for a in np.linspace(1e-8, np.pi - 1e-8, 5)]
    for spec, exact in ((catalog.uniform_halfline(), lambda z: 1j / cmath.sqrt(z)),
                        (catalog.upsilon_lebesgue_halfline(), lambda z: 1j)):
        for z in zs:
            try:
                (sample,) = weyl_m_grid(spec, [z])
            except ComputationError:
                continue
            assert cmath.isfinite(sample.m)
            assert abs(sample.m - exact(z)) <= 1e-10 * abs(exact(z)), z


def test_structural_flags():
    assert structural_flags(catalog.uniform_string()) == (True, True)
    assert structural_flags(catalog.negative_uniform_string()) == (False, False)
    # upsilon mass at the origin forbids Stieltjes but not non-negative spectrum
    assert structural_flags(catalog.upsilon_atom_origin()) == (False, True)


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


def test_weyl_solution_empty_string():
    xs = [0.0, 0.4, 1.0]
    psi = weyl_solution_psi(catalog.empty_string(), 1j, xs)
    for st, x in zip(psi, xs):
        assert st.f == pytest.approx(1.0 - x, abs=1e-13)


def test_weyl_solution_vanishes_at_finite_endpoint():
    psi = weyl_solution_psi(catalog.omega_atom_origin(), 1j, [0.5, 1.0])
    assert psi[0].f == pytest.approx(0.5, abs=1e-13)
    assert abs(psi[1].f) < 1e-12

    psi = weyl_solution_psi(catalog.uniform_string(), -1.0 + 1e-9j, [0.3, 1.0])
    expected = np.sinh(1.0 - 0.3) / np.sinh(1.0)
    assert psi[0].f.real == pytest.approx(expected, abs=1e-6)
    assert abs(psi[1].f) < 1e-6


def test_richardson_refuses_a_tail_that_extrapolation_spreads():
    # The raw values have settled, so eliminating an eps^2 term can only move
    # the tail apart: it spreads by 1/99 against a raw spread of 0.
    with pytest.raises(ExtrapolationUnstable):
        _richardson([0.0, 1.0, 1.0], 10.0, (2,))
    assert _richardson([1.01, 1.0001, 1.000001], 10.0, (2,)) == pytest.approx(1.0, abs=1e-14)
