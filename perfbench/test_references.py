"""Fast checks of the benchmark's references against closed forms and mpmath.

They use nothing from ``indefstring`` and take no timings.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

import inputs
import refs


def _mp_weyl(doc, z, dps=40):
    """m(z) of a finite string by an mpmath product of the same transfer matrices."""
    points, aw, au, dw, du = refs._layout(doc)
    with mpmath.workdps(dps):
        z = mpmath.mpc(z.real, z.imag)
        mat = mpmath.eye(2)
        for k in range(len(points)):
            g = z * aw[k] + z * z * au[k]
            mat = mpmath.matrix([[1, 0], [-g, 1]]) * mat
            if k + 1 == len(points):
                break
            h = mpmath.mpf(points[k + 1]) - mpmath.mpf(points[k])
            s = mpmath.sqrt(z * dw[k] + z * z * du[k])
            if s == 0:
                step = mpmath.matrix([[1, h], [0, 1]])
            else:
                step = mpmath.matrix([[mpmath.cos(s * h), mpmath.sin(s * h) / s],
                                      [-s * mpmath.sin(s * h), mpmath.cos(s * h)]])
            mat = step * mat
        return complex(-mat[0, 0] / (z * mat[0, 1]))


def test_omega_atom_middle_matches_readme_value():
    doc = {"L": 1.0, "omega": {"atoms": [{"x": 0.5, "mass": 1.0}]}}
    m = refs.weyl_m(doc, [1j])[0]
    assert abs(m - (4.0 / 17.0 + 18.0j / 17.0)) < 1e-15
    assert f"{m.real:.5f}" == "0.23529" and f"{m.imag:.5f}" == "1.05882"


@pytest.mark.parametrize("z", [1j, 3.0 + 0.5j, -20.0 + 2.0j, 7.0 - 1.0j])
def test_transfer_product_matches_mpmath(z):
    rng = np.random.default_rng(3)
    doc = inputs.density_finite(rng, 12)
    doc["upsilon"]["atoms"] = [{"x": 0.37, "mass": 0.4}]
    got = refs.weyl_m(doc, [z])[0]
    assert abs(got - _mp_weyl(doc, z)) <= 1e-14 * abs(got)


def test_uniform_string_density_path_matches_cotangent():
    zs = np.array([2.0 + 1.0j, -30.0 + 0.1j, 100.0 + 5.0j])
    got = refs.weyl_m(inputs.UNIFORM_STRING, zs)
    want = refs.uniform_string_m(zs)
    assert refs.rel_err(got, want) < 1e-14
    root = mpmath.sqrt(mpmath.mpc(2.0, 1.0))
    assert abs(want[0] - complex(-mpmath.cot(root) / root)) < 1e-15


def test_halfline_with_free_tail_is_ratio_of_slopes():
    # One omega atom at 0 on an otherwise empty half-line: theta' = -z a, phi' = 1.
    doc = {"L": "inf", "omega": {"atoms": [{"x": 0.0, "mass": 2.0}]}}
    zs = np.array([1j, 2.0 + 3.0j])
    assert refs.rel_err(refs.weyl_m(doc, zs), np.full(2, 2.0 + 0j)) < 1e-15
    with pytest.raises(ValueError):
        refs.weyl_m(inputs.UNIFORM_HALFLINE, zs)


def test_closed_forms_are_herglotz_and_symmetric():
    zs = inputs.standard_grid()
    for fn in (refs.uniform_halfline_m, refs.upsilon_halfline_m):
        m = fn(zs)
        assert np.all(m.imag > 0)
        assert np.allclose(fn(zs.conj()), m.conj(), rtol=1e-15, atol=0)
    assert refs.rel_err(refs.uniform_halfline_m([1j]), [complex(mpmath.j / mpmath.sqrt(mpmath.j))]) < 1e-15


def test_pencil_single_atoms_closed_form():
    # omega atom a at x, L = 1: l = 1/(a x (1 - x)), mass = (1 - x)/x.
    lams, masses = refs.pencil({"L": 1.0, "omega": {"atoms": [{"x": 0.5, "mass": 1.0}]}})
    assert np.allclose(lams, [4.0], rtol=1e-15) and np.allclose(masses, [1.0], rtol=1e-15)
    # upsilon atom b at x: l = +-sqrt(1/(b x (1 - x))), each mass (1 - x)/(2 x).
    lams, masses = refs.pencil({"L": 1.0, "upsilon": {"atoms": [{"x": 0.25, "mass": 2.0}]}})
    root = math.sqrt(1.0 / (2.0 * 0.25 * 0.75))
    assert np.allclose(lams, [-root, root], rtol=1e-15)
    assert np.allclose(masses, [1.5, 1.5], rtol=1e-14)


def test_pencil_matches_mpmath_on_a_mixed_string():
    doc = inputs.discrete_string(np.random.default_rng(5), 6, 2)
    alpha, beta, h = ([mpmath.mpf(float(v)) for v in arr] for arr in refs._nodes(doc))
    lams, masses = refs.pencil(doc)
    assert len(lams) == 2 * 2 + 6
    for lam, mass in zip(lams, masses):
        with mpmath.workdps(40):
            lam_mp = mpmath.mpf(lam)
            for _ in range(3):
                u, slope, du, dslope, norming = 0, 1, 0, 0, 0
                for k in range(len(alpha)):
                    norming += h[k] * slope ** 2
                    u, du = u + h[k] * slope, du + h[k] * dslope
                    g = lam_mp * alpha[k] + lam_mp ** 2 * beta[k]
                    slope, dslope = slope - g * u, dslope - g * du - (alpha[k] + 2 * lam_mp * beta[k]) * u
                    norming += beta[k] * (lam_mp * u) ** 2
                norming += h[-1] * slope ** 2
                end, dend = u + h[-1] * slope, du + h[-1] * dslope
                lam_mp -= end / dend
            assert abs(lam - lam_mp) <= 1e-15 * abs(lam_mp)
            assert abs(mass - 1 / norming) <= 1e-13 * np.sum(masses)


def test_sigma_length_of_uniform_string():
    assert abs(refs.sigma_length(inputs.UNIFORM_STRING) - 4.0 / 3.0) < 1e-15
    doc = {"L": 2.0, "omega": {"atoms": [{"x": 0.5, "mass": 1.0}]}, "upsilon": {"atoms": [{"x": 1.0, "mass": 0.25}]}}
    assert abs(refs.sigma_length(doc) - (2.0 + 1.5 + 0.25)) < 1e-15


def test_rel_err_rejects_non_finite_values():
    assert refs.rel_err([complex("nan")], [1.0]) == math.inf
    assert refs.rel_err([1.0 + 1e-9], [1.0]) == pytest.approx(1e-9, rel=1e-6)


def test_inputs_depend_only_on_the_seed():
    for workload in ("halfline-weyl", "inverse-spectral", "cli-files"):
        a, b = inputs.make_inputs(workload, 7), inputs.make_inputs(workload, 7)
        assert repr(a) == repr(b)
        assert repr(a) != repr(inputs.make_inputs(workload, 8))
    hf = inputs.high_frequency_points()
    assert hf.shape == (36,) and np.all(hf.imag > 0)
