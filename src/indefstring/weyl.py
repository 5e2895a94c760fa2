"""Weyl functions of strings and their Herglotz-Nevanlinna structure.

The Weyl function of a string is the locally uniform limit

    m(z) = lim_{x -> L} -theta(z, x) / (z * phi(z, x)),   Im z != 0,

which maps the upper half-plane into itself and satisfies m(conj z) = conj m(z).
For finite-length strings in the representable class the travel coordinate is
finite at L, so the limit is attained at the endpoint.  A half-line in the
class has constant densities a (omega) and b (upsilon) past its last
breakpoint x0, so -u'' = kappa u there with kappa = z a + z^2 b; for Im z != 0
kappa is never real and non-negative, and the solution that stays bounded is
e^{is(x - x0)} with s = sqrt(kappa), Im s > 0 (the limit-point case,
Titchmarsh, "Eigenfunction Expansions" I, 1962).  The limit is then explicit
in the state just after the jump at x0, and one sweep to x0, vectorized over
z, serves a whole grid: no truncation, and no truncation error.

The integral representation

    m(z) = c1 z + c2 - 1/(L z) + int (1/(l - z) - l/(1 + l^2)) dmu(l)

has c1 = upsilon({0}) and -lim_{e -> 0} i e m(i e) = 1/L; when the string is a
non-negative one without a second measure (the Stieltjes case) the constant
term lim m(i eta) equals omega({0}).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import StringSpec, coefficient_view
from .errors import (
    ComputationError,
    ExtrapolationUnstable,
    NonRealRequired,
    PositionOutOfRange,
    ValidationError,
)
from . import propagation

# How far below zero classify lets Im m and Im z m fall on its grid and still
# call m Herglotz (Stieltjes).
_SIGN_TOL = 1e-8


@dataclass(frozen=True)
class WeylSample:
    """One Weyl-function evaluation.

    ``truncation_x`` is where the limit is read: L on a finite string, the
    last breakpoint x0 on a half-line, past which the limit is explicit.
    """

    z: complex
    m: complex
    truncation_x: float


@dataclass(frozen=True)
class IntegralRep:
    """Constants of the Herglotz integral representation.

    ``c2`` is only determined in the Stieltjes case and is ``None`` otherwise.
    """

    c1: float
    inv_L: float
    c2: float | None = None


@dataclass(frozen=True)
class Classification:
    """Numerical Herglotz/Stieltjes flags plus structural predictions."""

    herglotz: bool
    stieltjes: bool
    stieltjes_structural: bool
    nonneg_spectrum_predicted: bool
    margins: dict = field(default_factory=dict)


def standard_grid() -> np.ndarray:
    """Upper-half-plane sample grid [-5, 5] x [0.1, 5]i, 7 x 7 points."""
    re = np.linspace(-5.0, 5.0, 7)
    im = np.linspace(0.1, 5.0, 7)
    return (re[:, None] + 1j * im[None, :]).ravel()


def _require_nonreal(z: np.ndarray) -> None:
    """Refuse a z on the real axis, or one with a part that is not finite."""
    z = np.asarray(z)
    if np.any(z.imag == 0.0):
        raise NonRealRequired("Weyl evaluation needs Im z != 0")
    finite = np.isfinite(z)
    if not finite.all():
        raise ValidationError(f"Weyl evaluation needs a finite z, got {complex(z[~finite][0])}")


def _refuse_non_finite(zs: np.ndarray, m: np.ndarray) -> None:
    """Raise :class:`ComputationError`, naming the first z, where m is not finite."""
    bad = np.flatnonzero(~np.isfinite(m))
    if bad.size:
        k = bad[0]
        raise ComputationError(
            f"Weyl function at z={complex(zs.flat[k])} is not finite: {complex(m.flat[k])}"
        )


def m_truncated(spec: StringSpec, z, x: float):
    """Truncated Weyl function -theta(z, x)/(z phi(z, x)); vectorized in z.

    Raises :class:`ValidationError` unless every z is finite and off the real
    axis, and :class:`ComputationError` rather than return a value that is
    not finite.
    """
    zarr = np.asarray(z, dtype=complex)
    _require_nonreal(zarr)
    if not x > 0.0:
        raise PositionOutOfRange(f"truncation point must be positive, got {x}")
    state = propagation._sweep_closed(coefficient_view(spec), zarr.ravel(), [x], rescale=True)[float(x)]
    with np.errstate(invalid="ignore"):
        m = (-state[0, 0] / (zarr.ravel() * state[0, 1])).reshape(zarr.shape)
    _refuse_non_finite(zarr, m)
    return complex(m) if zarr.shape == () else m


def weyl_m_grid(spec: StringSpec, zs) -> list[WeylSample]:
    """Weyl function at every z of ``zs``.

    A finite string attains the limit at L.  On a half-line the densities a
    (omega) and b (upsilon) are constant past the last breakpoint x0, so the
    Weyl solution there is e^{is(x - x0)} with s = sqrt(z a + z^2 b), Im s > 0
    (the limit-point case): with theta, phi and their slopes just after the
    jump at x0, m = (i s theta - theta')/(z (phi' - i s phi)).  A free tail
    has s = 0 and m = -theta'/(z phi').  One rescaled sweep to x0 serves
    every z.  Raises :class:`ValidationError` unless every z is finite and
    off the real axis, and :class:`ComputationError` rather than return a
    value that is not finite, naming the first such z.
    """
    zs = np.ravel(np.asarray(zs, dtype=complex))
    _require_nonreal(zs)
    if math.isfinite(spec.length):
        x, m = spec.length, m_truncated(spec, zs, spec.length)
    else:
        view = coefficient_view(spec)
        x = float(view.bp[-1])
        mats = propagation._sweep_closed(view, zs, [x], rescale=True)[x]
        theta, phi = mats[0, 0], mats[0, 1]
        with np.errstate(over="ignore", invalid="ignore"):
            zz = zs * zs
            # The slopes after the point masses at x0: u'(x0+) = u'(x0-) - g u(x0).
            g = zs * view.atom_omega[-1] + zz * view.atom_upsilon[-1]
            dtheta, dphi = mats[1, 0] - g * theta, mats[1, 1] - g * phi
            s = np.sqrt(zs * view.dens_omega[-1] + zz * view.dens_upsilon[-1])
            s = np.where(s.imag < 0.0, -s, s)
            m = (1j * s * theta - dtheta) / (zs * (dphi - 1j * s * phi))
        _refuse_non_finite(zs, m)
    return [WeylSample(z=z, m=v, truncation_x=x) for z, v in zip(zs.tolist(), m.tolist())]


def weyl_m(spec: StringSpec, z: complex) -> WeylSample:
    """Weyl function at one z: ``weyl_m_grid(spec, [z])[0]``."""
    return weyl_m_grid(spec, [complex(z)])[0]


def _richardson(values, ratios, powers) -> float:
    """Eliminate the given error powers from a refined sequence.

    ``values`` are ordered from coarsest to finest parameter; ``ratios`` gives
    each step's parameter ratio (coarser over finer), one per consecutive
    pair, or one number for a geometric sequence.  Eliminating more than one
    power needs a geometric sequence.  Raises if the extrapolated tail spreads
    more than the raw tail, which signals a wrong error model.
    """
    seq = [float(v) for v in values]
    steps = [float(r) for r in np.broadcast_to(ratios, (max(len(seq) - 1, 0),))]
    if len(powers) > 1 and len(set(steps)) > 1:
        raise ValueError("eliminating several powers needs one ratio for every step")
    raw_spread = abs(seq[-1] - seq[-2])
    for p in powers:
        if len(seq) < 2:
            break
        seq = [(r ** p * seq[k + 1] - seq[k]) / (r ** p - 1.0)
               for k, r in enumerate(steps[:len(seq) - 1])]
    if len(seq) >= 2:
        extrap_spread = abs(seq[-1] - seq[-2])
        if extrap_spread > 10.0 * raw_spread + 1e-12 * max(1.0, abs(seq[-1])):
            raise ExtrapolationUnstable(
                f"extrapolation tail spread {extrap_spread:g} exceeds raw spread {raw_spread:g}"
            )
    return seq[-1]


def _structural_flags(spec: StringSpec) -> tuple[bool, bool]:
    """(stieltjes, nonneg_spectrum) predicates read off the coefficients.

    Stieltjes needs upsilon identically zero and omega a non-negative measure.
    A non-negative spectrum needs upsilon to vanish on the open interval
    (0, L) and w non-decreasing there; point masses at 0 are unconstrained
    because they only shift boundary data.
    """
    omega_nonneg = all(m >= 0.0 for _, m in spec.omega.atoms) and all(
        v >= 0.0 for _, _, v in spec.omega.density
    )
    stieltjes = spec.upsilon.is_zero() and omega_nonneg
    upsilon_interior_zero = not spec.upsilon.density and all(
        x == 0.0 for x, _ in spec.upsilon.atoms
    )
    w_nondecreasing = all(m >= 0.0 for x, m in spec.omega.atoms if x > 0.0) and all(
        v >= 0.0 for _, _, v in spec.omega.density
    )
    return stieltjes, upsilon_interior_zero and w_nondecreasing


def classify(spec: StringSpec, samples=None) -> Classification:
    """Herglotz/Stieltjes checks on a grid plus structural spectrum prediction.

    The numerical Stieltjes flag (Im m >= 0 and Im z m >= 0 on the grid) and
    the structural one must agree on valid inputs; both are reported.
    """
    zs = standard_grid() if samples is None else np.ravel(np.asarray(samples, dtype=complex))
    if zs.size == 0:
        raise ValidationError("classify needs at least one sample point")
    both = np.array([s.m for s in weyl_m_grid(spec, np.concatenate([zs, zs.conj()]))])
    ms, ms_conj = both[:zs.size], both[zs.size:]
    scale = max(1.0, float(np.max(np.abs(ms))))
    min_im_m = float(np.min(ms.imag * np.sign(zs.imag)))
    symmetry_defect = float(np.max(np.abs(ms_conj - np.conj(ms))))
    min_im_zm = float(np.min((zs * ms).imag * np.sign(zs.imag)))
    herglotz = min_im_m >= -_SIGN_TOL and symmetry_defect <= 1e-10 * scale
    stieltjes_num = herglotz and min_im_zm >= -_SIGN_TOL
    stieltjes_struct, nonneg = _structural_flags(spec)
    return Classification(
        herglotz=herglotz,
        stieltjes=stieltjes_num,
        stieltjes_structural=stieltjes_struct,
        nonneg_spectrum_predicted=nonneg,
        margins={
            "min_im_m": min_im_m,
            "symmetry_defect": symmetry_defect,
            "min_im_zm": min_im_zm,
            "scale": scale,
        },
    )


def integral_rep_constants(spec: StringSpec) -> IntegralRep:
    """Estimate c1 = upsilon({0}), 1/L, and (Stieltjes only) c2 = omega({0}).

    c1 comes from Im m(i eta)/eta over eta = 1e2..1e6 with even-power
    elimination; 1/L from Re(-i e m(i e)) over e = 1e-2..1e-6.  c2 is only
    extrapolated when the structural Stieltjes predicate holds; otherwise the
    constant term is undetermined and reported as None.
    """
    etas = [10.0 ** k for k in range(2, 7)]
    eps = [10.0 ** (-k) for k in range(2, 7)]
    ms = [s.m for s in weyl_m_grid(spec, [1j * t for t in etas + eps])]
    m_eta, m_eps = ms[:len(etas)], ms[len(etas):]
    c1 = _richardson([m.imag / eta for m, eta in zip(m_eta, etas)], 10.0, (2, 4))
    inv_l = _richardson([(-1j * e * m).real for m, e in zip(m_eps, eps)], 10.0, (1, 2))
    stieltjes_struct, _ = _structural_flags(spec)
    c2 = None
    if stieltjes_struct:
        c2 = _richardson([m.real for m in m_eta], 10.0, (1, 2))
    return IntegralRep(c1=c1, inv_L=inv_l, c2=c2)
