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

m needs one row of the transfer matrix M only: m = v0/(-z v1) with
(v0, v1) = (1, 0) M(L) on a finite string, and (v0, v1) = (is + g, -1) M(x0),
g the point masses at x0, on a half-line.  That row comes from
:func:`propagation._row`, which sweeps it back from its end or takes it from
the folded matrix.

The integral representation

    m(z) = c1 z + c2 - 1/(L z) + int (1/(l - z) - l/(1 + l^2)) dmu(l)

has c1 = upsilon({0}) and -lim_{e -> 0} i e m(i e) = 1/L; when the string is a
non-negative one without a second measure (the Stieltjes case) the constant
term lim m(i eta) equals omega({0}).  So all three are read off the string.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import StringSpec, coefficient_view
from .errors import (
    ComputationError,
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
    """Refuse a z on the real axis, or one with a part that is not finite.

    Each test is one reduction; the z to name is looked for only where it fails.
    """
    if not z.imag.all():
        raise NonRealRequired("Weyl evaluation needs Im z != 0")
    if not np.isfinite(z).all():
        raise ValidationError(f"Weyl evaluation needs a finite z, got {complex(z[~np.isfinite(z)][0])}")


def _refuse_non_finite(zs: np.ndarray, m: np.ndarray) -> None:
    """Raise :class:`ComputationError`, naming the first z, where m is not finite."""
    if not np.isfinite(m).all():
        k = np.flatnonzero(~np.isfinite(m))[0]
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
    m = _m_row(coefficient_view(spec), x, zarr.ravel(), tail=False).reshape(zarr.shape)
    return complex(m) if zarr.shape == () else m


def _m_row(view, x: float, zs: np.ndarray, tail: bool) -> np.ndarray:
    """m = v0/(-z v1) at every z of the 1-D complex array ``zs``, for the row
    (v0, v1) = (1, 0) M(x), or with ``tail`` (x the last breakpoint x0 of a
    half-line) (v0, v1) = (is + g, -1) M(x0), from
    :func:`propagation._row`.

    On a half-line every term of (is + g) is computed even where its
    coefficient is 0, so the z whose z^2 overflows (z = 1e160i) is refused.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w0, w1 = 1.0, 0.0
        if tail:
            zz = zs * zs
            s = np.sqrt(zs * view.dens_omega[-1] + zz * view.dens_upsilon[-1])
            np.negative(s, out=s, where=s.imag < 0.0)
            w0, w1 = 1j * s + (zs * view.atom_omega[-1] + zz * view.atom_upsilon[-1]), -1.0
        v0, v1 = propagation._row(view, x, zs, w0, w1)
        m = v0 / (-zs * v1)
    _refuse_non_finite(zs, m)
    return m


def weyl_m_grid(spec: StringSpec, zs) -> list[WeylSample]:
    """Weyl function at every z of ``zs``.

    A finite string attains the limit at L.  On a half-line the densities a
    (omega) and b (upsilon) are constant past the last breakpoint x0, so the
    Weyl solution there is e^{is(x - x0)} with s = sqrt(z a + z^2 b), Im s > 0
    (the limit-point case): with theta, phi and their slopes just before the
    point masses g at x0, m = v0/(-z v1) for the row
    (v0, v1) = ((is + g) theta - theta', (is + g) phi - phi').  A free tail
    has s = 0.  One sweep to x0 serves every z.  Raises
    :class:`ValidationError` unless every z is finite and off the real axis,
    and :class:`ComputationError` rather than return a value that is not
    finite, naming the first such z.

    The values come from :func:`_m_values`, which checks the z once per
    call.  Each check on the way (the z, the swept states, the values of m)
    is one reduction, and the z to name is looked for only where one fails.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    x, m = _m_values(spec, zs)
    return [WeylSample(z=z, m=v, truncation_x=x) for z, v in zip(zs.tolist(), m.tolist())]


def _m_values(spec: StringSpec, zs: np.ndarray) -> tuple[float, np.ndarray]:
    """Where the limit is read, and m at every z of the 1-D complex array
    ``zs``: the values of :func:`weyl_m_grid`, for callers that read only m.

    The z are checked here; the sweep's checks find an offender only where
    they fail (:mod:`indefstring.propagation`).
    """
    _require_nonreal(zs)
    view = coefficient_view(spec)
    finite = math.isfinite(spec.length)
    x = spec.length if finite else float(view.bp[-1])
    return x, _m_row(view, x, zs, tail=not finite)


def weyl_m(spec: StringSpec, z: complex) -> WeylSample:
    """Weyl function at one z: ``weyl_m_grid(spec, [z])[0]``."""
    return weyl_m_grid(spec, [complex(z)])[0]


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
    both = _m_values(spec, np.concatenate([zs, zs.conj()]))[1]
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
    """c1 = upsilon({0}), 1/L (0 on a half-line) and, where the structural
    Stieltjes predicate holds, c2 = omega({0}), read off the string; c2 is
    undetermined otherwise and reported as None."""
    view = coefficient_view(spec)
    stieltjes, _ = _structural_flags(spec)
    return IntegralRep(c1=float(view.atom_upsilon[0]), inv_L=1.0 / spec.length,
                       c2=float(view.atom_omega[0]) if stieltjes else None)
