"""Propagation of the string equation -u'' = z w' u + z^2 Upsilon' u + chi.

Between consecutive coefficient breakpoints both densities are constant, so
the second-order equation has the constant coefficient kappa = z*a + z^2*b
and its transfer matrix in (u, u') variables is the exact trig/hyperbolic
form; point masses contribute unimodular jump matrices.  One sweep over the
breakpoints, vectorized over z, is therefore exact (up to rounding) on the
whole representable coefficient class.  A load chi enters the same piece
transfers by variation of parameters.

Every coefficient breakpoint is a step boundary, and states are reported with
left-continuous conventions: the value at x never includes a point mass
sitting exactly at x.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import (
    CoefficientView,
    StringSpec,
    _as_measure,
    _normalize_measure,
    coefficient_view,
)
from .errors import PositionOutOfRange


@dataclass(frozen=True)
class SystemState:
    """Solution sample: value, first-order-system component, quasi-derivative.

    ``f2 = u' + n_z(x) u (+ q(x))`` stays absolutely continuous across point
    masses; ``quasi = u' + z w(x) u`` is the quasi-derivative, equal to
    ``f2 - z^2 Upsilon(x) f`` for homogeneous solutions.
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


def _trig_entries(kappa: np.ndarray, h: float):
    """cos/sinc/versine entries of the constant-coefficient transfer matrix.

    Returns (C, S, C2) with C = cos(s h), S = sin(s h)/s, C2 = (1-cos(s h))/s^2
    for s = sqrt(kappa); series branches keep the kappa -> 0 limit exact.
    """
    kappa = np.asarray(kappa, dtype=complex)
    y = kappa * (h * h)
    small = np.abs(y) < 1e-12
    if small.all():
        return _series_entries(y, h)
    if not small.any():
        return _closed_entries(kappa, h)
    C = np.empty_like(y)
    S = np.empty_like(y)
    C2 = np.empty_like(y)
    C[small], S[small], C2[small] = _series_entries(y[small], h)
    big = ~small
    C[big], S[big], C2[big] = _closed_entries(kappa[big], h)
    return C, S, C2


def _series_entries(y: np.ndarray, h: float):
    return (1.0 - y / 2.0 + y * y / 24.0,
            h * (1.0 - y / 6.0 + y * y / 120.0),
            h * h * (0.5 - y / 24.0 + y * y / 720.0))


def _closed_entries(kappa: np.ndarray, h: float):
    s = np.sqrt(kappa)
    sh = s * h
    half = np.sin(sh / 2.0)
    return np.cos(sh), np.sin(sh) / s, 2.0 * half * half / kappa


class _Sweep:
    """Event walk: breakpoints and sample points in increasing order."""

    def __init__(self, view: CoefficientView, xs: np.ndarray, chi: CoefficientView | None):
        self.view = view
        self.chi = chi
        if xs.size == 0:
            raise PositionOutOfRange("need at least one sample position")
        if not np.all(np.isfinite(xs)):
            raise PositionOutOfRange("sample positions must be finite")
        if xs[0] < 0.0 or xs[-1] > view.length:
            raise PositionOutOfRange(
                f"sample positions must lie in [0, {view.length}], got [{xs[0]}, {xs[-1]}]"
            )
        x_max = float(xs[-1])
        points = set(float(x) for x in xs)
        points.update(float(p) for p in view.bp if p <= x_max)
        self.atoms: dict[float, tuple[float, float, float]] = {}
        for p, aw, au in zip(view.bp, view.atom_omega, view.atom_upsilon):
            if p <= x_max and (aw != 0.0 or au != 0.0):
                self.atoms[float(p)] = (float(aw), float(au), 0.0)
        if chi is not None:
            points.update(float(p) for p in chi.bp if p <= x_max)
            for p, mass in zip(chi.bp, chi.atom_omega):
                if p <= x_max and mass != 0.0:
                    aw, au, _ = self.atoms.get(float(p), (0.0, 0.0, 0.0))
                    self.atoms[float(p)] = (aw, au, float(mass))
        self.points = sorted(points)
        self.targets = {float(x) for x in xs}

    def densities(self, lo: float, hi: float) -> tuple[float, float, float]:
        mid = lo + (hi - lo) / 2.0
        j = self.view.locate(mid)
        c = float(self.chi.dens_omega[self.chi.locate(mid)]) if self.chi is not None else 0.0
        return float(self.view.dens_omega[j]), float(self.view.dens_upsilon[j]), c


def _sweep_steps(view, z, xs, chi: CoefficientView | None = None, rescale: bool = False):
    """Closed-form transfer in (u, u') variables; vectorized over z.

    Yields ``(x, (a, b, c, d, r1, r2))`` at each sample position in increasing
    order, so a caller may stop early; the affine data are such that a
    solution with u(0)=d1, u'(0-)=d2 has u(x) = a d1 + b d2 + r1,
    u'(x-) = c d1 + d d2 + r2.  With ``rescale`` the matrix is renormalized
    whenever entries grow huge; that spoils det = 1 but keeps entry ratios
    (hence Weyl quotients) stable.
    """
    z = np.asarray(z, dtype=complex)
    walk = _Sweep(view, xs, chi)
    one = np.ones(z.shape, dtype=complex)
    zero = np.zeros(z.shape, dtype=complex)
    a, b, c, d = one, zero, zero, one
    r1, r2 = zero, zero
    cur = 0.0
    points = iter(walk.points)
    while True:
        # The error state is set per run between two samples, never across a
        # yield, so it does not leak into the caller while the sweep waits.
        record = None
        with np.errstate(over="ignore", invalid="ignore"):
            for p in points:
                if p > cur:
                    da, db, dc = walk.densities(cur, p)
                    h = p - cur
                    kappa = z * da + z * z * db
                    C, S, C2 = _trig_entries(kappa, h)
                    mS = -kappa * S
                    a, c = C * a + S * c, mS * a + C * c
                    b, d = C * b + S * d, mS * b + C * d
                    if chi is not None:
                        r1, r2 = C * r1 + S * r2 - dc * C2, mS * r1 + C * r2 - dc * S
                    if rescale:
                        big = np.maximum(np.maximum(np.abs(a), np.abs(b)),
                                         np.maximum(np.abs(c), np.abs(d)))
                        factor = np.where(big > 1e120, big, 1.0)
                        a, b, c, d = a / factor, b / factor, c / factor, d / factor
                    cur = p
                if p in walk.targets:
                    # The arrays are rebound, never updated in place, so the
                    # record keeps the state before the atom at p.
                    record = (a, b, c, d, r1, r2)
                atom = walk.atoms.get(p)
                if atom is not None:
                    aw, au, ac = atom
                    g = z * aw + z * z * au
                    c = c - g * a
                    d = d - g * b
                    if chi is not None:
                        r2 = r2 - g * r1 - ac
                if record is not None:
                    break
        if record is None:
            return
        yield p, record


def _sweep_closed(view, z, xs, chi: CoefficientView | None = None, rescale: bool = False):
    """All records of :func:`_sweep_steps`, keyed by sample position."""
    return dict(_sweep_steps(view, z, xs, chi, rescale))


def transfer_matrices(spec: StringSpec, z, xs, *, rescale: bool = False) -> np.ndarray:
    """Fundamental matrices M(x) in (u, u') variables at the given positions.

    Columns are the theta and phi solutions; result shape is
    ``(len(xs),) + shape(z) + (2, 2)`` and ``det M = 1`` along the sweep
    (unless ``rescale`` trades the determinant for overflow safety).
    """
    view = coefficient_view(spec)
    arr = np.atleast_1d(np.asarray(xs, dtype=float))
    zarr = np.asarray(z, dtype=complex)
    zflat = np.atleast_1d(zarr).ravel()
    records = _sweep_closed(view, zflat, np.unique(arr), rescale=rescale)
    out = np.empty((len(arr), zflat.size, 2, 2), dtype=complex)
    for k, x in enumerate(arr):
        a, b, c, d, _, _ = records[float(x)]
        out[k, :, 0, 0] = a
        out[k, :, 0, 1] = b
        out[k, :, 1, 0] = c
        out[k, :, 1, 1] = d
    return out.reshape((len(arr),) + zarr.shape + (2, 2))


def fundamental_system(spec: StringSpec, z: complex, xs) -> FundamentalSystem:
    """Evaluate the fundamental pair theta, phi at the sample positions."""
    view = coefficient_view(spec)
    arr = np.atleast_1d(np.asarray(xs, dtype=float))
    records = _sweep_closed(view, np.array([complex(z)]), np.unique(arr))
    theta = []
    phi = []
    for x in arr:
        xf = float(x)
        a, b, c, d, _, _ = records[xf]
        w_x = view.w(xf)
        ups_x = view.upsilon(xf)
        n_x = z * w_x + z * z * ups_x
        theta.append(SystemState(x=xf, f=complex(a[0]), f2=complex(c[0] + n_x * a[0]),
                                 quasi=complex(c[0] + z * w_x * a[0])))
        phi.append(SystemState(x=xf, f=complex(b[0]), f2=complex(d[0] + n_x * b[0]),
                               quasi=complex(d[0] + z * w_x * b[0])))
    a, b, c, d, _, _ = records[float(arr[-1])]
    wronskian = complex(a[0] * d[0] - b[0] * c[0])
    return FundamentalSystem(z=complex(z), xs=tuple(float(x) for x in arr),
                             theta=tuple(theta), phi=tuple(phi), wronskian=wronskian)


def solve_inhomogeneous(spec: StringSpec, z: complex, chi, d1: complex, d2: complex,
                        xs) -> tuple[SystemState, ...]:
    """Solve -f'' = z omega f + z^2 upsilon f + chi with f(0)=d1, f'(0-)=d2.

    ``chi`` is measure data in the same atoms+density format as the string
    coefficients; the solve is closed-form on the whole class (variation of
    parameters built into the piece transfers).
    """
    view = coefficient_view(spec)
    arr = np.atleast_1d(np.asarray(xs, dtype=float))
    chi_data = _normalize_measure(_as_measure(chi), view.length, nonneg=False, label="chi")
    # chi is read as the omega of a string on the same interval: w(x) = chi([0, x)).
    chi_view = CoefficientView(StringSpec(length=view.length, omega=chi_data))
    records = _sweep_closed(view, np.array([complex(z)]), np.unique(arr), chi=chi_view)
    out = []
    for x in arr:
        xf = float(x)
        a, b, c, d, r1, r2 = records[xf]
        u = complex(a[0] * d1 + b[0] * d2 + r1[0])
        up = complex(c[0] * d1 + d[0] * d2 + r2[0])
        w_x = view.w(xf)
        n_x = z * w_x + z * z * view.upsilon(xf)
        q_x = chi_view.w(xf)
        out.append(SystemState(x=xf, f=u, f2=up + n_x * u + q_x, quasi=up + z * w_x * u))
    return tuple(out)
