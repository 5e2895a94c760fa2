"""High-precision reference propagator for the string equation.

Solves -u'' = z omega u + z^2 upsilon u + chi with 50-digit mpmath arithmetic,
reading the atoms and density pieces straight from the ``MeasureData`` of a
``StringSpec`` (and of the load chi).  On each piece where the densities are
constant, omega = a dx, upsilon = b dx and chi = c dx, the state
(u, u'(x-), 1) is multiplied by

    [[cos(s h),      sin(s h)/s, -c (1 - cos(s h))/kappa],
     [-s sin(s h),   cos(s h),   -c sin(s h)/s          ],
     [0,             0,          1                      ]],   kappa = z a + z^2 b, s = sqrt(kappa),

and at a point mass (alpha, mu, gamma) of (omega, upsilon, chi) by

    [[1, 0, 0], [-(z alpha + z^2 mu), 1, -gamma], [0, 0, 1]].

The walk is built here from the measure data alone: it uses neither the
package's coefficient view nor its propagation sweep, so the tests that
compare against it check both.  Values at x are left-continuous: a point
mass at x is applied after x is recorded.
"""
from __future__ import annotations

import math

import mpmath

from indefstring.coefficients import MeasureData

DPS = 50


def _points(measure: MeasureData) -> set[float]:
    pts = {x for x, _ in measure.atoms}
    for a, b, _ in measure.density:
        pts.add(a)
        if math.isfinite(b):
            pts.add(b)
    return pts


def _atom(measure: MeasureData, x: float):
    return mpmath.fsum(mpmath.mpf(m) for p, m in measure.atoms if p == x)


def _density(measure: MeasureData, x: float):
    """Density of the piece [a, b) that contains x, zero off the pieces."""
    return mpmath.fsum(mpmath.mpf(v) for a, b, v in measure.density if a <= x < b)


def _piece(kappa, c, h):
    if kappa == 0:
        C, S, C2 = mpmath.mpf(1), h, h * h / 2
    else:
        s = mpmath.sqrt(kappa)
        C = mpmath.cos(s * h)
        S = mpmath.sin(s * h) / s
        C2 = (1 - C) / kappa
    return mpmath.matrix([[C, S, -c * C2], [-kappa * S, C, -c * S], [0, 0, 1]])


def propagators(spec, z: complex, xs, chi: MeasureData = MeasureData()) -> dict:
    """Map each x in ``xs`` to the 3x3 propagator of (u, u'(x-), 1) from 0 to x.

    Columns 0 and 1 are the solutions theta and phi with theta(0) = phi'(0-) = 1,
    theta'(0-) = phi(0) = 0; column 2 is the response to chi with zero data.
    """
    targets = {float(x) for x in xs}
    x_max = max(targets)
    measures = (spec.omega, spec.upsilon, chi)
    cuts = sorted(p for p in set().union({0.0}, targets, *map(_points, measures)) if p <= x_max)
    out = {}
    with mpmath.workdps(DPS):
        z = mpmath.mpc(z)
        mat = mpmath.eye(3)
        cur = 0.0
        for p in cuts:
            if p > cur:
                kappa = z * _density(spec.omega, cur) + z * z * _density(spec.upsilon, cur)
                h = mpmath.mpf(p) - mpmath.mpf(cur)
                mat = _piece(kappa, _density(chi, cur), h) * mat
                cur = p
            if p in targets:
                out[p] = mat.copy()
            g = z * _atom(spec.omega, p) + z * z * _atom(spec.upsilon, p)
            gamma = _atom(chi, p)
            if g != 0 or gamma != 0:
                mat = mpmath.matrix([[1, 0, 0], [-g, 1, -gamma], [0, 0, 1]]) * mat
    return out


def distribution(measure: MeasureData, x: float):
    """measure([0, x)) summed straight from the atoms and density pieces."""
    with mpmath.workdps(DPS):
        total = mpmath.fsum(mpmath.mpf(m) for p, m in measure.atoms if p < x)
        for a, b, v in measure.density:
            if a < x:
                total += mpmath.mpf(v) * (mpmath.mpf(min(b, x)) - mpmath.mpf(a))
        return total
