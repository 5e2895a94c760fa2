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

Canonical systems U' = -z Jt H U, Jt = [[0, 1], [-1, 0]], get their own
product, read straight from the pieces of a ``Hamiltonian``: a constant
piece of extent l has the generator A = -z l Jt H with A^2 = -d^2 I,
d = z l sqrt(det H), so its propagator is

    exp(A) = cos(d) I + sin(d)/d A,   or I + A when det H = 0,

which covers the blocked pieces [[1, 0], [0, 0]].
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


def free_weyl_m(spec, zs) -> list[complex]:
    """m(z) = -theta(X, z)/(z phi(X, z)) at every z of ``zs``, at DPS digits,
    for a string without densities before its last breakpoint x0 (point
    masses and free gaps; a half-line may carry tail densities a, b past x0).

    theta and phi are carried as scalars: a gap h adds h u' to u, and a point
    mass g = z alpha + z^2 mu subtracts g u from u'.  X is L on a finite string
    (a point mass at L does not act).  On a half-line X is 1e40 past a free
    tail, else x0 + 60/Im s, s = sqrt(z a + z^2 b), where the tail solution
    that grows has outgrown the one that decays by e^{120}; the tail piece is
    the closed form of ``_piece``."""
    finite = math.isfinite(spec.length)
    points = _points(spec.omega) | _points(spec.upsilon) | {0.0}
    x0 = spec.length if finite else max(points)
    positions = sorted(p for p in points if p < x0 or (p == x0 and not finite))
    out = []
    with mpmath.workdps(DPS):
        jumps = [(mpmath.mpf(p), _atom(spec.omega, p), _atom(spec.upsilon, p)) for p in positions]
        a, b = _density(spec.omega, x0), _density(spec.upsilon, x0)
        for z in zs:
            zm = mpmath.mpc(z)
            theta, dtheta, phi, dphi, cur = 1, 0, 0, 1, mpmath.mpf(0)
            for x, alpha, mu in jumps:
                theta, phi = theta + (x - cur) * dtheta, phi + (x - cur) * dphi
                g = zm * alpha + zm * zm * mu
                dtheta, dphi, cur = dtheta - g * theta, dphi - g * phi, x
            kappa = 0 if finite else zm * a + zm * zm * b
            s = mpmath.sqrt(kappa)
            h = mpmath.mpf(x0) - cur if finite else (mpmath.mpf(1e40) if s == 0 else 60 / abs(s.imag))
            piece = _piece(kappa, 0, h)
            theta, phi = (piece[0, 0] * u + piece[0, 1] * du for u, du in ((theta, dtheta), (phi, dphi)))
            out.append(complex(-theta / (zm * phi)))
    return out


def discrete_measure(spec, lams, dps: int = 300) -> tuple[list[float], list[float]]:
    """Eigenvalues and masses of a finite purely atomic string at ``dps``
    digits: Newton steps on phi(l, L) from each start value in ``lams``, then
    the mass 1/(int phi'^2 dx + l^2 int phi^2 d upsilon) at the root.

    phi(l, .) and its l-derivative are carried across the gaps and the atom
    jumps in (0, L); an atom at 0 does not act, since phi(l, 0) = 0."""
    points = sorted(p for p in _points(spec.omega) | _points(spec.upsilon) if 0.0 < p < spec.length)
    eigs, masses = [], []
    with mpmath.workdps(dps):
        cuts = [mpmath.mpf(0)] + [mpmath.mpf(p) for p in points] + [mpmath.mpf(spec.length)]
        h = [b - a for a, b in zip(cuts, cuts[1:])]
        jumps = [(_atom(spec.omega, p), _atom(spec.upsilon, p)) for p in points]

        def walk(lam):
            phi = dphi = dslope = norming = mpmath.mpf(0)
            slope = mpmath.mpf(1)
            for k, hk in enumerate(h):
                if k:
                    a, b = jumps[k - 1]
                    drop = -(a * lam + b * lam * lam)
                    dslope += -(a + 2 * b * lam) * phi + drop * dphi
                    slope += drop * phi
                    norming += b * (lam * phi) ** 2
                norming += hk * slope * slope
                dphi += hk * dslope
                phi += hk * slope
            return phi, dphi, norming

        for start in lams:
            lam = mpmath.mpf(start)
            for _ in range(20):
                phi, dphi, _ = walk(lam)
                step = phi / dphi
                lam -= step
                if abs(step) <= mpmath.mpf(10) ** -40 * abs(lam):
                    break
            eigs.append(float(lam))
            masses.append(float(1 / walk(lam)[2]))
    return eigs, masses


def distribution(measure: MeasureData, x: float):
    """measure([0, x)) summed straight from the atoms and density pieces."""
    with mpmath.workdps(DPS):
        total = mpmath.fsum(mpmath.mpf(m) for p, m in measure.atoms if p < x)
        for a, b, v in measure.density:
            if a < x:
                total += mpmath.mpf(v) * (mpmath.mpf(min(b, x)) - mpmath.mpf(a))
        return total


def _canonical_piece(piece, z, length):
    """exp(-z length Jt H) for one constant piece (extent, h11, h12) of a Hamiltonian."""
    h11, h12 = mpmath.mpf(piece[1]), mpmath.mpf(piece[2])
    h22 = 1 - h11
    a = -z * mpmath.mpf(length) * mpmath.matrix([[h12, h22], [-h11, -h12]])
    det = h11 * h22 - h12 * h12
    d = z * mpmath.mpf(length) * mpmath.sqrt(max(det, 0))
    if d == 0:
        return mpmath.eye(2) + a
    return mpmath.cos(d) * mpmath.eye(2) + (mpmath.sin(d) / d) * a


def canonical_propagators(ham, z: complex, ss) -> dict:
    """Map each travel coordinate s in ``ss`` to U(s), the solution of
    U' = -z Jt H U with U(0) = I."""
    out = {}
    with mpmath.workdps(DPS):
        z = mpmath.mpc(z)
        mat = mpmath.eye(2)
        pieces = ham.pieces.tolist()
        begin, k = mpmath.mpf(0), 0
        for s in sorted({float(s) for s in ss}):
            # The last piece is infinite, so k stays in range.
            while begin + pieces[k][0] < s:
                mat = _canonical_piece(pieces[k], z, pieces[k][0]) * mat
                begin += pieces[k][0]
                k += 1
            out[s] = _canonical_piece(pieces[k], z, mpmath.mpf(s) - begin) * mat
    return out


def canonical_weyl_m(ham, z: complex) -> complex:
    """lim U11/U12 as s -> inf, with U taken at the start of the infinite last piece.

    On that piece the first row of exp(-z t Jt H) is proportional to
    (r, 1) + o(1) as t -> inf, with r = (h12 + i sgn(Im z) sqrt(det H))/h22
    (cot d -> -i sgn(Im z)), so m = (r U11 + U21)/(r U12 + U22); a blocked
    last piece leaves the first row alone and m = U11/U12.
    """
    with mpmath.workdps(DPS):
        zm = mpmath.mpc(z)
        u = mpmath.eye(2)
        for piece in ham.pieces[:-1].tolist():
            u = _canonical_piece(piece, zm, piece[0]) * u
        _, h11, h12 = (mpmath.mpf(v) for v in ham.pieces[-1].tolist())
        h22 = 1 - h11
        if h22 == 0:
            return complex(u[0, 0] / u[0, 1])
        root = mpmath.sqrt(max(h11 * h22 - h12 * h12, 0))
        r = (h12 + mpmath.mpc(0, math.copysign(1.0, complex(z).imag)) * root) / h22
        return complex((r * u[0, 0] + u[1, 0]) / (r * u[0, 1] + u[1, 1]))
