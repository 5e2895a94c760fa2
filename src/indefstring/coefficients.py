"""String specifications and their coefficient functions.

A string is a triple (L, omega, upsilon): a length L in (0, inf], a real
Borel measure omega and a non-negative Borel measure upsilon on [0, L).
Both measures are stored as finitely many point masses plus finitely many
piecewise-constant density pieces.  The module exposes the left-continuous
distribution functions w(x) = omega([0, x)) and Upsilon(x) = upsilon([0, x)),
the travel coordinate

    sigma(x) = x + int_0^x w(t)^2 dt + Upsilon(x),

and its generalized inverse xi.  sigma is strictly increasing and piecewise
cubic with a jump of size upsilon({p}) just after each point mass p; xi is
1-Lipschitz and flat across those jumps.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Mapping

import numpy as np

from .errors import (
    ComputationError,
    NegativeUpsilon,
    NonPositiveLength,
    OverlappingDensityIntervals,
    PositionOutOfRange,
    ValidationError,
)

_INF = math.inf

# Two-point Gauss-Legendre nodes on [0, 1]; exact through cubic integrands.
_GAUSS2 = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


@dataclass(frozen=True)
class MeasureData:
    """One measure: point masses ``(x, mass)`` and density pieces ``(a, b, value)``."""

    atoms: tuple[tuple[float, float], ...] = ()
    density: tuple[tuple[float, float, float], ...] = ()

    def is_zero(self) -> bool:
        return not self.atoms and not self.density

    def is_atomic(self) -> bool:
        return not self.density


@dataclass(frozen=True)
class StringSpec:
    """A string ``(length, omega, upsilon)``, normalized when it is built.

    Atoms at equal positions are merged, zero entries dropped and density
    pieces sorted and fused, so every instance is in normal form and two
    equal strings compare (and hash) equal; violations raise the specific
    :mod:`indefstring.errors` subclasses.
    """

    length: float
    omega: MeasureData = MeasureData()
    upsilon: MeasureData = MeasureData()

    def __post_init__(self):
        length = float(self.length)
        if math.isnan(length) or length <= 0.0:
            raise NonPositiveLength(f"string length must be positive, got {length}")
        omega = _normalize_measure(self.omega, length, nonneg=False, label="omega")
        upsilon = _normalize_measure(self.upsilon, length, nonneg=True, label="upsilon")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "upsilon", upsilon)

    # The hash walks every atom and the view cache takes it on every lookup,
    # so it is computed once and kept on the instance, outside the fields:
    # repr, == and JSON do not see it.
    @cached_property
    def _hash(self) -> int:
        return hash((self.length, self.omega, self.upsilon))

    def __hash__(self) -> int:
        return self._hash


def _as_measure(raw) -> MeasureData:
    if isinstance(raw, MeasureData):
        return raw
    if raw is None:
        return MeasureData()
    if isinstance(raw, Mapping):
        atoms = tuple((float(d["x"]), float(d["mass"])) for d in raw.get("atoms", ()))
        density = tuple(
            (float(d["a"]), _parse_extent(d["b"]), float(d["value"]))
            for d in raw.get("density", ())
        )
        return MeasureData(atoms=atoms, density=density)
    raise ValidationError(f"cannot interpret measure data: {raw!r}")


def _parse_extent(value) -> float:
    if value == "inf" or value is None:
        return _INF
    return float(value)


def _normalize_measure(data: MeasureData, length: float, *, nonneg: bool, label: str) -> MeasureData:
    """``data`` in normal form: atoms sorted, those at one position summed in
    input order and zeros dropped; density pieces without zeros, sorted and
    fused where they touch with one value.  The checks run on arrays, and the
    first atom or piece in input order that fails one is looked for only
    then, to raise its error."""
    x, mass = _merged_atoms(data.atoms, length, label)
    a, b, value = _fused_pieces(data.density, length, label)
    if nonneg:
        bad = np.concatenate([mass[mass < 0.0], value[value < 0.0]])
        if bad.size:
            raise NegativeUpsilon(f"{label} must be a non-negative measure, found {float(bad[0])}")
    return MeasureData(atoms=tuple(zip(x.tolist(), mass.tolist())),
                       density=tuple(zip(a.tolist(), b.tolist(), value.tolist())))


def _merged_atoms(atoms, length: float, label: str) -> tuple[np.ndarray, np.ndarray]:
    """Positions and masses of ``atoms`` sorted (stably), the masses at one
    position summed in input order, by a loop over the repeats only, and the
    zero sums dropped."""
    if not atoms:
        return np.zeros(0), np.zeros(0)
    x, mass = _columns(atoms, 2)
    # A position that is nan or infinite fails the comparisons.
    good = (0.0 <= x) & (x < length) & np.isfinite(mass)
    if not good.all():
        x0, mass0 = atoms[int(np.argmin(good))]
        if not math.isfinite(x0):
            raise PositionOutOfRange(f"{label} atom position must be finite, got {x0}")
        if not math.isfinite(mass0):
            raise ValidationError(f"{label} atom mass must be finite, got {mass0}")
        raise PositionOutOfRange(f"{label} atom at {x0} outside [0, {length})")
    order = np.argsort(x, kind="stable")
    x, mass = x[order], mass[order]
    first = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=first[1:])
    sums = mass[first] + 0.0
    if not first.all():
        group = np.cumsum(first) - 1
        for k in np.flatnonzero(~first).tolist():
            sums[group[k]] += mass[k]
    kept = sums != 0.0
    return x[first][kept], sums[kept]


def _columns(rows, width: int) -> list[np.ndarray]:
    """The columns of a sequence of ``width``-tuples of floats, as arrays."""
    flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=float, count=width * len(rows))
    return list(flat.reshape(-1, width).T)


def _fused_pieces(density, length: float, label: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starts, ends and values of the nonzero pieces of ``density``, sorted,
    checked not to overlap, and fused where they touch with one value."""
    if not density:
        return np.zeros(0), np.zeros(0), np.zeros(0)
    a, b, value = _columns(density, 3)
    with np.errstate(invalid="ignore"):
        good = (0.0 <= a) & (a < math.inf) & np.isfinite(value) & (a < b) & (b <= length)
    if not good.all():
        a0, b0, value0 = density[int(np.argmin(good))]
        if not (math.isfinite(a0) and math.isfinite(value0)):
            raise ValidationError(
                f"{label} density piece ({a0}, {b0}, {value0}) must have finite endpoint/value")
        if math.isnan(b0):
            raise ValidationError(f"{label} density piece ({a0}, {b0}, {value0}) must not end at nan")
        if a0 >= b0:
            raise PositionOutOfRange(f"{label} density interval [{a0}, {b0}) is empty or reversed")
        raise PositionOutOfRange(f"{label} density interval [{a0}, {b0}) outside [0, {length}]")
    nonzero = value != 0.0
    a, b, value = a[nonzero], b[nonzero], value[nonzero]
    order = np.lexsort((value, b, a))
    a, b, value = a[order], b[order], value[order]
    overlap = np.flatnonzero(a[1:] < b[:-1])
    if overlap.size:
        k = int(overlap[0])
        raise OverlappingDensityIntervals(
            f"{label} density intervals starting at {float(a[k])} and {float(a[k + 1])} overlap"
        )
    first = np.ones(a.size, dtype=bool)
    first[1:] = (a[1:] != b[:-1]) | (value[1:] != value[:-1])
    # A fused piece ends where the next one starts anew (the last one at the end).
    return a[first], b[np.roll(first, -1)], value[first]


def validate_spec(raw) -> StringSpec:
    """Parse a string specification.

    A :class:`StringSpec` is already normal and is returned unchanged; a
    JSON-style mapping with keys ``L``, ``omega``, ``upsilon`` is built into one.
    """
    if isinstance(raw, StringSpec):
        return raw
    if isinstance(raw, Mapping):
        return StringSpec(
            length=_parse_extent(raw.get("L")),
            omega=_as_measure(raw.get("omega")),
            upsilon=_as_measure(raw.get("upsilon")),
        )
    raise ValidationError(f"cannot interpret string spec: {raw!r}")


def _extent_to_json(value: float):
    return "inf" if value == _INF else value


def spec_to_json(spec: StringSpec) -> dict:
    def measure(data: MeasureData) -> dict:
        return {
            "atoms": [{"x": x, "mass": m} for x, m in data.atoms],
            "density": [
                {"a": a, "b": _extent_to_json(b), "value": v} for a, b, v in data.density
            ],
        }

    return {
        "L": _extent_to_json(spec.length),
        "omega": measure(spec.omega),
        "upsilon": measure(spec.upsilon),
    }


def spec_from_json(doc: Mapping) -> StringSpec:
    return validate_spec(doc)


def _distinct(*parts) -> np.ndarray:
    """The distinct values of all ``parts``, sorted: the bits of numpy's set
    routines (signed zeros included) without the ``numpy.ma`` import that
    their first call costs a fresh process."""
    out = np.sort(np.concatenate([np.ravel(p) for p in parts]))
    keep = np.empty(out.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def _running_totals(*steps: np.ndarray) -> list[np.ndarray]:
    """Totals of a running sum that adds ``steps[0][i], steps[1][i], ...`` for i = 0, 1, ...

    ``out[k][i]`` is the total just before ``steps[k][i]`` is added.  The sum
    runs strictly left to right from 0.0, so every entry is rounded exactly as
    in the loop ``t = t + step``.
    """
    flat = np.concatenate(([0.0], np.stack(steps, axis=1).ravel()))
    totals = np.add.accumulate(flat)[:-1]
    return [totals[k::len(steps)] for k in range(len(steps))]


class CoefficientView:
    """Merged, query-ready view of a string's coefficient data.

    Breakpoints collect every atom position and density endpoint of both
    measures (plus 0 and a finite L); between consecutive breakpoints both
    densities are constant and w is affine.  ``atom_*[i]`` is the point mass
    at ``bp[i]`` and ``dens_*[i]`` the density on (bp[i], bp[i+1]) (on the
    unbounded tail for the last breakpoint of a half-line, zero after a
    finite L).  ``w_left``/``ups_left``, ``i1`` (int w), ``i2`` (int w^2) and
    ``sigma_left`` are the left-continuous values at the breakpoints;
    ``*_right`` add the point mass there.
    """

    def __init__(self, spec: StringSpec):
        self.spec = spec
        self.length = spec.length
        measures = (spec.omega, spec.upsilon)
        points = [0.0]
        for data in measures:
            points += [x for x, _ in data.atoms]
            points += [v for a, b, _ in data.density for v in (a, b) if math.isfinite(v)]
        if math.isfinite(self.length):
            points.append(self.length)
        self.bp = _distinct(points)
        self.atom_omega, self.atom_upsilon = (self._atoms(data) for data in measures)
        self.dens_omega, self.dens_upsilon = (self._densities(data) for data in measures)

        h = np.append(np.diff(self.bp), 0.0)
        self.w_left, self.w_right = _running_totals(self.atom_omega, self.dens_omega * h)
        self.ups_left, self.ups_right = _running_totals(self.atom_upsilon, self.dens_upsilon * h)
        wr, a = self.w_right, self.dens_omega
        self.i1 = _running_totals(h * wr, a * h * h / 2.0)[0]
        # Cubes through Python floats: C pow(), as for a scalar, where numpy's
        # vectorized power may round differently in the last bit.
        h3 = np.array([v ** 3 for v in h.tolist()])
        self.i2 = _running_totals(h * wr * wr, wr * a * h * h, a * a * h3 / 3.0)[0]
        self.sigma_left = self.bp + self.i2 + self.ups_left
        self.sigma_right = self.bp + self.i2 + self.ups_right
        self.sigma_length = self.sigma_left[-1] if math.isfinite(self.length) else _INF

    def _atoms(self, data: MeasureData) -> np.ndarray:
        out = np.zeros(len(self.bp))
        x, mass = np.array(data.atoms, dtype=float).reshape(-1, 2).T
        np.add.at(out, np.searchsorted(self.bp, x), mass)
        return out

    def _densities(self, data: MeasureData) -> np.ndarray:
        if not data.density:
            return np.zeros(len(self.bp))
        a, b, value = np.array(data.density, dtype=float).T
        k = np.searchsorted(a, self.bp, side="right") - 1
        return np.where((k >= 0) & (self.bp < b[k]), value[k], 0.0)

    # -- point queries: a position or an array of them, left-continuous -------

    def _pieces_at(self, x):
        """The positions ``x`` as an array, the pieces j holding them and the
        offsets h = x - bp[j]; h = 0 exactly at a breakpoint."""
        x = np.asarray(x, dtype=float)
        bad = np.isnan(x) | (x < 0.0) | (x > self.length)
        if bad.any():
            raise PositionOutOfRange(f"position {x[bad].flat[0]} outside [0, {self.length}]")
        j = np.maximum(np.searchsorted(self.bp, x, side="right") - 1, 0)
        return x, j, x - self.bp[j]

    def _distribution(self, x, left, right, slope):
        """left[j] at the breakpoint bp[j] and affine in piece j after it."""
        _, j, h = self._pieces_at(x)
        return _float_or_array(np.where(h == 0.0, left[j], right[j] + slope[j] * h))

    def w(self, x):
        """w(x) = omega([0, x)); a float for a scalar x, else an array."""
        return self._distribution(x, self.w_left, self.w_right, self.dens_omega)

    def upsilon(self, x):
        """Upsilon(x) = upsilon([0, x)); a float for a scalar x, else an array."""
        return self._distribution(x, self.ups_left, self.ups_right, self.dens_upsilon)

    def w_integral(self, x):
        """int_0^x w(t) dt in closed form; a float for a scalar x, else an array."""
        _, j, h = self._pieces_at(x)
        return _float_or_array(self.i1[j] + h * self.w_right[j] + self.dens_omega[j] * h * h / 2.0)

    def _wsq_at(self, j, h):
        """int_0^(bp[j] + h) w(t)^2 dt for h inside piece j."""
        wr, a = self.w_right[j], self.dens_omega[j]
        return self.i2[j] + h * wr * wr + wr * a * h * h + a * a * h ** 3 / 3.0

    def sigma(self, x):
        """sigma(x) = x + int_0^x w^2 + Upsilon(x), and inf at x = L = inf; a
        float for a scalar x, else an array."""
        x, j, h = self._pieces_at(x)
        with np.errstate(invalid="ignore"):
            return _float_or_array(np.where(x == _INF, _INF, x + self._wsq_at(j, h) + self.upsilon(x)))

    def _gauss_sigma(self, j: np.ndarray, h: np.ndarray) -> np.ndarray:
        """int of sigma over [bp[j], bp[j] + h] inside piece j, by two-point
        Gauss, which is exact since sigma is cubic there."""
        lo = self.bp[j]
        total = 0.0
        for t in _GAUSS2:
            x = lo + t * h
            d = x - lo
            total = total + (x + self._wsq_at(j, d) + (self.ups_right[j] + self.dens_upsilon[j] * d))
        return h * total / 2.0

    @cached_property
    def _sigma_totals(self) -> np.ndarray:
        """int_0^bp[j] sigma for every breakpoint, summed on first use."""
        h = np.append(np.diff(self.bp), 0.0)
        return _running_totals(self._gauss_sigma(np.arange(len(self.bp)), h))[0]

    def sigma_integral(self, x):
        """int_0^x sigma(t) dt, exact per piece; a float for a scalar x, else an array."""
        _, j, h = self._pieces_at(x)
        return _float_or_array(self._sigma_totals[j] + self._gauss_sigma(j, h))

    # -- generalized inverse of the travel coordinate ------------------------

    def xi(self, s):
        """xi(s) = sup{x in [0, L) : sigma(x) <= s}, with xi(s) = L from sigma(L)
        on; a float for a scalar s, else an array.  xi is bp[j] across sigma's
        jump at bp[j]; inside piece j, sigma(bp[j] + h) - sigma_right[j] is a
        rising cubic in h, solved by :func:`_rising_cubic_root`."""
        s = np.asarray(s, dtype=float)
        bad = np.isnan(s) | (s < 0.0)
        if bad.any():
            raise PositionOutOfRange(f"travel coordinate {s[bad].flat[0]} must be non-negative")
        j = np.searchsorted(self.sigma_left, s, side="right") - 1
        x = np.where(s >= self.sigma_length, self.length, self.bp[j])
        inside = (s > self.sigma_right[j]) & (s < self.sigma_length)
        if inside.any():
            j = j[inside]
            wr, a = self.w_right[j], self.dens_omega[j]
            h = _rising_cubic_root(1.0 + wr * wr + self.dens_upsilon[j], wr * a, a * a / 3.0,
                                   s[inside] - self.sigma_right[j], np.append(np.diff(self.bp), _INF)[j])
            x[inside] = np.minimum(self.bp[j] + h, self.length)
        return _float_or_array(x)


def _float_or_array(out: np.ndarray):
    """A float for a 0-d result, the array otherwise."""
    return float(out) if out.ndim == 0 else out


# Newton steps before :func:`_rising_cubic_root` gives up; roots settle in
# at most about 20.
_ROOT_STEPS = 100


def _rising_cubic_root(c1, c2, c3, rhs, top):
    """The root h in [0, top] of c1 h + c2 h^2 + c3 h^3 = rhs >= 0, elementwise.

    The slope, 1 + w^2 + b, is at least 1, so the root is at most rhs.  Newton
    starts from min(rhs/c1, cbrt(rhs/c3)); the residuals' signs keep a bracket
    [lo, hi] of the root, bisected where a step would leave it.  Each move
    lands strictly inside the bracket, which then shrinks, so the loop ends
    when no h moves; it raises :class:`ComputationError` after _ROOT_STEPS.
    """
    lo, hi = np.zeros_like(rhs), np.minimum(top, rhs)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.minimum(np.fmin(rhs / c1, np.cbrt(rhs / c3)), hi)
    for _ in range(_ROOT_STEPS):
        p = ((c3 * h + c2) * h + c1) * h - rhs
        lo = np.where(p < 0.0, h, lo)
        hi = np.where(p > 0.0, h, hi)
        step = h - p / ((3.0 * c3 * h + 2.0 * c2) * h + c1)
        step = np.where((lo < step) & (step < hi) | (step == h), step, 0.5 * (lo + hi))
        moved = np.where((lo < step) & (step < hi), step, h)
        if np.array_equal(moved, h):
            return h
        h = moved
    raise ComputationError(f"xi: the travel-coordinate cubic did not settle in {_ROOT_STEPS} Newton steps")


@lru_cache(maxsize=256)
def coefficient_view(spec: StringSpec) -> CoefficientView:
    return CoefficientView(spec)


@dataclass(frozen=True)
class TravelCoords:
    """Travel coordinate sigma, its generalized inverse xi, and sigma's limit
    at L; sigma and xi take a position or an array of them."""

    sigma: Callable
    xi: Callable
    sigma_L: float


def travel_coords(spec: StringSpec) -> TravelCoords:
    view = coefficient_view(spec)
    return TravelCoords(sigma=view.sigma, xi=view.xi, sigma_L=view.sigma_length)


def _primitive_gaps(a: CoefficientView, b: CoefficientView, xs) -> tuple[float, float]:
    """sup over ``xs`` of |int_0^x (w_a - w_b)| and of |int_0^x (sigma_a - sigma_b)|,
    each string's primitives read at min(x, its length)."""
    xs = np.asarray(xs, dtype=float)
    xa, xb = np.minimum(xs, a.length), np.minimum(xs, b.length)
    return (float(np.max(np.abs(a.w_integral(xa) - b.w_integral(xb)))),
            float(np.max(np.abs(a.sigma_integral(xa) - b.sigma_integral(xb)))))


def _beyond(view: CoefficientView, x: float) -> tuple[float, ...]:
    """w(x+), sigma(x+) and the omega and upsilon densities of a half-line
    past x, at or after its last breakpoint, where its coefficients are
    constant."""
    at = x == view.bp[-1]
    return (view.w(x) + at * view.atom_omega[-1], view.sigma(x) + at * view.atom_upsilon[-1],
            view.dens_omega[-1], view.dens_upsilon[-1])


def spec_discrepancy(a: StringSpec, b: StringSpec) -> dict[str, float]:
    """Distance between two strings: their lengths and the primitives
    int_0^x w and int_0^x sigma, whose closeness makes the Weyl functions
    close.

    The primitives are compared at the breakpoints of both strings and the
    midpoints between them, up to the shorter length.  On two half-lines
    they are compared up to the later last breakpoint x1, past which both
    strings have constant coefficients, so that each is fixed there by its
    primitives at x1, w(x1+), sigma(x1+) and its omega and upsilon
    densities.  The parts ``tail_w``, ``tail_sigma``,
    ``tail_omega_density`` and ``tail_upsilon_density`` are the absolute
    differences of the last four; they are 0.0 when either string is
    finite.  A jump that moved by a rounding error changes the primitives by
    that error times its mass, and a meshed density by the square of the
    mesh width.  Returns the parts and their maximum under ``"overall"``.
    """
    va, vb = coefficient_view(a), coefficient_view(b)
    length_diff = 0.0 if a.length == b.length else abs(a.length - b.length)
    cuts = _distinct(va.bp, vb.bp)
    span = min(a.length, b.length)
    tails = (0.0,) * 4
    if math.isinf(span):
        span = float(cuts[-1])
        tails = (abs(float(p - q)) for p, q in zip(_beyond(va, span), _beyond(vb, span)))
    cuts = _distinct(cuts[cuts <= span], span)
    w_gap, sigma_gap = _primitive_gaps(va, vb, np.concatenate([cuts, (cuts[:-1] + cuts[1:]) / 2.0]))
    parts = {"length": length_diff, "w_primitive": w_gap, "sigma_primitive": sigma_gap,
             **dict(zip(("tail_w", "tail_sigma", "tail_omega_density", "tail_upsilon_density"), tails))}
    return {**parts, "overall": max(parts.values())}
