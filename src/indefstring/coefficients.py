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

import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Mapping

import numpy as np

from .errors import (
    NegativeUpsilon,
    NonPositiveLength,
    OverlappingDensityIntervals,
    PositionOutOfRange,
    ValidationError,
)

_INF = math.inf

# Two-point Gauss-Legendre nodes on [0, 1]; exact through cubic integrands.
_GAUSS2 = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))

# Sweep plans kept with one view: the walk to L (or, on a half-line, to its
# last breakpoint) and a few walks to positions that callers choose; the least
# recently used goes first.
_PLANS = 4


@dataclass(frozen=True)
class MeasureData:
    """One measure: point masses ``(x, mass)`` and density pieces ``(a, b, value)``."""

    atoms: tuple[tuple[float, float], ...] = ()
    density: tuple[tuple[float, float, float], ...] = ()

    def is_zero(self) -> bool:
        return not self.atoms and not self.density

    def is_atomic(self) -> bool:
        return not self.density

    def atom_at(self, x: float) -> float:
        for p, mass in self.atoms:
            if p == x:
                return mass
        return 0.0


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
    merged: dict[float, float] = {}
    for x, mass in data.atoms:
        if not math.isfinite(x):
            raise PositionOutOfRange(f"{label} atom position must be finite, got {x}")
        if not math.isfinite(mass):
            raise ValidationError(f"{label} atom mass must be finite, got {mass}")
        if not 0.0 <= x < length:
            raise PositionOutOfRange(f"{label} atom at {x} outside [0, {length})")
        merged[x] = merged.get(x, 0.0) + mass
    atoms = tuple(sorted((x, m) for x, m in merged.items() if m != 0.0))

    pieces = []
    for a, b, value in data.density:
        if not (math.isfinite(a) and math.isfinite(value)):
            raise ValidationError(f"{label} density piece ({a}, {b}, {value}) must have finite endpoint/value")
        if a >= b:
            raise PositionOutOfRange(f"{label} density interval [{a}, {b}) is empty or reversed")
        if a < 0.0 or b > length:
            raise PositionOutOfRange(f"{label} density interval [{a}, {b}) outside [0, {length}]")
        if value != 0.0:
            pieces.append((a, b, value))
    pieces.sort()
    for (a0, b0, _), (a1, _, _) in zip(pieces, pieces[1:]):
        if a1 < b0:
            raise OverlappingDensityIntervals(
                f"{label} density intervals starting at {a0} and {a1} overlap"
            )
    fused: list[tuple[float, float, float]] = []
    for piece in pieces:
        if fused and fused[-1][1] == piece[0] and fused[-1][2] == piece[2]:
            fused[-1] = (fused[-1][0], piece[1], piece[2])
        else:
            fused.append(piece)

    if nonneg:
        bad = [m for _, m in atoms if m < 0.0] + [v for _, _, v in fused if v < 0.0]
        if bad:
            raise NegativeUpsilon(f"{label} must be a non-negative measure, found {bad[0]}")
    return MeasureData(atoms=atoms, density=tuple(fused))


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
        self.bp = np.unique(points)
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
        self._plans: dict = {}
        self._plans_lock = threading.Lock()

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

    def plan(self, key, build: Callable[[], object]):
        """The z-independent sweep plan ``build()`` for ``key``, built on first
        use and kept with this view (at most ``_PLANS``), so that evicting the
        view frees it.  Plans are read-only once built: two threads that first
        ask for one key at once may both build it, harmlessly, so the lock
        guards only the map."""
        with self._plans_lock:
            plan = self._plans.pop(key, None)
            if plan is not None:
                self._plans[key] = plan
                return plan
        plan = build()
        with self._plans_lock:
            self._plans[key] = plan
            while len(self._plans) > _PLANS:
                del self._plans[next(iter(self._plans))]
        return plan

    # -- point queries (left-continuous convention throughout) --------------

    def _check(self, x: float) -> None:
        if math.isnan(x) or x < 0.0 or x > self.length:
            raise PositionOutOfRange(f"position {x} outside [0, {self.length}]")

    def locate(self, x: float) -> int:
        return max(0, int(np.searchsorted(self.bp, x, side="right")) - 1)

    def w(self, x: float) -> float:
        self._check(x)
        j = self.locate(x)
        if x == self.bp[j]:
            return float(self.w_left[j])
        return float(self.w_right[j] + self.dens_omega[j] * (x - self.bp[j]))

    def upsilon(self, x: float) -> float:
        self._check(x)
        j = self.locate(x)
        if x == self.bp[j]:
            return float(self.ups_left[j])
        return float(self.ups_right[j] + self.dens_upsilon[j] * (x - self.bp[j]))

    def _pieces_at(self, x):
        """The pieces j holding the positions ``x`` and the offsets h = x - bp[j]."""
        x = np.asarray(x, dtype=float)
        bad = np.isnan(x) | (x < 0.0) | (x > self.length)
        if bad.any():
            raise PositionOutOfRange(f"position {x[bad].flat[0]} outside [0, {self.length}]")
        j = np.maximum(np.searchsorted(self.bp, x, side="right") - 1, 0)
        return j, x - self.bp[j]

    def w_integral(self, x):
        """int_0^x w(t) dt in closed form; a float for a scalar x, else an array."""
        j, h = self._pieces_at(x)
        out = self.i1[j] + h * self.w_right[j] + self.dens_omega[j] * h * h / 2.0
        return float(out) if out.ndim == 0 else out

    def _wsq_at(self, j, h):
        """int_0^(bp[j] + h) w(t)^2 dt for h inside piece j."""
        wr, a = self.w_right[j], self.dens_omega[j]
        return self.i2[j] + h * wr * wr + wr * a * h * h + a * a * h ** 3 / 3.0

    def wsq_integral(self, x: float) -> float:
        """int_0^x w(t)^2 dt in closed form."""
        self._check(x)
        j = self.locate(x)
        h = x - self.bp[j]
        if h == 0.0:
            return float(self.i2[j])
        return float(self._wsq_at(j, h))

    def sigma(self, x: float) -> float:
        if x == self.length and not math.isfinite(x):
            return _INF
        self._check(x)
        return x + self.wsq_integral(x) + self.upsilon(x)

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
        j, h = self._pieces_at(x)
        out = self._sigma_totals[j] + self._gauss_sigma(j, h)
        return float(out) if out.ndim == 0 else out

    # -- generalized inverse of the travel coordinate ------------------------

    def xi(self, s: float) -> float:
        """xi(s) = sup{x in [0, L) : sigma(x) <= s}, with xi(s) = L past sigma(L)."""
        if math.isnan(s) or s < 0.0:
            raise PositionOutOfRange(f"travel coordinate {s} must be non-negative")
        if s >= self.sigma_length:
            return self.length
        j = int(np.searchsorted(self.sigma_right, s, side="right")) - 1
        if j < 0:
            return 0.0
        if j + 1 < len(self.bp) and s >= self.sigma_left[j + 1]:
            return float(self.bp[j + 1])
        rhs = s - self.sigma_right[j]
        wr = self.w_right[j]
        a = self.dens_omega[j]
        c1 = 1.0 + wr * wr + self.dens_upsilon[j]
        h_max = (self.bp[j + 1] - self.bp[j]) if j + 1 < len(self.bp) else _INF
        if a == 0.0:
            h = rhs / c1
        else:
            c2 = wr * a
            c3 = a * a / 3.0
            roots = np.roots([c3, c2, c1, -rhs])
            real = [r.real for r in roots if abs(r.imag) <= 1e-9 * (1.0 + abs(r))]
            inside = [r for r in real if -1e-9 <= r <= h_max + 1e-9]
            # The cubic is strictly monotone, so there is exactly one real root
            # in range; fall back to a Newton start if rounding hid it.
            h = inside[0] if inside else (real[0] if real else rhs / c1)
            for _ in range(3):
                p = ((c3 * h + c2) * h + c1) * h - rhs
                dp = (3.0 * c3 * h + 2.0 * c2) * h + c1
                h -= p / dp
        h = min(max(h, 0.0), h_max)
        return float(min(self.bp[j] + h, self.length))


@lru_cache(maxsize=256)
def coefficient_view(spec: StringSpec) -> CoefficientView:
    return CoefficientView(spec)


@dataclass(frozen=True)
class TravelCoords:
    """Travel coordinate sigma, its generalized inverse xi, and sigma's limit at L."""

    sigma: Callable[[float], float]
    xi: Callable[[float], float]
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


def spec_discrepancy(a: StringSpec, b: StringSpec) -> dict[str, float]:
    """Distance between two strings: their lengths and the primitives
    int_0^x w and int_0^x sigma, whose closeness makes the Weyl functions
    close.

    The primitives are compared at the breakpoints of both strings and the
    midpoints between them, up to the shorter length (on two half-lines, up
    to max(10, last finite breakpoint + 1)).  A jump that moved by a rounding
    error changes the primitives by that error times its mass, and a meshed
    density by the square of the mesh width.  Returns the parts and their
    maximum under ``"overall"``.
    """
    va, vb = coefficient_view(a), coefficient_view(b)
    length_diff = 0.0 if a.length == b.length else abs(a.length - b.length)
    cuts = np.union1d(va.bp, vb.bp)
    span = min(a.length, b.length)
    if math.isinf(span):
        span = max(10.0, cuts[-1] + 1.0)
    cuts = np.union1d(cuts[cuts <= span], [span])
    w_gap, sigma_gap = _primitive_gaps(va, vb, np.concatenate([cuts, (cuts[:-1] + cuts[1:]) / 2.0]))
    return {
        "length": length_diff,
        "w_primitive": w_gap,
        "sigma_primitive": sigma_gap,
        "overall": max(length_diff, w_gap, sigma_gap),
    }
