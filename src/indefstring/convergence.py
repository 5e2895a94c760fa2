"""Convergence checks for sequences of strings.

A family of strings converges (in the sense that the Weyl functions converge
locally uniformly) exactly when the travel coordinates stay bounded pointwise
and the primitives int_0^x w_n and int_0^x sigma_n converge to those of the
limit.  The divergence branch (Weyl functions escaping to infinity)
corresponds to travel coordinates blowing up pointwise.

Everything here is a finite surrogate: boundedness and sup-norms are
measured over a recorded finite grid and a finite family tail, so verdicts
are three-valued (converges / diverges-to-inf / inconclusive) with the
measured margins attached.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import MeasureData, StringSpec, _primitive_gaps, coefficient_view
from .weyl import _m_values, standard_grid

_SURROGATE_NOTE = (
    "finite surrogate: boundedness and sup-norms measured on the recorded grid"
    " over the supplied family only"
)

CONVERGES = "converges"
DIVERGES = "diverges-to-inf"
INCONCLUSIVE = "inconclusive"

# Mollification indices n of mollified_family: bumps of width 1/n.
_MOLLIFY_INDICES = (4, 16, 64)

# A family converges once its last sup-norm difference from the limit is at
# most this, and no larger than its first.
_THRESHOLD = 1e-2


@dataclass(frozen=True)
class StringSequence:
    """Indexed family of strings with an optional limit member."""

    specs: tuple[StringSpec, ...]
    limit: StringSpec | None = None


@dataclass(frozen=True)
class ConvergenceReport:
    verdict: str
    grid: tuple[float, ...]
    per_member: tuple[dict, ...]
    margins: dict = field(default_factory=dict)
    note: str = _SURROGATE_NOTE


def report_to_json(report: ConvergenceReport) -> dict:
    def plain(v):
        if isinstance(v, complex):
            return [v.real, v.imag]
        return float(v)

    return {
        "verdict": report.verdict,
        "grid": [plain(x) for x in report.grid],
        "per_member": [dict(row) for row in report.per_member],
        "margins": {k: list(v) for k, v in report.margins.items()},
        "note": report.note,
    }


def _default_positions(limit: StringSpec | None, specs) -> tuple[float, ...]:
    lengths = [s.length for s in specs]
    if limit is not None:
        lengths.append(limit.length)
    finite = [l for l in lengths if math.isfinite(l)]
    span = min(finite) if finite else 1.0
    return tuple(np.linspace(span / 16.0, span * 15.0 / 16.0, 15))


def _escape_detected(tables, key: str) -> bool:
    """True when the tracked quantity grows without sign of settling."""
    vals = [row[key] for row in tables]
    if len(vals) < 2 or vals[0] <= 0.0:
        return False
    ratios = [b / a for a, b in zip(vals, vals[1:]) if a > 0.0]
    return bool(ratios) and all(r >= 1.5 for r in ratios) and vals[-1] >= 10.0 * vals[0]


def _settled(diffs) -> bool:
    return bool(diffs) and diffs[-1] <= _THRESHOLD and diffs[-1] <= diffs[0] * 1.001 + 1e-15


def string_convergence_check(seq: StringSequence, xs=None) -> ConvergenceReport:
    """Coefficient-based convergence check for a family of strings.

    Per member: the pointwise maximum of sigma_n over the grid (boundedness
    surrogate), and sup-norm differences of int_0^x w_n and int_0^x sigma_n
    against the limit when one is given.
    """
    specs, limit = seq.specs, seq.limit
    grid = tuple(float(x) for x in (xs if xs is not None else _default_positions(limit, specs)))
    lim_view = coefficient_view(limit) if limit is not None else None

    pos = np.array(grid)
    rows = []
    for spec in specs:
        view = coefficient_view(spec)
        row = {"sigma_max": float(np.max(view.sigma(pos[pos <= spec.length])))}
        if lim_view is not None:
            row["sup_w_primitive_diff"], row["sup_sigma_primitive_diff"] = _primitive_gaps(
                view, lim_view, grid)
        rows.append(row)

    margins = {"sigma_max": [r["sigma_max"] for r in rows]}
    verdict = INCONCLUSIVE
    if _escape_detected(rows, "sigma_max"):
        verdict = DIVERGES
    elif lim_view is not None and rows:
        diffs = [max(r["sup_w_primitive_diff"], r["sup_sigma_primitive_diff"]) for r in rows]
        margins["sup_diffs"] = diffs
        if _settled(diffs):
            verdict = CONVERGES
    return ConvergenceReport(verdict=verdict, grid=grid, per_member=tuple(rows), margins=margins)


def m_convergence_check(seq: StringSequence, zs=None) -> ConvergenceReport:
    """Direct route: compare Weyl functions on a compact grid of z values."""
    specs, limit = seq.specs, seq.limit
    grid = standard_grid() if zs is None else np.asarray(zs, dtype=complex)

    def weyl_values(spec: StringSpec) -> np.ndarray:
        return _m_values(spec, grid.ravel())[1]

    m_lim = weyl_values(limit) if limit is not None else None
    rows = []
    for spec in specs:
        ms = weyl_values(spec)
        row = {"min_abs_m": float(np.min(np.abs(ms)))}
        if m_lim is not None:
            row["sup_m_diff"] = float(np.max(np.abs(ms - m_lim)))
        rows.append(row)

    margins = {"min_abs_m": [r["min_abs_m"] for r in rows]}
    verdict = INCONCLUSIVE
    if _escape_detected(rows, "min_abs_m") and rows[-1]["min_abs_m"] >= 10.0:
        verdict = DIVERGES
    elif m_lim is not None and rows:
        diffs = [r["sup_m_diff"] for r in rows]
        margins["sup_diffs"] = diffs
        if _settled(diffs):
            verdict = CONVERGES
    return ConvergenceReport(
        verdict=verdict,
        grid=tuple(complex(z) for z in grid),
        per_member=tuple(rows),
        margins=margins,
    )


# -- test-family generation ---------------------------------------------------


def _overlay_density(pieces) -> tuple[tuple[float, float, float], ...]:
    """Sum possibly overlapping density pieces into disjoint sorted ones."""
    if not pieces:
        return ()
    cuts = sorted({a for a, _, _ in pieces} | {b for _, b, _ in pieces})
    out = []
    for a, b in zip(cuts, cuts[1:]):
        value = sum(v for pa, pb, v in pieces if pa <= a and b <= pb)
        if value != 0.0:
            out.append((a, b, value))
    return tuple(out)


def mollify_string(spec: StringSpec, n: int) -> StringSpec:
    """Replace every point mass (x, a) by the density a*n on [x, x + 1/n),
    clipped to [0, L); existing densities are kept and summed where bumps
    overlap them."""
    if n < 1:
        raise ValueError(f"mollification index must be >= 1, got {n}")

    def widen(data: MeasureData) -> MeasureData:
        pieces = list(data.density)
        for x, mass in data.atoms:
            hi = min(x + 1.0 / n, spec.length)
            pieces.append((x, hi, mass * n))
        return MeasureData(atoms=(), density=_overlay_density(pieces))

    return StringSpec(length=spec.length, omega=widen(spec.omega), upsilon=widen(spec.upsilon))


def mollified_family(spec: StringSpec) -> StringSequence:
    """Mollification family (indices ``_MOLLIFY_INDICES``) together with the
    original string as its limit."""
    return StringSequence(specs=tuple(mollify_string(spec, n) for n in _MOLLIFY_INDICES),
                          limit=spec)
