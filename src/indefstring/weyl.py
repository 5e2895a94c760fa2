"""Weyl functions of strings and their Herglotz-Nevanlinna structure.

The Weyl function of a string is the locally uniform limit

    m(z) = lim_{x -> L} -theta(z, x) / (z * phi(z, x)),   Im z != 0,

which maps the upper half-plane into itself and satisfies m(conj z) = conj m(z).
For finite-length strings in the representable class the travel coordinate is
finite at L, so the limit is attained at the endpoint; for infinite strings a
truncation schedule doubles progress in the travel coordinate until four
consecutive values agree.  The schedule does not depend on z, and the
coefficients are constant between breakpoints: the state at a truncation
point x is P(x - b) J_b S(b-), the jump at the last breakpoint b strictly
below x and the closed-form piece after it.  So one sweep to these
breakpoints, vectorized over z, serves a whole grid, and the last pieces of
many truncation points and z are built as one array.

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
    TruncationNotConverged,
    ValidationError,
)
from .propagation import (
    _BUDGET,
    SystemState,
    _compose,
    _Steps,
    _Walk,
    _walk_states,
    fundamental_system,
    transfer_matrices,
)


@dataclass(frozen=True)
class WeylSample:
    """One Weyl-function evaluation with truncation metadata.

    ``est_error`` is the last Cauchy difference of the truncation sequence --
    a heuristic indicator, not a rigorous bound (exactly 0.0 when the value
    is attained at a finite endpoint).
    """

    z: complex
    m: complex
    truncation_x: float
    est_error: float


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
    if np.any(np.asarray(z).imag == 0.0):
        raise NonRealRequired("Weyl evaluation needs Im z != 0")


def _values_agree(values: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Whether an iteration has settled, at every index of the last axis: the
    value there and the three before it are finite, and their three
    consecutive differences are each at most tol * max(1, |value|).

    Returns the verdicts and the last differences |values[k] - values[k-1]|,
    both shaped like ``values``.  No index before the fourth agrees, and the
    first has difference NaN.
    """
    values = np.asarray(values)
    with np.errstate(invalid="ignore"):
        diffs = np.abs(np.diff(values, axis=-1))
    size = np.abs(values[..., 3:])
    limit = tol * np.maximum(1.0, size)
    # zeros_like/full_like keep the memory order of ``values``.
    agree = np.zeros_like(values, dtype=bool)
    agree[..., 3:] = ((size < math.inf) & (diffs[..., 2:] <= limit)
                      & (diffs[..., 1:-1] <= limit) & (diffs[..., :-2] <= limit))
    last = np.full_like(values, math.nan, dtype=float)
    last[..., 1:] = diffs
    return agree, last


def _quotient(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The truncated Weyl function -a/(z b) of transfer-matrix entries a = theta, b = phi."""
    with np.errstate(invalid="ignore"):
        return -a / (z * b)


def m_truncated(spec: StringSpec, z, x: float):
    """Truncated Weyl function -theta(z, x)/(z phi(z, x)); vectorized in z.

    Raises :class:`ComputationError` rather than return a value that is not finite.
    """
    zarr = np.asarray(z, dtype=complex)
    _require_nonreal(zarr)
    if not x > 0.0:
        raise PositionOutOfRange(f"truncation point must be positive, got {x}")
    mats = transfer_matrices(spec, zarr, [float(x)], rescale=True)[0]
    m = _quotient(mats[..., 0, 0], mats[..., 0, 1], zarr)
    bad = np.flatnonzero(~np.isfinite(m))
    if bad.size:
        k = bad[0]
        raise ComputationError(
            f"Weyl function at z={complex(zarr.flat[k])} is not finite: {complex(m.flat[k])}"
        )
    return complex(m) if zarr.shape == () else m


def weyl_m_grid(spec: StringSpec, zs, tol: float = 1e-10) -> list[WeylSample]:
    """Weyl function at every z of ``zs``, with the truncation limit resolved
    automatically.

    On a half-line each z stops at the first truncation point where its last
    four values agree (:func:`_values_agree`).  The state at a truncation
    point x is P(x - b) J_b S(b-), with b the last breakpoint strictly below
    x: one rescaled sweep to these anchors b serves every z and ends once all
    have stopped, and the last pieces P J of many points and z are built at
    once.  Raises :class:`ValidationError` unless ``tol`` is finite and
    positive, and :class:`ComputationError` rather than return a value that
    is not finite, naming the first such z.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"tol must be finite and positive, got {tol}")
    zs = np.ravel(np.asarray(zs, dtype=complex))
    _require_nonreal(zs)
    if math.isfinite(spec.length):
        ms = m_truncated(spec, zs, spec.length)
        return [WeylSample(z=z, m=m, truncation_x=spec.length, est_error=0.0)
                for z, m in zip(zs.tolist(), ms.tolist())]

    view = coefficient_view(spec)
    xs = view.truncation_points
    # bp[at] is the last breakpoint strictly below each truncation point; the
    # sweep reaches it after ``at`` steps.
    at = np.searchsorted(view.bp, xs) - 1
    anchors, group = np.unique(at, return_inverse=True)
    pieces = _Steps(view, view.bp[at], xs - view.bp[at])
    sweep = _walk_states(_Walk(view, view.bp[anchors]), zs, rescale=True)
    states = []  # S(b-) at the anchors the sweep has reached
    samples: list[WeylSample] = [None] * zs.size
    # The z still to stop, their indices in zs, and their last three values
    # (NaN before the first).  Arrays of a pass have z on the last axis, as
    # _Steps.matrices builds them.
    z, active = zs, np.arange(zs.size)
    with np.errstate(over="ignore", invalid="ignore"):
        zz = z * z
    recent = np.full((3, zs.size), complex("nan"))
    lo = 0
    while lo < xs.size and active.size:
        # A pass: at most ``width`` points, whose anchors lie within ``width``
        # sweep steps, so at most _BUDGET point x z pieces are built at once.
        width = max(1, _BUDGET // active.size)
        hi = min(lo + width, int(np.searchsorted(at, at[lo] + width, side="right")))
        while len(states) <= group[hi - 1]:
            states.append(next(sweep)[1])
        first = group[lo]
        left = np.stack(states[first:group[hi - 1] + 1], axis=2)[:, :, group[lo:hi] - first]
        with np.errstate(over="ignore", invalid="ignore"):
            piece = pieces.matrices(lo, hi, z, zz, rescale=True)[:1]
            top = _compose(piece, left[..., active])
        values = np.concatenate([recent, _quotient(top[0, 0], top[0, 1], z)])
        agree, diff = (a.T[3:] for a in _values_agree(values.T, tol))
        hit = np.flatnonzero(agree.any(axis=0))
        if hit.size:
            stop = agree[:, hit].argmax(axis=0)
            for k, j, m, err in zip(active[hit].tolist(), (lo + stop).tolist(),
                                    values[3 + stop, hit].tolist(), diff[stop, hit].tolist()):
                samples[k] = WeylSample(z=complex(zs[k]), m=m, truncation_x=float(xs[j]),
                                        est_error=err)
            keep = np.ones(active.size, dtype=bool)
            keep[hit] = False
            z, zz, active, values = z[keep], zz[keep], active[keep], values[:, keep]
        recent = values[-3:]
        lo = hi
    if active.size:
        k = int(active[0])
        last_diff = abs(recent[-1, 0] - recent[-2, 0])
        raise TruncationNotConverged(
            f"Weyl truncation did not stabilise at z={complex(zs[k])}; last diff {last_diff:g}"
        )
    return samples


def weyl_m(spec: StringSpec, z: complex, tol: float = 1e-10) -> WeylSample:
    """Weyl function at one z: ``weyl_m_grid(spec, [z], tol)[0]``."""
    return weyl_m_grid(spec, [complex(z)], tol)[0]


def weyl_solution_psi(spec: StringSpec, z: complex, xs, tol: float = 1e-10) -> tuple[SystemState, ...]:
    """The Weyl solution psi = theta + m z phi sampled along the string."""
    sample = weyl_m(spec, z, tol=tol)
    fs = fundamental_system(spec, z, xs)
    mz = sample.m * sample.z
    out = []
    for th, ph in zip(fs.theta, fs.phi):
        out.append(SystemState(x=th.x, f=th.f + mz * ph.f, f2=th.f2 + mz * ph.f2,
                               quasi=th.quasi + mz * ph.quasi))
    return tuple(out)


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


def structural_flags(spec: StringSpec) -> tuple[bool, bool]:
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


def classify(spec: StringSpec, samples=None, tol: float = 1e-8) -> Classification:
    """Herglotz/Stieltjes checks on a grid plus structural spectrum prediction.

    The numerical Stieltjes flag (Im m >= 0 and Im z m >= 0 on the grid) and
    the structural one must agree on valid inputs; both are reported.
    """
    zs = standard_grid() if samples is None else np.ravel(np.asarray(samples, dtype=complex))
    both = np.array([s.m for s in weyl_m_grid(spec, np.concatenate([zs, zs.conj()]))])
    ms, ms_conj = both[:zs.size], both[zs.size:]
    scale = max(1.0, float(np.max(np.abs(ms))))
    min_im_m = float(np.min(ms.imag * np.sign(zs.imag)))
    symmetry_defect = float(np.max(np.abs(ms_conj - np.conj(ms))))
    min_im_zm = float(np.min((zs * ms).imag * np.sign(zs.imag)))
    herglotz = min_im_m >= -tol and symmetry_defect <= 1e-10 * scale
    stieltjes_num = herglotz and min_im_zm >= -tol
    stieltjes_struct, nonneg = structural_flags(spec)
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


def integral_rep_constants(spec: StringSpec, tol: float = 1e-12) -> IntegralRep:
    """Estimate c1 = upsilon({0}), 1/L, and (Stieltjes only) c2 = omega({0}).

    c1 comes from Im m(i eta)/eta over eta = 1e2..1e6 with even-power
    elimination; 1/L from Re(-i e m(i e)) over e = 1e-2..1e-6.  c2 is only
    extrapolated when the structural Stieltjes predicate holds; otherwise the
    constant term is undetermined and reported as None.
    """
    etas = [10.0 ** k for k in range(2, 7)]
    eps = [10.0 ** (-k) for k in range(2, 7)]
    ms = [s.m for s in weyl_m_grid(spec, [1j * t for t in etas + eps], tol=tol)]
    m_eta, m_eps = ms[:len(etas)], ms[len(etas):]
    c1 = _richardson([m.imag / eta for m, eta in zip(m_eta, etas)], 10.0, (2, 4))
    inv_l = _richardson([(-1j * e * m).real for m, e in zip(m_eps, eps)], 10.0, (1, 2))
    stieltjes_struct, _ = structural_flags(spec)
    c2 = None
    if stieltjes_struct:
        c2 = _richardson([m.real for m in m_eta], 10.0, (1, 2))
    return IntegralRep(c1=c1, inv_L=inv_l, c2=c2)
