"""Trace-normed canonical systems and their correspondence with strings.

A Hamiltonian here is a piecewise-constant, real, symmetric, positive
semidefinite 2x2 matrix function H on [0, inf) with unit trace per piece
(h22 = 1 - h11 is implied).  It is stored as one read-only (n, 3) array
whose row k holds the extent, h11 and h12 of piece k.  Strings map onto such
Hamiltonians through the travel-coordinate change of variables: with xi the
generalized inverse of sigma,

    H(s) = [[1 - xi'(s),  xi'(s) w(xi(s))],
            [xi'(s) w(xi(s)),  xi'(s)]],

which is exactly piecewise constant whenever w is piecewise constant, i.e.
for purely atomic omega; pieces where omega carries a density are resolved
by a recorded equal-travel-step mesh.  Blocked pieces ([[1, 0], [0, 0]])
appear exactly where sigma jumps (upsilon point masses) and beyond sigma(L).

The reverse direction reads the string off the columns of H: position
x(s) = int_0^s h22 is the running sum of h22 times the extents, w = h12/h22,
the upsilon density is det H / h22^2, finite blocked pieces become upsilon
point masses, and a trailing infinite blocked piece ends the string at the
current position.

The matrix solution of U' = -z Jt H U, U(0) = I, Jt = [[0, 1], [-1, 0]], is
the string's fundamental system in travel gauge.  With x = xi(s) and
u^[1] = u' + z w u the quasi-derivative, both taken at x (left-continuous),

    U(s) = [[theta, -z phi], [-theta^[1]/z, phi^[1]]];

inside a blocked piece, or past L, the second row also gains
z (s - sigma(x-)) times the first, where sigma(x-) = x + int_0^x w^2 +
upsilon([0, x)) is where the blocked run starts.  So det U is the string's
Wronskian and the canonical Weyl function lim U11/U12 is the string's m:
:func:`canonical_m_grid` evaluates it with the string sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .coefficients import MeasureData, StringSpec, _extent_to_json, _parse_extent, coefficient_view
from .errors import DegenerateHamiltonian, NonPositiveLength, UnsupportedShape, ValidationError
from .weyl import _m_values

_INF = math.inf
_DET_TOL = 1e-12
# A change of slope within this many ulps of 1, relative to the slopes, is
# rounding and not an omega point mass.
_JUMP_TOL = 4.0 * math.ulp(1.0)
# A det H this close to 0 is rounding and not an upsilon density: h22 = 1 - h11
# is known to about an ulp of trace H = 1, and so is det H.
_DET_ROUNDING = 4.0 * math.ulp(1.0)


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Piecewise-constant trace-normed Hamiltonian covering [0, inf).

    ``pieces`` is a read-only (n, 3) float array: row k holds the extent,
    h11 and h12 of piece k.  It may be given as such an array, or as rows
    ``(len, h11, h12)`` or mappings with those keys, where an extent of
    ``"inf"`` or None is infinite.  It is checked when it is built: pieces
    must have positive extent, unit trace (implied), h11 in [0, 1],
    det >= -1e-12, exactly one infinite piece at the end, and must not all
    be blocked; adjacent equal pieces are merged.

    ``mesh`` records the equal-travel-step resolution used when a string
    with omega densities was approximated; None means the pieces are exact.
    """

    pieces: np.ndarray
    mesh: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "pieces", _normalize_pieces(self.pieces))
        if self.mesh is not None:
            object.__setattr__(self, "mesh", _checked_mesh(self.mesh))

    def __eq__(self, other):
        if not isinstance(other, Hamiltonian):
            return NotImplemented
        return self.mesh == other.mesh and np.array_equal(self.pieces, other.pieces)


def _checked_mesh(mesh) -> int:
    """``mesh`` as an int; raises :class:`ValidationError` unless it is an
    integer >= 1 (numpy integers count, bools do not)."""
    if isinstance(mesh, bool) or not isinstance(mesh, (int, np.integer)) or mesh < 1:
        raise ValidationError(f"mesh must be an integer >= 1, got {mesh!r}")
    return int(mesh)


def _normalize_pieces(raw) -> np.ndarray:
    """Check and fuse the pieces of a :class:`Hamiltonian`, given as it takes
    them; the error names the first piece that fails a check."""
    if not isinstance(raw, np.ndarray):
        raw = [(_parse_extent(p["len"]), p["h11"], p["h12"]) if isinstance(p, Mapping)
               else (_parse_extent(p[0]), *p[1:]) for p in raw]
    pieces = np.array(raw, dtype=float)
    if pieces.ndim != 2 or pieces.shape[1] != 3 or not len(pieces):
        raise ValidationError(f"Hamiltonian needs at least one piece (len, h11, h12), got shape {pieces.shape}")
    length, h11, h12 = pieces.T
    h22 = 1.0 - h11
    with np.errstate(invalid="ignore"):
        det = h11 * h22 - h12 * h12
    # Each check as the mask of the pieces that fail it, in the order a piece
    # is checked.
    checks = (
        (np.isnan(length) | (length <= 0.0), NonPositiveLength, "piece {k} has non-positive extent {length}"),
        (np.append(np.isinf(length[:-1]), False), ValidationError,
         "only the final piece may be infinite (piece {k})"),
        (~(np.isfinite(h11) & np.isfinite(h12)), ValidationError, "piece {k} entries must be finite"),
        (~((0.0 <= h11) & (h11 <= 1.0)), ValidationError, "piece {k} has h11={h11} outside [0, 1]"),
        (det < -_DET_TOL, ValidationError, "piece {k} is not positive semidefinite (det={det:g})"),
        ((h22 == 0.0) & (h12 != 0.0), ValidationError,
         "piece {k} has h22=0 but h12={h12}; semidefiniteness needs h12=0"),
        ((h11 == 0.0) & (h12 != 0.0), ValidationError,
         "piece {k} has h11=0 but h12={h12}; semidefiniteness needs h12=0"),
    )
    failed = np.array([mask for mask, _, _ in checks])
    if failed.any():
        k = int(np.argmax(failed.any(axis=0)))
        _, error, message = checks[int(np.argmax(failed[:, k]))]
        raise error(message.format(k=k, length=float(length[k]), h11=float(h11[k]),
                                   h12=float(h12[k]), det=float(det[k])))
    if not math.isinf(length[-1]):
        raise ValidationError("the final piece must be infinite so H covers [0, inf)")

    start = np.flatnonzero(np.append(True, (h11[1:] != h11[:-1]) | (h12[1:] != h12[:-1])))
    end = np.append(start[1:], len(pieces))
    fused = pieces[start]
    # A run's extent is summed left to right, piece after piece;
    # np.add.reduceat would sum it pairwise.
    for r in np.flatnonzero(end - start > 1).tolist():
        fused[r, 0] = np.add.accumulate(length[start[r]:end[r]])[-1]
    if np.all((fused[:, 1] == 1.0) & (fused[:, 2] == 0.0)):
        raise DegenerateHamiltonian("H is the blocked matrix [[1,0],[0,0]] everywhere")
    fused.flags.writeable = False
    return fused


def hamiltonian_to_json(ham: Hamiltonian) -> dict:
    doc = {
        "pieces": [
            {"len": _extent_to_json(length), "h11": h11, "h12": h12}
            for length, h11, h12 in ham.pieces.tolist()
        ]
    }
    if ham.mesh is not None:
        doc["mesh"] = ham.mesh
    return doc


def hamiltonian_from_json(doc: Mapping) -> Hamiltonian:
    """Build a :class:`Hamiltonian` from a mapping with a ``pieces`` list and,
    optionally, ``mesh``."""
    if not isinstance(doc, Mapping):
        raise ValidationError(f"cannot interpret Hamiltonian data: {doc!r}")
    return Hamiltonian(pieces=doc.get("pieces", ()), mesh=doc.get("mesh"))


# -- string -> Hamiltonian ----------------------------------------------------


def string_to_hamiltonian(spec: StringSpec, mesh: int = 256) -> Hamiltonian:
    """Hamiltonian of a string in travel coordinates.

    Exact piecewise-constant output whenever omega is purely atomic (any
    upsilon); pieces where omega carries a density are approximated by
    ``mesh`` equal travel-coordinate cells each, with cell averages of
    h22 and h12 (this preserves total extent, x-extent and int w exactly up
    to rounding).  A density of omega on an unbounded interval cannot be
    meshed and raises UnsupportedShape.  Raises :class:`ValidationError`
    unless ``mesh`` is an integer >= 1.
    """
    mesh = _checked_mesh(mesh)
    view = coefficient_view(spec)
    x0, x1 = view.bp, np.append(view.bp[1:], spec.length)
    wr, a = view.w_right, view.dens_omega
    atom = view.atom_upsilon > 0.0
    flat = (x1 > x0) & (a == 0.0)
    meshed = np.flatnonzero((x1 > x0) & (a != 0.0))
    if np.isinf(x1[meshed]).any():
        raise UnsupportedShape(
            "omega density on an unbounded interval has no finite piecewise"
            " representation; truncate the string instead"
        )
    # Breakpoint j gives, in this order, a blocked piece for its upsilon point
    # mass, then one constant piece or ``mesh`` cells up to the next one.
    rows = atom.astype(int) + flat
    rows[meshed] += mesh
    first = np.cumsum(rows) - rows
    after = first + atom
    pieces = np.empty((int(rows.sum()) + math.isfinite(spec.length), 3))
    pieces[first[atom], 0] = view.atom_upsilon[atom]
    pieces[first[atom], 1:] = (1.0, 0.0)
    rate = 1.0 + wr[flat] * wr[flat] + view.dens_upsilon[flat]
    h22 = 1.0 / rate
    pieces[after[flat]] = np.column_stack((rate * (x1 - x0)[flat], 1.0 - h22, wr[flat] * h22))
    # The cells of every meshed piece at once: equal travel steps from
    # sigma(x0+) to sigma(x1-), their positions from one call to xi, and int w
    # there from one call to w_integral.
    if len(meshed):
        s0, s1 = view.sigma_right[meshed], view.sigma_left[meshed + 1]
        ss = np.column_stack((s0[:, None] + np.arange(mesh) * ((s1 - s0) / mesh)[:, None], s1))
        xs = np.column_stack((x0[meshed], view.xi(ss[:, 1:-1]), x1[meshed]))
        ds = np.diff(ss)
        cells = np.stack((ds, 1.0 - np.diff(xs) / ds, np.diff(view.w_integral(xs)) / ds), axis=-1)
        pieces[after[meshed, None] + np.arange(mesh)] = cells
    if math.isfinite(spec.length):
        pieces[-1] = (_INF, 1.0, 0.0)
    return Hamiltonian(pieces, mesh=mesh if len(meshed) else None)


# -- Hamiltonian -> string ----------------------------------------------------


def hamiltonian_to_string(ham: Hamiltonian) -> StringSpec:
    """String whose travel-coordinate Hamiltonian is ``ham``.

    Position advances by h22 per unit extent, w = h12/h22 per piece (jumps
    become omega point masses), the upsilon density is det H/h22^2, finite
    blocked pieces are upsilon point masses, and a trailing infinite blocked
    piece terminates the string at the current position.  Slope jumps below
    rounding noise relative to the neighbouring slopes are treated as
    continuity rather than emitted as spurious point masses, and a det H
    within a few ulps of trace H = 1 is 0, not a spurious upsilon density.
    """
    extent, h11, h12 = ham.pieces.T
    h22 = 1.0 - h11
    x = np.add.accumulate(np.append(0.0, h22[:-1] * extent[:-1]))
    free = h22 != 0.0
    atoms = ~free & np.isfinite(extent)
    w = h12[free] / h22[free]
    # A slope is compared with the last one emitted, so drifts below the
    # tolerance cannot add up to a jump unseen; that makes this a loop.
    kept, w_prev = [], 0.0
    for k, w_here in enumerate(w.tolist()):
        if abs(w_here - w_prev) > _JUMP_TOL * max(1.0, abs(w_here), abs(w_prev)):
            kept.append(k)
            w_prev = w_here
    det = (h11 * h22 - h12 * h12)[free]
    dens = det > _DET_ROUNDING
    xf, h22f = x[free], h22[free]
    return StringSpec(
        length=_INF if free[-1] else x[-1],
        omega=MeasureData(atoms=tuple(zip(xf[kept].tolist(), np.diff(w[kept], prepend=0.0).tolist()))),
        upsilon=MeasureData(
            atoms=tuple(zip(x[atoms].tolist(), extent[atoms].tolist())),
            density=tuple(zip(xf[dens].tolist(), (xf + h22f * extent[free])[dens].tolist(),
                              (det / (h22f * h22f))[dens].tolist())),
        ),
    )


# -- canonical Weyl function -------------------------------------------------


def canonical_m_grid(ham: Hamiltonian, zs) -> np.ndarray:
    """Canonical Weyl function lim U11/U12 for an array of non-real z.

    It is the Weyl function of :func:`hamiltonian_to_string` of ``ham``, so
    the string sweep of :func:`weyl_m_grid` evaluates it; the result has the
    shape of ``zs``.
    """
    zarr = np.asarray(zs, dtype=complex)
    return _m_values(hamiltonian_to_string(ham), zarr.ravel())[1].reshape(zarr.shape)
