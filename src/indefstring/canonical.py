"""Trace-normed canonical systems and their correspondence with strings.

A Hamiltonian here is a piecewise-constant, real, symmetric, positive
semidefinite 2x2 matrix function H on [0, inf) with unit trace per piece
(h22 = 1 - h11 is implied).  Strings map onto such Hamiltonians through the
travel-coordinate change of variables: with xi the generalized inverse of
sigma,

    H(s) = [[1 - xi'(s),  xi'(s) w(xi(s))],
            [xi'(s) w(xi(s)),  xi'(s)]],

which is exactly piecewise constant whenever w is piecewise constant, i.e.
for purely atomic omega; pieces where omega carries a density are resolved
by a recorded equal-travel-step mesh.  Blocked pieces ([[1, 0], [0, 0]])
appear exactly where sigma jumps (upsilon point masses) and beyond sigma(L).

The reverse direction reads the string off H piece by piece: position
x(s) = int_0^s h22, w = h12/h22, upsilon density det H / h22^2, finite
blocked pieces become upsilon point masses, and a trailing infinite blocked
piece ends the string at the current position.

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

from .coefficients import MeasureData, StringSpec, _parse_extent, coefficient_view
from .errors import DegenerateHamiltonian, NonPositiveLength, UnsupportedShape, ValidationError
from .weyl import weyl_m_grid

_INF = math.inf
_DET_TOL = 1e-12


@dataclass(frozen=True)
class HamiltonianPiece:
    """One constant piece: extent and the two free matrix entries."""

    length: float
    h11: float
    h12: float

    @property
    def h22(self) -> float:
        return 1.0 - self.h11

    @property
    def det(self) -> float:
        return self.h11 * self.h22 - self.h12 * self.h12

    def is_blocked(self) -> bool:
        """True for the rank-one piece [[1, 0], [0, 0]] (no travel in x)."""
        return self.h11 == 1.0 and self.h12 == 0.0


@dataclass(frozen=True)
class Hamiltonian:
    """Piecewise-constant trace-normed Hamiltonian covering [0, inf).

    Validated when it is built: pieces must have positive extent, unit trace
    (implied), h11 in [0, 1], det >= -1e-12, exactly one infinite piece at
    the end, and must not all be blocked; adjacent equal pieces are merged.
    Pieces may be given as :class:`HamiltonianPiece`, ``(len, h11, h12)``
    entries or mappings with those keys.

    ``mesh`` records the equal-travel-step resolution used when a string
    with omega densities was approximated; None means the pieces are exact.
    """

    pieces: tuple[HamiltonianPiece, ...]
    mesh: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "pieces", _normalize_pieces(self.pieces))
        if self.mesh is not None:
            object.__setattr__(self, "mesh", _checked_mesh(self.mesh))


def _checked_mesh(mesh) -> int:
    """``mesh`` as an int; raises :class:`ValidationError` unless it is an
    integer >= 1 (numpy integers count, bools do not)."""
    if isinstance(mesh, bool) or not isinstance(mesh, (int, np.integer)) or mesh < 1:
        raise ValidationError(f"mesh must be an integer >= 1, got {mesh!r}")
    return int(mesh)


def _coerce_piece(raw) -> HamiltonianPiece:
    if isinstance(raw, HamiltonianPiece):
        return raw
    if isinstance(raw, Mapping):
        return HamiltonianPiece(
            length=_parse_extent(raw["len"]), h11=float(raw["h11"]), h12=float(raw["h12"])
        )
    length, h11, h12 = raw
    return HamiltonianPiece(length=_parse_extent(length), h11=float(h11), h12=float(h12))


def _normalize_pieces(raw) -> tuple[HamiltonianPiece, ...]:
    """Coerce, check and fuse the pieces of a :class:`Hamiltonian`."""
    pieces = [_coerce_piece(p) for p in raw]
    if not pieces:
        raise ValidationError("Hamiltonian needs at least one piece")
    for k, p in enumerate(pieces):
        if math.isnan(p.length) or p.length <= 0.0:
            raise NonPositiveLength(f"piece {k} has non-positive extent {p.length}")
        if math.isinf(p.length) and k + 1 < len(pieces):
            raise ValidationError(f"only the final piece may be infinite (piece {k})")
        if not (math.isfinite(p.h11) and math.isfinite(p.h12)):
            raise ValidationError(f"piece {k} entries must be finite")
        if not 0.0 <= p.h11 <= 1.0:
            raise ValidationError(f"piece {k} has h11={p.h11} outside [0, 1]")
        if p.det < -_DET_TOL:
            raise ValidationError(f"piece {k} is not positive semidefinite (det={p.det:g})")
        if p.h22 == 0.0 and p.h12 != 0.0:
            raise ValidationError(f"piece {k} has h22=0 but h12={p.h12}; semidefiniteness needs h12=0")
        if p.h11 == 0.0 and p.h12 != 0.0:
            raise ValidationError(f"piece {k} has h11=0 but h12={p.h12}; semidefiniteness needs h12=0")
    if not math.isinf(pieces[-1].length):
        raise ValidationError("the final piece must be infinite so H covers [0, inf)")

    fused: list[HamiltonianPiece] = []
    for p in pieces:
        if fused and fused[-1].h11 == p.h11 and fused[-1].h12 == p.h12:
            prev = fused[-1]
            fused[-1] = HamiltonianPiece(prev.length + p.length, prev.h11, prev.h12)
        else:
            fused.append(p)
    if all(p.is_blocked() for p in fused):
        raise DegenerateHamiltonian("H is the blocked matrix [[1,0],[0,0]] everywhere")
    return tuple(fused)


def hamiltonian_to_json(ham: Hamiltonian) -> dict:
    doc = {
        "pieces": [
            {"len": "inf" if math.isinf(p.length) else p.length, "h11": p.h11, "h12": p.h12}
            for p in ham.pieces
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
    pieces: list[HamiltonianPiece] = []
    meshed = False
    n = len(view.bp)
    for j in range(n):
        x0 = float(view.bp[j])
        mass = float(view.atom_upsilon[j])
        if mass > 0.0:
            pieces.append(HamiltonianPiece(mass, 1.0, 0.0))
        x1 = float(view.bp[j + 1]) if j + 1 < n else spec.length
        if not x1 > x0:
            continue
        slope = float(view.dens_omega[j])
        bval = float(view.dens_upsilon[j])
        w0 = float(view.w_right[j])
        if slope == 0.0:
            rate = 1.0 + w0 * w0 + bval
            h22 = 1.0 / rate
            pieces.append(HamiltonianPiece(rate * (x1 - x0), 1.0 - h22, w0 * h22))
            continue
        if math.isinf(x1):
            raise UnsupportedShape(
                "omega density on an unbounded interval has no finite piecewise"
                " representation; truncate the string instead"
            )
        meshed = True
        s0 = float(view.sigma_right[j])
        s1 = float(view.sigma_left[j + 1])
        step = (s1 - s0) / mesh
        ss = [s0 + k * step for k in range(mesh)] + [s1]
        xs = [x0] + [view.xi(sk) for sk in ss[1:-1]] + [x1]
        ints = view.w_integral(np.array(xs)).tolist()
        for k in range(mesh):
            ds = ss[k + 1] - ss[k]
            h22 = (xs[k + 1] - xs[k]) / ds
            h12 = (ints[k + 1] - ints[k]) / ds
            pieces.append(HamiltonianPiece(ds, 1.0 - h22, h12))
    if math.isfinite(spec.length):
        pieces.append(HamiltonianPiece(_INF, 1.0, 0.0))
    return Hamiltonian(tuple(pieces), mesh=mesh if meshed else None)


# -- Hamiltonian -> string ----------------------------------------------------


def hamiltonian_to_string(ham: Hamiltonian) -> StringSpec:
    """String whose travel-coordinate Hamiltonian is ``ham``.

    Position advances by h22 per unit extent, w = h12/h22 per piece (jumps
    become omega point masses), the upsilon density is det H/h22^2, finite
    blocked pieces are upsilon point masses, and a trailing infinite blocked
    piece terminates the string at the current position.  Slope jumps below
    rounding noise relative to the neighbouring slopes are treated as
    continuity rather than emitted as spurious point masses.
    """
    x = 0.0
    w_prev = 0.0
    om_atoms: list[tuple[float, float]] = []
    ups_atoms: list[tuple[float, float]] = []
    ups_dens: list[tuple[float, float, float]] = []
    length = _INF
    for p in ham.pieces:
        if p.h22 == 0.0:
            if math.isinf(p.length):
                length = x
                break
            ups_atoms.append((x, p.length))
            continue
        w_here = p.h12 / p.h22
        jump = w_here - w_prev
        if abs(jump) > 4.0 * math.ulp(1.0) * max(1.0, abs(w_here), abs(w_prev)):
            om_atoms.append((x, jump))
            w_prev = w_here
        det = max(p.det, 0.0)
        dx = p.h22 * p.length
        if det > 0.0:
            ups_dens.append((x, x + dx, det / (p.h22 * p.h22)))
        x += dx
    return StringSpec(
        length=length,
        omega=MeasureData(atoms=tuple(om_atoms)),
        upsilon=MeasureData(atoms=tuple(ups_atoms), density=tuple(ups_dens)),
    )


# -- canonical Weyl function -------------------------------------------------


def canonical_m_grid(ham: Hamiltonian, zs) -> np.ndarray:
    """Canonical Weyl function lim U11/U12 for an array of non-real z.

    It is the Weyl function of :func:`hamiltonian_to_string` of ``ham``, so
    the string sweep of :func:`weyl_m_grid` evaluates it; the result has the
    shape of ``zs``.
    """
    zarr = np.asarray(zs, dtype=complex)
    samples = weyl_m_grid(hamiltonian_to_string(ham), zarr)
    return np.array([s.m for s in samples], dtype=complex).reshape(zarr.shape)
