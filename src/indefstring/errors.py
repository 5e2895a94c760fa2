"""Exception types shared across the toolkit."""
from __future__ import annotations


class IndefStringError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(IndefStringError, ValueError):
    """Invalid input data (string spec, Hamiltonian, grid, ...)."""


class NonPositiveLength(ValidationError):
    """String length must be strictly positive (infinite is allowed)."""


class NegativeUpsilon(ValidationError):
    """The second coefficient measure must be non-negative."""


class PositionOutOfRange(ValidationError):
    """A position or interval lies outside the admissible range [0, L)."""


class OverlappingDensityIntervals(ValidationError):
    """Density intervals of one measure must be pairwise disjoint."""


class NonRealRequired(ValidationError):
    """The requested evaluation point must have a non-zero imaginary part."""


class NotAtomic(ValidationError):
    """Operation requires a purely atomic string (no density pieces)."""


class NotFiniteLength(ValidationError):
    """Operation requires a string of finite length."""


class WindowTouchesAtomZero(ValidationError):
    """Spectral windows must exclude a neighbourhood of zero."""


class UnsupportedShape(ValidationError):
    """Input is outside the representable class of this operation."""


class DegenerateHamiltonian(ValidationError):
    """Hamiltonian carries no string part (second diagonal entry vanishes a.e.)."""


class ComputationError(IndefStringError, ArithmeticError):
    """A numerical procedure failed to reach its target accuracy."""


class TruncationNotConverged(ComputationError):
    """Truncation limit did not stabilise within the schedule."""


class ExtrapolationUnstable(ComputationError):
    """Limit extrapolation produced a non-contracting correction sequence."""
