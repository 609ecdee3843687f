"""Exception types shared across the package."""


class IsodimerError(Exception):
    """Base class for all package errors."""


class DomainError(IsodimerError):
    """Argument outside the admissible domain (modulus, angle or spectral value)."""


class PoleError(IsodimerError):
    """Evaluation requested at (or too close to) a pole."""


class ParseError(IsodimerError):
    """Malformed graph JSON."""


class EmbeddingError(IsodimerError):
    """Embedded graph is not planar straight-line (crossing edges)."""


class IsoradialityError(IsodimerError):
    """Graph fails the isoradiality requirements (radius, center position, angle margins)."""


class InfeasibleError(IsodimerError):
    """Requested admissible spectral values cannot be placed at the given margin."""


class BijectionError(IsodimerError):
    """A combinatorial bijection produced an inconsistent image (internal bug signal)."""


class OrientationError(IsodimerError):
    """An induced orientation fails the clockwise-odd check (internal bug signal)."""


class SingularityError(IsodimerError):
    """Matrix numerically singular where invertibility is required."""


class LUPatternError(IsodimerError):
    """Selected inversion read an entry outside the structural LU pattern (internal bug signal)."""


class NotGaugeEquivalentError(IsodimerError):
    """Two matrices fail the cycle-product test; carries the offending cycle."""

    def __init__(self, message, cycle=None):
        super().__init__(message)
        self.cycle = cycle


class NegativeRadicandError(IsodimerError):
    """A radicand that must be positive for real spectral values came out negative."""


class OracleBudgetError(IsodimerError):
    """Brute-force enumeration exceeded its configured budget."""
