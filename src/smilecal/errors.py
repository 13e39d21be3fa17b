"""Exception types shared across the package.

Every error belongs to one of two families, and the command line exits
with the family's code: :class:`DomainError` (exit 2) for input that is
out of domain, unreadable or unparseable, and :class:`ConvergenceError`
(exit 3) for a solver, search or calibration that found no answer. The
one exception is the ``calibrate`` command: the ``DomainError`` of sweep
rows that cannot be calibrated exits 3 there, as a calibration that found
no answer.
"""

__all__ = [
    "SmilecalError",
    "DomainError",
    "NoArbitrageError",
    "ConvergenceError",
    "GridError",
    "CriticalSearchError",
    "IdentifiabilityError",
    "QuoteFormatError",
]


class SmilecalError(Exception):
    """Base class for all smilecal errors."""


class DomainError(SmilecalError, ValueError):
    """An argument is outside the mathematical domain of the operation (exit 2)."""


class NoArbitrageError(DomainError):
    """An option price violates its static no-arbitrage bounds (exit 2)."""


class ConvergenceError(SmilecalError):
    """An iterative solver failed to converge (exit 3)."""


class GridError(DomainError):
    """A density grid, or a sampled curve, is too coarse or too narrow for analysis (exit 2)."""


class CriticalSearchError(ConvergenceError):
    """No unimodality transition found inside the plateau-ratio search range (exit 3)."""


class IdentifiabilityError(ConvergenceError):
    """The data cannot pin down all fit constants (rank-deficient design) (exit 3)."""


class QuoteFormatError(DomainError):
    """An input could not be read or parsed (exit 2)."""
