"""Exception types shared across the package."""

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
    """An argument is outside the mathematical domain of the operation."""


class NoArbitrageError(DomainError):
    """An option price violates its static no-arbitrage bounds."""


class ConvergenceError(SmilecalError):
    """An iterative solver failed to converge."""


class GridError(SmilecalError, ValueError):
    """A density grid, or a sampled curve, is too coarse or too narrow for analysis."""


class CriticalSearchError(SmilecalError):
    """No unimodality transition found inside the plateau-ratio search range."""


class IdentifiabilityError(SmilecalError):
    """The data cannot pin down all fit constants (rank-deficient design)."""


class QuoteFormatError(SmilecalError, ValueError):
    """A quote file could not be parsed."""
