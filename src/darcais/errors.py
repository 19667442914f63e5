"""Exception types shared across the package."""


class DarcaisError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(DarcaisError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class TableExhaustedError(DarcaisError, LookupError):
    """A table-backed arithmetic function was queried beyond its last entry."""

