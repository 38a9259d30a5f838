"""Exception types shared by the library and mapped to CLI exit codes."""

__all__ = [
    "DataFormatError",
    "DegenerateModelError",
    "InvalidPointError",
    "PhotoevapError",
    "UnderdeterminedError",
    "UnscalablePointError",
]


class PhotoevapError(Exception):
    """Base class for all package-specific errors."""


class DataFormatError(PhotoevapError, ValueError):
    """Malformed or out-of-range input data (CSV files, lookup tables)."""


class DegenerateModelError(PhotoevapError, ValueError):
    """A model evaluation collapsed (non-positive normalisation or yield)."""


class UnderdeterminedError(PhotoevapError, ValueError):
    """Too few usable data points for the requested extraction."""


class InvalidPointError(PhotoevapError, ValueError):
    """A data point cannot enter the computation (e.g. non-positive value)."""


class UnscalablePointError(PhotoevapError, ValueError):
    """A spectrum point cannot be scaled: its divisor vanishes or its scaled value overflows."""
