"""Exception types shared by the library and mapped to CLI exit codes."""

__all__ = [
    "DataFormatError",
    "DegenerateModelError",
    "InvalidPointError",
    "PhotoevapError",
    "UnderdeterminedError",
]


class PhotoevapError(Exception):
    """Base class for all package-specific errors."""


class DataFormatError(PhotoevapError, ValueError):
    """Malformed or out-of-range input data (CSV files, lookup tables)."""


class DegenerateModelError(PhotoevapError, ValueError):
    """A model evaluation collapsed (non-positive normalisation or yield, a spectrum that does not fall) or left the float range."""


class UnderdeterminedError(PhotoevapError, ValueError):
    """Too few usable data points for the requested extraction."""


class InvalidPointError(PhotoevapError, ValueError):
    """A point cannot enter the fit: its value is non-positive or unweightable, or it cannot be scaled."""
