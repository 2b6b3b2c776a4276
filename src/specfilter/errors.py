"""Exception types shared across the toolkit."""


class SpecFilterError(Exception):
    """Base class for all toolkit errors."""


class RankDeficient(SpecFilterError):
    """A sensor matrix has numerically dependent columns."""


class GridMismatch(SpecFilterError):
    """Two spectral objects are sampled on different wavelength grids."""


class OutOfRange(SpecFilterError):
    """A resampling target extends beyond the source wavelength range."""


class ShapeError(SpecFilterError):
    """A table or matrix does not have the expected shape."""


class ParseError(SpecFilterError):
    """A spectral CSV or manifest file could not be parsed.

    ``line`` is the 1-based line number of the offending row when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvalidWhitePoint(SpecFilterError):
    """A CIELAB white point has a non-positive component."""


class ConsistencyError(SpecFilterError):
    """An internal numerical invariant was violated (likely a bug, not round-off)."""
