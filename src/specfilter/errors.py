"""Exception types shared across the toolkit."""


class SpecFilterError(Exception):
    """Base class for all toolkit errors."""


class RankDeficient(SpecFilterError):
    """A sensor matrix has numerically dependent columns.

    ``index`` locates the first deficient matrix of a stack over its leading
    axes (``()`` for a single matrix) when the raiser knows it.
    """

    def __init__(self, message: str, index: tuple[int, ...] | None = None):
        super().__init__(message)
        self.index = index


class GridMismatch(SpecFilterError):
    """Two spectral objects are sampled on different wavelength grids."""


class OutOfRange(SpecFilterError):
    """A resampling target extends beyond the source wavelength range."""


class ShapeError(SpecFilterError):
    """A table or matrix does not have the expected shape."""


class ParseError(SpecFilterError):
    """A spectral CSV or manifest file could not be parsed.

    ``line`` is the 1-based line number of the offending row and ``path`` the
    file, each when known; the message leads with both.
    """

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        self.reason, self.line, self.path = message, line, path
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class InvalidWhitePoint(SpecFilterError):
    """A CIELAB white point has a non-positive component."""


class ConsistencyError(SpecFilterError):
    """An internal numerical invariant was violated (likely a bug, not round-off)."""
