"""Spectral data types and the rank, basis and resampling helpers every other module uses.

Everything here is a plain value object over float64 numpy arrays: a uniform
wavelength grid, a single spectral curve on that grid, an n-by-3 sensor matrix,
an orthonormalized basis of a sensor matrix, and a 3-by-3 correction matrix.
Every value type in the package holds its arrays through ``frozen_array``:
C-ordered, read-only float64 copies, checked for shape and finiteness on
construction, so instances are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, OutOfRange, RankDeficient, ShapeError

# Columns count as dependent when the smallest singular value falls below
# this fraction of the largest.
RANK_TOLERANCE = 1e-10


def frozen_array(owner, name: str, shape: tuple, what: str) -> np.ndarray:
    """Replace field ``name`` of the frozen dataclass ``owner`` with a C-ordered, read-only float64 copy.

    ``shape`` gives each axis's length, ``None`` for any length.  Another
    shape raises ``ShapeError`` and a nan or inf ``ValueError``, both naming
    the array as ``what``.  Returns the copy.
    """
    arr = np.array(getattr(owner, name), dtype=float, order="C")
    if arr.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, arr.shape)):
        raise ShapeError(f"{what} must be {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    arr.setflags(write=False)
    object.__setattr__(owner, name, arr)
    return arr


@dataclass(frozen=True)
class WavelengthGrid:
    """A uniform sampling of wavelength, ``count`` points from ``start`` in steps of ``step`` (nm)."""

    start: float
    step: float
    count: int

    def __post_init__(self):
        if not (self.step > 0):
            raise ValueError(f"grid step must be positive, got {self.step}")
        if self.count < 3:
            raise ValueError(f"grid needs at least 3 samples, got {self.count}")

    @property
    def stop(self) -> float:
        """Last sampled wavelength in nm."""
        return self.start + self.step * (self.count - 1)

    def wavelengths(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count, dtype=float)


#: 400 nm to 700 nm every 10 nm, the usual 31-sample visible-range grid.
DEFAULT_GRID = WavelengthGrid(400.0, 10.0, 31)


@dataclass(frozen=True)
class SpectralCurve:
    """One spectral function sampled on a grid: a filter, an illuminant or a reflectance."""

    grid: WavelengthGrid
    values: np.ndarray

    def __post_init__(self):
        frozen_array(self, "values", (self.grid.count,), "curve values")


@dataclass(frozen=True)
class SensorSet:
    """Three-channel spectral sensitivities, one wavelength per row.

    Columns must be linearly independent: construction fails with
    ``RankDeficient`` otherwise, so every sensor set is rank 3, a filtered
    camera from ``apply_filter`` included.
    """

    grid: WavelengthGrid
    channels: np.ndarray

    def __post_init__(self):
        channels = frozen_array(self, "channels", (self.grid.count, 3), "sensor matrix")
        if not full_rank(channels, channels.T @ channels):
            raise RankDeficient("sensor matrix is rank deficient (columns are numerically dependent)")

    def channel_peaks(self) -> np.ndarray:
        """Per-channel maximum, recorded for reporting; sensitivities are never rescaled."""
        return self.channels.max(axis=0)


@dataclass(frozen=True)
class OrthoBasis:
    """An orthonormal n-by-3 basis V of a sensor set's column space: V^T V = I."""

    grid: WavelengthGrid
    basis: np.ndarray

    def __post_init__(self):
        basis = frozen_array(self, "basis", (self.grid.count, 3), "basis")
        if np.max(np.abs(basis.T @ basis - np.eye(3))) > 1e-12:
            raise ValueError("basis columns are not orthonormal to 1e-12")


@dataclass(frozen=True)
class CorrectionMatrix:
    """A 3x3 linear map from one tristimulus space toward another."""

    m: np.ndarray

    def __post_init__(self):
        frozen_array(self, "m", (3, 3), "correction matrix")


def rank_ratio(matrix: np.ndarray) -> float:
    """Smallest singular value over largest; 0 for an all-zero matrix."""
    singular = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    if singular[0] == 0.0:
        return 0.0
    return float(singular[-1] / singular[0])


def full_rank(a: np.ndarray, gram: np.ndarray) -> np.bool_ | np.ndarray:
    """``rank_ratio(a) > RANK_TOLERANCE`` for an n-by-3 matrix or each of a stack of them.

    ``gram`` is G = a^T a, which callers form anyway for their 3x3 solve.  With
    G's eigenvalues l1 >= l2 >= l3, 4 det(G / tr G) = 4 l1 l2 l3 / (l1 + l2 + l3)^3
    <= l3 / l1 = rank_ratio(a)^2, so a bound above 1e-8 (far enough above
    RANK_TOLERANCE^2 to dwarf round-off) settles full rank without an SVD.
    ``rank_ratio`` decides the rest, and any G with tr G below 1e-290, whose
    subnormal entries may have lost digits.  Returns a numpy bool or bool array.
    ``a`` is read only for those, as ``a[index]`` for G = ``gram[index]``
    (``a[()]`` for one G), so it may be an object that forms them on demand.

    One G, the optimizers' hot case, is bounded on its nine entries as Python
    floats, where numpy's call overhead would cost ten times the arithmetic.
    Its cofactor det is divided by t = tr G three times, not by t^3: t^3
    underflows to 0 for t below about 1e-103, and a Python float division by
    0 raises.  Only a finite bound settles full rank, because an overflowed
    det is inf or nan, and +inf occurs for rank-2 matrices with entries near 1e60.
    """
    if gram.ndim == 2:
        (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = gram.tolist()
        t = g00 + g11 + g22
        if t > 1e-290:
            det = (g00 * (g11 * g22 - g12 * g21) - g01 * (g10 * g22 - g12 * g20)
                   + g02 * (g10 * g21 - g11 * g20))
            if 1e-8 < 4.0 * det / t / t / t < math.inf:
                return np.True_
        return np.bool_(rank_ratio(a[()]) > RANK_TOLERANCE)
    trace = gram.trace(axis1=-2, axis2=-1)
    # A zero or overflowed trace gives a nan bound, which rank_ratio then decides.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        bound = 4.0 * np.linalg.det(gram / trace[..., None, None])
    decided = (trace > 1e-290) & (bound > 1e-8)
    if decided.all():
        return decided
    full = np.array(decided)
    for index in np.ndindex(full.shape):
        if not full[index]:
            full[index] = rank_ratio(a[index]) > RANK_TOLERANCE
    return full[()]


def require_same_grid(*grids: WavelengthGrid) -> None:
    first = grids[0]
    for other in grids[1:]:
        if other != first:
            raise GridMismatch(f"wavelength grids differ: {first} vs {other}")


def orthonormalize(x: SensorSet) -> OrthoBasis:
    """Orthonormal basis V of a sensor set's column space via thin QR.

    Column signs follow the convention diag(R) > 0, so an already-orthonormal
    input maps to itself.
    """
    q, r = np.linalg.qr(x.channels)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return OrthoBasis(x.grid, q * signs)


def apply_filter(f: SpectralCurve, q: SensorSet) -> SensorSet:
    """Sensitivities seen through a transmissive filter: row i scaled by f[i].

    The result is a validated ``SensorSet``, so a filter that zeroes out a
    channel raises ``RankDeficient`` here.
    """
    require_same_grid(f.grid, q.grid)
    return SensorSet(q.grid, f.values[:, None] * q.channels)


def interp_columns(
    wavelengths: np.ndarray, columns: np.ndarray, target: WavelengthGrid
) -> np.ndarray:
    """Column-wise linear interpolation from arbitrary increasing wavelengths onto a grid.

    Raises ``OutOfRange`` if the target extends beyond the source endpoints
    (a 1e-9 nm slack absorbs float fuzz).  Shared wavelengths are preserved
    exactly; when the source wavelengths are the target grid, the result is a
    copy of ``columns``.
    """
    slack = 1e-9
    if target.start < wavelengths[0] - slack or target.stop > wavelengths[-1] + slack:
        raise OutOfRange(
            f"target grid {target.start}..{target.stop} nm exceeds source range "
            f"{wavelengths[0]}..{wavelengths[-1]} nm"
        )
    out_wl = target.wavelengths()
    if np.array_equal(wavelengths, out_wl):
        # np.interp returns the data at a shared knot bit for bit.
        return columns.astype(float, order="C")
    out = np.empty((target.count, columns.shape[1]))
    for j in range(columns.shape[1]):
        out[:, j] = np.interp(out_wl, wavelengths, columns[:, j])
    return out
