"""Loading and validation of spectral data files.

The one canonical file format is a comma-separated table whose first column
is wavelength in nm, one spectrum per remaining column.  A header row is
optional (detected by a non-numeric first cell) and ``#`` lines are comments.
Non-uniform wavelength spacing is accepted at parse time and flagged; data is
brought onto a uniform grid by linear interpolation when loaded into typed
objects.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .cie1931 import CIE_1931_2DEG_400_700_10NM
from .colorimetry import SceneSet
from .errors import ParseError, ShapeError
from .spectra import (
    DEFAULT_GRID,
    SensorSet,
    SpectralCurve,
    WavelengthGrid,
    interp_columns,
)

# Relative spacing jitter below this still counts as a uniform grid.
_UNIFORM_RTOL = 1e-6


@dataclass(frozen=True)
class SpectralTable:
    """A parsed spectral file: raw wavelengths plus one named data column per spectrum."""

    wavelengths: np.ndarray
    column_names: tuple[str, ...]
    columns: np.ndarray

    def __post_init__(self):
        wavelengths = np.array(self.wavelengths, dtype=float)
        columns = np.array(self.columns, dtype=float)
        wavelengths.setflags(write=False)
        columns.setflags(write=False)
        if columns.ndim != 2 or columns.shape[0] != wavelengths.shape[0]:
            raise ShapeError(f"column block {columns.shape} does not match {wavelengths.shape[0]} wavelengths")
        if len(self.column_names) != columns.shape[1]:
            raise ShapeError(
                f"{len(self.column_names)} names for {columns.shape[1]} columns"
            )
        object.__setattr__(self, "wavelengths", wavelengths)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "column_names", tuple(self.column_names))

    @property
    def is_uniform(self) -> bool:
        steps = np.diff(self.wavelengths)
        return bool(np.all(np.abs(steps - steps[0]) <= _UNIFORM_RTOL * abs(steps[0])))

    @property
    def grid(self) -> WavelengthGrid:
        """The table's grid; only defined once spacing is uniform."""
        if not self.is_uniform:
            raise ValueError("table wavelengths are not uniformly spaced; resample first")
        step = (self.wavelengths[-1] - self.wavelengths[0]) / (len(self.wavelengths) - 1)
        return WavelengthGrid(float(self.wavelengths[0]), float(step), len(self.wavelengths))

    def resampled_columns(self, target: WavelengthGrid) -> np.ndarray:
        return interp_columns(self.wavelengths, self.columns, target)

    def curves(self, target: WavelengthGrid) -> list[SpectralCurve]:
        resampled = self.resampled_columns(target)
        return [SpectralCurve(target, resampled[:, j]) for j in range(resampled.shape[1])]


def parse_spectral_csv(data: bytes | str) -> SpectralTable:
    """Parse a wavelength-first CSV into a validated table.

    Raises ``ParseError`` with the offending line number for ragged rows,
    non-numeric or non-finite cells, non-increasing wavelengths, or an empty
    table.  A leading UTF-8 byte-order mark is ignored.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}") from None
    else:
        text = data
    text = text.removeprefix("\ufeff")

    header: tuple[str, ...] | None = None
    rows: list[list[float]] = []
    row_lines: list[int] = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [cell.strip() for cell in line.split(",")]
        if width is None:
            if len(cells) < 2:
                raise ParseError("need a wavelength column plus at least one data column", lineno)
            try:
                float(cells[0])
            except ValueError:
                header = tuple(cells[1:])
                width = len(cells)
                continue
            width = len(cells)
        if len(cells) != width:
            raise ParseError(f"ragged row: expected {width} cells, got {len(cells)}", lineno)
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError:
            raise ParseError(f"non-numeric cell in {line!r}", lineno) from None
        row_lines.append(lineno)

    if not rows:
        raise ParseError("no data rows")
    table = np.array(rows)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise ParseError("non-finite cell (nan or inf)", row_lines[int(np.argmin(finite))])
    wavelengths = table[:, 0]
    for i in range(1, len(wavelengths)):
        if wavelengths[i] <= wavelengths[i - 1]:
            raise ParseError(
                f"wavelengths must be strictly increasing; {wavelengths[i]:g} nm "
                f"follows {wavelengths[i - 1]:g} nm",
                row_lines[i],
            )
    names = header if header is not None else tuple(f"col{j}" for j in range(1, table.shape[1]))
    return SpectralTable(wavelengths, names, table[:, 1:])


def serialize_spectral_csv(table: SpectralTable) -> str:
    """Render a table back to the canonical CSV; values round-trip bit-for-bit."""
    lines = ["wavelength," + ",".join(table.column_names)]
    for i in range(len(table.wavelengths)):
        cells = [repr(float(table.wavelengths[i]))]
        cells += [repr(float(v)) for v in table.columns[i]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def load_sensor_set(table: SpectralTable, target: WavelengthGrid = DEFAULT_GRID) -> SensorSet:
    """Resample a three-column table onto a grid and validate it as a sensor set."""
    if table.columns.shape[1] != 3:
        raise ShapeError(
            f"a sensor set needs exactly 3 data columns, got {table.columns.shape[1]}"
        )
    return SensorSet(target, table.resampled_columns(target))


def builtin_cmf() -> SensorSet:
    """The CIE 1931 2-degree standard observer on the default 400-700/10 nm grid."""
    return SensorSet(DEFAULT_GRID, CIE_1931_2DEG_400_700_10NM[:, 1:])


@dataclass(frozen=True)
class DatasetManifest:
    """Paths (resolved against the manifest's directory) naming a dataset."""

    camera: str | None = None
    cmf: str = "cie1931"
    illuminants: str | None = None
    reflectances: str | None = None
    extra: tuple[tuple[str, str], ...] = field(default_factory=tuple)


_MANIFEST_KEYS = {"camera", "cmf", "illuminants", "reflectances"}


def parse_manifest(text: str, base_dir: str = ".") -> DatasetManifest:
    """Parse ``key = value`` manifest lines; unknown keys are kept as extras."""
    values: dict[str, str] = {}
    extra: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key in _MANIFEST_KEYS:
            values[key] = value
        else:
            extra.append((key, value))

    def resolve(key: str) -> str | None:
        if key not in values:
            return None
        return os.path.normpath(os.path.join(base_dir, values[key]))

    return DatasetManifest(
        camera=resolve("camera"),
        cmf=values.get("cmf", "cie1931"),
        illuminants=resolve("illuminants"),
        reflectances=resolve("reflectances"),
        extra=tuple(extra),
    )


def read_manifest(path: str) -> DatasetManifest:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_manifest(handle.read(), base_dir=os.path.dirname(os.path.abspath(path)))


def read_spectral_csv(path: str) -> SpectralTable:
    with open(path, "rb") as handle:
        return parse_spectral_csv(handle.read())


def load_cmf(choice: str, target: WavelengthGrid = DEFAULT_GRID) -> SensorSet:
    """Resolve a CMF choice: ``cie1931`` or ``file:<path>`` to a spectral CSV."""
    if choice == "cie1931":
        if target == DEFAULT_GRID:
            return builtin_cmf()
        table = SpectralTable(
            CIE_1931_2DEG_400_700_10NM[:, 0],
            ("x_bar", "y_bar", "z_bar"),
            CIE_1931_2DEG_400_700_10NM[:, 1:],
        )
        return load_sensor_set(table, target)
    if choice.startswith("file:"):
        return load_sensor_set(read_spectral_csv(choice[len("file:"):]), target)
    raise ValueError(f"unknown CMF choice {choice!r} (use 'cie1931' or 'file:<path>')")


def load_scene_set(
    manifest: DatasetManifest, grid: WavelengthGrid = DEFAULT_GRID
) -> SceneSet:
    """Load the manifest's illuminant and reflectance collections onto one grid."""
    if manifest.illuminants is None or manifest.reflectances is None:
        raise ValueError("manifest must name both illuminants and reflectances files")
    illuminants = read_spectral_csv(manifest.illuminants).curves(grid)
    reflectances = read_spectral_csv(manifest.reflectances).curves(grid)
    return SceneSet(tuple(illuminants), tuple(reflectances), grid)
