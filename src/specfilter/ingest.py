"""Loading and validation of spectral data files.

The one canonical file format is a comma-separated table whose first column
is wavelength in nm, one spectrum per remaining column.  A header row is
optional (detected by a non-numeric first cell) and ``#`` lines are comments.
Non-uniform wavelength spacing is accepted at parse time.  Every loader
takes a path and brings its data onto the working grid, ``DEFAULT_GRID``
(400-700 nm every 10 nm), by linear interpolation; ``spectra.interp_columns``
resamples onto any other grid.  Every error a loader raises names its file.

Each input is opened once, by ``_read``.  Every loader but ``read_manifest``,
whose resolved paths a caller reports itself, takes an optional ``record``,
called with the bytes of each file it parses (for the builtin CMF: its
name), so a caller can hash exactly what was loaded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .cie1931 import CIE_1931_2DEG_400_700_10NM
from .colorimetry import SceneSet
from .errors import ParseError, ShapeError, SpecFilterError
from .spectra import DEFAULT_GRID, SensorSet, frozen_array, interp_columns


@dataclass(frozen=True)
class SpectralTable:
    """A parsed spectral file: the first column (``key_name`` in the header,
    "wavelength" without one) plus one named data column per spectrum."""

    wavelengths: np.ndarray
    column_names: tuple[str, ...]
    columns: np.ndarray
    key_name: str = "wavelength"

    def __post_init__(self):
        object.__setattr__(self, "column_names", tuple(self.column_names))
        rows = len(frozen_array(self, "wavelengths", (None,), "wavelengths"))
        frozen_array(self, "columns", (rows, len(self.column_names)), "data columns")


def _decode(data: bytes | str) -> str:
    """``data`` as text: bytes are decoded as UTF-8, raising ``ParseError`` if they are not."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}") from None


def _lines(text: str):
    """Each (line number, stripped line) of ``text`` that is neither blank nor a ``#`` comment.

    A leading UTF-8 byte-order mark is ignored.
    """
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_spectral_csv(data: bytes | str) -> SpectralTable:
    """Parse a wavelength-first CSV into a validated table.

    Raises ``ParseError`` with the offending line number for ragged rows,
    non-numeric or non-finite cells, a first column that is not strictly
    increasing, or an empty table.  A leading UTF-8 byte-order mark is ignored.
    """
    header: list[str] | None = None
    rows: list[list[float]] = []
    row_lines: list[int] = []
    width = None
    for lineno, line in _lines(_decode(data)):
        # float() strips the whitespace around a number itself.
        cells = line.split(",")
        if width is None:
            width = len(cells)
            if width < 2:
                raise ParseError("need a wavelength column plus at least one data column", lineno)
            try:
                float(cells[0].strip())
            except ValueError:
                header = [cell.strip() for cell in cells]
                continue
        if len(cells) != width:
            raise ParseError(f"expected {width} cells, got {len(cells)}", lineno)
        try:
            rows.append(list(map(float, cells)))
        except ValueError:
            raise ParseError(f"non-numeric cell in {line!r}", lineno) from None
        row_lines.append(lineno)

    if not rows:
        raise ParseError("no data rows")
    table = np.array(rows)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise ParseError("non-finite cell (nan or inf)", row_lines[int(np.argmin(finite))])
    keys = table[:, 0]
    backward = np.flatnonzero(keys[1:] <= keys[:-1])
    if backward.size:
        i = int(backward[0]) + 1
        raise ParseError(
            f"first column must be strictly increasing; {keys[i]:g} follows {keys[i - 1]:g}",
            row_lines[i],
        )
    if header is None:
        header = ["wavelength"] + [f"col{j}" for j in range(1, width)]
    return SpectralTable(keys, tuple(header[1:]), table[:, 1:], header[0])


def serialize_spectral_csv(table: SpectralTable) -> str:
    """Render a table back to the canonical CSV; values round-trip bit-for-bit."""
    # tolist() gives Python floats, whose repr is the shortest round trip.
    # One row at a time: a 10k-column table as Python floats costs ~10 MB.
    lines = [",".join((table.key_name,) + table.column_names)]
    rows = zip(table.wavelengths.tolist(), table.columns)
    lines += [",".join(map(repr, [wl] + row.tolist())) for wl, row in rows]
    return "\n".join(lines) + "\n"


def builtin_cmf() -> SensorSet:
    """The CIE 1931 2-degree standard observer on the default 400-700/10 nm grid."""
    return SensorSet(DEFAULT_GRID, CIE_1931_2DEG_400_700_10NM[:, 1:])


# The CMF choices load_cmf resolves: the builtin observer or a spectral CSV.
CMF_CHOICES = "cie1931 or file:<path>"


@dataclass(frozen=True, kw_only=True)
class DatasetManifest:
    """Paths (resolved against the manifest's directory) naming a dataset.

    ``cmf`` is one of ``CMF_CHOICES``, a file's path resolved likewise.
    """

    camera: str | None = None
    cmf: str = "cie1931"
    illuminants: str
    reflectances: str


_MANIFEST_KEYS = ("camera", "cmf", "illuminants", "reflectances")


def parse_manifest(text: str, base_dir: str = ".") -> DatasetManifest:
    """Parse ``key = value`` manifest lines.

    Raises ``ParseError`` with the line number for a line without ``=``, a
    key other than the four ``DatasetManifest`` fields, a key without a
    value (``cmf = file:`` among them), or a repeated key, and without a line
    number for a manifest that does not name both illuminants and reflectances.
    A leading UTF-8 byte-order mark is ignored.
    """
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in _lines(text):
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key not in _MANIFEST_KEYS:
            raise ParseError(f"unknown key {key!r} (expected one of {', '.join(_MANIFEST_KEYS)})", lineno)
        if not value:
            raise ParseError(f"key {key!r} has no value", lineno)
        if key == "cmf" and value == "file:":
            raise ParseError("key 'cmf' names no file after 'file:'", lineno)
        if key in values:
            raise ParseError(f"key {key!r} repeats line {lines[key]}", lineno)
        values[key], lines[key] = value, lineno
    if "illuminants" not in values or "reflectances" not in values:
        raise ParseError("manifest must name both illuminants and reflectances files")

    def resolve(value: str, prefix: str = "") -> str:
        return prefix + os.path.normpath(os.path.join(base_dir, value[len(prefix):]))

    cmf = values.pop("cmf", "cie1931")
    if cmf.startswith("file:"):
        cmf = resolve(cmf, "file:")
    return DatasetManifest(cmf=cmf, **{key: resolve(value) for key, value in values.items()})


def _discard(data: bytes) -> None:
    """The ``record`` of a caller that keeps no account of its inputs."""


def _read(path: str, parse, record=_discard):
    """``parse`` of the bytes of file ``path``; every ``SpecFilterError`` it raises names the file.

    A ``ParseError`` becomes ``<path>: line N: <reason>``; any other keeps
    its class and reads ``<path>: <message>``.  This is the one place an
    input is opened; the bytes it parses go to ``record`` first.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        record(data)
        return parse(data)
    except ParseError as exc:
        raise ParseError(exc.reason, exc.line, path) from None
    except SpecFilterError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _on_grid(data: bytes, width: int | None) -> tuple[tuple[str, ...], np.ndarray]:
    """The column names of a spectral CSV and its columns resampled onto ``DEFAULT_GRID``.

    With ``width`` given, another number of data columns raises ``ShapeError``.
    """
    table = parse_spectral_csv(data)
    if width is not None and table.columns.shape[1] != width:
        raise ShapeError(f"need exactly {width} data column(s), got {table.columns.shape[1]}")
    return table.column_names, interp_columns(table.wavelengths, table.columns, DEFAULT_GRID)


def read_manifest(path: str) -> DatasetManifest:
    """``parse_manifest`` of a UTF-8 file; its ``ParseError`` names the file."""
    base_dir = os.path.dirname(os.path.abspath(path))
    return _read(path, lambda data: parse_manifest(_decode(data), base_dir))


def read_spectral_csv(path: str, record=_discard) -> SpectralTable:
    """``parse_spectral_csv`` of a file, on its own wavelengths; its ``ParseError`` names the file."""
    return _read(path, parse_spectral_csv, record)


def load_spectra(path: str, width: int | None = None, record=_discard) -> tuple[tuple[str, ...], np.ndarray]:
    """The column names of spectral CSV ``path`` and its n-by-k columns on ``DEFAULT_GRID``.

    With ``width`` given, a file with another number of data columns raises
    ``ShapeError``.  Every error names the file.
    """
    return _read(path, lambda data: _on_grid(data, width), record)


def load_sensor_set(path: str, record=_discard) -> SensorSet:
    """The three-column spectral CSV ``path`` on ``DEFAULT_GRID``, validated as a sensor set.

    Every error, a rank-deficient sensor matrix among them, names the file.
    """
    return _read(path, lambda data: SensorSet(DEFAULT_GRID, _on_grid(data, 3)[1]), record)


def load_cmf(choice: str, record=_discard) -> SensorSet:
    """Resolve a CMF choice (``CMF_CHOICES``) to a sensor set."""
    if choice == "cie1931":
        record(choice.encode("utf-8"))
        return builtin_cmf()
    if choice.startswith("file:") and choice != "file:":
        return load_sensor_set(choice[len("file:"):], record)
    raise ValueError(f"unknown CMF choice {choice!r} (use 'cie1931' or 'file:<path>')")


def load_scene_set(manifest: DatasetManifest, record=_discard) -> SceneSet:
    """Load the manifest's illuminant and reflectance collections onto ``DEFAULT_GRID``, in that order."""
    illuminants = load_spectra(manifest.illuminants, record=record)[1].T
    reflectances = load_spectra(manifest.reflectances, record=record)[1]
    return SceneSet(illuminants, reflectances, DEFAULT_GRID)
