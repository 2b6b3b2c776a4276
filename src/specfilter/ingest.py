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
from collections.abc import Iterable, Iterator
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


def _convert_at_once(lines: list[str]) -> np.ndarray:
    """Every data line's cells in one numpy conversion; ``ValueError`` for a cell or row numpy refuses."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _convert_by_line(numbered: list[tuple[int, str]], width: int) -> np.ndarray:
    """Every data line's cells converted a line at a time by ``float()``.

    Raises ``ParseError`` naming the first line that does not hold ``width``
    cells or holds a cell ``float()`` refuses.
    """
    rows = []
    for lineno, line in numbered:
        # float() strips the whitespace around a number itself.
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(f"expected {width} cells, got {len(cells)}", lineno)
        try:
            rows.append(list(map(float, cells)))
        except ValueError:
            raise ParseError(f"non-numeric cell in {line!r}", lineno) from None
    return np.array(rows)


def parse_spectral_csv(data: bytes | str) -> SpectralTable:
    """Parse a wavelength-first CSV into a validated table.

    Raises ``ParseError`` with the offending line number for ragged rows,
    non-numeric or non-finite cells, a first column that is not strictly
    increasing, or an empty table.  A leading UTF-8 byte-order mark is ignored.

    The data lines are converted in one numpy call.  ``float()`` reads each
    cell the same way, but it also takes cells numpy refuses (``1_0``,
    non-ASCII digits) and refuses U+001F beside a number, which numpy strips.
    So a file numpy refuses, whose column count is not the first line's, or
    that holds U+001F goes through ``_convert_by_line``, which accepts what
    ``float()`` accepts and names the line of the first bad row.
    """
    text = _decode(data)
    numbered = list(_lines(text))
    header: list[str] | None = None
    if numbered:
        lineno, line = numbered[0]
        cells = line.split(",")
        width = len(cells)
        if width < 2:
            raise ParseError("need a wavelength column plus at least one data column", lineno)
        try:
            float(cells[0].strip())
        except ValueError:
            header = [cell.strip() for cell in cells]
            del numbered[0]
    if not numbered:
        raise ParseError("no data rows")
    table = None
    if "\x1f" not in text:
        try:
            table = _convert_at_once([line for _, line in numbered])
        except ValueError:
            pass
    if table is None or table.shape[1] != width:
        table = _convert_by_line(numbered, width)

    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise ParseError("non-finite cell (nan or inf)", numbered[int(np.argmin(finite))][0])
    keys = table[:, 0]
    backward = np.flatnonzero(keys[1:] <= keys[:-1])
    if backward.size:
        i = int(backward[0]) + 1
        raise ParseError(
            f"first column must be strictly increasing; {keys[i]:g} follows {keys[i - 1]:g}",
            numbered[i][0],
        )
    if header is None:
        header = ["wavelength"] + [f"col{j}" for j in range(1, width)]
    return SpectralTable(keys, tuple(header[1:]), table[:, 1:], header[0])


def serialize_spectral_csv(wavelengths: np.ndarray, column_names: Iterable[str], columns: np.ndarray,
                           key_name: str = "wavelength") -> Iterator[str]:
    """Render n ``wavelengths`` and an n-by-k array of ``columns`` as the
    canonical CSV, one line (``\\n`` included) per chunk, header first.

    The header is ``key_name`` and the k ``column_names``, any iterable of
    names.  Values round-trip bit-for-bit.  Each row is formatted only when
    it is asked for, so a writer holds one row's text at a time; ``"".join``
    of the chunks is the whole file.  ``columns`` is read one row at a time,
    so it may be a transposed view: ``optimize`` passes a trace's T-by-n
    filter stack as ``trace.filters.T`` and makes no n-by-T copy to write
    it.  At the GA's 10k-iteration cap that stack is 2.48 MB, and the
    traced (``tracemalloc``) peak of the whole ``optimize`` run that writes
    it is 1.16 MB (CPython 3.11, numpy 2.4).  A parsed ``SpectralTable`` is
    written by passing its four fields.  ``columns`` holds one row per
    wavelength; ``ValueError`` is raised when either runs out first.
    """
    # tolist() gives Python floats, whose repr is the shortest round trip.
    # One row at a time: a 10k-column table as Python floats costs ~10 MB.
    yield ",".join((key_name, *column_names)) + "\n"
    for wl, row in zip(wavelengths.tolist(), columns, strict=True):
        yield ",".join(map(repr, [wl] + row.tolist())) + "\n"


def builtin_cmf() -> SensorSet:
    """The CIE 1931 2-degree standard observer on the default 400-700/10 nm grid."""
    return SensorSet(DEFAULT_GRID, CIE_1931_2DEG_400_700_10NM[:, 1:])


# The CMF choices load_cmf resolves: the builtin observer or a spectral CSV.
CMF_CHOICES = "cie1931 or file:<path>"


def _cmf_file(choice: str) -> str | None:
    """The path after ``file:`` of a CMF choice, or None for the builtin observer.

    Raises ``ValueError`` for any other choice, ``file:`` with no path among them.
    """
    if choice == "cie1931":
        return None
    if choice.startswith("file:") and choice != "file:":
        return choice[len("file:"):]
    raise ValueError(f"unknown CMF choice {choice!r} (use 'cie1931' or 'file:<path>')")


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
    value, a ``cmf`` that ``load_cmf`` would not resolve (``cie1964``,
    ``file:`` with no path), or a repeated key, and without a line number
    for a manifest that does not name both illuminants and reflectances.
    A leading UTF-8 byte-order mark is ignored.
    """
    def resolve(path: str) -> str:
        return os.path.normpath(os.path.join(base_dir, path))

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
        if key == "cmf":
            try:
                path = _cmf_file(value)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            value = value if path is None else "file:" + resolve(path)
        else:
            value = resolve(value)
        if key in values:
            raise ParseError(f"key {key!r} repeats line {lines[key]}", lineno)
        values[key], lines[key] = value, lineno
    if "illuminants" not in values or "reflectances" not in values:
        raise ParseError("manifest must name both illuminants and reflectances files")
    return DatasetManifest(**values)


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
    path = _cmf_file(choice)
    if path is None:
        record(choice.encode("utf-8"))
        return builtin_cmf()
    return load_sensor_set(path, record)


def load_scene_set(manifest: DatasetManifest, record=_discard) -> SceneSet:
    """Load the manifest's illuminant and reflectance collections onto ``DEFAULT_GRID``, in that order."""
    illuminants = load_spectra(manifest.illuminants, record=record)[1].T
    reflectances = load_spectra(manifest.reflectances, record=record)[1]
    return SceneSet(illuminants, reflectances, DEFAULT_GRID)
