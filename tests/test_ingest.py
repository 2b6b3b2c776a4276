import os
import shutil
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specfilter.errors import OutOfRange, ParseError, RankDeficient, ShapeError
from specfilter.ingest import (
    DatasetManifest,
    SpectralTable,
    builtin_cmf,
    load_cmf,
    load_scene_set,
    load_sensor_set,
    parse_manifest,
    parse_spectral_csv,
    read_manifest,
    read_spectral_csv,
    serialize_spectral_csv,
)
from specfilter.spectra import DEFAULT_GRID, SensorSet, WavelengthGrid, interp_columns, orthonormalize
from specfilter.vora import vora_value

from oracles import strip_every_cell_parse


def cmf_csv_text() -> str:
    x = builtin_cmf()
    lines = ["wavelength,x_bar,y_bar,z_bar"]
    for wl, row in zip(DEFAULT_GRID.wavelengths(), x.channels):
        lines.append(f"{wl},{row[0]},{row[1]},{row[2]}")
    return "\n".join(lines) + "\n"


class TestParseSpectralCsv:
    def test_four_column_file_is_sensor_convertible(self, tmp_path):
        table = parse_spectral_csv(cmf_csv_text())
        assert table.column_names == ("x_bar", "y_bar", "z_bar")
        assert table.columns.shape == (31, 3)
        path = tmp_path / "cmf.csv"
        path.write_text(cmf_csv_text())
        sensors = load_sensor_set(str(path))
        assert np.allclose(sensors.channels, builtin_cmf().channels)

    def test_headerless_file_gets_default_names(self):
        table = parse_spectral_csv("400,1,2\n410,3,4\n420,5,6\n")
        assert table.column_names == ("col1", "col2")
        assert table.columns.shape == (3, 2)

    def test_comments_and_blank_lines_ignored(self):
        text = "# camera data\n\n400,1\n# middle comment\n410,2\n420,3\n"
        table = parse_spectral_csv(text)
        assert np.array_equal(table.wavelengths, [400.0, 410.0, 420.0])

    def test_duplicate_wavelength_names_the_line(self):
        text = "400,1\n410,2\n410,3\n420,4\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_spectral_csv(text)

    def test_decreasing_wavelengths_rejected(self):
        with pytest.raises(ParseError, match="increasing"):
            parse_spectral_csv("400,1\n390,2\n")

    def test_ragged_row_names_the_line(self):
        text = "wavelength,a,b\n400,1,2\n410,3\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_spectral_csv(text)

    def test_non_numeric_cell_names_the_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_spectral_csv("400,1\nxyz,2\n")

    def test_empty_table_rejected(self):
        with pytest.raises(ParseError):
            parse_spectral_csv("# nothing here\n")
        with pytest.raises(ParseError):
            parse_spectral_csv("wavelength,a\n")

    def test_bytes_input_must_be_utf8(self):
        with pytest.raises(ParseError):
            parse_spectral_csv(b"\xff\xfe400,1\n")

    def test_leading_byte_order_mark_ignored(self):
        for data in ("\ufeff400,1\n410,2\n420,3\n", b"\xef\xbb\xbf400,1\n410,2\n420,3\n"):
            table = parse_spectral_csv(data)
            assert np.array_equal(table.wavelengths, [400.0, 410.0, 420.0])
            assert table.column_names == ("col1",)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("400,1\nnan,2\n420,3\n", 2),
            ("wavelength,a,b\n400,1,2\n410,inf,2\n420,3,4\n", 3),
            ("400,1\n410,2\n420,-Infinity\n", 3),
        ],
        ids=["nan wavelength", "inf value", "negative infinity"],
    )
    def test_non_finite_cell_names_the_line(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}") as caught:
            parse_spectral_csv(text)
        assert caught.value.line == line

    def test_non_uniform_spacing_flagged_not_fatal(self):
        table = parse_spectral_csv("400,1\n405,2\n420,3\n")
        resampled = interp_columns(table.wavelengths, table.columns, WavelengthGrid(400, 5, 5))
        assert resampled[:, 0].tolist() == pytest.approx([1.0, 2.0, 2 + 1 / 3, 2 + 2 / 3, 3.0], rel=1e-15)

    def test_round_trip_is_bit_exact(self, rng):
        table = SpectralTable(
            DEFAULT_GRID.wavelengths(),
            ("a", "b", "c"),
            rng.uniform(0.0, 1.0, size=(31, 3)),
        )
        text = serialize_spectral_csv(table)
        parsed = parse_spectral_csv(text)
        assert parsed.column_names == table.column_names
        assert np.array_equal(parsed.wavelengths, table.wavelengths)
        assert np.array_equal(parsed.columns, table.columns)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def finite_tables(draw):
    wavelengths = sorted(draw(st.lists(_FINITE, min_size=1, max_size=12, unique=True)))
    width = draw(st.integers(1, 4))
    names = draw(st.lists(st.text("abcxyz_019", min_size=1, max_size=6), min_size=width, max_size=width))
    columns = draw(arrays(np.float64, (len(wavelengths), width), elements=_FINITE))
    return SpectralTable(np.array(wavelengths), tuple(names), columns)


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(table=finite_tables())
    def test_serialize_then_parse_is_bit_exact(self, table):
        parsed = parse_spectral_csv(serialize_spectral_csv(table))
        assert parsed.column_names == table.column_names
        assert parsed.wavelengths.tobytes() == table.wavelengths.tobytes()
        assert parsed.columns.tobytes() == table.columns.tobytes()


# Every character str.strip() removes but U+001C-U+001F, split into those
# that break a line and those that pad a cell.  splitlines() also breaks lines
# at U+001C-U+001E, so they never reach a cell; U+001F is the one that float()
# refuses (see test_unit_separator_in_a_cell_is_rejected).
_SPACES = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and not "\x1c" <= c <= "\x1f"]
_BREAKS = [c for c in _SPACES if len(f"a{c}b".splitlines()) == 2]
_PADDING = [c for c in _SPACES if c not in _BREAKS]
_BAD_CELLS = ("x", "", "1.2.3", "nan", "inf")


@st.composite
def padded_csv_files(draw):
    """CSV text with padded cells: a header or none, comment and blank lines,
    ragged rows and bad cells among ``repr``'d floats, lines ended by any
    line break."""
    # Mostly well-formed, so that many files parse: one cell in 20 is bad,
    # one row in 10 is ragged and one key in 10 random, and half of the
    # padding is empty.
    pad = st.one_of(st.just(""), st.text(st.sampled_from(_PADDING), min_size=1, max_size=2))
    padded = lambda cell: draw(pad) + cell + draw(pad)
    value = st.integers(0, 19).flatmap(
        lambda k: st.sampled_from(_BAD_CELLS) if k == 0 else _FINITE.map(repr))
    width = draw(st.integers(2, 5))
    lines = []
    if draw(st.booleans()):
        names = draw(st.lists(st.text("abcxyz_019", min_size=1, max_size=5), min_size=width, max_size=width))
        lines.append(",".join(map(padded, names)))
    for i in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "comment", "blank"]))
        if kind == "comment":
            lines.append(padded("# note, 1"))
        elif kind == "blank":
            lines.append(draw(pad))
        else:
            cells = draw(st.integers(1, 6)) if draw(st.integers(0, 9)) == 0 else width
            key = draw(value) if draw(st.integers(0, 9)) == 0 else repr(400.0 + 10 * i)
            lines.append(",".join([padded(key)] + [padded(draw(value)) for _ in range(cells - 1)]))
    return "".join(line + draw(st.sampled_from(_BREAKS)) for line in lines)


def parse_outcome(parse, text):
    """A parse's table as bytes and names, or its ``ParseError`` as text and line."""
    try:
        table = parse(text)
    except ParseError as exc:
        return str(exc), exc.line
    return table.key_name, table.column_names, table.wavelengths.tobytes(), table.columns.tobytes()


class TestOneConversionPerCell:
    @settings(max_examples=400, deadline=None)
    @given(text=padded_csv_files())
    def test_matches_the_strip_every_cell_parser(self, text):
        assert parse_outcome(parse_spectral_csv, text) == parse_outcome(strip_every_cell_parse, text)

    def test_unit_separator_in_a_cell_is_rejected(self):
        # str.strip() removes U+001F but float() refuses it, so a cell padded
        # with it is rejected where the reference accepts it.  At either end of
        # a line it is still stripped.
        text = "wavelength,a\n400,1\n410,\x1f2\n"
        assert strip_every_cell_parse(text).columns.tolist() == [[1.0], [2.0]]
        with pytest.raises(ParseError) as caught:
            parse_spectral_csv(text)
        assert (caught.value.line, caught.value.reason) == (3, "non-numeric cell in '410,\\x1f2'")
        assert parse_spectral_csv("\x1f400,1\x1f\n").columns.tolist() == [[1.0]]


class TestLoadSensorSet:
    @staticmethod
    def write(tmp_path, text: str) -> str:
        path = tmp_path / "camera.csv"
        path.write_text(text)
        return str(path)

    def test_five_nm_data_takes_every_second_row(self, rng, tmp_path):
        fine = WavelengthGrid(400.0, 5.0, 61)
        columns = rng.uniform(0.1, 1.0, size=(61, 3))
        lines = ["wavelength,r,g,b"]
        for wl, row in zip(fine.wavelengths(), columns):
            lines.append(f"{wl},{row[0]},{row[1]},{row[2]}")
        sensors = load_sensor_set(self.write(tmp_path, "\n".join(lines)))
        assert np.allclose(sensors.channels, columns[::2], atol=1e-12)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = self.write(tmp_path, "400,1,2\n410,2,3\n420,3,4\n")
        with pytest.raises(ShapeError) as caught:
            load_sensor_set(path)
        assert str(caught.value) == f"{path}: need exactly 3 data column(s), got 2"

    def test_rank_deficiency_rejected(self, tmp_path):
        lines = ["wavelength,a,b,c"]
        for wl in DEFAULT_GRID.wavelengths():
            lines.append(f"{wl},1.0,1.0,0.5")
        path = self.write(tmp_path, "\n".join(lines))
        with pytest.raises(RankDeficient) as caught:
            load_sensor_set(path)
        assert str(caught.value).startswith(f"{path}: sensor matrix is rank deficient")

    def test_out_of_range_target_rejected(self, tmp_path):
        path = self.write(tmp_path, "450,1,2,3\n460,2,3,4\n470,3,4,5\n")
        with pytest.raises(OutOfRange) as caught:
            load_sensor_set(path)
        assert str(caught.value).startswith(f"{path}: target grid 400.0..700.0 nm exceeds")


class TestBuiltinCmf:
    def test_luminance_channel_peaks_near_555(self):
        x = builtin_cmf()
        y_bar = x.channels[:, 1]
        peak_index = int(np.argmax(y_bar))
        assert DEFAULT_GRID.wavelengths()[peak_index] in (550.0, 560.0)
        assert 0.99 <= y_bar[peak_index] <= 1.0

    def test_full_rank_and_self_similar(self):
        x = builtin_cmf()
        assert float(vora_value(x, x)) == 1.0

    def test_orthonormalizes_cleanly(self):
        basis = orthonormalize(builtin_cmf())
        assert np.max(np.abs(basis.basis.T @ basis.basis - np.eye(3))) < 1e-12


class TestManifest:
    def test_parse_and_resolve_paths(self, tmp_path):
        text = "# toy manifest\ncamera = cam.csv\ncmf = cie1931\nilluminants = lights.csv\nreflectances = surfaces.csv\n"
        manifest = parse_manifest(text, base_dir=str(tmp_path))
        assert manifest.camera == str(tmp_path / "cam.csv")
        assert manifest.cmf == "cie1931"
        assert manifest.illuminants == str(tmp_path / "lights.csv")
        assert manifest.reflectances == str(tmp_path / "surfaces.csv")

    @pytest.mark.parametrize("text, line, reason", [
        ("camera = cam.csv\nnote = hello\n", 2, "unknown key 'note'"),
        ("illuminants = lights.csv\n# comment\nreflectance = surfaces.csv\n", 3, "unknown key 'reflectance'"),
        ("illuminants = missing.csv\nilluminants = lights.csv\n", 2, "key 'illuminants' repeats line 1"),
    ], ids=["unknown", "misspelled", "repeated"])
    def test_unknown_or_repeated_key_rejected(self, tmp_path, text, line, reason):
        path = tmp_path / "scenes.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as caught:
            read_manifest(str(path))
        assert (caught.value.path, caught.value.line) == (str(path), line)
        assert caught.value.reason.startswith(reason)
        assert str(caught.value).startswith(f"{path}: line {line}: {reason}")
        if reason.startswith("unknown"):
            assert "camera, cmf, illuminants, reflectances" in caught.value.reason

    @pytest.mark.parametrize("key", ["camera", "cmf", "illuminants", "reflectances"])
    def test_key_without_value_rejected(self, tmp_path, key):
        # An empty path would resolve to the manifest's own directory.
        path = tmp_path / "scenes.txt"
        path.write_text(f"# scenes\n{key} =  \n")
        with pytest.raises(ParseError) as caught:
            read_manifest(str(path))
        assert str(caught.value) == f"{path}: line 2: key {key!r} has no value"

    def test_bad_line_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_manifest("camera cam.csv")

    def test_cmf_file_without_a_path_rejected(self, tmp_path):
        # It would resolve to the manifest's own directory.
        path = tmp_path / "scenes.txt"
        path.write_text("illuminants = lights.csv\ncmf = file:  \n")
        with pytest.raises(ParseError) as caught:
            read_manifest(str(path))
        assert str(caught.value) == f"{path}: line 2: key 'cmf' names no file after 'file:'"

    @pytest.mark.parametrize("reader, data", [(read_manifest, b"illuminants = \xff.csv\n"),
                                              (read_spectral_csv, b"wavelength,\xff\n400,1\n")],
                             ids=["read_manifest", "read_spectral_csv"])
    def test_file_that_is_not_utf8_names_the_file(self, tmp_path, reader, data):
        path = tmp_path / "data.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError) as caught:
            reader(str(path))
        assert (caught.value.path, caught.value.line) == (str(path), None)
        assert str(caught.value).startswith(f"{path}: not valid UTF-8: ")

    def test_read_manifest_and_load_scene_set(self, tmp_path, rng):
        illum = rng.uniform(0.5, 2.0, size=(31, 2))
        refl = rng.uniform(0.0, 1.0, size=(31, 5))
        wavelengths = DEFAULT_GRID.wavelengths()

        def write_csv(name, block):
            lines = ["wavelength," + ",".join(f"c{j}" for j in range(block.shape[1]))]
            for wl, row in zip(wavelengths, block):
                lines.append(",".join([str(wl)] + [str(v) for v in row]))
            (tmp_path / name).write_text("\n".join(lines) + "\n")

        write_csv("lights.csv", illum)
        write_csv("surfaces.csv", refl)
        (tmp_path / "scenes.txt").write_text(
            "illuminants = lights.csv\nreflectances = surfaces.csv\n"
        )
        manifest = read_manifest(str(tmp_path / "scenes.txt"))
        scenes = load_scene_set(manifest)
        assert len(scenes.illuminants) == 2
        assert scenes.reflectances.shape[1] == 5
        assert np.allclose(scenes.illuminants.T, illum)

    def test_scene_set_requires_both_collections(self):
        manifest = parse_manifest("illuminants = lights.csv\n")
        with pytest.raises(ValueError):
            load_scene_set(manifest)


class TestShippedFixtures:
    FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

    def test_fixture_dataset_loads_end_to_end(self):
        manifest = read_manifest(os.path.join(self.FIXTURES, "scenes.txt"))
        camera = load_sensor_set(manifest.camera)
        scenes = load_scene_set(manifest)
        assert camera.channels.shape == (31, 3)
        assert len(scenes.illuminants) == 3
        assert scenes.reflectances.shape[1] == 12
        reflectance_block = scenes.reflectances
        assert reflectance_block.min() >= 0.0 and reflectance_block.max() <= 1.0


    def test_manifest_with_a_byte_order_mark_reads_as_without(self, tmp_path):
        for name in ("synthetic_camera.csv", "illuminants.csv", "reflectances.csv"):
            shutil.copy(os.path.join(self.FIXTURES, name), tmp_path)
        with open(os.path.join(self.FIXTURES, "scenes.txt"), "rb") as handle:
            (tmp_path / "scenes.txt").write_bytes(b"\xef\xbb\xbf" + handle.read())
        manifest = read_manifest(str(tmp_path / "scenes.txt"))
        assert manifest == DatasetManifest(
            camera=str(tmp_path / "synthetic_camera.csv"),
            cmf="cie1931",
            illuminants=str(tmp_path / "illuminants.csv"),
            reflectances=str(tmp_path / "reflectances.csv"),
        )
        assert len(load_scene_set(manifest).illuminants) == 3


class TestMeasuredDatasetPlumbing:
    def test_require_dataset_returns_paths_when_present(self, tmp_path, monkeypatch):
        from conftest import require_dataset

        (tmp_path / "canon_5d_mark_ii.csv").write_text("400,1,2,3\n410,2,3,4\n420,3,4,5\n")
        monkeypatch.setenv("SPECFILTER_DATA", str(tmp_path))
        (path,) = require_dataset("canon_5d_mark_ii.csv")
        assert path == str(tmp_path / "canon_5d_mark_ii.csv")

    def test_require_dataset_skips_when_missing(self, tmp_path, monkeypatch):
        from conftest import require_dataset

        monkeypatch.setenv("SPECFILTER_DATA", str(tmp_path))
        with pytest.raises(pytest.skip.Exception, match="SKIP: measured dataset not present"):
            require_dataset("canon_5d_mark_ii.csv")


class TestLoadCmf:
    def test_builtin_choice(self):
        assert np.array_equal(load_cmf("cie1931").channels, builtin_cmf().channels)

    def test_file_choice(self, tmp_path):
        path = tmp_path / "cmf.csv"
        path.write_text(cmf_csv_text())
        loaded = load_cmf(f"file:{path}")
        assert np.allclose(loaded.channels, builtin_cmf().channels)

    def test_unknown_choice_rejected(self):
        with pytest.raises(ValueError):
            load_cmf("cie2006")

    def test_file_choice_without_a_path_rejected(self):
        with pytest.raises(ValueError) as caught:
            load_cmf("file:")
        assert str(caught.value) == "unknown CMF choice 'file:' (use 'cie1931' or 'file:<path>')"

    def test_builtin_resampled_to_coarser_grid(self):
        coarse = WavelengthGrid(400.0, 20.0, 16)
        sensors = SensorSet(coarse, interp_columns(DEFAULT_GRID.wavelengths(), builtin_cmf().channels, coarse))
        assert sensors.grid == coarse
        assert np.allclose(sensors.channels, builtin_cmf().channels[::2])
