import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specfilter.errors import OutOfRange, ParseError, RankDeficient, ShapeError
from specfilter.ingest import (
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
from specfilter.spectra import DEFAULT_GRID, WavelengthGrid, orthonormalize
from specfilter.vora import vora_value



def cmf_csv_text() -> str:
    x = builtin_cmf()
    lines = ["wavelength,x_bar,y_bar,z_bar"]
    for wl, row in zip(DEFAULT_GRID.wavelengths(), x.channels):
        lines.append(f"{wl},{row[0]},{row[1]},{row[2]}")
    return "\n".join(lines) + "\n"


class TestParseSpectralCsv:
    def test_four_column_file_is_sensor_convertible(self):
        table = parse_spectral_csv(cmf_csv_text())
        assert table.column_names == ("x_bar", "y_bar", "z_bar")
        assert table.columns.shape == (31, 3)
        sensors = load_sensor_set(table, DEFAULT_GRID)
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
        assert not table.is_uniform
        with pytest.raises(ValueError):
            _ = table.grid

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


class TestLoadSensorSet:
    def test_five_nm_data_takes_every_second_row(self, rng):
        fine = WavelengthGrid(400.0, 5.0, 61)
        columns = rng.uniform(0.1, 1.0, size=(61, 3))
        lines = ["wavelength,r,g,b"]
        for wl, row in zip(fine.wavelengths(), columns):
            lines.append(f"{wl},{row[0]},{row[1]},{row[2]}")
        table = parse_spectral_csv("\n".join(lines))
        sensors = load_sensor_set(table, DEFAULT_GRID)
        assert np.allclose(sensors.channels, columns[::2], atol=1e-12)

    def test_wrong_column_count_rejected(self):
        table = parse_spectral_csv("400,1,2\n410,2,3\n420,3,4\n")
        with pytest.raises(ShapeError):
            load_sensor_set(table, DEFAULT_GRID)

    def test_rank_deficiency_rejected(self):
        lines = ["wavelength,a,b,c"]
        for wl in DEFAULT_GRID.wavelengths():
            lines.append(f"{wl},1.0,1.0,0.5")
        table = parse_spectral_csv("\n".join(lines))
        with pytest.raises(RankDeficient):
            load_sensor_set(table, DEFAULT_GRID)

    def test_out_of_range_target_rejected(self):
        table = parse_spectral_csv("450,1,2,3\n460,2,3,4\n470,3,4,5\n")
        with pytest.raises(OutOfRange):
            load_sensor_set(table, DEFAULT_GRID)


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
        text = "# toy manifest\ncamera = cam.csv\ncmf = cie1931\nilluminants = lights.csv\nreflectances = surfaces.csv\nnote = hello\n"
        manifest = parse_manifest(text, base_dir=str(tmp_path))
        assert manifest.camera == str(tmp_path / "cam.csv")
        assert manifest.cmf == "cie1931"
        assert manifest.illuminants == str(tmp_path / "lights.csv")
        assert manifest.reflectances == str(tmp_path / "surfaces.csv")
        assert manifest.extra == (("note", "hello"),)

    def test_bad_line_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_manifest("camera cam.csv")

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
        scenes = load_scene_set(manifest, DEFAULT_GRID)
        assert len(scenes.illuminants) == 2
        assert len(scenes.reflectances) == 5
        assert np.allclose(scenes.illuminant_matrix(), illum)

    def test_scene_set_requires_both_collections(self):
        manifest = parse_manifest("illuminants = lights.csv\n")
        with pytest.raises(ValueError):
            load_scene_set(manifest, DEFAULT_GRID)


class TestShippedFixtures:
    FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

    def test_fixture_dataset_loads_end_to_end(self):
        manifest = read_manifest(os.path.join(self.FIXTURES, "scenes.txt"))
        camera = load_sensor_set(read_spectral_csv(manifest.camera), DEFAULT_GRID)
        scenes = load_scene_set(manifest, DEFAULT_GRID)
        assert camera.channels.shape == (31, 3)
        assert len(scenes.illuminants) == 3
        assert len(scenes.reflectances) == 12
        reflectance_block = scenes.reflectance_matrix()
        assert reflectance_block.min() >= 0.0 and reflectance_block.max() <= 1.0


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

    def test_builtin_resampled_to_coarser_grid(self):
        coarse = WavelengthGrid(400.0, 20.0, 16)
        sensors = load_cmf("cie1931", coarse)
        assert sensors.grid == coarse
        assert np.allclose(sensors.channels, builtin_cmf().channels[::2])
