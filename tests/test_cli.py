import json
import os
import subprocess
import sys

import pytest

import specfilter.ingest
from specfilter.cli import main
from specfilter.ingest import builtin_cmf, read_spectral_csv
from specfilter.spectra import DEFAULT_GRID, SensorSet, SpectralCurve, apply_filter
from specfilter.vora import vora_value

from conftest import bump_camera_matrix


@pytest.fixture
def camera_csv(tmp_path, rng):
    channels = bump_camera_matrix(rng)
    lines = ["wavelength,r,g,b"]
    for wl, row in zip(DEFAULT_GRID.wavelengths(), channels):
        lines.append(f"{float(wl)!r},{float(row[0])!r},{float(row[1])!r},{float(row[2])!r}")
    path = tmp_path / "camera.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def scene_manifest(tmp_path, rng):
    wavelengths = DEFAULT_GRID.wavelengths()

    def write_csv(name, block):
        lines = ["wavelength," + ",".join(f"c{j}" for j in range(block.shape[1]))]
        for wl, row in zip(wavelengths, block):
            lines.append(",".join([repr(float(wl))] + [repr(float(v)) for v in row]))
        (tmp_path / name).write_text("\n".join(lines) + "\n")

    write_csv("lights.csv", rng.uniform(0.5, 2.0, size=(31, 3)))
    write_csv("surfaces.csv", rng.uniform(0.0, 1.0, size=(31, 12)))
    manifest = tmp_path / "scenes.txt"
    manifest.write_text("illuminants = lights.csv\nreflectances = surfaces.csv\n")
    return str(manifest)


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_module_entry_point_runs(tmp_path, camera_csv):
    # The child imports the same package as this process, installed or not.
    package_root = os.path.dirname(os.path.dirname(specfilter.__file__))
    search_path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [
            sys.executable, "-m", "specfilter", "optimize",
            "--camera", camera_csv, "--out", str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": search_path},
    )
    assert result.returncode == 0, result.stderr
    assert os.path.exists(tmp_path / "out" / "filter.csv")


class TestOptimizeCommand:
    def test_als_run_writes_consistent_outputs(self, tmp_path, camera_csv):
        out = str(tmp_path / "out")
        code = main(["optimize", "--camera", camera_csv, "--optimizer", "als", "--out", out])
        assert code == 0
        for name in ("filter.csv", "trace.csv", "iteration_filters.csv", "report.json"):
            assert os.path.exists(os.path.join(out, name))

        report = json.loads(read(os.path.join(out, "report.json")))
        assert report["solution"]["converged"] is True

        # The reported score must be recomputable from the emitted filter.
        table = read_spectral_csv(os.path.join(out, "filter.csv"))
        filter_curve = SpectralCurve(DEFAULT_GRID, table.columns[:, 0])
        camera = SensorSet(DEFAULT_GRID, read_spectral_csv(camera_csv).columns)
        recomputed = float(vora_value(apply_filter(filter_curve, camera), builtin_cmf()))
        assert abs(recomputed - report["solution"]["vora_value"]) < 1e-10

        # Trace rows mirror the solution and stay monotone.
        trace_lines = read(os.path.join(out, "trace.csv")).decode().strip().splitlines()
        assert trace_lines[0] == "iteration,vora_value,residual"
        values = [float(line.split(",")[1]) for line in trace_lines[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert len(values) == report["solution"]["iterations"] + 1

    def test_deterministic_across_runs(self, tmp_path, camera_csv):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        args = ["optimize", "--camera", camera_csv, "--optimizer", "ga", "--seed", "7"]
        assert main(args + ["--out", out_a]) == 0
        assert main(args + ["--out", out_b]) == 0
        assert read(os.path.join(out_a, "filter.csv")) == read(os.path.join(out_b, "filter.csv"))
        assert read(os.path.join(out_a, "trace.csv")) == read(os.path.join(out_b, "trace.csv"))

    def test_ga_and_als_agree(self, tmp_path, camera_csv):
        out_als = str(tmp_path / "als")
        out_ga = str(tmp_path / "ga")
        assert main(["optimize", "--camera", camera_csv, "--optimizer", "als", "--out", out_als]) == 0
        assert (
            main(
                [
                    "optimize", "--camera", camera_csv, "--optimizer", "ga",
                    "--epsilon", "1e-13", "--max-iters", "100000", "--out", out_ga,
                ]
            )
            == 0
        )
        score_als = json.loads(read(os.path.join(out_als, "report.json")))["solution"]["vora_value"]
        score_ga = json.loads(read(os.path.join(out_ga, "report.json")))["solution"]["vora_value"]
        assert abs(score_als - score_ga) < 1e-4

    def test_nonconvergence_exits_2(self, tmp_path, camera_csv):
        out = str(tmp_path / "out")
        code = main(
            ["optimize", "--camera", camera_csv, "--optimizer", "als", "--max-iters", "2", "--out", out]
        )
        assert code == 2
        report = json.loads(read(os.path.join(out, "report.json")))
        assert report["solution"]["converged"] is False

    def test_missing_camera_exits_1(self, tmp_path):
        code = main(["optimize", "--camera", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == 1

    def test_multistart_flag_runs(self, tmp_path, camera_csv):
        out = str(tmp_path / "out")
        code = main(
            [
                "optimize", "--camera", camera_csv, "--optimizer", "als",
                "--init", "random", "--starts", "4", "--seed", "3", "--out", out,
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("optimizer", ["als", "ga"])
    @pytest.mark.parametrize("starts", ["0", "-3"])
    def test_starts_below_one_exits_1(self, tmp_path, camera_csv, capsys, optimizer, starts):
        out = str(tmp_path / "out")
        code = main(
            ["optimize", "--camera", camera_csv, "--optimizer", optimizer, "--starts", starts, "--out", out]
        )
        assert code == 1
        assert "--starts" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestEvaluateCommand:
    def test_baseline_row_matches_library(self, tmp_path, camera_csv, scene_manifest):
        out = str(tmp_path / "out")
        code = main(
            ["evaluate", "--camera", camera_csv, "--scenes", scene_manifest, "--out", out]
        )
        assert code == 0
        rows = read(os.path.join(out, "evaluation.csv")).decode().strip().splitlines()
        assert rows[0] == "vora_value,mean,median,p95,p99,max"
        values = [float(v) for v in rows[1].split(",")]
        assert 0.0 <= values[0] <= 1.0
        assert values[1] <= values[5]
        assert os.path.exists(os.path.join(out, "evaluation.txt"))

    def test_observer_as_camera_scores_zero_error(self, tmp_path, scene_manifest):
        x = builtin_cmf()
        lines = ["wavelength,x,y,z"]
        for wl, row in zip(DEFAULT_GRID.wavelengths(), x.channels):
            lines.append(f"{float(wl)!r},{float(row[0])!r},{float(row[1])!r},{float(row[2])!r}")
        camera_path = tmp_path / "cmf_camera.csv"
        camera_path.write_text("\n".join(lines) + "\n")

        out = str(tmp_path / "out")
        code = main(["evaluate", "--camera", str(camera_path), "--scenes", scene_manifest, "--out", out])
        assert code == 0
        row = read(os.path.join(out, "evaluation.csv")).decode().strip().splitlines()[1]
        vora, *stats = [float(v) for v in row.split(",")]
        assert vora == 1.0
        assert max(stats) < 1e-9

    def test_filtered_evaluation_consumes_optimizer_output(self, tmp_path, camera_csv, scene_manifest):
        filter_dir = str(tmp_path / "opt")
        assert main(["optimize", "--camera", camera_csv, "--out", filter_dir]) == 0
        out = str(tmp_path / "out")
        code = main(
            [
                "evaluate", "--camera", camera_csv, "--scenes", scene_manifest,
                "--filter", os.path.join(filter_dir, "filter.csv"), "--out", out,
            ]
        )
        assert code == 0
        report = json.loads(read(os.path.join(out, "report.json")))
        assert report["evaluation"]["vora_value"] > 0.9

    def test_invalid_manifest_exits_1(self, tmp_path, camera_csv):
        bad = tmp_path / "bad.txt"
        bad.write_text("no equals sign here")
        assert main(["evaluate", "--camera", camera_csv, "--scenes", str(bad), "--out", str(tmp_path)]) == 1


class TestTraceCompareCommand:
    def test_merges_two_traces(self, tmp_path, camera_csv):
        out_a = str(tmp_path / "als")
        out_b = str(tmp_path / "ga")
        assert main(["optimize", "--camera", camera_csv, "--optimizer", "als", "--out", out_a]) == 0
        assert main(["optimize", "--camera", camera_csv, "--optimizer", "ga", "--out", out_b]) == 0
        out = str(tmp_path / "cmp")
        code = main(
            [
                "trace-compare",
                os.path.join(out_a, "trace.csv"),
                os.path.join(out_b, "trace.csv"),
                "--label-a", "als", "--label-b", "ga", "--out", out,
            ]
        )
        assert code == 0
        lines = read(os.path.join(out, "compare.csv")).decode().strip().splitlines()
        assert lines[0] == "iteration,method,vora_value,mean_delta_e"
        methods = {line.split(",")[1] for line in lines[1:]}
        assert methods == {"als", "ga"}
        # Identical traces compared against themselves show zero differences.
        out_same = str(tmp_path / "same")
        assert (
            main(
                [
                    "trace-compare",
                    os.path.join(out_a, "trace.csv"),
                    os.path.join(out_a, "trace.csv"),
                    "--out", out_same,
                ]
            )
            == 0
        )
        same_lines = read(os.path.join(out_same, "compare.csv")).decode().strip().splitlines()
        a_rows = [l.split(",") for l in same_lines[1:] if l.split(",")[1] == "a"]
        b_rows = [l.split(",") for l in same_lines[1:] if l.split(",")[1] == "b"]
        assert [r[2] for r in a_rows] == [r[2] for r in b_rows]

    def test_mean_delta_e_column_from_iteration_filters(self, tmp_path, camera_csv, scene_manifest):
        out_a = str(tmp_path / "als")
        assert main(["optimize", "--camera", camera_csv, "--optimizer", "als", "--out", out_a]) == 0
        out = str(tmp_path / "cmp")
        code = main(
            [
                "trace-compare",
                os.path.join(out_a, "trace.csv"),
                os.path.join(out_a, "trace.csv"),
                "--filters-a", os.path.join(out_a, "iteration_filters.csv"),
                "--camera", camera_csv,
                "--scenes", scene_manifest,
                "--out", out,
            ]
        )
        assert code == 0
        lines = read(os.path.join(out, "compare.csv")).decode().strip().splitlines()
        a_rows = [l.split(",") for l in lines[1:] if l.split(",")[1] == "a"]
        assert all(r[3] for r in a_rows)
        # Filtered color error should not exceed the unfiltered starting point.
        assert float(a_rows[-1][3]) <= float(a_rows[0][3])
        b_rows = [l.split(",") for l in lines[1:] if l.split(",")[1] == "b"]
        assert all(not r[3] for r in b_rows)

    def test_iteration_filters_resampled_once_per_file(self, tmp_path, camera_csv, scene_manifest, monkeypatch):
        out_a = str(tmp_path / "als")
        assert main(["optimize", "--camera", camera_csv, "--optimizer", "als", "--out", out_a]) == 0
        recorded = len(read_spectral_csv(os.path.join(out_a, "iteration_filters.csv")).column_names)
        resampled = []
        interp_columns = specfilter.ingest.interp_columns

        def counting(wavelengths, columns, target):
            resampled.append(columns.shape[1])
            return interp_columns(wavelengths, columns, target)

        monkeypatch.setattr(specfilter.ingest, "interp_columns", counting)
        filters = os.path.join(out_a, "iteration_filters.csv")
        trace = os.path.join(out_a, "trace.csv")
        code = main(
            [
                "trace-compare", trace, trace, "--filters-a", filters, "--filters-b", filters,
                "--camera", camera_csv, "--scenes", scene_manifest, "--out", str(tmp_path / "cmp"),
            ]
        )
        assert code == 0
        # Camera, illuminants and reflectances once each, then each filters file once.
        assert sorted(resampled) == sorted([3, 3, 12, recorded, recorded])

    def test_malformed_trace_exits_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("iteration,vora_value,residual\n0,not_a_number,1\n")
        assert main(["trace-compare", str(bad), str(bad), "--out", str(tmp_path)]) == 1
