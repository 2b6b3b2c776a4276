import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import specfilter.als
import specfilter.cli
import specfilter.gradient
import specfilter.ingest
from specfilter.als import optimize_als
from specfilter.cli import main
from specfilter.colorimetry import evaluate
from specfilter.gradient import GaConfig, optimize_ga
from specfilter.ingest import (
    SpectralTable,
    builtin_cmf,
    load_scene_set,
    load_sensor_set,
    read_manifest,
    read_spectral_csv,
    serialize_spectral_csv,
)
from specfilter.solution import ConvergenceTrace
from specfilter.spectra import DEFAULT_GRID, SensorSet, SpectralCurve, apply_filter

from conftest import bump_camera_matrix
from oracles import vora_by_projector


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


def input_digest(*chunks):
    """``report.json``'s ``inputs.digest``: sha256 over each label, NUL, data, NUL, in order."""
    return "sha256:" + hashlib.sha256(b"".join(label.encode() + b"\0" + data + b"\0"
                                               for label, data in chunks)).hexdigest()


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
        recomputed = float(vora_by_projector(apply_filter(filter_curve, camera), builtin_cmf()))
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

    def test_report_records_the_polish(self, tmp_path, camera_csv, monkeypatch):
        def run(name, *flags):
            out = str(tmp_path / name)
            code = main(["optimize", "--camera", camera_csv, *flags, "--out", out])
            polish = json.loads(read(os.path.join(out, "report.json")))["solution"]["polish"]
            return code, polish, read(os.path.join(out, "trace.csv"))

        code, polish, trace = run("als")
        assert code == 0
        assert json.loads(read(str(tmp_path / "als" / "report.json")))["solution"]["stop"] == "converged"
        assert polish["met_tolerance"] is True
        assert 1 <= polish["iterations"] < specfilter.als.POLISH_MAX_SWEEPS
        assert run("ga", "--optimizer", "ga")[:2] == (0, None)
        assert run("capped", "--max-iters", "2")[:2] == (2, None)
        # A polish stopped by its cap is reported, without changing the exit code or the trace.
        monkeypatch.setattr(specfilter.als, "POLISH_MAX_SWEEPS", 1)
        assert run("short") == (0, {"iterations": 1, "met_tolerance": False}, trace)

    def test_report_records_line_search_trials(self, tmp_path, camera_csv, monkeypatch):
        def solution(*flags):
            out = str(tmp_path / "-".join(flags))
            assert main(["optimize", "--camera", camera_csv, *flags, "--out", out]) == 0
            return json.loads(read(os.path.join(out, "report.json")))["solution"]

        assert solution("--optimizer", "als")["line_search_trials"] is None
        ga = solution("--optimizer", "ga")
        assert isinstance(ga["line_search_trials"], int)
        assert ga["line_search_trials"] >= ga["iterations"]
        assert (ga["converged"], ga["stop"]) == (True, "converged")

        # Every trial scoring below the start leaves the line search no step:
        # the run stops stationary after the whole halving schedule, converged.
        real, calls = specfilter.gradient.basis_score, []

        def every_trial_lower(*args):
            calls.append(None)
            m, score, full = real(*args)
            return m, (score - 1.0 if len(calls) > 1 else score), full

        monkeypatch.setattr(specfilter.gradient, "basis_score", every_trial_lower)
        out = str(tmp_path / "stationary")
        assert main(["optimize", "--camera", camera_csv, "--optimizer", "ga", "--out", out]) == 0
        stationary = json.loads(read(os.path.join(out, "report.json")))["solution"]
        assert (stationary["converged"], stationary["stop"], stationary["iterations"]) == (True, "stationary", 0)
        assert stationary["line_search_trials"] == len(calls) - 1 == 47

    def test_report_records_the_als_work(self, tmp_path, camera_csv):
        def solution(*flags):
            out = str(tmp_path / "-".join(flags))
            assert main(["optimize", "--camera", camera_csv, *flags, "--out", out]) == 0
            return json.loads(read(os.path.join(out, "report.json")))["solution"]

        camera = load_sensor_set(camera_csv)
        als = solution("--optimizer", "als", "--starts", "4", "--seed", "2")
        library = optimize_als(camera, builtin_cmf(), starts=4, seed=2)
        assert (als["row_sweeps"], als["extrapolations"]) == (library.row_sweeps, library.extrapolations)
        assert als["row_sweeps"] >= als["iterations"] + 3
        assert 0 < als["extrapolations"] < als["iterations"]
        single = solution("--optimizer", "als")
        assert single["row_sweeps"] == single["iterations"]
        ga = solution("--optimizer", "ga")
        assert (ga["row_sweeps"], ga["extrapolations"]) == (None, None)

    @pytest.mark.parametrize("flags", [["--optimizer", "als"]], ids=["als"])
    def test_an_unused_fixed_step_warns(self, tmp_path, camera_csv, capsys, flags):
        def run(name, *extra):
            out = str(tmp_path / name)
            code = main(["optimize", "--camera", camera_csv, *flags, *extra, "--out", out])
            report = json.loads(read(os.path.join(out, "report.json")))
            del report["timing_ms"]
            files = [read(os.path.join(out, n)) for n in ("filter.csv", "trace.csv", "iteration_filters.csv")]
            return code, report, files, capsys.readouterr()

        code, report, files, streams = run("given", "--fixed-step", "0.5")
        assert streams.err == "warning: --fixed-step 0.5 is unused; it applies only to --optimizer ga\n"
        assert (code, report, files) == run("plain")[:3]

    def test_report_records_the_step_rule(self, tmp_path, camera_csv, capsys):
        def config(*flags):
            out = str(tmp_path / "-".join(flags))
            assert main(["optimize", "--camera", camera_csv, *flags, "--out", out]) == 0
            assert capsys.readouterr().err == ""
            return json.loads(read(os.path.join(out, "report.json")))["config"]

        steps = [(c["step_rule"], c["fixed_step"]) for c in (
            config("--optimizer", "als"), config("--optimizer", "ga"),
            config("--optimizer", "ga", "--fixed-step", "0.5"))]
        assert steps == [(None, None), ("backtracking", None), ("fixed", 0.5)]

    @pytest.mark.parametrize("flags", [["--max-iters", "abc"], ["--max-iterations", "5"], ["--step-rule", "fixed"],
                                       ["--max-iter", "5"], ["--fixed", "0.5"]],
                             ids=["bad value", "unknown flag", "removed step rule", "abbreviated flag",
                                  "abbreviated fixed step"])
    def test_usage_error_exits_1(self, tmp_path, camera_csv, capsys, flags):
        # Exit 2 means an unconverged solve; argparse's usage message is kept.
        argv = ["optimize", "--camera", camera_csv, "--optimizer", "ga", *flags, "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: specfilter ") and ": error: " in err.splitlines()[-1]
        with pytest.raises(SystemExit):
            specfilter.cli.build_parser().parse_args(argv)
        assert capsys.readouterr().err == err
        assert not os.path.exists(tmp_path / "out")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["optimize", "--help"])
        assert caught.value.code == 0
        assert capsys.readouterr().out.startswith("usage: specfilter optimize ")

    def test_nonconvergence_exits_2(self, tmp_path, camera_csv, capsys):
        for optimizer in ("als", "ga"):
            out = str(tmp_path / optimizer)
            code = main(
                ["optimize", "--camera", camera_csv, "--optimizer", optimizer, "--max-iters", "2", "--out", out]
            )
            assert code == 2
            assert capsys.readouterr().err == "warning: did not converge within 2 iterations\n"
            report = json.loads(read(os.path.join(out, "report.json")))
            assert (report["solution"]["converged"], report["solution"]["stop"]) == (False, "capped")

    def test_first_step_overshoot_warning_names_the_overshoot(self, tmp_path, capsys):
        camera = os.path.join(os.path.dirname(__file__), "..", "fixtures", "synthetic_camera.csv")
        out = str(tmp_path / "out")
        code = main(
            [
                "optimize", "--camera", camera, "--optimizer", "ga",
                "--fixed-step", "50", "--out", out,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "overshot" in err
        assert "within" not in err
        report = json.loads(read(os.path.join(out, "report.json")))
        assert report["solution"]["iterations"] == 0
        assert (report["solution"]["converged"], report["solution"]["stop"]) == (False, "overshot")
        # On this camera a fixed step of 20 takes 12 steps and overshoots on
        # the 13th: an overshoot after accepted steps is convergence.
        out = str(tmp_path / "later")
        code = main(["optimize", "--camera", camera, "--optimizer", "ga",
                     "--fixed-step", "20", "--out", out])
        assert (code, capsys.readouterr().err) == (0, "")
        report = json.loads(read(os.path.join(out, "report.json")))
        assert (report["solution"]["iterations"], report["solution"]["line_search_trials"]) == (12, 13)
        assert (report["solution"]["converged"], report["solution"]["stop"]) == (True, "converged")

    def test_overflowing_fixed_step_prints_only_the_cli_warning(self, tmp_path, capsys):
        # A step of 1e200 overflows the first trial's scoring; numpy must not
        # warn about it ahead of the CLI's own overshoot warning.
        camera = os.path.join(os.path.dirname(__file__), "..", "fixtures", "synthetic_camera.csv")
        out = str(tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["optimize", "--camera", camera, "--optimizer", "ga", "--fixed-step", "1e200",
                         "--out", out])
        assert code == 2
        assert capsys.readouterr().err == "warning: first fixed step overshot; stopped at iteration 0\n"
        assert json.loads(read(os.path.join(out, "report.json")))["solution"]["stop"] == "overshot"

    @pytest.mark.parametrize("cmf", ["cie1931", "file"])
    def test_report_digest_covers_camera_and_cmf(self, tmp_path, camera_csv, cmf):
        observer = tmp_path / "observer.csv"
        observer.write_text(serialize_spectral_csv(
            SpectralTable(DEFAULT_GRID.wavelengths(), ("x", "y", "z"), builtin_cmf().channels)))
        choice = "cie1931" if cmf == "cie1931" else f"file:{observer}"
        out = str(tmp_path / "out")
        assert main(["optimize", "--camera", camera_csv, "--cmf", choice, "--out", out]) == 0
        report = json.loads(read(os.path.join(out, "report.json")))
        cmf_bytes = b"cie1931" if cmf == "cie1931" else read(observer)
        assert report["inputs"]["digest"] == input_digest(("camera", read(camera_csv)), ("cmf", cmf_bytes))

    def test_report_digest_is_of_the_bytes_solved_on(self, tmp_path, camera_csv, monkeypatch):
        # The camera file changes while the solve runs; the digest must still
        # name the bytes the camera was loaded from.
        original = read(camera_csv)

        def rewriting_solve(*args, **kwargs):
            with open(camera_csv, "a") as handle:
                handle.write("# rewritten during the solve\n")
            return optimize_als(*args, **kwargs)

        monkeypatch.setattr(specfilter.cli, "optimize_als", rewriting_solve)
        out = str(tmp_path / "out")
        assert main(["optimize", "--camera", camera_csv, "--out", out]) == 0
        assert read(camera_csv) != original
        report = json.loads(read(os.path.join(out, "report.json")))
        assert report["inputs"]["digest"] == input_digest(("camera", original), ("cmf", b"cie1931"))

    def test_fixed_step_is_read_only_under_the_fixed_rule(self, tmp_path, camera_csv, capsys):
        def run(optimizer, *flags):
            out = str(tmp_path / "".join([optimizer, *flags]))
            code = main(["optimize", "--camera", camera_csv, "--optimizer", optimizer, *flags, "--out", out])
            return code, out

        code, ignored = run("als", "--fixed-step", "0")
        assert code == 0
        _, default = run("als")
        for name in ("filter.csv", "trace.csv"):
            assert read(os.path.join(ignored, name)) == read(os.path.join(default, name))
        assert json.loads(read(os.path.join(ignored, "report.json")))["config"]["step_rule"] is None
        capsys.readouterr()
        for step in ("0", "-1", "inf", "nan"):
            code, out = run("ga", "--fixed-step", step)
            assert code == 1
            assert capsys.readouterr().err == f"error: fixed_step must be positive and finite, got {float(step)!r}\n"
            assert not os.path.exists(out)

    @pytest.mark.parametrize("epsilon", ["inf", "nan", "0", "-1"])
    def test_epsilon_must_be_positive_and_finite(self, tmp_path, camera_csv, capsys, epsilon):
        # An infinite epsilon would stop after one iteration and write
        # "epsilon": Infinity into report.json, which is not JSON.
        out = tmp_path / "out"
        assert main(["optimize", "--camera", camera_csv, "--epsilon", epsilon, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: epsilon must be positive and finite, got {float(epsilon)!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_report_refuses_non_finite_values(self, tmp_path, value):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="not JSON compliant"):
            specfilter.cli._write_run(str(out), {"timing_ms": value}, ("a.txt", str, "a"))
        assert not out.exists()

    def test_cmf_flag_without_a_path_exits_1(self, tmp_path, camera_csv, capsys):
        out = tmp_path / "out"
        assert main(["optimize", "--camera", camera_csv, "--cmf", "file:", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: unknown CMF choice 'file:' (use 'cie1931' or 'file:<path>')\n"
        assert not out.exists()

    def test_missing_camera_exits_1(self, tmp_path):
        code = main(["optimize", "--camera", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == 1

    def test_malformed_camera_error_names_the_file_and_line(self, tmp_path, camera_csv, capsys):
        lines = read(camera_csv).decode().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        bad = tmp_path / "short_row_camera.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["optimize", "--camera", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert f"error: {bad}: line 3: expected 4 cells, got 3" in capsys.readouterr().err

    @pytest.mark.parametrize("optimize", [optimize_als, optimize_ga], ids=["als", "ga"])
    def test_filter_files_read_back_bit_for_bit(self, tmp_path, camera_csv, optimize):
        out = str(tmp_path / "out")
        optimizer = "als" if optimize is optimize_als else "ga"
        assert main(["optimize", "--camera", camera_csv, "--optimizer", optimizer, "--out", out]) == 0
        solution = optimize(load_sensor_set(camera_csv), builtin_cmf())
        wavelengths = DEFAULT_GRID.wavelengths().tobytes()

        written = read_spectral_csv(os.path.join(out, "filter.csv"))
        assert (written.key_name, written.column_names) == ("wavelength", ("transmittance",))
        assert written.wavelengths.tobytes() == wavelengths
        assert written.columns[:, 0].tobytes() == solution.filter.values.tobytes()

        written = read_spectral_csv(os.path.join(out, "iteration_filters.csv"))
        assert written.column_names == tuple(f"iter{i}" for i in range(len(solution.trace)))
        assert written.wavelengths.tobytes() == wavelengths
        assert written.columns.tobytes() == solution.trace.filters.T.tobytes()

    def test_multistart_flag_runs(self, tmp_path, camera_csv):
        out = str(tmp_path / "out")
        code = main(
            [
                "optimize", "--camera", camera_csv, "--optimizer", "als",
                "--init", "random", "--starts", "4", "--seed", "3", "--out", out,
            ]
        )
        assert code == 0

    def test_parser_built_once_leaks_no_defaults(self, tmp_path, camera_csv):
        assert specfilter.cli._parser() is specfilter.cli._parser()
        outs = [str(tmp_path / "multi"), str(tmp_path / "single")]
        assert main(["optimize", "--camera", camera_csv, "--starts", "4", "--out", outs[0]]) == 0
        assert main(["optimize", "--camera", camera_csv, "--out", outs[1]]) == 0
        starts = [json.loads(read(os.path.join(out, "report.json")))["config"]["starts"] for out in outs]
        assert starts == [4, 1]

    @pytest.mark.parametrize("optimizer", ["als", "ga"])
    @pytest.mark.parametrize("starts", ["0", "-3"])
    def test_starts_below_one_exits_1(self, tmp_path, camera_csv, capsys, optimizer, starts):
        out = str(tmp_path / "out")
        code = main(
            ["optimize", "--camera", camera_csv, "--optimizer", optimizer, "--starts", starts, "--out", out]
        )
        assert code == 1
        assert f"error: need at least one start, got {starts}" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("optimizer", ["als", "ga"])
    def test_negative_seed_exits_1(self, tmp_path, camera_csv, capsys, optimizer):
        out = str(tmp_path / "out")
        code = main(["optimize", "--camera", camera_csv, "--optimizer", optimizer, "--seed", "-1", "--out", out])
        assert code == 1
        assert "error: seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_fixed_step_rank_loss_exits_1(self, tmp_path, camera_csv, capsys, monkeypatch):
        # Every start's first trial, its second scoring call, loses rank.
        real, calls = specfilter.gradient.basis_score, []

        def second_call_loses_rank(*args):
            calls.append(None)
            m, score, full = real(*args)
            return m, score, full and len(calls) % 2 == 1

        monkeypatch.setattr(specfilter.gradient, "basis_score", second_call_loses_rank)
        out = str(tmp_path / "out")
        code = main(["optimize", "--camera", camera_csv, "--optimizer", "ga", "--fixed-step", "0.1",
                     "--starts", "3", "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: all 3 starts lost rank; start 0: filter lost a camera channel at iteration 1\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("optimizer", ["als", "ga"])
    def test_random_starts_are_all_distinct(self, tmp_path, camera_csv, monkeypatch, optimizer):
        # The filters each start actually runs from: ALS sweeps its whole
        # stack at once, gradient ascent ascends from each start in turn.
        starts = []
        if optimizer == "als":
            real_sweep = specfilter.als._sweep

            def sweep(initial, *args):
                # The first call is the multistart screen; the winner's polish
                # runs the same loop from its one filter afterwards.
                if not starts:
                    starts.extend(initial.copy())
                return real_sweep(initial, *args)

            monkeypatch.setattr(specfilter.als, "_sweep", sweep)
        else:
            real_ascend = specfilter.gradient._ascend

            def ascend(f, *args):
                starts.append(f.copy())
                return real_ascend(f, *args)

            monkeypatch.setattr(specfilter.gradient, "_ascend", ascend)
        out = str(tmp_path / "out")
        argv = ["optimize", "--camera", camera_csv, "--optimizer", optimizer, "--max-iters", "50",
                "--init", "random", "--starts", "3", "--seed", "3", "--out", out]
        assert main(argv) in (0, 2)
        assert len(starts) == 3
        assert len({row.tobytes() for row in starts}) == 3
        # Start 0 is the first draw of the seed's stream, as in a single-start run.
        first = 1.0 - np.random.default_rng(3).random(DEFAULT_GRID.count)
        assert starts[0].tobytes() == first.tobytes()


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

    def test_report_names_its_inputs(self, tmp_path, camera_csv, scene_manifest):
        out = str(tmp_path / "out")
        assert main(["evaluate", "--camera", camera_csv, "--scenes", scene_manifest, "--out", out]) == 0
        report = json.loads(read(os.path.join(out, "report.json")))
        assert {key: value for key, value in report["inputs"].items() if key != "digest"} == {
            "camera": camera_csv,
            "cmf": "cie1931",
            "scenes": scene_manifest,
            "illuminants": str(tmp_path / "lights.csv"),
            "reflectances": str(tmp_path / "surfaces.csv"),
            "filter": None,
        }
        assert "provenance" not in report["evaluation"]

    @pytest.mark.parametrize("filtered", [False, True], ids=["baseline", "filtered"])
    def test_report_digest_covers_every_input_file(self, tmp_path, camera_csv, scene_manifest, filtered):
        chunks = [("camera", read(camera_csv)), ("cmf", b"cie1931"),
                  ("illuminants", read(tmp_path / "lights.csv")), ("reflectances", read(tmp_path / "surfaces.csv"))]
        argv = ["evaluate", "--camera", camera_csv, "--scenes", scene_manifest, "--out", str(tmp_path / "out")]
        if filtered:
            filter_dir = str(tmp_path / "opt")
            assert main(["optimize", "--camera", camera_csv, "--out", filter_dir]) == 0
            argv += ["--filter", os.path.join(filter_dir, "filter.csv")]
            chunks.append(("filter", read(os.path.join(filter_dir, "filter.csv"))))
        assert main(argv) == 0
        report = json.loads(read(tmp_path / "out" / "report.json"))
        assert report["inputs"]["digest"] == input_digest(*chunks)
        assert {label for label, _ in chunks} <= report["inputs"].keys()

    def test_manifest_cmf_file_resolves_against_the_manifest(self, tmp_path, camera_csv, scene_manifest, monkeypatch):
        (tmp_path / "observer.csv").write_text(serialize_spectral_csv(
            SpectralTable(DEFAULT_GRID.wavelengths(), ("x", "y", "z"), builtin_cmf().channels)))
        with open(scene_manifest, "a") as handle:
            handle.write("cmf = file:observer.csv\n")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        out = str(tmp_path / "out")
        assert main(["evaluate", "--camera", camera_csv, "--scenes", scene_manifest, "--out", out]) == 0
        report = json.loads(read(os.path.join(out, "report.json")))
        assert report["inputs"]["cmf"] == f"file:{tmp_path / 'observer.csv'}"
        builtin = str(tmp_path / "builtin")
        assert main(["evaluate", "--camera", camera_csv, "--scenes", scene_manifest, "--cmf", "cie1931",
                     "--out", builtin]) == 0
        assert read(os.path.join(out, "evaluation.csv")) == read(os.path.join(builtin, "evaluation.csv"))

    def test_channel_zeroing_filter_exits_1(self, tmp_path, camera_csv, scene_manifest, capsys):
        zero = tmp_path / "zero.csv"
        zero.write_text(serialize_spectral_csv(
            SpectralTable(DEFAULT_GRID.wavelengths(), ("transmittance",), np.zeros((31, 1)))))
        out = str(tmp_path / "out")
        code = main(["evaluate", "--camera", camera_csv, "--scenes", scene_manifest,
                     "--filter", str(zero), "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {zero}: sensor matrix is rank deficient (columns are numerically dependent)\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key", ["camera", "cmf", "illuminants", "reflectances"])
    def test_manifest_key_without_value_exits_1(self, tmp_path, camera_csv, scene_manifest, capsys, key):
        # An empty path would resolve to the manifest's directory and fail
        # later as "Is a directory", naming neither the manifest nor the line.
        values = {"illuminants": "lights.csv", "reflectances": "surfaces.csv", key: ""}
        manifest = tmp_path / "empty_value.txt"
        manifest.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        line = list(values).index(key) + 1
        out = tmp_path / "out"
        assert main(["evaluate", "--camera", camera_csv, "--scenes", str(manifest), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {manifest}: line {line}: key {key!r} has no value\n"
        assert not out.exists()

    def test_manifest_cmf_without_a_path_exits_1(self, tmp_path, camera_csv, scene_manifest, capsys):
        with open(scene_manifest, "a") as handle:
            handle.write("cmf = file:\n")
        out = tmp_path / "out"
        assert main(["evaluate", "--camera", camera_csv, "--scenes", scene_manifest, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {scene_manifest}: line 3: key 'cmf' names no file after 'file:'\n"
        assert not out.exists()

    def test_no_camera_from_flag_or_manifest_exits_1(self, tmp_path, scene_manifest, capsys):
        out = tmp_path / "out"
        assert main(["evaluate", "--scenes", scene_manifest, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: no camera file given (flag --camera or manifest key 'camera')\n")
        assert not out.exists()

    def test_invalid_manifest_exits_1(self, tmp_path, camera_csv):
        bad = tmp_path / "bad.txt"
        bad.write_text("no equals sign here")
        assert main(["evaluate", "--camera", camera_csv, "--scenes", str(bad), "--out", str(tmp_path)]) == 1


SHORT_RANGE = "target grid 400.0..700.0 nm exceeds source range 420.0..700.0 nm"
HALF_MANIFEST = "manifest must name both illuminants and reflectances files"


def spectral_csv_text(block, start):
    """A spectral CSV of ``block``'s columns, one row per 10 nm from ``start``."""
    names = tuple(f"c{j}" for j in range(block.shape[1]))
    return serialize_spectral_csv(SpectralTable(start + 10.0 * np.arange(len(block)), names, block))


# Per case: the bad file's text, the input it is read as, and the reason its error gives.
BAD_INPUTS = {
    "camera width": (spectral_csv_text(np.ones((31, 4)), 400.0), "camera", "need exactly 3 data column(s), got 4"),
    "camera rank": (spectral_csv_text(np.ones((31, 3)), 400.0), "camera",
                    "sensor matrix is rank deficient (columns are numerically dependent)"),
    "camera range": (spectral_csv_text(np.eye(29, 3), 420.0), "camera", SHORT_RANGE),
    "cmf width": (spectral_csv_text(np.ones((31, 4)), 400.0), "cmf", "need exactly 3 data column(s), got 4"),
    "illuminants range": (spectral_csv_text(np.ones((29, 3)), 420.0), "illuminants", SHORT_RANGE),
    "reflectances range": (spectral_csv_text(np.full((29, 12), 0.5), 420.0), "reflectances", SHORT_RANGE),
    "filter width": (spectral_csv_text(np.ones((31, 2)), 400.0), "filter", "need exactly 1 data column(s), got 2"),
    "filters-a range": (spectral_csv_text(np.ones((29, 1)), 420.0), "filters-a", SHORT_RANGE),
    "scenes without reflectances": ("illuminants = lights.csv\n", "scenes", HALF_MANIFEST),
    "trace-compare scenes without illuminants": ("reflectances = surfaces.csv\n", "trace-compare scenes",
                                                 HALF_MANIFEST),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_input_that_cannot_be_loaded_is_named(tmp_path, camera_csv, scene_manifest, capsys, case):
    text, role, reason = BAD_INPUTS[case]
    (tmp_path / "bad").write_text(text)
    (tmp_path / "bad_scenes.txt").write_text(
        f"illuminants = {'bad' if role == 'illuminants' else 'lights.csv'}\n"
        f"reflectances = {'bad' if role == 'reflectances' else 'surfaces.csv'}\n")
    (tmp_path / "trace.csv").write_text("iteration,vora_value,residual\n0,0.5,0.1\n")
    bad, manifest, trace = (str(tmp_path / name) for name in ("bad", "bad_scenes.txt", "trace.csv"))
    argv = {
        "camera": ["optimize", "--camera", bad],
        "cmf": ["optimize", "--camera", camera_csv, "--cmf", f"file:{bad}"],
        "illuminants": ["evaluate", "--camera", camera_csv, "--scenes", manifest],
        "reflectances": ["evaluate", "--camera", camera_csv, "--scenes", manifest],
        "filter": ["evaluate", "--camera", camera_csv, "--scenes", scene_manifest, "--filter", bad],
        "filters-a": ["trace-compare", trace, trace, "--filters-a", bad,
                      "--camera", camera_csv, "--scenes", scene_manifest],
        "scenes": ["evaluate", "--camera", camera_csv, "--scenes", bad],
        "trace-compare scenes": ["trace-compare", trace, trace, "--filters-a", trace,
                                 "--camera", camera_csv, "--scenes", bad],
    }[role]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("run", ["optimize", "optimize file cmf", "evaluate", "evaluate filter",
                                 "trace-compare"])
def test_each_input_is_opened_once(tmp_path, camera_csv, scene_manifest, monkeypatch, run):
    observer = tmp_path / "observer.csv"
    observer.write_text(serialize_spectral_csv(
        SpectralTable(DEFAULT_GRID.wavelengths(), ("x", "y", "z"), builtin_cmf().channels)))
    als, ga = str(tmp_path / "als"), str(tmp_path / "ga")
    assert main(["optimize", "--camera", camera_csv, "--out", als]) == 0
    assert main(["optimize", "--camera", camera_csv, "--optimizer", "ga", "--out", ga]) == 0
    scenes = [scene_manifest, str(tmp_path / "lights.csv"), str(tmp_path / "surfaces.csv")]
    argv, inputs = {
        "optimize": (["optimize", "--camera", camera_csv], [camera_csv]),
        "optimize file cmf": (["optimize", "--camera", camera_csv, "--cmf", f"file:{observer}"],
                              [camera_csv, str(observer)]),
        "evaluate": (["evaluate", "--camera", camera_csv, "--scenes", scene_manifest], [camera_csv, *scenes]),
        "evaluate filter": (["evaluate", "--camera", camera_csv, "--scenes", scene_manifest,
                             "--filter", os.path.join(als, "filter.csv")],
                            [camera_csv, *scenes, os.path.join(als, "filter.csv")]),
        "trace-compare": (["trace-compare", os.path.join(als, "trace.csv"), os.path.join(ga, "trace.csv"),
                           "--filters-a", os.path.join(als, "iteration_filters.csv"),
                           "--filters-b", os.path.join(ga, "iteration_filters.csv"),
                           "--camera", camera_csv, "--scenes", scene_manifest],
                          [os.path.join(als, "trace.csv"), os.path.join(ga, "trace.csv"),
                           os.path.join(als, "iteration_filters.csv"), os.path.join(ga, "iteration_filters.csv"),
                           camera_csv, *scenes]),
    }[run]
    opened = []
    real_open = open

    def spy(file, mode="r", *args, **kwargs):
        if "r" in mode or "+" in mode:
            opened.append(os.fspath(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spy)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    monkeypatch.undo()
    assert {path: opened.count(path) for path in inputs} == dict.fromkeys(inputs, 1)


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
        # A camera named only by the manifest scores the same, as in evaluate.
        with open(scene_manifest, "a") as handle:
            handle.write("camera = camera.csv\n")
        from_manifest = str(tmp_path / "cmp_manifest")
        argv = ["trace-compare", os.path.join(out_a, "trace.csv"), os.path.join(out_a, "trace.csv"),
                "--filters-a", os.path.join(out_a, "iteration_filters.csv"), "--scenes", scene_manifest,
                "--out", from_manifest]
        assert main(argv) == 0
        assert read(os.path.join(from_manifest, "compare.csv")) == read(os.path.join(out, "compare.csv"))

    @pytest.mark.parametrize("scored", [True, False], ids=["scoring", "plain"])
    def test_report_names_and_digests_its_inputs(self, tmp_path, camera_csv, scene_manifest, scored):
        runs = {}
        for optimizer in ("als", "ga"):
            runs[optimizer] = str(tmp_path / optimizer)
            argv = ["optimize", "--camera", camera_csv, "--optimizer", optimizer,
                    "--max-iters", "40", "--out", runs[optimizer]]
            assert main(argv) in (0, 2)
        traces = [os.path.join(runs[optimizer], "trace.csv") for optimizer in ("als", "ga")]
        out = tmp_path / "cmp"
        argv = ["trace-compare", *traces, "--label-a", "als", "--label-b", "ga", "--out", str(out)]
        inputs = {"trace_a": traces[0], "trace_b": traces[1], "filters_a": None, "filters_b": None}
        chunks = [("trace_a", read(traces[0])), ("trace_b", read(traces[1]))]
        correction = "per-illuminant"
        if scored:
            filters = [os.path.join(runs[optimizer], "iteration_filters.csv") for optimizer in ("als", "ga")]
            correction = "global"
            argv += ["--filters-a", filters[0], "--filters-b", filters[1], "--camera", camera_csv,
                     "--scenes", scene_manifest, "--correction", correction]
            lights, surfaces = str(tmp_path / "lights.csv"), str(tmp_path / "surfaces.csv")
            inputs.update(filters_a=filters[0], filters_b=filters[1], camera=camera_csv, cmf="cie1931",
                          scenes=scene_manifest, illuminants=lights, reflectances=surfaces)
            # Load order: both traces, then the scene inputs, then each filters file.
            chunks += [("camera", read(camera_csv)), ("cmf", b"cie1931"), ("illuminants", read(lights)),
                       ("reflectances", read(surfaces)), ("filters_a", read(filters[0])),
                       ("filters_b", read(filters[1]))]
        assert main(argv) == 0
        assert sorted(os.listdir(out)) == ["compare.csv", "report.json"]
        report = json.loads(read(out / "report.json"))
        assert report.keys() == {"command", "inputs", "config", "timing_ms"}
        assert report["command"] == "trace-compare"
        assert {key: value for key, value in report["inputs"].items() if key != "digest"} == inputs
        assert report["inputs"]["digest"] == input_digest(*chunks)
        assert {label for label, _ in chunks} <= report["inputs"].keys()
        assert report["config"] == {"label_a": "als", "label_b": "ga", "correction": correction}
        assert report["timing_ms"] >= 0

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

    @pytest.mark.parametrize("mode", ["per-illuminant", "global"])
    def test_mean_delta_e_cells_equal_evaluate(self, tmp_path, camera_csv, scene_manifest, mode):
        outs = {}
        for optimizer in ("als", "ga"):
            outs[optimizer] = str(tmp_path / optimizer)
            argv = ["optimize", "--camera", camera_csv, "--optimizer", optimizer,
                    "--max-iters", "40", "--out", outs[optimizer]]
            assert main(argv) in (0, 2)
        out = str(tmp_path / "cmp")
        code = main(
            [
                "trace-compare",
                os.path.join(outs["als"], "trace.csv"), os.path.join(outs["ga"], "trace.csv"),
                "--label-a", "als", "--label-b", "ga",
                "--filters-a", os.path.join(outs["als"], "iteration_filters.csv"),
                "--filters-b", os.path.join(outs["ga"], "iteration_filters.csv"),
                "--camera", camera_csv, "--scenes", scene_manifest, "--correction", mode, "--out", out,
            ]
        )
        assert code == 0
        camera = load_sensor_set(camera_csv)
        scenes = load_scene_set(read_manifest(scene_manifest))
        rows = [line.split(",") for line in read(os.path.join(out, "compare.csv")).decode().splitlines()[1:]]
        for optimizer in ("als", "ga"):
            filters = read_spectral_csv(os.path.join(outs[optimizer], "iteration_filters.csv")).columns.T
            cells = [r[3] for r in rows if r[1] == optimizer]
            assert len(cells) == len(filters)
            for cell, values in zip(cells, filters):
                report = evaluate(apply_filter(SpectralCurve(DEFAULT_GRID, values), camera),
                                  builtin_cmf(), scenes, mode)
                assert cell == repr(report.delta_e.mean)

    def scored_traces(self, tmp_path, camera_csv, scene_manifest):
        """trace-compare argv (minus --out) over an ALS and a 40-iteration GA run, and their row counts."""
        argv, rows = ["trace-compare"], []
        for optimizer in ("als", "ga"):
            out = str(tmp_path / optimizer)
            assert main(["optimize", "--camera", camera_csv, "--optimizer", optimizer,
                         "--max-iters", "40", "--out", out]) in (0, 2)
            argv.append(os.path.join(out, "trace.csv"))
            rows.append(len(read_spectral_csv(os.path.join(out, "iteration_filters.csv")).column_names))
        argv += ["--filters-a", str(tmp_path / "als" / "iteration_filters.csv"),
                 "--filters-b", str(tmp_path / "ga" / "iteration_filters.csv"),
                 "--camera", camera_csv, "--scenes", scene_manifest]
        return argv, rows

    @pytest.mark.parametrize("mode", ["per-illuminant", "global"])
    def test_compare_csv_independent_of_block_size(self, tmp_path, camera_csv, scene_manifest, monkeypatch, mode):
        argv, _ = self.scored_traces(tmp_path, camera_csv, scene_manifest)
        argv += ["--correction", mode]
        outputs = []
        for budget in (specfilter.cli.PAIR_BUDGET, 1, 10**9):
            monkeypatch.setattr(specfilter.cli, "PAIR_BUDGET", budget)
            out = str(tmp_path / f"cmp{budget}")
            assert main(argv + ["--out", out]) == 0
            outputs.append(read(os.path.join(out, "compare.csv")))
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_delta_e_called_once_per_block(self, tmp_path, camera_csv, scene_manifest, monkeypatch):
        argv, rows = self.scored_traces(tmp_path, camera_csv, scene_manifest)
        stacks = []

        class CountingEngine(specfilter.cli.SceneEngine):
            def delta_e(self, channels):
                stacks.append(len(channels))
                return super().delta_e(channels)

        monkeypatch.setattr(specfilter.cli, "SceneEngine", CountingEngine)
        block = 7
        pairs = 3 * 12  # the manifest's illuminants times its reflectances
        monkeypatch.setattr(specfilter.cli, "PAIR_BUDGET", block * pairs + pairs - 1)
        assert main(argv + ["--out", str(tmp_path / "cmp")]) == 0
        # ceil(rows / block) calls per trace, each on a full block but the last.
        assert stacks == [min(block, count - start) for count in rows for start in range(0, count, block)]

    @pytest.mark.parametrize("mode", ["per-illuminant", "global"])
    def test_rank_deficient_iteration_filter_is_named(self, tmp_path, camera_csv, scene_manifest, capsys, mode):
        argv, rows = self.scored_traces(tmp_path, camera_csv, scene_manifest)
        filters = str(tmp_path / "ga" / "iteration_filters.csv")
        lines = [line.split(",") for line in read(filters).decode().splitlines()]
        column = rows[1] - 3
        name = lines[0][column + 1]
        for cells in lines[1:]:
            cells[column + 1] = "0.0"
        zeroed = tmp_path / "zeroed_filters.csv"
        zeroed.write_text("\n".join(",".join(cells) for cells in lines) + "\n")
        argv[argv.index(filters)] = str(zeroed)
        out = tmp_path / "cmp"
        capsys.readouterr()
        assert main(argv + ["--correction", mode, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{zeroed} {name}: camera response matrix is rank deficient" in err
        assert name == f"iter{column}"
        assert not (out / "compare.csv").exists()

    def test_one_scene_engine_per_op(self, tmp_path, camera_csv, scene_manifest, monkeypatch):
        out_a = str(tmp_path / "als")
        assert main(["optimize", "--camera", camera_csv, "--optimizer", "als", "--out", out_a]) == 0
        built = []

        class CountingEngine(specfilter.cli.SceneEngine):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(specfilter.cli, "SceneEngine", CountingEngine)
        filters = os.path.join(out_a, "iteration_filters.csv")
        trace = os.path.join(out_a, "trace.csv")
        scoring = ["--camera", camera_csv, "--scenes", scene_manifest]
        argv = ["trace-compare", trace, trace, *scoring, "--out", str(tmp_path / "cmp")]
        assert main(argv + ["--filters-a", filters, "--filters-b", filters]) == 0
        assert len(built) == 1
        assert main(argv + ["--filters-b", filters]) == 0
        assert len(built) == 2
        # Nothing to score: no engine.
        assert main(argv) == 0
        assert len(built) == 2

    def test_dark_illuminant_fails_only_when_scored(self, tmp_path, camera_csv, capsys):
        out_a = str(tmp_path / "als")
        assert main(["optimize", "--camera", camera_csv, "--optimizer", "als", "--out", out_a]) == 0
        lines = ["wavelength,bright,dark"]
        lines += [f"{float(wl)!r},1.0,0.0" for wl in DEFAULT_GRID.wavelengths()]
        (tmp_path / "lights.csv").write_text("\n".join(lines) + "\n")
        lines = ["wavelength," + ",".join(f"c{j}" for j in range(4))]
        lines += [f"{float(wl)!r},0.2,0.4,0.6,0.8" for wl in DEFAULT_GRID.wavelengths()]
        (tmp_path / "surfaces.csv").write_text("\n".join(lines) + "\n")
        manifest = tmp_path / "dark.txt"
        manifest.write_text("illuminants = lights.csv\nreflectances = surfaces.csv\n")
        trace = os.path.join(out_a, "trace.csv")
        argv = ["trace-compare", trace, trace, "--camera", camera_csv, "--scenes", str(manifest),
                "--out", str(tmp_path / "cmp")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--filters-a", os.path.join(out_a, "iteration_filters.csv")]) == 1
        assert "perfect-diffuser white point has a non-positive component" in capsys.readouterr().err

    def test_unused_malformed_inputs_do_not_fail(self, tmp_path, camera_csv, capsys):
        # Without a filters file nothing is scored, so --camera and --scenes
        # are not read at all.
        out_a = str(tmp_path / "als")
        assert main(["optimize", "--camera", camera_csv, "--optimizer", "als", "--out", out_a]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("wavelength,r\n400,not a number\n")
        trace = os.path.join(out_a, "trace.csv")
        out = tmp_path / "cmp"
        capsys.readouterr()
        assert main(["trace-compare", trace, trace, "--camera", str(bad), "--scenes", str(bad),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        plain = tmp_path / "plain"
        assert main(["trace-compare", trace, trace, "--out", str(plain)]) == 0
        assert read(out / "compare.csv") == read(plain / "compare.csv")

    @pytest.mark.parametrize("drop", ["trace row", "filter column"])
    def test_mismatched_filters_file_exits_1(self, tmp_path, camera_csv, scene_manifest, capsys, drop):
        out_a = str(tmp_path / "als")
        assert main(["optimize", "--camera", camera_csv, "--optimizer", "als", "--out", out_a]) == 0
        trace = os.path.join(out_a, "trace.csv")
        filters = os.path.join(out_a, "iteration_filters.csv")
        recorded = len(read_spectral_csv(filters).column_names)
        if drop == "trace row":
            lines = read(trace).decode().splitlines()[:-1]
            trace = str(tmp_path / "short_trace.csv")
            rows, columns = recorded - 1, recorded
        else:
            lines = [line.rsplit(",", 1)[0] for line in read(filters).decode().splitlines()]
            filters = str(tmp_path / "short_filters.csv")
            rows, columns = recorded, recorded - 1
        with open(trace if drop == "trace row" else filters, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        out = tmp_path / "cmp"
        code = main(
            [
                "trace-compare", trace, trace, "--filters-b", filters,
                "--camera", camera_csv, "--scenes", scene_manifest, "--out", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{filters} has {columns} iteration filters but {trace} has {rows} trace rows" in err
        assert not (out / "compare.csv").exists()

    def test_renumbered_trace_rejects_its_filters_file(self, tmp_path, camera_csv, scene_manifest, capsys):
        out_a = str(tmp_path / "als")
        argv = ["optimize", "--camera", camera_csv, "--optimizer", "als", "--max-iters", "3", "--out", out_a]
        assert main(argv) == 2
        filters = os.path.join(out_a, "iteration_filters.csv")
        assert read_spectral_csv(filters).column_names == ("iter0", "iter1", "iter2", "iter3")
        lines = read(os.path.join(out_a, "trace.csv")).decode().splitlines()
        trace = tmp_path / "renumbered.csv"
        trace.write_text("\n".join([lines[0]] + [f"{k}{line[1:]}" for k, line in zip((7, 17, 27, 37), lines[1:])]) + "\n")
        out = tmp_path / "cmp"
        code = main(
            [
                "trace-compare", str(trace), str(trace), "--filters-a", filters,
                "--camera", camera_csv, "--scenes", scene_manifest, "--out", str(out),
            ]
        )
        assert code == 1
        assert f"{filters} column iter0 does not match {trace} (expected iter7)" in capsys.readouterr().err
        assert not (out / "compare.csv").exists()

    @pytest.mark.parametrize("filters_flag", ["--filters-a", "--filters-b"])
    @pytest.mark.parametrize("given", [(), ("--camera",), ("--scenes",)])
    def test_filters_without_camera_and_scenes_exits_1(
        self, tmp_path, camera_csv, scene_manifest, capsys, filters_flag, given
    ):
        out_a = str(tmp_path / "als")
        assert main(["optimize", "--camera", camera_csv, "--optimizer", "als", "--out", out_a]) == 0
        trace = os.path.join(out_a, "trace.csv")
        values = {"--camera": camera_csv, "--scenes": scene_manifest}
        argv = ["trace-compare", trace, trace, filters_flag, os.path.join(out_a, "iteration_filters.csv")]
        for flag in given:
            argv += [flag, values[flag]]
        out = tmp_path / "cmp"
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        if "--scenes" in given:
            # The fixture's manifest names no camera either.
            assert err == "error: no camera file given (flag --camera or manifest key 'camera')\n"
        else:
            assert err == "error: --filters-a/--filters-b need --scenes\n"
        assert not (out / "compare.csv").exists()

    @pytest.mark.parametrize("flag, label", [("--label-a", "x,y"), ("--label-b", ""), ("--label-a", "x\ny"),
                                             ("--label-b", "x\r"), ("--label-a", "x\u2028y"), ("--label-b", "a")],
                             ids=["comma", "empty", "LF", "CR", "line separator", "equal"])
    def test_label_that_would_split_a_row_exits_1(self, tmp_path, capsys, flag, label):
        # A comma would write five cells under compare.csv's four-cell header,
        # and a --label-b equal to --label-a's default rows that cannot be
        # told from trace A's.  Both fail before any file is read.
        trace = tmp_path / "missing.csv"
        out = tmp_path / "cmp"
        assert main(["trace-compare", str(trace), str(trace), flag, label, "--out", str(out)]) == 1
        if label == "a":
            assert capsys.readouterr().err == "error: --label-a and --label-b must differ, both are 'a'\n"
        else:
            assert capsys.readouterr().err == (
                f"error: {flag} must be non-empty and hold no comma or line break, got {label!r}\n")
        assert not out.exists()

    def test_malformed_trace_exits_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("iteration,vora_value,residual\n0,not_a_number,1\n")
        assert main(["trace-compare", str(bad), str(bad), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("row", ["0,nan,1", "1,inf,-inf", "2,0.5,nan"])
    def test_non_finite_trace_cell_exits_1(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"iteration,vora_value,residual\n{row}\n")
        out = tmp_path / "cmp"
        assert main(["trace-compare", str(bad), str(bad), "--out", str(out)]) == 1
        assert f"{bad}: line 2: non-finite" in capsys.readouterr().err
        assert not (out / "compare.csv").exists()

    def test_trace_errors_name_the_line_in_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("\niteration,vora_value,residual\n\n0,0.5,2.5\n  \n\n1,0.6\n")
        assert main(["trace-compare", str(bad), str(bad), "--out", str(tmp_path / "cmp")]) == 1
        assert "line 7: expected 3 cells, got 2" in capsys.readouterr().err

    def test_byte_order_mark_trace_is_accepted(self, tmp_path):
        trace = tmp_path / "bom.csv"
        trace.write_bytes(b"\xef\xbb\xbfiteration,vora_value,residual\n0,0.5,1.5\n1,0.75,0.75\n")
        out = tmp_path / "cmp"
        assert main(["trace-compare", str(trace), str(trace), "--out", str(out)]) == 0
        assert read(out / "compare.csv").decode().splitlines() == [
            "iteration,method,vora_value,mean_delta_e", "0,a,0.5,", "1,a,0.75,", "0,b,0.5,", "1,b,0.75,",
        ]

    @pytest.mark.parametrize(
        "rows, line, message",
        [
            (["5,0.5,1.5", "2,0.9,0.3", "2,0.1,2.7"], 3, "2 follows 5"),
            (["0,0.5,1.5", "1,0.6,1.2", "1,0.7,0.9"], 4, "1 follows 1"),
        ],
        ids=["backward", "repeated"],
    )
    def test_non_increasing_iterations_name_the_line(self, tmp_path, capsys, rows, line, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("iteration,vora_value,residual\n" + "\n".join(rows) + "\n")
        out = tmp_path / "cmp"
        assert main(["trace-compare", str(bad), str(bad), "--out", str(out)]) == 1
        assert f"{bad}: line {line}: first column must be strictly increasing; {message}" in capsys.readouterr().err
        assert not (out / "compare.csv").exists()

    def test_falling_vora_value_names_the_file_and_iteration(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("iteration,vora_value,residual\n0,0.5,1.5\n1,0.9,0.3\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("iteration,vora_value,residual\n0,0.5,1.5\n1,0.9,0.3\n2,0.1,2.7\n")
        out = tmp_path / "cmp"
        assert main(["trace-compare", str(good), str(bad), "--out", str(out)]) == 1
        assert f"{bad}: Vora-Value decreased from 0.9 to 0.1 at iteration 2" in capsys.readouterr().err
        assert not (out / "compare.csv").exists()
        # A dip within round-off is not a fall.
        good.write_text("iteration,vora_value,residual\n0,0.5,1.5\n1,0.4999999999999995,1.5\n")
        assert main(["trace-compare", str(good), str(good), "--out", str(out)]) == 0

    def test_fractional_iteration_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("iteration,vora_value,residual\n0,0.5,1.5\n1.5,0.6,1.2\n")
        assert main(["trace-compare", str(bad), str(bad), "--out", str(tmp_path / "cmp")]) == 1
        assert f"{bad}: iteration 1.5 is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "wavelength,vora_value,residual\n0,0.5,1.5\n",
            "iteration,vora_value\n0,0.5\n",
            "iteration,residual,vora_value\n0,1.5,0.5\n",
            "0,0.5,1.5\n1,0.6,1.2\n",
        ],
        ids=["wavelength first", "no residual", "swapped", "no header"],
    )
    def test_header_must_be_exact(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert main(["trace-compare", str(bad), str(bad), "--out", str(tmp_path / "cmp")]) == 1
        assert f"{bad} is not a trace CSV (expected iteration,vora_value,residual)" in capsys.readouterr().err


def cell_by_cell_iteration_filters_csv(solution):
    """The iteration-filters table formatted one ``repr(float(cell))`` at a time."""
    header = "wavelength," + ",".join(f"iter{i}" for i in range(len(solution.trace)))
    lines = [header]
    for i, wl in enumerate(solution.filter.grid.wavelengths()):
        cells = [repr(float(wl))] + [repr(float(row[i])) for row in solution.trace.filters]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_iteration_filters_csv_equals_the_cell_by_cell_formatter():
    q = SensorSet(DEFAULT_GRID, bump_camera_matrix(np.random.default_rng(3)))
    solution = optimize_ga(q, builtin_cmf(), GaConfig(max_iterations=200))
    trace = solution.trace
    odd = [np.full(31, -0.0), np.full(31, 5e-324), np.full(31, 1e300),
           np.resize([-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 0.1, 1 / 3], 31)]
    extended = dataclasses.replace(solution, trace=ConvergenceTrace(
        np.append(trace.vora_values, [trace.vora_values[-1]] * len(odd)),
        np.append(trace.residuals, [trace.residuals[-1]] * len(odd)),
        np.concatenate([trace.filters, odd]),
    ))
    assert extended.iterations == solution.iterations + len(odd)
    table = SpectralTable(
        extended.filter.grid.wavelengths(),
        tuple(f"iter{i}" for i in range(len(extended.trace))),
        extended.trace.filters.T,
    )
    text = serialize_spectral_csv(table)
    assert text == cell_by_cell_iteration_filters_csv(extended)
    assert ",-0.0," in text and ",5e-324," in text and ",1e+300," in text
