"""Acceptance suite: one test per release criterion, each printing PASS/SKIP.

Criteria 7 and 8 (and 9's preferred variant) evaluate the toolkit against the
measured Canon 5D Mark II sensitivities and the 102-illuminant /
1995-reflectance collection.  Those datasets are not redistributable, so the
tests skip with an explicit notice unless the files are present (see README:
``data/`` or ``$SPECFILTER_DATA``).
"""

import os
import time

import numpy as np

from specfilter.als import AlsConfig, _filter, optimize_als
from specfilter.cli import main
from specfilter.colorimetry import SceneSet, evaluate
from specfilter.gradient import GaConfig, optimize_ga
from specfilter.ingest import builtin_cmf, load_sensor_set, load_spectra
from specfilter.spectra import (
    DEFAULT_GRID,
    SensorSet,
    SpectralCurve,
    apply_filter,
    orthonormalize,
)
from specfilter.vora import Moments, basis_score, vora_value

from conftest import (
    TOY_GRID,
    bump_camera_matrix,
    dataset_path,
    ga_gradient,
    require_dataset,
    solvable_toy_pair,
)
from oracles import (
    central_difference_gradient,
    iterations_to_reach,
    plain_als_sweep,
    projector,
    random_search_best,
    residual_identity_check,
)

CANON_FILE = "canon_5d_mark_ii.csv"
ILLUMINANTS_FILE = "illuminants.csv"
REFLECTANCES_FILE = "reflectances.csv"


def report(line: str) -> None:
    print(f"\n{line}")


def test_c01_residual_vora_identity_on_500_random_pairs():
    started = time.perf_counter()
    gen = np.random.default_rng(101)
    x = builtin_cmf()
    worst = 0.0
    for _ in range(500):
        f = SpectralCurve(DEFAULT_GRID, gen.uniform(0.05, 1.0, 31))
        q = SensorSet(DEFAULT_GRID, gen.uniform(0.05, 1.0, size=(31, 3)))
        lhs, rhs = residual_identity_check(f, q, x)
        worst = max(worst, abs(lhs - rhs))
        assert abs(lhs - rhs) < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(f"ACCEPTANCE 01 PASS: residual/Vora identity on 500 pairs, worst gap {worst:.2e}, {elapsed:.2f}s")


def test_c02_projector_laws_on_500_random_matrices():
    started = time.perf_counter()
    gen = np.random.default_rng(202)
    for _ in range(500):
        n = int(gen.integers(4, 50))
        s = gen.standard_normal((n, 3))
        p = projector(s)
        assert np.max(np.abs(p @ p - p)) < 1e-10
        assert np.max(np.abs(p - p.T)) < 1e-12
        assert abs(np.trace(p) - 3.0) < 1e-10
        t = np.eye(3) + 0.5 * gen.standard_normal((3, 3))
        assert np.max(np.abs(projector(s @ t) - p)) < 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(f"ACCEPTANCE 02 PASS: projector laws on 500 random matrices, {elapsed:.2f}s")


def well_conditioned_transform(gen: np.random.Generator) -> np.ndarray:
    """Random full-rank 3x3 transform with condition number below 10.

    A numerically near-singular transform is not meaningfully full rank: it
    destroys the column space at float precision, so invariance can only be
    asserted for transforms that keep some conditioning headroom.
    """
    while True:
        t = np.eye(3) + 0.5 * gen.standard_normal((3, 3))
        if np.linalg.cond(t) < 10.0:
            return t


def test_c03_vora_value_invariances():
    started = time.perf_counter()
    gen = np.random.default_rng(303)
    grid = DEFAULT_GRID
    for _ in range(500):
        q = SensorSet(grid, gen.uniform(0.05, 1.0, size=(31, 3)))
        x = SensorSet(grid, gen.uniform(0.05, 1.0, size=(31, 3)))
        value = float(vora_value(q, x))
        assert 0.0 <= value <= 1.0
        assert abs(value - float(vora_value(x, q))) < 1e-12

        t1 = well_conditioned_transform(gen)
        t2 = well_conditioned_transform(gen)
        transformed = float(
            vora_value(SensorSet(grid, q.channels @ t1), SensorSet(grid, x.channels @ t2))
        )
        assert abs(transformed - value) < 1e-10

        f = gen.uniform(0.1, 1.0, 31)
        scale = float(gen.uniform(1e-3, 1e3))
        base = float(vora_value(SensorSet(grid, f[:, None] * q.channels), x))
        scaled = float(vora_value(SensorSet(grid, (scale * f)[:, None] * q.channels), x))
        assert abs(scaled - base) < 1e-10
    elapsed = time.perf_counter() - started
    report(f"ACCEPTANCE 03 PASS: Vora-Value bounds/symmetry/invariances on 500 cases, {elapsed:.2f}s")


def test_c04_als_monotone_and_fixed_point_on_100_cameras():
    started = time.perf_counter()
    gen = np.random.default_rng(404)
    x = builtin_cmf()
    v = orthonormalize(x)
    worst_step = 0.0
    for _ in range(100):
        q = SensorSet(DEFAULT_GRID, bump_camera_matrix(gen))
        solution = optimize_als(q, x)
        assert solution.converged
        assert np.all(np.diff(solution.trace.vora_values) >= -1e-12)
        f = solution.filter.values
        swept = _filter(q.channels, basis_score(f, q.channels, v.basis)[0], v.basis)[0]
        step = float(np.max(np.abs(swept - f)))
        worst_step = max(worst_step, step)
        assert step < 1e-8
    elapsed = time.perf_counter() - started
    report(
        f"ACCEPTANCE 04 PASS: ALS monotone + fixed point on 100 cameras, worst sweep step {worst_step:.2e}, {elapsed:.2f}s"
    )


def test_c05_gradient_matches_finite_differences_on_100_instances():
    started = time.perf_counter()
    gen = np.random.default_rng(505)
    x = builtin_cmf()
    vb = orthonormalize(x).basis
    worst = 0.0
    for _ in range(100):
        q = SensorSet(DEFAULT_GRID, bump_camera_matrix(gen))
        f = gen.uniform(0.2, 1.0, 31)
        analytic = ga_gradient(f, q.channels, vb)

        def objective(values, camera=q):
            filtered = apply_filter(SpectralCurve(DEFAULT_GRID, values), camera)
            return float(vora_value(filtered, x))

        numeric = central_difference_gradient(objective, f, h=1e-6)
        relative = float(np.max(np.abs(analytic - numeric)) / np.max(np.abs(numeric)))
        worst = max(worst, relative)
        assert relative < 1e-5
    elapsed = time.perf_counter() - started
    report(f"ACCEPTANCE 05 PASS: gradient vs central differences on 100 instances, worst rel err {worst:.2e}, {elapsed:.2f}s")


def make_toys(count: int = 20, seed: int = 606):
    gen = np.random.default_rng(seed)
    return [solvable_toy_pair(gen) for _ in range(count)]


def test_c06_toy_scale_agreement_with_random_search_oracle():
    started = time.perf_counter()
    toys = make_toys()
    worst_als = 0.0
    worst_ga = 0.0
    for index, (qm, xm) in enumerate(toys):
        q = SensorSet(TOY_GRID, qm)
        x = SensorSet(TOY_GRID, xm)
        als = optimize_als(q, x, AlsConfig(max_iterations=4000), starts=32, seed=index)
        ga = optimize_ga(q, x)
        oracle_score, _ = random_search_best(qm, xm, np.random.default_rng(9000 + index))
        worst_als = max(worst_als, abs(float(als.score) - oracle_score))
        worst_ga = max(worst_ga, abs(float(ga.score) - oracle_score))
        assert abs(float(als.score) - oracle_score) < 1e-4
        assert abs(float(ga.score) - oracle_score) < 1e-4
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        "ACCEPTANCE 06 PASS: 20 toy cameras vs 1e5-sample oracle, "
        f"worst |ALS-oracle| {worst_als:.2e}, worst |GA-oracle| {worst_ga:.2e}, {elapsed:.1f}s"
    )


def load_canon() -> SensorSet:
    (path,) = require_dataset(CANON_FILE)
    return load_sensor_set(path)


def test_c07_canon_vora_values_match_published_numbers():
    camera = load_canon()
    x = builtin_cmf()
    baseline = float(vora_value(camera, x))
    assert abs(baseline - 0.9342) < 0.0005

    als = optimize_als(camera, x)
    ga = optimize_ga(camera, x, GaConfig(epsilon=1e-13, max_iterations=100_000))
    assert abs(float(als.score) - 0.9952) < 0.001
    assert abs(float(ga.score) - 0.9952) < 0.001

    target = float(als.score) - 1e-4
    reached = iterations_to_reach(als.trace.vora_values, target)
    assert reached <= 30
    report(
        "ACCEPTANCE 07 PASS: Canon baseline "
        f"{baseline:.4f}, ALS {float(als.score):.4f} (within 1e-4 by iter {reached}), GA {float(ga.score):.4f}"
    )


def load_scenes() -> SceneSet:
    illuminants_path, reflectances_path = require_dataset(ILLUMINANTS_FILE, REFLECTANCES_FILE)
    illuminants = load_spectra(illuminants_path)[1].T
    reflectances = load_spectra(reflectances_path)[1]
    return SceneSet(illuminants, reflectances, DEFAULT_GRID)


def test_c08_canon_delta_e_reproduction():
    camera = load_canon()
    scenes = load_scenes()
    x = builtin_cmf()
    baseline = evaluate(camera, None, x, scenes)
    filtered = evaluate(camera, optimize_als(camera, x).filter, x, scenes)

    ratio = filtered.delta_e.mean / baseline.delta_e.mean
    assert 0.15 <= ratio <= 0.45

    baseline_off = abs(baseline.delta_e.mean - 1.416) / 1.416
    filtered_off = abs(filtered.delta_e.mean - 0.298) / 0.298
    soft = "agrees" if baseline_off <= 0.15 and filtered_off <= 0.15 else "deviates (soft check)"
    report(
        "ACCEPTANCE 08 PASS: filtered/baseline mean dE ratio "
        f"{ratio:.3f} in [0.15, 0.45]; baseline {baseline.delta_e.mean:.3f} vs 1.416, "
        f"filtered {filtered.delta_e.mean:.3f} vs 0.298 ({soft})"
    )


def test_c09_als_converges_in_fewer_iterations_than_fixed_step_ga():
    if os.path.exists(dataset_path(CANON_FILE)):
        instances = [(load_canon().channels, builtin_cmf().channels, DEFAULT_GRID)]
        label = "Canon 5D Mark II"
    else:
        instances = [(qm, xm, TOY_GRID) for qm, xm in make_toys(seed=909)]
        label = "20 synthetic toy cameras"

    margins = []
    for qm, xm, grid in instances:
        q = SensorSet(grid, qm)
        x = SensorSet(grid, xm)
        als = optimize_als(q, x)
        ga = optimize_ga(q, x, GaConfig(fixed_step=0.1))
        common_final = min(float(als.score), float(ga.score))
        target = common_final - 1e-4
        als_iterations = iterations_to_reach(als.trace.vora_values, target)
        ga_iterations = iterations_to_reach(ga.trace.vora_values, target)
        assert als_iterations < ga_iterations
        # The paper's claim is about plain ALS, which the solver accelerates:
        # the unaccelerated sweeps from the same start must beat GA too.
        config = AlsConfig()
        moments = Moments.of(qm, orthonormalize(x).basis)
        history = plain_als_sweep(config.start_stack(grid, 1, 0), moments, config.epsilon,
                                  config.max_iterations)[0]
        plain = [float(score[0]) for _, _, score in history]
        plain_target = min(plain[-1], float(ga.score)) - 1e-4
        plain_iterations = iterations_to_reach(plain, plain_target)
        assert plain_iterations < iterations_to_reach(ga.trace.vora_values, plain_target)
        margins.append((als_iterations, plain_iterations, ga_iterations))
    report(
        f"ACCEPTANCE 09 PASS: ALS and plain ALS beat fixed-step GA on {label}; "
        f"(ALS, plain ALS, GA) iterations {margins[:5]}..."
    )


def test_c10_cli_outputs_are_byte_identical(tmp_path):
    channels = bump_camera_matrix(np.random.default_rng(1010))
    lines = ["wavelength,r,g,b"]
    for wl, row in zip(DEFAULT_GRID.wavelengths(), channels):
        lines.append(f"{float(wl)!r},{float(row[0])!r},{float(row[1])!r},{float(row[2])!r}")
    camera_path = tmp_path / "camera.csv"
    camera_path.write_text("\n".join(lines) + "\n")

    def run(out_dir):
        code = main(
            [
                "optimize", "--camera", str(camera_path), "--optimizer", "als",
                "--init", "random", "--starts", "4", "--seed", "11", "--out", str(out_dir),
            ]
        )
        assert code == 0
        return (
            (out_dir / "filter.csv").read_bytes(),
            (out_dir / "trace.csv").read_bytes(),
        )

    first = run(tmp_path / "run_a")
    second = run(tmp_path / "run_b")
    assert first[0] == second[0]
    assert first[1] == second[1]
    report("ACCEPTANCE 10 PASS: repeated cmd_optimize runs produce byte-identical filter.csv and trace.csv")
