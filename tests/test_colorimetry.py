import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specfilter.cli import PAIR_BUDGET
from specfilter.colorimetry import (
    DeltaEStats,
    SceneEngine,
    SceneSet,
    _fitted,
    _lab_f,
    evaluate,
    xyz_to_lab,
)
from specfilter.errors import (
    GridMismatch,
    InvalidWhitePoint,
    RankDeficient,
    ShapeError,
)
from specfilter.ingest import builtin_cmf, load_scene_set, load_sensor_set, read_manifest
from specfilter.spectra import DEFAULT_GRID, SensorSet, SpectralCurve, WavelengthGrid, apply_filter

from conftest import bump_camera_matrix, random_filter
from oracles import lstsq_delta_es


def rendered(channels, illuminant, reflectances):
    """Sensor responses by direct summation over wavelengths, one row per reflectance."""
    return np.array(
        [
            [sum(channels[i, j] * illuminant[i] * r[i] for i in range(len(illuminant))) for j in range(3)]
            for r in reflectances
        ]
    )


def composed_delta_es(camera, observer, illuminants, reflectances, correction_mode="per-illuminant"):
    """Per-pair Delta E from directly summed responses, ``np.linalg.lstsq`` fits and ``xyz_to_lab``."""
    responses = [rendered(camera, light, reflectances) for light in illuminants]
    truths = [rendered(observer, light, reflectances) for light in illuminants]
    if correction_mode == "global":
        pooled = np.linalg.lstsq(np.concatenate(responses), np.concatenate(truths), rcond=None)[0]
    errors = []
    for light, response, truth in zip(illuminants, responses, truths):
        m = pooled if correction_mode == "global" else np.linalg.lstsq(response, truth, rcond=None)[0]
        white = rendered(observer, light, [np.ones(len(light))])[0]
        difference = xyz_to_lab(response @ m, white) - xyz_to_lab(truth, white)
        errors.append(np.sqrt(np.sum(difference**2, axis=1)))
    return np.concatenate(errors)


def assert_stats_match(report, delta_es, tol=1e-10):
    expected = DeltaEStats.from_samples(delta_es)
    assert report.pair_count == delta_es.size
    for name in ("mean", "median", "p95", "p99", "max"):
        assert abs(getattr(report.delta_e, name) - getattr(expected, name)) < tol


def scene_of(illuminants, reflectances, grid=DEFAULT_GRID):
    """A scene set from lists of illuminant and reflectance curves."""
    return SceneSet(np.array(illuminants), np.array(reflectances).T, grid)


class TestSceneSet:
    def test_holds_read_only_c_ordered_copies(self):
        illuminants = np.linspace(0.5, 1.5, 62).reshape(31, 2).T     # L x n view, not C-ordered
        reflectances = np.linspace(0.0, 1.0, 124).reshape(4, 31).T   # n x m view, not C-ordered
        scenes = SceneSet(illuminants, reflectances, DEFAULT_GRID)
        assert scenes.illuminants.shape == (2, 31) and scenes.reflectances.shape == (31, 4)
        for held, given in ((scenes.illuminants, illuminants), (scenes.reflectances, reflectances)):
            assert held.flags.c_contiguous and not held.flags.writeable
            assert not np.shares_memory(held, given)
            assert np.array_equal(held, given)

    @pytest.mark.parametrize(
        "illuminants, reflectances, error",
        [
            (np.ones((0, 31)), np.ones((31, 4)), ValueError),
            (np.ones((1, 31)), np.ones((31, 0)), ValueError),
            (np.ones((1, 30)), np.ones((31, 4)), ShapeError),
            (np.ones(31), np.ones((31, 4)), ShapeError),
            (np.ones((1, 31)), np.ones((4, 31)), ShapeError),
            (np.full((1, 31), np.nan), np.ones((31, 4)), ValueError),
            (np.ones((1, 31)), np.full((31, 4), np.inf), ValueError),
        ],
        ids=["no illuminant", "no reflectance", "short illuminant", "flat illuminants",
             "reflectances per row", "nan illuminant", "inf reflectance"],
    )
    def test_rejects_empty_misshapen_or_non_finite_spectra(self, illuminants, reflectances, error):
        with pytest.raises(error):
            SceneSet(illuminants, reflectances, DEFAULT_GRID)


class TestSensorResponse:
    """Responses and white points as ``evaluate`` renders them."""

    def test_equal_energy_unit_reflectance_gives_column_sums(self, rng):
        # Under equal-energy light the perfect diffuser renders the observer's
        # column sums, which evaluate must use as the Lab white point.
        x = builtin_cmf()
        camera = bump_camera_matrix(rng)
        reflectances = [rng.uniform(0.0, 1.0, 31) for _ in range(8)]
        white = x.channels.sum(axis=0)
        response = rendered(camera, np.ones(31), reflectances)
        truth = rendered(x.channels, np.ones(31), reflectances)
        corrected = response @ np.linalg.lstsq(response, truth, rcond=None)[0]
        expected = np.linalg.norm(xyz_to_lab(corrected, white) - xyz_to_lab(truth, white), axis=1)
        report = evaluate(SensorSet(DEFAULT_GRID, camera), x, scene_of([np.ones(31)], reflectances))
        assert_stats_match(report, expected)

    def test_zero_reflectance_gives_zero(self, rng):
        # A black reflectance renders zero on both sides: one more pair at
        # Delta E 0, and the correction fit does not move.
        x = builtin_cmf()
        camera = SensorSet(DEFAULT_GRID, bump_camera_matrix(rng))
        illuminant = rng.uniform(0.5, 2.0, 31)
        reflectances = [rng.uniform(0.0, 1.0, 31) for _ in range(6)]
        base = evaluate(camera, x, scene_of([illuminant], reflectances))
        with_black = evaluate(camera, x, scene_of([illuminant], reflectances + [np.zeros(31)]))
        assert with_black.pair_count == 7
        assert with_black.delta_e.mean == pytest.approx(base.delta_e.mean * 6.0 / 7.0, rel=1e-9)
        assert with_black.delta_e.max == pytest.approx(base.delta_e.max, rel=1e-9)

    def test_matches_direct_summation(self, rng):
        x = builtin_cmf()
        camera = bump_camera_matrix(rng)
        f = rng.uniform(0.2, 1.0, 31)
        illuminants = [rng.uniform(0.1, 2.0, 31), np.linspace(0.5, 1.5, 31)]
        reflectances = [rng.uniform(0.0, 1.0, 31) for _ in range(6)]
        report = evaluate(
            apply_filter(SpectralCurve(DEFAULT_GRID, f), SensorSet(DEFAULT_GRID, camera)),
            x,
            scene_of(illuminants, reflectances),
        )
        assert_stats_match(report, composed_delta_es(f[:, None] * camera, x.channels, illuminants, reflectances))

    def test_grid_mismatch(self):
        x = builtin_cmf()
        other = WavelengthGrid(400.0, 5.0, 61)
        scene = scene_of([np.ones(61)], [np.ones(61)] * 4, grid=other)
        with pytest.raises(GridMismatch):
            evaluate(x, x, scene)


class TestFitCorrection:
    """The least-squares correction as ``_fitted`` applies it: fitted values, no matrix."""

    def test_identity_when_already_matching(self, rng):
        responses = rng.uniform(0.1, 1.0, size=(8, 3))
        assert np.max(np.abs(_fitted(responses, responses.copy()) - responses)) < 1e-10

    def test_recovers_exact_linear_relation(self, rng):
        a = np.array([[0.9, 0.1, 0.0], [0.2, 1.1, 0.1], [0.0, 0.3, 0.8]])
        raw = rng.uniform(0.1, 1.0, size=(10, 3))
        assert np.max(np.abs(_fitted(raw, raw @ a) - raw @ a)) < 1e-9

    def test_beats_random_perturbations(self, rng):
        raw = rng.uniform(0.1, 1.0, size=(20, 3))
        noisy = raw @ np.array([[1.0, 0.2, 0.0], [0.1, 0.9, 0.1], [0.0, 0.1, 1.1]])
        noisy = noisy + 0.01 * rng.standard_normal(noisy.shape)
        fitted = _fitted(raw, noisy)
        best = float(np.sum((fitted - noisy) ** 2))
        for _ in range(100):
            perturbed = fitted + raw @ rng.uniform(-1e-3, 1e-3, size=(3, 3))
            assert best < float(np.sum((perturbed - noisy) ** 2))

    def test_residual_orthogonal_to_responses(self, rng):
        raw = rng.uniform(0.1, 1.0, size=(25, 3))
        targets = raw @ np.eye(3) + 0.05 * rng.standard_normal((25, 3))
        assert np.max(np.abs(raw.T @ (_fitted(raw, targets) - targets))) < 1e-8

    def test_two_pairs_rejected(self):
        pairs = np.array([[1.0, 0.5, 0.2], [0.2, 0.8, 0.4]])
        with pytest.raises(RankDeficient):
            _fitted(pairs, pairs.copy())

    def test_stack_equals_per_matrix_fits_bit_for_bit(self, rng):
        responses = rng.uniform(0.1, 1.0, size=(4, 3, 12, 3))
        targets = rng.uniform(0.1, 1.0, size=(3, 12, 3))
        stacked = _fitted(responses, targets)
        assert stacked.shape == (4, 3, 12, 3)
        for f in range(4):
            for light in range(3):
                single = _fitted(responses[f, light], targets[light])
                assert stacked[f, light].tobytes() == single.tobytes()

    def test_agrees_with_lstsq_on_well_conditioned_responses(self, rng):
        for _ in range(50):
            raw = rng.uniform(0.1, 1.0, size=(12, 3))
            targets = rng.uniform(0.1, 1.0, size=(12, 3))
            want = raw @ np.linalg.lstsq(raw, targets, rcond=None)[0]
            assert np.max(np.abs(_fitted(raw, targets) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_deficient_matrix_of_a_stack_is_located(self, rng):
        responses = rng.uniform(0.1, 1.0, size=(3, 2, 6, 3))
        responses[2, 1, :, 0] = responses[2, 1, :, 1]
        with pytest.raises(RankDeficient, match="camera response matrix is rank deficient") as raised:
            _fitted(responses, responses.copy())
        assert raised.value.index == (2, 1)
        with pytest.raises(RankDeficient) as raised:
            _fitted(responses[2, 1], responses[2, 1])
        assert raised.value.index == ()


class TestXyzToLab:
    def test_white_maps_to_lab_origin(self):
        white = np.array([0.9, 1.0, 1.1])
        assert np.allclose(xyz_to_lab(white, white), (100.0, 0.0, 0.0), atol=1e-12)

    def test_black_maps_to_zero(self):
        white = np.array([0.9, 1.0, 1.1])
        assert np.allclose(xyz_to_lab(np.zeros(3), white), (0.0, 0.0, 0.0), atol=1e-12)

    def test_eighth_white_hits_the_cube_root_exactly(self):
        white = np.array([0.8, 1.0, 1.2])
        lab = xyz_to_lab(np.array([0.1, 0.125, 0.15]), white)
        assert abs(lab[0] - 42.0) < 1e-12
        assert abs(lab[1]) < 1e-12
        assert abs(lab[2]) < 1e-12

    def test_lightness_nonnegative_for_physical_input(self, rng):
        white = np.array([0.95, 1.0, 1.09])
        xyz = rng.uniform(0.0, 1.5, size=(200, 3))
        lab = xyz_to_lab(xyz, white)
        assert lab.shape == (200, 3)
        assert np.all(lab[:, 0] >= 0.0)
        for row in range(0, 200, 40):
            assert np.array_equal(lab[row], xyz_to_lab(xyz[row], white))

    def test_stack_matches_each_component_converted_on_its_own(self, rng):
        # xyz_to_lab applies _lab_f once to every ratio; elementwise, it must
        # give the bits of one call per strided X, Y and Z slice.
        white = np.array([0.95, 1.0, 1.09])
        xyz = rng.uniform(-0.05, 1.5, size=(113, 3, 12, 3)) * rng.choice([1e-3, 1.0], size=(113, 3, 12, 3))
        ratios = xyz / white
        fx, fy, fz = (_lab_f(ratios[..., k]) for k in range(3))
        want = np.stack([116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)], axis=-1)
        assert xyz_to_lab(xyz, white).tobytes() == want.tobytes()

    def test_lab_f_and_slice_norm_keep_the_bits_of_where_and_norm(self, rng):
        # Values on, just off and far from (6/29)^3, with negatives and zeros.
        threshold = (6.0 / 29.0) ** 3
        near = threshold + np.spacing(threshold) * np.arange(-3.0, 4.0)
        t = np.concatenate([near, -near, [0.0, -0.0, threshold / 2, 1.0, 8.0, -2.0],
                            rng.uniform(-0.02, 0.02, 500), rng.uniform(-1.0, 2.0, 500)])
        want = np.where(t > threshold, np.cbrt(t), (841.0 / 108.0) * t + 4.0 / 29.0)
        assert _lab_f(t).tobytes() == want.tobytes()
        assert _lab_f(t.reshape(-1, 3, 2)).tobytes() == want.tobytes()
        assert _lab_f(np.array(threshold)).tobytes() == want[3:4].tobytes()
        white = np.array([0.95, 1.0, 1.09])
        xyz = rng.uniform(-0.05, 1.5, size=(113, 3, 12, 3)) * rng.choice([1e-3, 1.0], size=(113, 3, 12, 3))
        d0, d1, d2 = np.moveaxis(xyz_to_lab(xyz, white) - xyz_to_lab(xyz[::-1], white), -1, 0)
        norm = np.linalg.norm(xyz_to_lab(xyz, white) - xyz_to_lab(xyz[::-1], white), axis=-1)
        assert np.sqrt(d0 * d0 + d1 * d1 + d2 * d2).tobytes() == norm.tobytes()

    def test_negative_components_use_linear_segment(self):
        white = np.ones(3)
        lab = xyz_to_lab(np.array([-0.01, 0.5, 0.5]), white)
        assert np.isfinite(lab).all()
        # Linear segment: f(-0.01) = (841/108) * -0.01 + 4/29.
        expected_fx = (841.0 / 108.0) * -0.01 + 4.0 / 29.0
        fy = 0.5 ** (1.0 / 3.0)
        assert abs(lab[1] - 500.0 * (expected_fx - fy)) < 1e-12

    def test_invalid_white_rejected(self):
        with pytest.raises(InvalidWhitePoint):
            xyz_to_lab(np.full(3, 0.5), np.array([1.0, 0.0, 1.0]))


class TestDeltaE:
    """Delta E as ``evaluate`` pools it: Euclidean distance between corrected and true Lab."""

    def test_identical_triples(self, rng):
        # Three reflectances per illuminant make the fit interpolate, so every
        # corrected color equals its true color whatever the camera.
        x = builtin_cmf()
        camera = SensorSet(DEFAULT_GRID, bump_camera_matrix(rng))
        scene = scene_of(
            [rng.uniform(0.5, 2.0, 31), rng.uniform(0.5, 2.0, 31)],
            [rng.uniform(0.0, 1.0, 31) for _ in range(3)],
        )
        report = evaluate(camera, x, scene)
        assert report.pair_count == 6
        assert report.delta_e.max < 1e-9

    def test_matches_sqrt_of_squares(self, rng):
        x = builtin_cmf()
        camera = bump_camera_matrix(rng)
        illuminants = [rng.uniform(0.5, 2.0, 31), rng.uniform(0.2, 1.0, 31) * np.linspace(0.5, 1.5, 31)]
        reflectances = [rng.uniform(0.0, 1.0, 31) for _ in range(7)]
        report = evaluate(
            SensorSet(DEFAULT_GRID, camera), x, scene_of(illuminants, reflectances), correction_mode="global"
        )
        assert_stats_match(report, composed_delta_es(camera, x.channels, illuminants, reflectances, "global"))


class TestDeltaEStats:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            DeltaEStats(mean=1.0, median=2.0, p95=1.5, p99=1.8, max=2.0)

    def test_from_samples_ordering(self, rng):
        for _ in range(20):
            stats = DeltaEStats.from_samples(rng.uniform(0.0, 30.0, 500))
            assert stats.median <= stats.p95 <= stats.p99 <= stats.max
            assert stats.mean <= stats.max

    @settings(max_examples=300, deadline=None)
    @given(value=st.floats(0.0, 1e3), size=st.integers(1, 40), ulps=st.integers(0, 4),
           seed=st.integers(0, 2**32 - 1))
    @example(value=0.1, size=3, ulps=0, seed=0)
    @example(value=0.7, size=7, ulps=0, seed=0)
    @example(value=1.3, size=10, ulps=0, seed=0)
    def test_from_samples_of_a_near_constant_sample(self, value, size, ulps, seed):
        # Each sample lies within ``ulps`` steps of ``value``.
        samples = value + np.random.default_rng(seed).integers(0, ulps + 1, size) * np.spacing(value)
        stats = DeltaEStats.from_samples(samples)
        low, high, mean = float(samples.min()), float(samples.max()), float(np.mean(samples))
        assert low <= stats.mean <= high
        if low <= mean <= high:
            assert stats.mean == mean

    def test_from_samples_matches_one_percentile_per_call(self, rng):
        for size in (3, 4, 36, 501, 20_000):
            samples = rng.gamma(2.0, 2.0, size)
            stats = DeltaEStats.from_samples(samples)
            assert stats.median == float(np.percentile(samples, 50))
            assert stats.p95 == float(np.percentile(samples, 95))
            assert stats.p99 == float(np.percentile(samples, 99))


class TestEvaluate:
    def test_camera_equals_observer_is_exact(self, rng):
        x = builtin_cmf()
        scene = scene_of(
            [rng.uniform(0.5, 2.0, 31)],
            [rng.uniform(0.0, 1.0, 31) for _ in range(10)],
        )
        report = evaluate(x, x, scene)
        assert report.delta_e.max < 1e-9
        assert float(report.vora_value) == 1.0
        assert report.pair_count == 10

    def test_any_linear_transform_of_observer_is_exact(self, rng):
        x = builtin_cmf()
        t = np.array([[0.7, 0.2, 0.0], [0.1, 1.1, 0.2], [0.0, 0.3, 0.9]])
        camera = SensorSet(DEFAULT_GRID, x.channels @ t)
        scene = scene_of(
            [rng.uniform(0.5, 2.0, 31)],
            [rng.uniform(0.0, 1.0, 31) for _ in range(12)],
        )
        report = evaluate(camera, x, scene)
        assert report.delta_e.max < 1e-8

    def test_two_reflectances_cannot_fit_a_correction(self, rng):
        x = builtin_cmf()
        camera = SensorSet(DEFAULT_GRID, bump_camera_matrix(rng))
        scene = scene_of(
            [rng.uniform(0.5, 2.0, 31)],
            [rng.uniform(0.0, 1.0, 31) for _ in range(2)],
        )
        with pytest.raises(RankDeficient):
            evaluate(camera, x, scene)

    def test_global_mode_pools_the_fit(self, rng):
        x = builtin_cmf()
        camera = SensorSet(DEFAULT_GRID, bump_camera_matrix(rng))
        reflectances = [rng.uniform(0.0, 1.0, 31) for _ in range(20)]
        illuminant_a = rng.uniform(0.5, 2.0, 31)
        illuminant_b = rng.uniform(0.2, 1.0, 31) * np.linspace(0.5, 1.5, 31)
        scene = scene_of([illuminant_a, illuminant_b], reflectances)
        per = evaluate(camera, x, scene, correction_mode="per-illuminant")
        pooled = evaluate(camera, x, scene, correction_mode="global")
        assert per.correction_mode == "per-illuminant"
        assert pooled.correction_mode == "global"
        # The per-illuminant fit can only do better on its own illuminant.
        assert per.delta_e.mean <= pooled.delta_e.mean + 1e-12

    @pytest.mark.parametrize("mode", ["per-illuminant", "global"])
    def test_white_point_checked_before_correction_fit(self, mode):
        # A dark illuminant has a zero white point and rank-0 responses; the
        # white point error comes first.
        x = builtin_cmf()
        scene = scene_of([np.ones(31), np.zeros(31)], [np.ones(31) * 0.5] * 4)
        with pytest.raises(InvalidWhitePoint):
            evaluate(x, x, scene, correction_mode=mode)

    def test_unknown_mode_rejected(self, rng):
        x = builtin_cmf()
        scene = scene_of([np.ones(31)], [np.ones(31) * 0.5] * 4)
        with pytest.raises(ValueError):
            evaluate(x, x, scene, correction_mode="weird")


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_camera_and_scenes():
    manifest = read_manifest(os.path.join(FIXTURES, "scenes.txt"))
    camera = load_sensor_set(manifest.camera)
    return camera, load_scene_set(manifest)


def loop_delta_es(channels, observer, scenes, correction_mode):
    """Per-pair Delta E and negative-XYZ count, one illuminant at a time with its own products.

    The corrected XYZ are the least-squares fitted values Q Q^T T from the
    thin QR of each illuminant's responses; under global correction, from
    one QR of every illuminant's responses stacked, split per illuminant.
    """
    reflectances = scenes.reflectances
    rendered_scenes = []
    for light in scenes.illuminants:
        signal = light[:, None] * reflectances
        white = observer.channels.T @ light
        rendered_scenes.append((signal.T @ channels, signal.T @ observer.channels, white))

    def projected(responses, truths):
        q = np.linalg.qr(responses)[0]
        return q @ (q.T @ truths)

    if correction_mode == "global":
        responses, truths, _ = (np.concatenate(parts) for parts in zip(*rendered_scenes))
        fitted = np.split(projected(responses, truths), len(rendered_scenes))
    else:
        fitted = [projected(responses, truths) for responses, truths, _ in rendered_scenes]
    errors, negative = [], 0
    for corrected, (_, truths, white) in zip(fitted, rendered_scenes):
        negative += int(np.sum(corrected < 0))
        errors.append(np.linalg.norm(xyz_to_lab(corrected, white) - xyz_to_lab(truths, white), axis=1))
    return np.concatenate(errors), negative


def engine_cases(rng):
    """(camera, scenes, filters): the fixtures, then a bump camera under four random illuminants."""
    camera, scenes = fixture_camera_and_scenes()
    yield camera, scenes, [None] + [random_filter(DEFAULT_GRID, rng) for _ in range(4)]
    bump = SensorSet(DEFAULT_GRID, bump_camera_matrix(rng))
    random_scenes = scene_of(
        [rng.uniform(0.2, 2.0, 31) for _ in range(4)],
        [rng.uniform(0.0, 1.0, 31) for _ in range(9)],
    )
    yield bump, random_scenes, [None] + [random_filter(DEFAULT_GRID, rng) for _ in range(4)]


@pytest.mark.parametrize("mode", ["per-illuminant", "global"])
class TestSceneEngine:
    def test_matches_per_illuminant_loop_bit_for_bit(self, rng, mode):
        x = builtin_cmf()
        for camera, scenes, filters in engine_cases(rng):
            engine = SceneEngine(x, scenes, mode)
            for f in filters:
                channels = camera.channels if f is None else apply_filter(f, camera).channels
                pooled, negative = engine.delta_e(channels)
                want, want_negative = loop_delta_es(channels, x, scenes, mode)
                assert pooled.tobytes() == want.tobytes()
                assert negative == want_negative

    def test_agrees_with_the_lstsq_oracle(self, rng, mode):
        x = builtin_cmf()
        for camera, scenes, filters in engine_cases(rng):
            engine = SceneEngine(x, scenes, mode)
            for f in filters:
                channels = camera.channels if f is None else apply_filter(f, camera).channels
                want = lstsq_delta_es(channels, x.channels, scenes.illuminants, scenes.reflectances, mode)
                got = engine.delta_e(channels)[0]
                assert np.max(np.abs(got - want)) <= 1e-9 * np.max(want)

    def test_statistics_equal_evaluate_bit_for_bit(self, rng, mode):
        x = builtin_cmf()
        for camera, scenes, filters in engine_cases(rng):
            engine = SceneEngine(x, scenes, mode)
            for f in filters:
                effective = camera if f is None else apply_filter(f, camera)
                report = evaluate(effective, x, scenes, correction_mode=mode)
                pooled, negative = engine.delta_e(effective.channels)
                assert DeltaEStats.from_samples(pooled) == report.delta_e
                assert pooled.size == report.pair_count
                assert negative == report.negative_xyz_count

    def test_stack_equals_single_calls_bit_for_bit(self, rng, mode):
        camera, scenes = fixture_camera_and_scenes()
        engine = SceneEngine(builtin_cmf(), scenes, mode)
        block = PAIR_BUDGET // engine.pair_count
        filters = np.stack([random_filter(DEFAULT_GRID, rng).values for _ in range(block + 1)])
        cameras = filters[:, :, None] * camera.channels
        singles = [engine.delta_e(c) for c in cameras]
        for count in (1, 2, block + 1):
            pooled, negative = engine.delta_e(cameras[:count])
            assert pooled.shape == (count, engine.pair_count)
            for k in range(count):
                assert pooled[k].tobytes() == singles[k][0].tobytes()
                assert negative[k] == singles[k][1]

    def test_deficient_camera_of_a_stack_is_located(self, rng, mode):
        camera, scenes = fixture_camera_and_scenes()
        engine = SceneEngine(builtin_cmf(), scenes, mode)
        cameras = np.stack([camera.channels] * 4)
        cameras[2] = 0.0
        with pytest.raises(RankDeficient) as raised:
            engine.delta_e(cameras)
        assert raised.value.index[0] == 2

    def test_dark_illuminant_rejected_at_construction(self, mode):
        scene = scene_of([np.ones(31), np.zeros(31)], [np.ones(31) * 0.5] * 4)
        with pytest.raises(InvalidWhitePoint, match="non-positive component"):
            SceneEngine(builtin_cmf(), scene, mode)

    def test_camera_shape_checked(self, mode):
        scene = scene_of([np.ones(31)], [np.ones(31) * 0.5] * 4)
        engine = SceneEngine(builtin_cmf(), scene, mode)
        with pytest.raises(ShapeError):
            engine.delta_e(np.ones((30, 3)))
        with pytest.raises(ShapeError):
            engine.delta_e(np.ones((2, 2, 31, 3)))

    def test_grid_mismatch_rejected(self, mode):
        grid = WavelengthGrid(400.0, 10.0, 4)
        scene = scene_of([np.ones(4)], [np.ones(4) * 0.5] * 4, grid)
        with pytest.raises(GridMismatch):
            SceneEngine(builtin_cmf(), scene, mode)


def test_one_illuminant_pools_nothing(rng):
    # With one illuminant the global fit pools the per-illuminant pairs and
    # no others, so the modes give the same bits, alone and in a stack.
    camera, scenes = fixture_camera_and_scenes()
    scene = SceneSet(scenes.illuminants[:1], scenes.reflectances, DEFAULT_GRID)
    per = SceneEngine(builtin_cmf(), scene, "per-illuminant")
    pooled = SceneEngine(builtin_cmf(), scene, "global")
    cameras = np.stack([random_filter(DEFAULT_GRID, rng).values[:, None] * camera.channels for _ in range(5)])
    for channels in (camera.channels, cameras):
        (want, want_negative), (got, got_negative) = per.delta_e(channels), pooled.delta_e(channels)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got_negative, want_negative)


def test_scene_engine_rejects_unknown_mode():
    scene = scene_of([np.ones(31)], [np.ones(31) * 0.5] * 4)
    with pytest.raises(ValueError, match="unknown correction mode"):
        SceneEngine(builtin_cmf(), scene, "weird")


class TestEvaluateAgainstHandComputation:
    """End-to-end oracle at n = 4: exact rational arithmetic up to the Lab step.

    One illuminant, four reflectances, hand-built 4x3 sensors.  The reference
    path below uses Fraction matrices and cofactor inversion for the
    correction fit, so it shares no linear algebra with the package.
    """

    GRID = WavelengthGrid(400.0, 10.0, 4)
    X = np.array([[4, 1, 0], [2, 3, 1], [1, 3, 2], [0, 1, 3]]) / 4.0
    S = np.array([[3, 1, 1], [1, 4, 1], [1, 2, 2], [1, 1, 4]]) / 4.0
    L = np.array([1.0, 2.0, 2.0, 1.0])
    R = np.array(
        [
            [1.0, 1.0, 1.0, 1.0],
            [0.5, 0.25, 0.25, 0.5],
            [0.25, 0.5, 0.75, 1.0],
            [0.75, 0.5, 0.25, 0.125],
        ]
    )

    def reference_delta_es(self):
        fr = Fraction
        x = [[fr(int(v), 4) for v in row] for row in (self.X * 4).astype(int).tolist()]
        s = [[fr(int(v), 4) for v in row] for row in (self.S * 4).astype(int).tolist()]
        light = [fr(1), fr(2), fr(2), fr(1)]
        refl = [
            [fr(1), fr(1), fr(1), fr(1)],
            [fr(1, 2), fr(1, 4), fr(1, 4), fr(1, 2)],
            [fr(1, 4), fr(1, 2), fr(3, 4), fr(1)],
            [fr(3, 4), fr(1, 2), fr(1, 4), fr(1, 8)],
        ]

        def transpose(m):
            return [list(col) for col in zip(*m)]

        def matmul(a, b):
            return [
                [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
                for i in range(len(a))
            ]

        def cofactor_inverse(m):
            cof = [[None] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(3):
                    rows = [r for r in range(3) if r != i]
                    cols = [c for c in range(3) if c != j]
                    cof[i][j] = (-1) ** (i + j) * (
                        m[rows[0]][cols[0]] * m[rows[1]][cols[1]]
                        - m[rows[0]][cols[1]] * m[rows[1]][cols[0]]
                    )
            det = sum(m[0][j] * cof[0][j] for j in range(3))
            return [[cof[j][i] / det for j in range(3)] for i in range(3)]

        signal = [[light[i] * refl[k][i] for k in range(4)] for i in range(4)]
        camera = matmul(transpose(signal), s)
        truth = matmul(transpose(signal), x)
        white = [sum(x[i][j] * light[i] for i in range(4)) for j in range(3)]
        m = matmul(cofactor_inverse(matmul(transpose(camera), camera)), matmul(transpose(camera), truth))
        corrected = matmul(camera, m)

        def lab(xyz):
            threshold = (6.0 / 29.0) ** 3
            f = [
                (float(t) / float(w)) ** (1.0 / 3.0)
                if float(t) / float(w) > threshold
                else (841.0 / 108.0) * (float(t) / float(w)) + 4.0 / 29.0
                for t, w in zip(xyz, white)
            ]
            return np.array([116.0 * f[1] - 16.0, 500.0 * (f[0] - f[1]), 200.0 * (f[1] - f[2])])

        return [float(np.linalg.norm(lab(corrected[k]) - lab(truth[k]))) for k in range(4)]

    def test_stats_match_rational_reference(self):
        camera = SensorSet(self.GRID, self.S)
        observer = SensorSet(self.GRID, self.X)
        scene = SceneSet(self.L[None], self.R.T, self.GRID)
        report = evaluate(camera, observer, scene)
        reference = self.reference_delta_es()

        assert report.pair_count == 4
        assert abs(report.delta_e.mean - float(np.mean(reference))) < 1e-10
        assert abs(report.delta_e.median - float(np.percentile(reference, 50))) < 1e-10
        assert abs(report.delta_e.p95 - float(np.percentile(reference, 95))) < 1e-10
        assert abs(report.delta_e.p99 - float(np.percentile(reference, 99))) < 1e-10
        assert abs(report.delta_e.max - float(np.max(reference))) < 1e-10

    def test_frozen_reference_values(self):
        # Values computed once from the rational reference above.
        reference = self.reference_delta_es()
        expected = [
            0.33528696335794683,
            0.14879631505481603,
            0.45683224832394753,
            0.7077905970339358,
        ]
        assert np.allclose(reference, expected, atol=1e-12)
