import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specfilter.errors import GridMismatch, OutOfRange, RankDeficient, ShapeError
from specfilter.ingest import builtin_cmf
from specfilter.spectra import (
    DEFAULT_GRID,
    RANK_TOLERANCE,
    SensorSet,
    SpectralCurve,
    WavelengthGrid,
    apply_filter,
    full_rank,
    interp_columns,
    orthonormalize,
    projector,
    rank_ratio,
    resample,
)

from oracles import projector_by_cofactor


class TestWavelengthGrid:
    def test_default_grid_matches_visible_range(self):
        assert DEFAULT_GRID == WavelengthGrid(400.0, 10.0, 31)
        wl = DEFAULT_GRID.wavelengths()
        assert wl[0] == 400.0 and wl[-1] == 700.0 and len(wl) == 31

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            WavelengthGrid(400.0, 0.0, 31)
        with pytest.raises(ValueError):
            WavelengthGrid(400.0, -5.0, 31)
        with pytest.raises(ValueError):
            WavelengthGrid(400.0, 10.0, 2)


class TestSpectralCurve:
    def test_length_must_match_grid(self):
        with pytest.raises(ShapeError):
            SpectralCurve(DEFAULT_GRID, np.ones(30))

    def test_rejects_non_finite(self):
        values = np.ones(31)
        values[5] = np.nan
        with pytest.raises(ValueError):
            SpectralCurve(DEFAULT_GRID, values)

    def test_values_are_read_only(self):
        curve = SpectralCurve.constant(DEFAULT_GRID, 0.5)
        with pytest.raises(ValueError):
            curve.values[0] = 2.0


class TestSensorSet:
    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            SensorSet(DEFAULT_GRID, np.ones((31, 4)))
        with pytest.raises(ShapeError):
            SensorSet(DEFAULT_GRID, np.ones((30, 3)))

    def test_identical_columns_rejected(self):
        column = np.linspace(0.1, 1.0, 31)
        with pytest.raises(RankDeficient):
            SensorSet(DEFAULT_GRID, np.stack([column, column, np.ones(31)], axis=1))

    def test_unchecked_construction_allows_rank_loss(self):
        column = np.linspace(0.1, 1.0, 31)
        channels = np.stack([column, column, np.ones(31)], axis=1)
        s = SensorSet(DEFAULT_GRID, channels, require_full_rank=False)
        assert s.channels.shape == (31, 3)


class TestProjector:
    def test_orthonormal_columns_select_coordinates(self):
        s = np.eye(4)[:, :3]
        assert np.allclose(projector(s), np.diag([1.0, 1.0, 1.0, 0.0]), atol=1e-15)

    def test_trace_is_three(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 40))
            p = projector(rng.standard_normal((n, 3)))
            assert abs(np.trace(p) - 3.0) < 1e-10

    def test_matches_cofactor_oracle(self):
        s = np.random.default_rng(17).uniform(-1.0, 1.0, size=(6, 3))
        assert np.allclose(projector(s), projector_by_cofactor(s), atol=1e-12)

    def test_idempotent_symmetric_basis_invariant(self, rng):
        # Bulk property check lives in the acceptance suite; spot-check here.
        for _ in range(25):
            n = int(rng.integers(4, 30))
            s = rng.standard_normal((n, 3))
            p = projector(s)
            assert np.max(np.abs(p @ p - p)) < 1e-10
            assert np.max(np.abs(p - p.T)) < 1e-12
            t = rng.standard_normal((3, 3))
            if np.abs(np.linalg.det(t)) < 1e-3:
                continue
            assert np.max(np.abs(projector(s @ t) - p)) < 1e-10

    def test_rank_deficient_named_error(self):
        s = np.ones((5, 3))
        with pytest.raises(RankDeficient, match="projector input"):
            projector(s)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            projector(np.ones((3, 4)))
        with pytest.raises(ShapeError):
            projector(np.ones((2, 3)))


class TestOrthonormalize:
    def test_already_orthonormal_is_fixed_point(self):
        grid = WavelengthGrid(400.0, 10.0, 4)
        x = SensorSet(grid, np.eye(4)[:, :3])
        basis = orthonormalize(x)
        assert np.allclose(basis.basis, x.channels, atol=1e-14)
        assert np.allclose(basis.source_transform, np.eye(3), atol=1e-14)

    def test_cmf_basis_is_orthonormal(self):
        basis = orthonormalize(builtin_cmf())
        gram = basis.basis.T @ basis.basis
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_reconstruction_and_projector_preserved(self, bump_camera):
        basis = orthonormalize(bump_camera)
        assert np.allclose(bump_camera.channels @ basis.source_transform, basis.basis, atol=1e-10)
        p_x = projector(bump_camera.channels)
        p_v = projector(basis.basis)
        assert np.max(np.abs(p_x - p_v)) < 1e-10

    def test_rank_deficient_rejected(self):
        column = np.linspace(0.1, 1.0, 31)
        x = SensorSet(
            DEFAULT_GRID,
            np.stack([column, column, np.ones(31)], axis=1),
            require_full_rank=False,
        )
        with pytest.raises(RankDeficient):
            orthonormalize(x)


class TestApplyFilter:
    def test_identity_filter(self, bump_camera):
        filtered = apply_filter(SpectralCurve.constant(DEFAULT_GRID, 1.0), bump_camera)
        assert np.array_equal(filtered.channels, bump_camera.channels)

    def test_zero_filter_gives_zero_matrix(self, bump_camera):
        filtered = apply_filter(SpectralCurve.constant(DEFAULT_GRID, 0.0), bump_camera)
        assert np.all(filtered.channels == 0.0)

    def test_elementwise_oracle(self):
        grid = WavelengthGrid(400.0, 10.0, 5)
        gen = np.random.default_rng(3)
        f = SpectralCurve(grid, gen.uniform(0.0, 1.0, 5))
        q = SensorSet(grid, gen.uniform(0.1, 1.0, size=(5, 3)))
        result = apply_filter(f, q)
        for i in range(5):
            for j in range(3):
                assert result.channels[i, j] == f.values[i] * q.channels[i, j]

    def test_grid_mismatch(self, bump_camera):
        other = WavelengthGrid(400.0, 5.0, 61)
        with pytest.raises(GridMismatch):
            apply_filter(SpectralCurve.constant(other, 1.0), bump_camera)


class TestResample:
    def test_identical_grid_unchanged(self):
        curve = SpectralCurve(DEFAULT_GRID, np.linspace(0.0, 1.0, 31))
        assert np.array_equal(resample(curve, DEFAULT_GRID).values, curve.values)

    def test_fine_to_coarse_takes_every_second_sample(self):
        fine = WavelengthGrid(400.0, 5.0, 61)
        values = np.random.default_rng(11).uniform(0.0, 1.0, 61)
        curve = SpectralCurve(fine, values)
        out = resample(curve, DEFAULT_GRID)
        assert np.array_equal(out.values, values[::2])

    def test_linear_ramp_is_exact_anywhere(self):
        fine = WavelengthGrid(400.0, 5.0, 61)
        wl = fine.wavelengths()
        curve = SpectralCurve(fine, 0.002 * wl - 0.5)
        target = WavelengthGrid(402.0, 7.0, 40)
        out = resample(curve, target)
        assert np.allclose(out.values, 0.002 * target.wavelengths() - 0.5, atol=1e-12)

    def test_extrapolation_rejected(self):
        curve = SpectralCurve(DEFAULT_GRID, np.ones(31))
        with pytest.raises(OutOfRange):
            resample(curve, WavelengthGrid(390.0, 10.0, 31))
        with pytest.raises(OutOfRange):
            resample(curve, WavelengthGrid(400.0, 10.0, 32))

    def test_idempotent(self):
        fine = WavelengthGrid(400.0, 5.0, 61)
        curve = SpectralCurve(fine, np.random.default_rng(4).uniform(size=61))
        once = resample(curve, DEFAULT_GRID)
        twice = resample(once, DEFAULT_GRID)
        assert np.array_equal(once.values, twice.values)


@st.composite
def grid_pairs(draw):
    """A source grid and a target grid inside its wavelength range."""
    source = WavelengthGrid(draw(st.floats(300.0, 500.0)), draw(st.floats(1.0, 20.0)), draw(st.integers(3, 60)))
    start = draw(st.floats(source.start, source.stop))
    step = draw(st.floats(0.5, 30.0))
    count = int((source.stop - start) / step) + 1
    assume(count >= 3)
    target = WavelengthGrid(start, step, draw(st.integers(3, count)))
    assume(target.stop <= source.stop)
    return source, target


class TestResampleProperties:
    @settings(max_examples=200, deadline=None)
    @given(grids=grid_pairs(), seed=st.integers(0, 2**32 - 1))
    def test_idempotent(self, grids, seed):
        source, target = grids
        curve = SpectralCurve(source, np.random.default_rng(seed).uniform(-1.0, 1.0, source.count))
        once = resample(curve, target)
        # Through the interpolation itself, not resample's same-grid shortcut.
        again = interp_columns(target.wavelengths(), once.values[:, None], target)[:, 0]
        assert again.tobytes() == once.values.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(grids=grid_pairs(), slope=st.floats(-10.0, 10.0), offset=st.floats(-10.0, 10.0))
    def test_exact_for_linear_data(self, grids, slope, offset):
        source, target = grids
        curve = SpectralCurve(source, slope * source.wavelengths() + offset)
        expected = slope * target.wavelengths() + offset
        scale = abs(slope) * target.stop + abs(offset) + 1.0
        assert np.max(np.abs(resample(curve, target).values - expected)) <= 1e-12 * scale


def _rank_test_matrix(seed: int, kind: str, scale: float) -> np.ndarray:
    """A 31x3 matrix of the named kind; the dependent kinds straddle RANK_TOLERANCE."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((31, 3))
    if kind == "nearly dependent":
        mix = rng.standard_normal(2)
        a[:, 2] = a[:, :2] @ mix + 10.0 ** rng.uniform(-14.0, -6.0) * rng.standard_normal(31)
    elif kind == "single column scaled":
        a[:, rng.integers(3)] *= 10.0 ** rng.uniform(-14.0, 0.0)
    elif kind == "mostly zero rows":
        a[rng.permutation(31)[rng.integers(0, 5):]] = 0.0
    elif kind == "all zero":
        a[:] = 0.0
    return a * scale


_RANK_KINDS = st.sampled_from(
    ["random", "nearly dependent", "single column scaled", "mostly zero rows", "all zero"]
)
_RANK_SCALES = st.sampled_from([1.0, 1e150, 1e-150])


class TestFullRank:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=_RANK_KINDS, scale=_RANK_SCALES)
    def test_agrees_with_svd_decision(self, seed, kind, scale):
        a = _rank_test_matrix(seed, kind, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decision = full_rank(a, a.T @ a)
        assert decision == (rank_ratio(a) > RANK_TOLERANCE)

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(0, 2**32 - 1), _RANK_KINDS, _RANK_SCALES), min_size=1, max_size=12)
    )
    def test_stack_matches_each_matrix(self, rows):
        stack = np.stack([_rank_test_matrix(*row) for row in rows])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decisions = full_rank(stack, np.swapaxes(stack, -1, -2) @ stack)
        assert decisions.shape == (len(rows),)
        assert decisions.tolist() == [rank_ratio(a) > RANK_TOLERANCE for a in stack]
