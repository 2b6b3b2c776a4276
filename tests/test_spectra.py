import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specfilter.colorimetry import SceneSet
from specfilter.errors import GridMismatch, OutOfRange, RankDeficient, ShapeError
from specfilter.ingest import SpectralTable, builtin_cmf
from specfilter.solution import ConvergenceTrace
from specfilter.spectra import (
    DEFAULT_GRID,
    RANK_TOLERANCE,
    CorrectionMatrix,
    OrthoBasis,
    SensorSet,
    SpectralCurve,
    WavelengthGrid,
    apply_filter,
    full_rank,
    interp_columns,
    orthonormalize,
    rank_ratio,
)

from oracles import projector, projector_by_cofactor


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
        curve = SpectralCurve(DEFAULT_GRID, np.full(31, 0.5))
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


N = DEFAULT_GRID.count

# Every value type, as a constructor taking its arrays by field name, and valid arrays for it.
VALUE_TYPES = {
    "SpectralCurve": (lambda values: SpectralCurve(DEFAULT_GRID, values), {"values": np.full(N, 0.5)}),
    "SensorSet": (lambda channels: SensorSet(DEFAULT_GRID, channels), {"channels": builtin_cmf().channels}),
    "OrthoBasis": (lambda basis: OrthoBasis(DEFAULT_GRID, basis),
                   {"basis": orthonormalize(builtin_cmf()).basis}),
    "CorrectionMatrix": (CorrectionMatrix, {"m": np.eye(3)}),
    "ConvergenceTrace": (ConvergenceTrace, {"vora_values": np.array([0.5, 0.6]),
                                            "residuals": np.array([1.5, 1.2]), "filters": np.ones((2, N))}),
    "SceneSet": (lambda illuminants, reflectances: SceneSet(illuminants, reflectances, DEFAULT_GRID),
                 {"illuminants": np.ones((2, N)), "reflectances": np.full((N, 4), 0.5)}),
    "SpectralTable": (lambda wavelengths, columns: SpectralTable(wavelengths, ("a", "b"), columns),
                      {"wavelengths": DEFAULT_GRID.wavelengths(), "columns": np.ones((N, 2))}),
}

# Each array field of every value type: the name its errors give it and an array of the wrong shape.
ARRAY_FIELDS = [
    ("SpectralCurve", "values", "curve values", np.ones(N - 1)),
    ("SensorSet", "channels", "sensor matrix", np.ones((N, 4))),
    ("OrthoBasis", "basis", "basis", np.eye(N)[:, :3].T),
    ("CorrectionMatrix", "m", "correction matrix", np.eye(3)[:2]),
    ("ConvergenceTrace", "vora_values", "Vora-Value rows", np.array([[0.5], [0.6]])),
    ("ConvergenceTrace", "residuals", "residual rows", np.array([1.5])),
    ("ConvergenceTrace", "filters", "filter rows", np.ones((3, N))),
    ("SceneSet", "illuminants", "illuminants", np.ones(N)),
    ("SceneSet", "reflectances", "reflectances", np.ones((4, N))),
    ("SpectralTable", "wavelengths", "wavelengths", DEFAULT_GRID.wavelengths()[:, None]),
    ("SpectralTable", "columns", "data columns", np.ones((N, 3))),
]
FIELD_IDS = [f"{kind}.{field}" for kind, field, _, _ in ARRAY_FIELDS]


def _build(kind: str, **arrays):
    make, valid = VALUE_TYPES[kind]
    return make(**{**valid, **arrays})


class TestFrozenArrays:
    """The one array rule every value type keeps through ``spectra.frozen_array``."""

    @pytest.mark.parametrize("kind, field, what, wrong", ARRAY_FIELDS, ids=FIELD_IDS)
    def test_holds_checked_read_only_c_ordered_copies(self, kind, field, what, wrong):
        with pytest.raises(ShapeError, match=f"^{re.escape(what)} must be "):
            _build(kind, **{field: wrong})
        given = np.repeat(VALUE_TYPES[kind][1][field][..., None], 2, axis=-1)[..., 0]   # a strided view
        held = getattr(_build(kind, **{field: given}), field)
        assert held.dtype == np.float64 and held.flags.c_contiguous and not held.flags.writeable
        assert not np.shares_memory(held, given)
        assert np.array_equal(held, given)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind, field, what, wrong", ARRAY_FIELDS, ids=FIELD_IDS)
    def test_rejects_nan_and_inf(self, kind, field, what, wrong, bad):
        values = np.array(VALUE_TYPES[kind][1][field])
        values.flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{re.escape(what)} must be finite$"):
            _build(kind, **{field: values})


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

    def test_cmf_basis_is_orthonormal(self):
        basis = orthonormalize(builtin_cmf())
        gram = basis.basis.T @ basis.basis
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_reconstruction_and_projector_preserved(self, bump_camera):
        basis = orthonormalize(bump_camera)
        p_x = projector(bump_camera.channels)
        p_v = projector(basis.basis)
        assert np.max(np.abs(p_x - p_v)) < 1e-10

    def test_rank_deficient_rejected(self):
        column = np.linspace(0.1, 1.0, 31)
        with pytest.raises(RankDeficient):
            orthonormalize(SensorSet(DEFAULT_GRID, np.stack([column, column, np.ones(31)], axis=1)))


class TestApplyFilter:
    def test_identity_filter(self, bump_camera):
        filtered = apply_filter(SpectralCurve(DEFAULT_GRID, np.ones(31)), bump_camera)
        assert np.array_equal(filtered.channels, bump_camera.channels)

    def test_zero_filter_is_rank_deficient(self, bump_camera):
        with pytest.raises(RankDeficient, match="sensor matrix is rank deficient"):
            apply_filter(SpectralCurve(DEFAULT_GRID, np.zeros(31)), bump_camera)

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
            apply_filter(SpectralCurve(other, np.ones(other.count)), bump_camera)


class TestResample:
    def test_identical_grid_unchanged(self):
        values = np.linspace(0.0, 1.0, 31)[:, None]
        assert np.array_equal(interp_columns(DEFAULT_GRID.wavelengths(), values, DEFAULT_GRID), values)

    def test_fine_to_coarse_takes_every_second_sample(self):
        fine = WavelengthGrid(400.0, 5.0, 61)
        values = np.random.default_rng(11).uniform(0.0, 1.0, (61, 1))
        out = interp_columns(fine.wavelengths(), values, DEFAULT_GRID)
        assert np.array_equal(out, values[::2])

    def test_linear_ramp_is_exact_anywhere(self):
        wl = WavelengthGrid(400.0, 5.0, 61).wavelengths()
        target = WavelengthGrid(402.0, 7.0, 40)
        out = interp_columns(wl, (0.002 * wl - 0.5)[:, None], target)[:, 0]
        assert np.allclose(out, 0.002 * target.wavelengths() - 0.5, atol=1e-12)

    def test_extrapolation_rejected(self):
        wl, values = DEFAULT_GRID.wavelengths(), np.ones((31, 1))
        with pytest.raises(OutOfRange):
            interp_columns(wl, values, WavelengthGrid(390.0, 10.0, 31))
        with pytest.raises(OutOfRange):
            interp_columns(wl, values, WavelengthGrid(400.0, 10.0, 32))

    def test_idempotent(self):
        fine = WavelengthGrid(400.0, 5.0, 61)
        values = np.random.default_rng(4).uniform(size=(61, 1))
        once = interp_columns(fine.wavelengths(), values, DEFAULT_GRID)
        twice = interp_columns(DEFAULT_GRID.wavelengths(), once, DEFAULT_GRID)
        assert np.array_equal(once, twice)


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
        values = np.random.default_rng(seed).uniform(-1.0, 1.0, (source.count, 1))
        once = interp_columns(source.wavelengths(), values, target)[:, 0]
        # Through np.interp itself, not the same-grid shortcut of interp_columns.
        wavelengths = target.wavelengths()
        assert np.interp(wavelengths, wavelengths, once).tobytes() == once.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(grids=grid_pairs(), seed=st.integers(0, 2**32 - 1), columns=st.integers(1, 5))
    def test_same_grid_is_a_copy_of_the_interpolation(self, grids, seed, columns):
        target = grids[1]
        rng = np.random.default_rng(seed)
        data = rng.uniform(-1.0, 1.0, (target.count, columns))
        data[rng.random(data.shape) < 0.2] = -0.0
        data[rng.random(data.shape) < 0.2] = 5e-324
        data[rng.random(data.shape) < 0.2] = -1e300
        wavelengths = target.wavelengths()
        out = interp_columns(wavelengths, data, target)
        per_column = np.stack([np.interp(wavelengths, wavelengths, c) for c in data.T], axis=1)
        assert out.tobytes() == per_column.tobytes()
        assert not np.shares_memory(out, data)

    @settings(max_examples=200, deadline=None)
    @given(grids=grid_pairs(), slope=st.floats(-10.0, 10.0), offset=st.floats(-10.0, 10.0))
    def test_exact_for_linear_data(self, grids, slope, offset):
        source, target = grids
        values = (slope * source.wavelengths() + offset)[:, None]
        expected = slope * target.wavelengths() + offset
        scale = abs(slope) * target.stop + abs(offset) + 1.0
        assert np.max(np.abs(interp_columns(source.wavelengths(), values, target)[:, 0] - expected)) <= 1e-12 * scale


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
# 1e-60 puts tr G in (1e-290, 1e-103), where (tr G)^3 underflows to 0; at 1e60
# the cofactor determinant of a single G can overflow.
_RANK_SCALES = st.sampled_from([1.0, 1e150, 1e-150, 1e60, 1e-60])


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

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=_RANK_KINDS, scale=_RANK_SCALES)
    def test_single_gram_decides_as_the_stack(self, seed, kind, scale):
        a = _rank_test_matrix(seed, kind, scale)
        gram = a.T @ a
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = full_rank(a, gram)
            stacked = full_rank(a[None], gram[None])
        assert isinstance(single, np.bool_)
        assert single == stacked[0]
