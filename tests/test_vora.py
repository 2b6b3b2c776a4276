import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specfilter.errors import ConsistencyError, GridMismatch, RankDeficient
from specfilter.ingest import builtin_cmf
from specfilter.spectra import (
    DEFAULT_GRID,
    CorrectionMatrix,
    SensorSet,
    SpectralCurve,
    WavelengthGrid,
    apply_filter,
    orthonormalize,
)
from specfilter.vora import VoraScore, basis_score, luther_residual, residual_identity_check, vora_value

from conftest import bump_camera_matrix


class TestVoraScore:
    def test_clamps_round_off(self):
        assert float(VoraScore(1.0 + 5e-13)) == 1.0
        assert float(VoraScore(-5e-13)) == 0.0

    def test_rejects_real_excursions(self):
        with pytest.raises(ConsistencyError):
            VoraScore(1.0 + 1e-9)
        with pytest.raises(ConsistencyError):
            VoraScore(float("nan"))


class TestVoraValue:
    def test_self_similarity_is_one(self):
        x = builtin_cmf()
        assert float(vora_value(x, x)) == 1.0

    def test_orthogonal_subspaces_score_zero(self):
        # Build q inside the orthogonal complement of span(x) at n = 6.
        grid = WavelengthGrid(400.0, 10.0, 6)
        gen = np.random.default_rng(8)
        full, _ = np.linalg.qr(gen.standard_normal((6, 6)))
        x = SensorSet(grid, full[:, :3])
        q = SensorSet(grid, full[:, 3:])
        assert float(vora_value(q, x)) < 1e-12

    def test_symmetry(self, rng):
        grid = DEFAULT_GRID
        for _ in range(20):
            q = SensorSet(grid, rng.uniform(0.05, 1.0, size=(31, 3)))
            x = SensorSet(grid, rng.uniform(0.05, 1.0, size=(31, 3)))
            assert abs(float(vora_value(q, x)) - float(vora_value(x, q))) < 1e-12

    def test_invariant_under_channel_transforms(self, rng):
        x = builtin_cmf()
        q = SensorSet(DEFAULT_GRID, bump_camera_matrix(rng))
        reference = float(vora_value(q, x))
        for _ in range(20):
            t1 = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
            t2 = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
            q2 = SensorSet(DEFAULT_GRID, q.channels @ t1)
            x2 = SensorSet(DEFAULT_GRID, x.channels @ t2)
            assert abs(float(vora_value(q2, x2)) - reference) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-6.0, 6.0))
    def test_invariant_under_invertible_transforms_property(self, seed, log_scale):
        # Transforms with condition number at most 100, any sign of
        # determinant, scaled over twelve orders of magnitude.
        gen = np.random.default_rng(seed)

        def transform():
            rotation, _ = np.linalg.qr(gen.standard_normal((3, 3)))
            return 10.0**log_scale * rotation @ np.diag(10.0 ** gen.uniform(-1.0, 1.0, 3))

        x = builtin_cmf()
        q = SensorSet(DEFAULT_GRID, bump_camera_matrix(gen))
        q2 = SensorSet(DEFAULT_GRID, q.channels @ transform())
        x2 = SensorSet(DEFAULT_GRID, x.channels @ transform())
        assert abs(float(vora_value(q2, x2)) - float(vora_value(q, x))) < 1e-10

    def test_filter_scale_invariance(self, rng, bump_camera):
        x = builtin_cmf()
        f = SpectralCurve(DEFAULT_GRID, rng.uniform(0.2, 1.0, 31))
        base = float(vora_value(apply_filter(f, bump_camera), x))
        for scale in (1e-3, 0.5, 7.0, 1e3):
            scaled = SpectralCurve(DEFAULT_GRID, scale * f.values)
            assert abs(float(vora_value(apply_filter(scaled, bump_camera), x)) - base) < 1e-10

    def test_bounds(self, rng):
        for _ in range(50):
            q = SensorSet(DEFAULT_GRID, rng.uniform(0.05, 1.0, size=(31, 3)))
            x = SensorSet(DEFAULT_GRID, rng.uniform(0.05, 1.0, size=(31, 3)))
            assert 0.0 <= float(vora_value(q, x)) <= 1.0

    def test_grid_mismatch(self):
        x = builtin_cmf()
        grid = WavelengthGrid(400.0, 5.0, 61)
        q = SensorSet(grid, np.random.default_rng(0).uniform(0.1, 1.0, size=(61, 3)))
        with pytest.raises(GridMismatch):
            vora_value(q, x)

    def test_rank_deficient_rejected(self):
        x = builtin_cmf()
        zeroed = apply_filter(SpectralCurve.constant(DEFAULT_GRID, 0.0), x)
        with pytest.raises(RankDeficient):
            vora_value(zeroed, x)

    def test_basis_score_matches_projector_route(self, rng):
        x = builtin_cmf()
        basis = orthonormalize(x).basis
        for _ in range(20):
            q = SensorSet(DEFAULT_GRID, rng.uniform(0.05, 1.0, size=(31, 3)))
            score = basis_score(np.ones(31), q.channels, basis)[1]
            assert abs(score - float(vora_value(q, x))) < 1e-12


class TestLutherResidual:
    def test_zero_at_exact_match(self):
        x = builtin_cmf()
        v = orthonormalize(x)
        q = SensorSet(DEFAULT_GRID, v.basis)
        f = SpectralCurve.constant(DEFAULT_GRID, 1.0)
        assert luther_residual(f, q, CorrectionMatrix.identity(), v) == 0.0

    def test_nonnegative(self, rng, bump_camera):
        v = orthonormalize(builtin_cmf())
        for _ in range(10):
            f = SpectralCurve(DEFAULT_GRID, rng.uniform(0.0, 1.0, 31))
            m = CorrectionMatrix(rng.standard_normal((3, 3)))
            assert luther_residual(f, bump_camera, m, v) >= 0.0

    def test_elementwise_oracle(self):
        grid = WavelengthGrid(400.0, 10.0, 5)
        gen = np.random.default_rng(21)
        f = SpectralCurve(grid, gen.uniform(0.1, 1.0, 5))
        q = SensorSet(grid, gen.uniform(0.1, 1.0, size=(5, 3)))
        v = orthonormalize(SensorSet(grid, gen.uniform(0.1, 1.0, size=(5, 3))))
        m = CorrectionMatrix(gen.standard_normal((3, 3)))

        total = 0.0
        for i in range(5):
            for j in range(3):
                fitted = f.values[i] * sum(q.channels[i, k] * m.m[k, j] for k in range(3))
                total += (fitted - v.basis[i, j]) ** 2
        assert abs(luther_residual(f, q, m, v) - total) < 1e-12


class TestResidualIdentity:
    def test_exact_camera_gives_zero(self):
        x = builtin_cmf()
        lhs, rhs = residual_identity_check(SpectralCurve.constant(DEFAULT_GRID, 1.0), x, x)
        assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12

    def test_holds_on_random_instances(self):
        # The 500-case batch is acceptance criterion 1; spot-check here.
        gen = np.random.default_rng(99)
        x = builtin_cmf()
        for _ in range(100):
            f = SpectralCurve(DEFAULT_GRID, gen.uniform(0.05, 1.0, 31))
            q = SensorSet(DEFAULT_GRID, gen.uniform(0.05, 1.0, size=(31, 3)))
            lhs, rhs = residual_identity_check(f, q, x)
            assert abs(lhs - rhs) < 1e-9
