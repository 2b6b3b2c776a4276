import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specfilter.als import _filter, optimize_als
from specfilter.colorimetry import SceneSet, evaluate
from specfilter.errors import ConsistencyError, GridMismatch, RankDeficient
from specfilter.gradient import optimize_ga
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
from specfilter.vora import Moments, VoraScore, basis_score, moment_score, vora_value

from conftest import bump_camera_matrix
from oracles import (basis_score_reference, filtered_camera_sweep, luther_residual, residual_identity_check,
                     vora_by_projector)


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
        with pytest.raises(RankDeficient):
            vora_value(apply_filter(SpectralCurve(DEFAULT_GRID, np.zeros(31)), x), x)

    def test_basis_score_matches_projector_route(self, rng):
        x = builtin_cmf()
        basis = orthonormalize(x).basis
        for _ in range(20):
            q = SensorSet(DEFAULT_GRID, rng.uniform(0.05, 1.0, size=(31, 3)))
            score = basis_score(np.ones(31), q.channels, basis)[1]
            assert abs(score - float(vora_by_projector(q, x))) < 1e-12


class TestSingleRoute:
    """Solvers and ``evaluate`` report exactly the clamped ``basis_score`` of what they return."""

    @pytest.mark.parametrize("optimize", [optimize_als, optimize_ga])
    def test_solution_score_is_the_basis_score_of_its_filter(self, bump_camera, optimize):
        x = builtin_cmf()
        solution = optimize(bump_camera, x)
        score = basis_score(solution.filter.values, bump_camera.channels, orthonormalize(x).basis)[1]
        assert float(solution.score) == float(VoraScore(score))

    def test_evaluate_vora_is_the_basis_score_of_the_effective_camera(self, rng, bump_camera):
        x = builtin_cmf()
        f = SpectralCurve(DEFAULT_GRID, rng.uniform(0.2, 1.0, 31))
        scenes = SceneSet(np.ones((1, 31)), rng.uniform(0.0, 1.0, (8, 31)).T, DEFAULT_GRID)
        effective = apply_filter(f, bump_camera)
        report = evaluate(effective, x, scenes)
        score = basis_score(np.ones(31), effective.channels, orthonormalize(x).basis)[1]
        assert float(report.vora_value) == float(VoraScore(score))


def _score_test_filter(rng: np.random.Generator, kind: str) -> np.ndarray:
    """A 31-entry filter; "two bands" leaves a three-channel camera rank deficient."""
    if kind == "positive":
        return rng.uniform(0.05, 1.0, 31)
    if kind == "signed":
        return rng.standard_normal(31)
    f = np.zeros(31)
    f[rng.choice(31, size=3 if kind == "three bands" else 2, replace=False)] = rng.uniform(0.1, 1.0)
    return f


_SCORE_KINDS = st.sampled_from(["positive", "signed", "three bands", "two bands"])
_SCORE_SCALES = st.sampled_from([1.0, 1e-60, 1e60])


class TestBasisScoreBits:
    """``basis_score`` keeps the exact bits of its reference form: gradient ascent is chaotic in them."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=_SCORE_KINDS, scale=_SCORE_SCALES)
    def test_single_filter_matches_reference(self, seed, kind, scale):
        rng = np.random.default_rng(seed)
        qc = bump_camera_matrix(rng)
        vb = orthonormalize(builtin_cmf()).basis
        f = scale * _score_test_filter(rng, kind)
        m, score, full = basis_score(f, qc, vb)
        ref_m, ref_score, ref_full = basis_score_reference(f, qc, vb)
        assert isinstance(full, np.bool_)
        assert full == ref_full
        # A rank-deficient G is solved as the identity; those bits are pinned too.
        assert m.tobytes() == ref_m.tobytes()
        assert score.tobytes() == ref_score.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.lists(st.tuples(_SCORE_KINDS, _SCORE_SCALES), min_size=1, max_size=12),
    )
    def test_stack_matches_reference(self, seed, rows):
        rng = np.random.default_rng(seed)
        qc = bump_camera_matrix(rng)
        vb = orthonormalize(builtin_cmf()).basis
        filters = np.stack([scale * _score_test_filter(rng, kind) for kind, scale in rows])
        m, scores, full = basis_score(filters, qc, vb)
        ref_m, ref_scores, ref_full = basis_score_reference(filters, qc, vb)
        # Identity-substituted rows included: their M and score mean nothing, but
        # they pin the solve to np.linalg.solve's bits all the same.
        assert full.tolist() == ref_full.tolist()
        assert m.tobytes() == ref_m.tobytes()
        assert scores.tobytes() == ref_scores.tobytes()


class TestScoreSolve:
    """``_score`` calls the LAPACK gufunc behind ``np.linalg.solve``; it must keep the public solve's bits."""

    def test_stack_with_identity_substituted_rows(self, rng):
        qc = bump_camera_matrix(rng)
        vb = orthonormalize(builtin_cmf()).basis
        filters = 1.0 - rng.random((6, 31))
        filters[1] = 0.0
        filters[4] = _score_test_filter(rng, "two bands")
        m, scores, full = basis_score(filters, qc, vb)
        ref_m, ref_scores, ref_full = basis_score_reference(filters, qc, vb)
        assert full.tolist() == ref_full.tolist() == [True, False, True, True, False, True]
        assert m.tobytes() == ref_m.tobytes()
        assert scores.tobytes() == ref_scores.tobytes()

    def test_rank_deficient_filters_warn_nothing(self, rng):
        qc = bump_camera_matrix(rng)
        vb = orthonormalize(builtin_cmf()).basis
        filters = 1.0 - rng.random((4, 31))
        filters[2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not basis_score(np.zeros(31), qc, vb)[2]
            assert moment_score(filters, Moments.of(qc, vb))[2].tolist() == [True, True, False, True]


class TestMomentScore:
    """ALS's route: G and W from the n x 9 moment tables, then ``basis_score``'s 3x3 tail."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), starts=st.integers(1, 32), scale=_SCORE_SCALES)
    def test_stack_rows_equal_single_calls_bit_for_bit(self, seed, starts, scale):
        # A 2-D (K, n) @ (n, 9) GEMM blocks its sums by stack size; the
        # batched vector products must not, or lockstep ALS stops equalling
        # its single-start runs.
        rng = np.random.default_rng(seed)
        qc = bump_camera_matrix(rng)
        moments = Moments.of(qc, orthonormalize(builtin_cmf()).basis)
        kinds = rng.choice(["positive", "signed", "three bands", "two bands"], size=starts)
        filters = scale * np.stack([_score_test_filter(rng, kind) for kind in kinds])
        m, scores, full = moment_score(filters, moments)
        for k in range(starts):
            m_k, score_k, full_k = moment_score(filters[k], moments)
            assert isinstance(full_k, np.bool_)
            assert full[k] == full_k
            assert full_k or kinds[k] != "positive"
            assert not full_k or kinds[k] != "two bands"
            assert m[k].tobytes() == m_k.tobytes()
            assert scores[k].tobytes() == score_k.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=_SCORE_KINDS, scale=_SCORE_SCALES)
    def test_rank_flag_is_basis_scores(self, seed, kind, scale):
        # The flag is full_rank's, with the SVD fallback taken on diag(f) Q.
        rng = np.random.default_rng(seed)
        qc = bump_camera_matrix(rng)
        vb = orthonormalize(builtin_cmf()).basis
        f = scale * _score_test_filter(rng, kind)
        assert moment_score(f, Moments.of(qc, vb))[2] == basis_score(f, qc, vb)[2]

    def test_matches_the_filtered_camera_sweep(self):
        # 200 bump cameras gave at most 1.3e-14 relative (transform), 5.9e-15
        # (score) and 7.9e-15 (next filter).
        vb = orthonormalize(builtin_cmf()).basis
        for seed in range(40):
            rng = np.random.default_rng(seed)
            qc = bump_camera_matrix(rng)
            f = 1.0 - rng.random((8, 31))
            m, scores, full = moment_score(f, Moments.of(qc, vb))
            ref_m, ref_scores, ref_next = filtered_camera_sweep(f, qc, vb)
            assert full.all()
            assert np.max(np.abs(m - ref_m)) <= 1e-12 * np.max(np.abs(ref_m))
            assert np.max(np.abs(scores - ref_scores) / ref_scores) <= 1e-12
            swept = _filter(qc, m, vb)[0]
            assert np.max(np.abs(swept - ref_next)) <= 1e-12 * np.max(np.abs(ref_next))


class TestLutherResidual:
    def test_zero_at_exact_match(self):
        x = builtin_cmf()
        v = orthonormalize(x)
        q = SensorSet(DEFAULT_GRID, v.basis)
        f = SpectralCurve(DEFAULT_GRID, np.ones(31))
        assert luther_residual(f, q, CorrectionMatrix(np.eye(3)), v) == 0.0

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
        lhs, rhs = residual_identity_check(SpectralCurve(DEFAULT_GRID, np.ones(31)), x, x)
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
