import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specfilter.als import (
    AlsConfig,
    _filter,
    optimize_als,
    optimize_als_multistart,
    solve_f,
    solve_m,
)
from specfilter.errors import ConsistencyError, RankDeficient
from specfilter.ingest import builtin_cmf
from specfilter.solution import ConvergenceTrace, TracePoint
from specfilter.spectra import (
    DEFAULT_GRID,
    CorrectionMatrix,
    SensorSet,
    SpectralCurve,
    apply_filter,
    orthonormalize,
)
from specfilter.vora import basis_score, vora_value

from conftest import TOY_GRID, bump_camera_matrix, solvable_toy_pair
from oracles import cofactor_inverse_3x3


class TestSolveM:
    def test_identity_when_camera_is_the_basis(self):
        v = orthonormalize(builtin_cmf())
        q = SensorSet(DEFAULT_GRID, v.basis)
        m = solve_m(SpectralCurve.constant(DEFAULT_GRID, 1.0), q, v)
        assert np.max(np.abs(m.m - np.eye(3))) < 1e-12

    def test_recovers_known_mixing_inverse(self):
        v = orthonormalize(builtin_cmf())
        a = np.array([[1.0, 0.2, 0.0], [0.1, 0.8, 0.3], [0.0, 0.4, 1.1]])
        q = SensorSet(DEFAULT_GRID, v.basis @ a)
        m = solve_m(SpectralCurve.constant(DEFAULT_GRID, 1.0), q, v)
        assert np.max(np.abs(m.m - cofactor_inverse_3x3(a))) < 1e-10

    def test_residual_orthogonal_to_column_space(self, rng, bump_camera):
        v = orthonormalize(builtin_cmf())
        f = SpectralCurve(DEFAULT_GRID, rng.uniform(0.2, 1.0, 31))
        m = solve_m(f, bump_camera, v)
        fq = f.values[:, None] * bump_camera.channels
        assert np.max(np.abs(fq.T @ (fq @ m.m - v.basis))) < 1e-9

    def test_local_optimality_probe(self, rng, bump_camera):
        v = orthonormalize(builtin_cmf())
        f = SpectralCurve(DEFAULT_GRID, rng.uniform(0.2, 1.0, 31))
        m = solve_m(f, bump_camera, v)
        fq = f.values[:, None] * bump_camera.channels
        best = float(np.sum((fq @ m.m - v.basis) ** 2))
        for _ in range(50):
            perturbed = m.m + rng.choice([-1e-3, 1e-3], size=(3, 3))
            assert best < float(np.sum((fq @ perturbed - v.basis) ** 2))

    def test_rank_deficient_rejected(self):
        x = builtin_cmf()
        v = orthonormalize(x)
        with pytest.raises(RankDeficient):
            solve_m(SpectralCurve.constant(DEFAULT_GRID, 0.0), x, v)


class TestSolveF:
    def test_exact_match_gives_unit_filter(self):
        v = orthonormalize(builtin_cmf())
        q = SensorSet(DEFAULT_GRID, v.basis)
        f = solve_f(q, CorrectionMatrix.identity(), v)
        assert np.max(np.abs(f.values - 1.0)) < 1e-12

    def test_doubled_source_halves_filter(self):
        v = orthonormalize(builtin_cmf())
        q = SensorSet(DEFAULT_GRID, 2.0 * v.basis)
        f = solve_f(q, CorrectionMatrix.identity(), v)
        assert np.max(np.abs(f.values - 0.5)) < 1e-12

    def test_each_row_beats_dense_grid_search(self, rng, bump_camera):
        v = orthonormalize(builtin_cmf())
        m = CorrectionMatrix(np.eye(3) + 0.1 * rng.standard_normal((3, 3)))
        f = solve_f(bump_camera, m, v)
        qm = bump_camera.channels @ m.m
        grid_points = np.arange(-10.0, 10.0 + 1e-9, 1e-4)
        for i in range(0, 31, 7):
            errors = np.sum((grid_points[:, None] * qm[i] - v.basis[i]) ** 2, axis=1)
            best = grid_points[int(np.argmin(errors))]
            assert abs(f.values[i] - best) < 1e-3

    def test_degenerate_row_pinned_to_zero(self):
        v = orthonormalize(builtin_cmf())
        channels = v.basis.copy()
        channels[7] = 0.0
        q = SensorSet(DEFAULT_GRID, channels)
        f = solve_f(q, CorrectionMatrix.identity(), v)
        assert f.values[7] == 0.0


class TestStackedHalfSteps:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), starts=st.integers(1, 12))
    def test_each_row_equals_the_single_filter_call(self, seed, starts):
        rng = np.random.default_rng(seed)
        qc = bump_camera_matrix(rng)
        qc[rng.integers(31)] = 0.0  # a degenerate row for the filter pin
        vb = orthonormalize(builtin_cmf()).basis
        filters = 1.0 - rng.random((starts, 31))
        filters[0, 2:] = 0.0  # a rank-deficient start
        m, scores, full = basis_score(filters, qc, vb)
        stepped = _filter(qc, m, vb)
        for k in range(starts):
            m_k, score_k, full_k = basis_score(filters[k], qc, vb)
            assert np.array_equal(m[k], m_k)
            assert scores[k] == score_k
            assert full[k] == full_k
            assert np.array_equal(stepped[k], _filter(qc, m_k, vb))
        assert not full[0]


class TestOptimizeAls:
    def test_colorimetric_camera_converges_immediately(self):
        x = builtin_cmf()
        solution = optimize_als(x, x)
        assert solution.converged
        assert solution.iterations == 1
        assert float(solution.score) == 1.0
        assert np.max(np.abs(solution.filter.values - 1.0)) < 1e-12

    def test_improves_and_reports_consistently(self, bump_camera):
        x = builtin_cmf()
        solution = optimize_als(bump_camera, x)
        assert solution.converged
        assert float(solution.score) > solution.trace[0].vora_value
        recomputed = vora_value(apply_filter(solution.filter, bump_camera), x)
        assert abs(float(solution.score) - float(recomputed)) < 1e-12
        assert len(solution.trace) == solution.iterations + 1
        assert float(np.max(solution.filter.values)) == pytest.approx(1.0, abs=1e-12)

    def test_trace_monotone_and_residual_affine(self, bump_camera):
        x = builtin_cmf()
        solution = optimize_als(bump_camera, x)
        values = solution.trace.vora_values()
        assert np.all(np.diff(values) >= -1e-12)
        residuals = solution.trace.residuals()
        assert np.all(np.diff(residuals) <= 1e-12)
        # Once the transform is optimal for its filter, residual = 3 - 3 vora.
        assert abs(residuals[-1] - (3.0 - 3.0 * values[-1])) < 1e-6

    def test_fixed_point_under_extra_sweep(self, bump_camera):
        x = builtin_cmf()
        v = orthonormalize(x)
        solution = optimize_als(bump_camera, x)
        swept = solve_f(bump_camera, solve_m(solution.filter, bump_camera, v), v)
        assert np.max(np.abs(swept.values - solution.filter.values)) < 1e-8

    def test_target_basis_equivalence(self, rng, bump_camera):
        x = builtin_cmf()
        t = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
        x_mixed = SensorSet(DEFAULT_GRID, x.channels @ t)
        a = optimize_als(bump_camera, x)
        b = optimize_als(bump_camera, x_mixed)
        la = min(len(a.trace), len(b.trace))
        assert np.max(np.abs(a.trace.vora_values()[:la] - b.trace.vora_values()[:la])) < 1e-10

    def test_nonconvergence_flag(self, bump_camera):
        x = builtin_cmf()
        solution = optimize_als(bump_camera, x, AlsConfig(max_iterations=2))
        assert not solution.converged
        assert solution.iterations == 2

    def test_initial_rank_loss_reports_iteration(self):
        x = builtin_cmf()
        dead = SpectralCurve.constant(DEFAULT_GRID, 0.0)
        with pytest.raises(RankDeficient, match="iteration 0"):
            optimize_als(x, x, AlsConfig(initial_filter=dead))

    def test_mid_run_rank_loss_reports_iteration(self):
        # The observer's last basis row is zero, so the first filter update
        # pins that wavelength to 0; the camera needs it for full rank.
        x = SensorSet(TOY_GRID, np.vstack([np.eye(3), np.zeros(3)]))
        q = SensorSet(
            TOY_GRID,
            np.array(
                [
                    [1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0],
                    [1.0, 1.0, 0.0],
                    [0.0, 0.0, 1.0],
                ]
            ),
        )
        with pytest.raises(RankDeficient, match="iteration 1"):
            optimize_als(q, x)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AlsConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            AlsConfig(max_iterations=0)
        with pytest.raises(ValueError):
            AlsConfig(initial_filter="nonsense").resolve_initial(DEFAULT_GRID)


class TestMultistart:
    def test_matches_best_sequential_run(self, rng):
        qm, xm = solvable_toy_pair(rng)
        q = SensorSet(TOY_GRID, qm)
        x = SensorSet(TOY_GRID, xm)
        config = AlsConfig(max_iterations=2000)
        best = optimize_als_multistart(q, x, config, starts=8, seed=5)
        single = optimize_als(q, x, config)
        assert float(best.score) >= float(single.score) - 1e-12

    def test_deterministic_for_fixed_seed(self, rng):
        qm, xm = solvable_toy_pair(rng)
        q = SensorSet(TOY_GRID, qm)
        x = SensorSet(TOY_GRID, xm)
        a = optimize_als_multistart(q, x, AlsConfig(max_iterations=2000), starts=8, seed=3)
        b = optimize_als_multistart(q, x, AlsConfig(max_iterations=2000), starts=8, seed=3)
        assert np.array_equal(a.filter.values, b.filter.values)
        assert float(a.score) == float(b.score)

    def test_requires_a_start(self, bump_camera):
        with pytest.raises(ValueError):
            optimize_als_multistart(bump_camera, builtin_cmf(), starts=0)


class TestSolutionTypes:
    def test_trace_rejects_decreasing_vora(self):
        points = (
            TracePoint(0, 0.9, 0.3, np.ones(4)),
            TracePoint(1, 0.8, 0.6, np.ones(4)),
        )
        with pytest.raises(ConsistencyError):
            ConvergenceTrace(points)

    def test_trace_accepts_round_off_dips(self):
        points = (
            TracePoint(0, 0.9, 0.3, np.ones(4)),
            TracePoint(1, 0.9 - 5e-13, 0.3, np.ones(4)),
        )
        assert len(ConvergenceTrace(points)) == 2
