import numpy as np
import pytest

from specfilter.als import AlsConfig, optimize_als
from specfilter.errors import RankDeficient
from specfilter.gradient import GaConfig, optimize_ga, optimize_ga_multistart, vora_gradient
from specfilter.ingest import builtin_cmf
from specfilter.spectra import DEFAULT_GRID, SensorSet, SpectralCurve, apply_filter
from specfilter.vora import vora_value

from conftest import TOY_GRID, bump_camera_matrix, solvable_toy_pair
from oracles import central_difference_gradient


def objective(camera):
    x = builtin_cmf()

    def nu(f):
        filtered = apply_filter(SpectralCurve(camera.grid, f), camera)
        return float(vora_value(filtered, x))

    return nu


class TestVoraGradient:
    def test_zero_at_global_maximum(self):
        x = builtin_cmf()
        grad = vora_gradient(SpectralCurve.constant(DEFAULT_GRID, 1.0), x, x)
        assert np.max(np.abs(grad)) < 1e-9

    def test_matches_finite_differences(self, rng):
        x = builtin_cmf()
        for _ in range(10):
            q = SensorSet(DEFAULT_GRID, bump_camera_matrix(rng))
            f = rng.uniform(0.2, 1.0, 31)
            grad = vora_gradient(SpectralCurve(DEFAULT_GRID, f), q, x)
            fd = central_difference_gradient(objective(q), f)
            assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) < 1e-5

    def test_stationary_at_als_solution(self, bump_camera):
        x = builtin_cmf()
        solution = optimize_als(bump_camera, x)
        grad = vora_gradient(solution.filter, bump_camera, x)
        assert float(np.linalg.norm(grad)) < 1e-6

    def test_rank_deficient_rejected(self):
        x = builtin_cmf()
        with pytest.raises(RankDeficient):
            vora_gradient(SpectralCurve.constant(DEFAULT_GRID, 0.0), x, x)


class TestOptimizeGa:
    def test_colorimetric_camera_converges_immediately(self):
        x = builtin_cmf()
        solution = optimize_ga(x, x)
        assert solution.converged
        assert float(solution.score) == 1.0
        assert solution.iterations <= 1

    def test_backtracking_trace_is_monotone(self, bump_camera):
        x = builtin_cmf()
        solution = optimize_ga(bump_camera, x)
        assert solution.converged
        assert np.all(np.diff(solution.trace.vora_values()) >= -1e-12)

    def test_agrees_with_als_at_convergence(self, bump_camera):
        x = builtin_cmf()
        als = optimize_als(bump_camera, x)
        ga = optimize_ga(bump_camera, x, GaConfig(epsilon=1e-13, max_iterations=100_000))
        assert abs(float(als.score) - float(ga.score)) < 1e-4

    def test_filter_shapes_agree_in_the_interior(self, bump_camera):
        x = builtin_cmf()
        als = optimize_als(bump_camera, x)
        ga = optimize_ga(bump_camera, x, GaConfig(epsilon=1e-13, max_iterations=100_000))
        wavelengths = DEFAULT_GRID.wavelengths()
        interior = (wavelengths >= 420.0) & (wavelengths <= 680.0)
        difference = np.abs(als.filter.values - ga.filter.values)
        assert np.max(difference[interior]) < 0.05

    def test_toy_agreement_with_als(self, rng):
        qm, xm = solvable_toy_pair(rng)
        q = SensorSet(TOY_GRID, qm)
        x = SensorSet(TOY_GRID, xm)
        als = optimize_als(q, x, AlsConfig(max_iterations=4000))
        ga = optimize_ga(q, x)
        assert abs(float(als.score) - float(ga.score)) < 1e-4

    def test_fixed_step_mode_improves(self, rng):
        qm, xm = solvable_toy_pair(rng)
        q = SensorSet(TOY_GRID, qm)
        x = SensorSet(TOY_GRID, xm)
        solution = optimize_ga(q, x, GaConfig(step_rule="fixed", fixed_step=0.1))
        assert float(solution.score) > solution.trace[0].vora_value
        assert np.all(np.diff(solution.trace.vora_values()) >= -1e-12)

    def test_first_step_overshoot_is_not_convergence(self, bump_camera):
        x = builtin_cmf()
        overshot = optimize_ga(bump_camera, x, GaConfig(step_rule="fixed", fixed_step=1000.0))
        assert overshot.iterations == 0
        assert not overshot.converged
        # An overshoot after accepted steps still ends the run as converged.
        later = optimize_ga(bump_camera, x, GaConfig(step_rule="fixed", fixed_step=50.0))
        assert later.iterations > 0
        assert later.converged

    def test_score_recomputable_from_filter(self, bump_camera):
        x = builtin_cmf()
        solution = optimize_ga(bump_camera, x)
        recomputed = vora_value(apply_filter(solution.filter, bump_camera), x)
        assert abs(float(solution.score) - float(recomputed)) < 1e-12

    def test_nonconvergence_flag(self, bump_camera):
        x = builtin_cmf()
        solution = optimize_ga(bump_camera, x, GaConfig(max_iterations=3))
        assert not solution.converged
        assert solution.iterations == 3

    def test_initial_rank_loss_reported(self):
        x = builtin_cmf()
        dead = SpectralCurve.constant(DEFAULT_GRID, 0.0)
        with pytest.raises(RankDeficient, match="iteration 0"):
            optimize_ga(x, x, GaConfig(initial_filter=dead))

    def test_multistart_not_worse_than_single(self, rng):
        qm, xm = solvable_toy_pair(rng)
        q = SensorSet(TOY_GRID, qm)
        x = SensorSet(TOY_GRID, xm)
        config = GaConfig(max_iterations=2000)
        single = optimize_ga(q, x, config)
        best = optimize_ga_multistart(q, x, config, starts=4, seed=1)
        assert float(best.score) >= float(single.score) - 1e-12

    @pytest.mark.parametrize("starts", [0, -1])
    def test_multistart_requires_a_start(self, bump_camera, starts):
        with pytest.raises(ValueError):
            optimize_ga_multistart(bump_camera, builtin_cmf(), starts=starts)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaConfig(step_rule="newton")
        with pytest.raises(ValueError):
            GaConfig(shrink=1.0)
        with pytest.raises(ValueError):
            GaConfig(epsilon=-1.0)
        with pytest.raises(ValueError):
            GaConfig(fixed_step=0.0)
