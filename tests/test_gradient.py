import re
from dataclasses import replace

import numpy as np
import pytest

import specfilter.als
import specfilter.gradient
from specfilter.als import AlsConfig, optimize_als
from specfilter.errors import RankDeficient
from specfilter.gradient import GaConfig, _gradient_arrays, optimize_ga
from specfilter.ingest import builtin_cmf
from specfilter.spectra import DEFAULT_GRID, SensorSet, SpectralCurve, apply_filter, orthonormalize
from specfilter.vora import basis_score, vora_value

from conftest import TOY_GRID, bump_camera_matrix, ga_gradient, random_filter, solvable_toy_pair
from oracles import central_difference_gradient, gradient_arrays_reference, plain_ga_ascend, vora_by_projector


@pytest.mark.parametrize("solve, config", [(optimize_als, AlsConfig), (optimize_ga, GaConfig)],
                         ids=["als", "ga"])
def test_solution_without_a_positive_entry_keeps_its_sign(solve, config):
    # finish scales a filter by its largest entry only when that is positive;
    # otherwise by its largest magnitude, so an all-negative optimum stays
    # negative with -1 as its most negative entry.
    x = builtin_cmf()
    start = SpectralCurve(DEFAULT_GRID, np.full(31, -1.0))
    values = solve(x, x, config(initial_filter=start)).filter.values
    assert values.max() < 0.0
    assert values.min() == -1.0


def objective(camera):
    x = builtin_cmf()

    def nu(f):
        filtered = apply_filter(SpectralCurve(camera.grid, f), camera)
        return float(vora_value(filtered, x))

    return nu


class TestVoraGradient:
    def test_zero_at_global_maximum(self):
        x = builtin_cmf()
        grad = ga_gradient(np.ones(31), x.channels, orthonormalize(x).basis)
        assert np.max(np.abs(grad)) < 1e-9

    def test_matches_finite_differences(self, rng):
        x = builtin_cmf()
        vb = orthonormalize(x).basis
        for _ in range(10):
            q = SensorSet(DEFAULT_GRID, bump_camera_matrix(rng))
            f = rng.uniform(0.2, 1.0, 31)
            grad = ga_gradient(f, q.channels, vb)
            fd = central_difference_gradient(objective(q), f)
            assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) < 1e-5

    def test_stationary_at_als_solution(self, bump_camera):
        x = builtin_cmf()
        solution = optimize_als(bump_camera, x)
        grad = ga_gradient(solution.filter.values, bump_camera.channels, orthonormalize(x).basis)
        assert float(np.linalg.norm(grad)) < 1e-6

    def test_rank_deficient_rejected(self):
        # Gradient ascent takes no gradient where basis_score flags rank loss.
        x = builtin_cmf()
        assert not basis_score(np.zeros(31), x.channels, orthonormalize(x).basis)[2]

    def test_matches_reference_bit_for_bit(self, rng):
        vb = orthonormalize(builtin_cmf()).basis
        for _ in range(20):
            qc = bump_camera_matrix(rng)
            f = rng.standard_normal(31)
            m = basis_score(f, qc, vb)[0]
            reference = gradient_arrays_reference(f, qc, vb, m)
            assert _gradient_arrays(f[:, None] * qc, qc, vb, m).tobytes() == reference.tobytes()


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
        assert np.all(np.diff(solution.trace.vora_values) >= -1e-12)

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
        solution = optimize_ga(q, x, GaConfig(fixed_step=0.1))
        assert float(solution.score) > solution.trace.vora_values[0]
        assert np.all(np.diff(solution.trace.vora_values) >= -1e-12)

    def test_first_step_overshoot_is_not_convergence(self, bump_camera):
        x = builtin_cmf()
        overshot = optimize_ga(bump_camera, x, GaConfig(fixed_step=1000.0))
        assert overshot.iterations == 0
        assert not overshot.converged
        # An overshoot after accepted steps still ends the run as converged.
        later = optimize_ga(bump_camera, x, GaConfig(fixed_step=50.0))
        assert later.iterations > 0
        assert later.converged

    def test_score_recomputable_from_filter(self, bump_camera):
        x = builtin_cmf()
        solution = optimize_ga(bump_camera, x)
        recomputed = vora_by_projector(apply_filter(solution.filter, bump_camera), x)
        assert abs(float(solution.score) - float(recomputed)) < 1e-12

    def test_nonconvergence_flag(self, bump_camera):
        x = builtin_cmf()
        solution = optimize_ga(bump_camera, x, GaConfig(max_iterations=3))
        assert not solution.converged
        assert solution.iterations == 3

    def test_line_search_trials_counted(self, bump_camera, monkeypatch):
        x = builtin_cmf()
        capped = optimize_ga(bump_camera, x, GaConfig(fixed_step=0.1, max_iterations=5))
        assert (capped.converged, capped.iterations, capped.work.line_search_trials) == (False, 5, 5)
        calls = []

        def counted(*args):
            calls.append(None)
            return basis_score(*args)

        monkeypatch.setattr(specfilter.gradient, "basis_score", counted)
        # A large first step makes the line search backtrack.
        monkeypatch.setattr(specfilter.gradient, "INITIAL_STEP", 100.0)
        solution = optimize_ga(bump_camera, x)
        assert solution.converged
        assert solution.work.line_search_trials > solution.iterations > 0
        # Every scoring call but the start's is a trial.
        assert solution.work.line_search_trials == len(calls) - 1
        assert optimize_als(bump_camera, x).work.line_search_trials is None

    @pytest.mark.parametrize("fixed_step", [None, 0.1])
    @pytest.mark.parametrize("camera", ["fixture", 7, 10])
    def test_whole_run_matches_the_reference_loop(self, bump_camera, camera, fixed_step):
        # GA is chaotic in the last bit, so its hot loop must keep every bit of
        # the loop as first written, not only its kernels'.  The backtracking
        # runs on cameras 7 and 10 shrink the step (3.0 and 3.6 trials per
        # iteration); the fixture camera's takes every first step.
        q = bump_camera if camera == "fixture" else SensorSet(
            DEFAULT_GRID, bump_camera_matrix(np.random.default_rng(camera)))
        x = builtin_cmf()
        config = GaConfig(fixed_step=fixed_step)
        solution = optimize_ga(q, x, config)
        filters, scores, trials, converged = plain_ga_ascend(
            np.ones(31), q.channels, orthonormalize(x).basis, fixed_step, config.epsilon, config.max_iterations)
        assert solution.trace.filters.tobytes() == filters.tobytes()
        assert solution.trace.vora_values.tobytes() == scores.tobytes()
        assert (solution.work.line_search_trials, solution.converged) == (trials, converged)

    def test_initial_rank_loss_reported(self):
        x = builtin_cmf()
        dead = SpectralCurve(DEFAULT_GRID, np.zeros(31))
        with pytest.raises(RankDeficient, match="iteration 0"):
            optimize_ga(x, x, GaConfig(initial_filter=dead))

    def test_rank_deficient_start_is_passed_over(self, bump_camera):
        dead = SpectralCurve(DEFAULT_GRID, np.zeros(31))
        config = GaConfig(max_iterations=300, initial_filter=dead)
        x = builtin_cmf()
        with pytest.raises(RankDeficient, match="iteration 0"):
            optimize_ga(bump_camera, x, config)
        # The surviving starts, run alone: the seed's first two random draws.
        rng = np.random.default_rng(7)
        runs = [
            optimize_ga(bump_camera, x, replace(config, initial_filter=random_filter(DEFAULT_GRID, rng)))
            for _ in range(2)
        ]
        best = runs[1] if runs[1].score > runs[0].score else runs[0]
        got = optimize_ga(bump_camera, x, config, starts=3, seed=7)
        assert got.filter.values.tobytes() == best.filter.values.tobytes()
        assert (float(got.score), got.iterations, got.converged) == (float(best.score), best.iterations, best.converged)
        assert got.trace.vora_values.tobytes() == best.trace.vora_values.tobytes()

    @pytest.mark.parametrize("module", [specfilter.als, specfilter.gradient], ids=["als", "ga"])
    def test_every_start_losing_rank_raises(self, bump_camera, monkeypatch, module):
        real = module.basis_score

        def rank_deficient(*args):
            m, score, full = real(*args)
            return m, score, full & False

        monkeypatch.setattr(module, "basis_score", rank_deficient)
        optimize = optimize_als if module is specfilter.als else optimize_ga
        message = re.escape("initial filter leaves the camera rank deficient (iteration 0)")
        with pytest.raises(RankDeficient, match=f"^all 3 starts lost rank; start 0: {message}$"):
            optimize(bump_camera, builtin_cmf(), starts=3)
        with pytest.raises(RankDeficient, match=f"^{message}$"):
            optimize(bump_camera, builtin_cmf())

    def test_fixed_step_rank_loss_names_its_iteration(self, bump_camera, monkeypatch):
        # Every start's second scoring call, its first trial, loses rank.
        real, calls = specfilter.gradient.basis_score, []

        def second_call_loses_rank(*args):
            calls.append(None)
            m, score, full = real(*args)
            return m, score, full and len(calls) % 2 == 1

        monkeypatch.setattr(specfilter.gradient, "basis_score", second_call_loses_rank)
        config = GaConfig(fixed_step=0.1)
        message = re.escape("filter lost a camera channel at iteration 1")
        with pytest.raises(RankDeficient, match=f"^{message}$"):
            optimize_ga(bump_camera, builtin_cmf(), config)
        calls.clear()
        with pytest.raises(RankDeficient, match=f"^all 3 starts lost rank; start 0: {message}$"):
            optimize_ga(bump_camera, builtin_cmf(), config, starts=3)
        assert len(calls) == 6

    def test_multistart_not_worse_than_single(self, rng):
        qm, xm = solvable_toy_pair(rng)
        q = SensorSet(TOY_GRID, qm)
        x = SensorSet(TOY_GRID, xm)
        config = GaConfig(max_iterations=2000)
        single = optimize_ga(q, x, config)
        best = optimize_ga(q, x, config, starts=4, seed=1)
        assert float(best.score) >= float(single.score) - 1e-12

    @pytest.mark.parametrize("starts", [0, -1])
    def test_multistart_requires_a_start(self, bump_camera, starts):
        with pytest.raises(ValueError):
            optimize_ga(bump_camera, builtin_cmf(), starts=starts)

    @pytest.mark.parametrize("value", [1e4, 2.0, np.float64(3.0), True])
    @pytest.mark.parametrize("field", ["max_iterations", "starts"])
    @pytest.mark.parametrize("solver", ["als", "ga"])
    def test_non_integer_counts_rejected(self, bump_camera, solver, field, value):
        optimize, config = (optimize_als, AlsConfig) if solver == "als" else (optimize_ga, GaConfig)
        counts = {"max_iterations": np.int64(3), "starts": np.int64(2)}
        assert optimize(bump_camera, builtin_cmf(), config(max_iterations=counts["max_iterations"]),
                        starts=counts["starts"]).iterations <= 3
        counts[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
            optimize(bump_camera, builtin_cmf(), config(max_iterations=counts["max_iterations"]),
                     starts=counts["starts"])

    @pytest.mark.parametrize("seed", [1.5, -1, "3", np.int64(2), True, False])
    @pytest.mark.parametrize("solver", ["als", "ga"])
    def test_seed_must_be_a_non_negative_integer(self, bump_camera, solver, seed):
        optimize, config = (optimize_als, AlsConfig) if solver == "als" else (optimize_ga, GaConfig)
        if isinstance(seed, np.integer):
            assert optimize(bump_camera, builtin_cmf(), config(max_iterations=3), starts=2, seed=seed).iterations <= 3
            return
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"):
            optimize(bump_camera, builtin_cmf(), config(max_iterations=3), starts=2, seed=seed)

    @pytest.mark.parametrize("config, field, value", [
        (AlsConfig, "epsilon", True), (GaConfig, "epsilon", True), (GaConfig, "fixed_step", True),
        (GaConfig, "fixed_step", 0.0), (GaConfig, "fixed_step", np.inf), (GaConfig, "fixed_step", np.nan),
        (AlsConfig, "epsilon", np.inf), (GaConfig, "epsilon", np.inf), (AlsConfig, "epsilon", np.nan)])
    def test_step_parameters_name_their_field(self, config, field, value):
        # A bool is not a number here, and an infinite step cannot be taken.
        with pytest.raises(ValueError, match=f"^{field} must be positive"):
            config(**{field: value})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaConfig(epsilon=-1.0)
        with pytest.raises(ValueError):
            GaConfig(fixed_step=0.0)
        assert GaConfig().fixed_step is None
