import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specfilter.als as als
from specfilter.als import (
    DEGENERATE_ROW_NORM,
    AlsConfig,
    _filter,
    _polish,
    _sweep,
    _trace,
    optimize_als,
)
from specfilter.errors import ConsistencyError, RankDeficient, ShapeError
from specfilter.gradient import GaConfig, optimize_ga
from specfilter.ingest import builtin_cmf
from specfilter.solution import MONOTONE_SLACK, ConvergenceTrace, Stop
from specfilter.spectra import (
    DEFAULT_GRID,
    SensorSet,
    SpectralCurve,
    apply_filter,
    orthonormalize,
)
from specfilter.vora import Moments, basis_score, moment_score

from conftest import TOY_GRID, bump_camera_matrix, random_filter, solvable_toy_pair
from oracles import cofactor_inverse_3x3, exact_row_form_filter, plain_als_sweep, vora_by_projector
from test_acceptance import make_toys

CAPPED, CONVERGED, RANK_LOSS = Stop.CAPPED, Stop.CONVERGED, Stop.RANK_LOSS


def sum_form_filter(qc, m, vb):
    """The filter half-step with its row sums taken by np.sum over the length-3 axis."""
    qm = qc @ m
    numerator = np.sum(qm * vb, axis=-1)
    denominator = np.sum(qm * qm, axis=-1)
    degenerate = denominator < DEGENERATE_ROW_NORM
    return np.where(degenerate, 0.0, numerator / np.where(degenerate, 1.0, denominator))


class TestSolveM:
    """The transform half-step: ``basis_score``'s least-squares M."""

    def test_identity_when_camera_is_the_basis(self):
        v = orthonormalize(builtin_cmf())
        m = basis_score(np.ones(31), v.basis, v.basis)[0]
        assert np.max(np.abs(m - np.eye(3))) < 1e-12

    def test_recovers_known_mixing_inverse(self):
        v = orthonormalize(builtin_cmf())
        a = np.array([[1.0, 0.2, 0.0], [0.1, 0.8, 0.3], [0.0, 0.4, 1.1]])
        m = basis_score(np.ones(31), v.basis @ a, v.basis)[0]
        assert np.max(np.abs(m - cofactor_inverse_3x3(a))) < 1e-10

    def test_residual_orthogonal_to_column_space(self, rng, bump_camera):
        v = orthonormalize(builtin_cmf())
        f = rng.uniform(0.2, 1.0, 31)
        m = basis_score(f, bump_camera.channels, v.basis)[0]
        fq = f[:, None] * bump_camera.channels
        assert np.max(np.abs(fq.T @ (fq @ m - v.basis))) < 1e-9

    def test_local_optimality_probe(self, rng, bump_camera):
        v = orthonormalize(builtin_cmf())
        f = rng.uniform(0.2, 1.0, 31)
        m = basis_score(f, bump_camera.channels, v.basis)[0]
        fq = f[:, None] * bump_camera.channels
        best = float(np.sum((fq @ m - v.basis) ** 2))
        for _ in range(50):
            perturbed = m + rng.choice([-1e-3, 1e-3], size=(3, 3))
            assert best < float(np.sum((fq @ perturbed - v.basis) ** 2))

    def test_rank_deficient_rejected(self):
        x = builtin_cmf()
        v = orthonormalize(x)
        assert not basis_score(np.zeros(31), x.channels, v.basis)[2]


class TestSolveF:
    """The filter half-step: ``_filter``'s per-row least-squares entries."""

    def test_exact_match_gives_unit_filter(self):
        v = orthonormalize(builtin_cmf())
        f = _filter(v.basis, np.eye(3), v.basis)[0]
        assert np.max(np.abs(f - 1.0)) < 1e-12

    def test_doubled_source_halves_filter(self):
        v = orthonormalize(builtin_cmf())
        f = _filter(2.0 * v.basis, np.eye(3), v.basis)[0]
        assert np.max(np.abs(f - 0.5)) < 1e-12

    def test_each_row_beats_dense_grid_search(self, rng, bump_camera):
        v = orthonormalize(builtin_cmf())
        m = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        f = _filter(bump_camera.channels, m, v.basis)[0]
        qm = bump_camera.channels @ m
        grid_points = np.arange(-10.0, 10.0 + 1e-9, 1e-4)
        for i in range(0, 31, 7):
            errors = np.sum((grid_points[:, None] * qm[i] - v.basis[i]) ** 2, axis=1)
            best = grid_points[int(np.argmin(errors))]
            assert abs(f[i] - best) < 1e-3

    def test_degenerate_row_pinned_to_zero(self):
        v = orthonormalize(builtin_cmf())
        channels = v.basis.copy()
        channels[7] = 0.0
        f = _filter(channels, np.eye(3), v.basis)[0]
        assert f[7] == 0.0


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
        stepped, numerators = _filter(qc, m, vb)
        for k in range(starts):
            m_k, score_k, full_k = basis_score(filters[k], qc, vb)
            assert np.array_equal(m[k], m_k)
            assert scores[k] == score_k
            assert full[k] == full_k
            f_k, numerator_k = _filter(qc, m_k, vb)
            assert np.array_equal(stepped[k], f_k)
            assert np.array_equal(numerators[k], numerator_k)
        assert not full[0]

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        stack=st.one_of(st.none(), st.integers(1, 40)),
        exponent=st.sampled_from([-150, 0, 150]),
    )
    def test_column_sums_equal_the_axis_sum_bit_for_bit(self, seed, stack, exponent):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 32))
        qc = rng.standard_normal((n, 3)) * 10.0**exponent
        vb = rng.standard_normal((n, 3))
        # Zero and negative-zero rows: pinned rows, and numerators that are -0.0.
        qc[rng.random(n) < 0.2] = 0.0
        qc[rng.random(n) < 0.1] = -0.0
        vb[rng.random(n) < 0.2] = -0.0
        m = rng.standard_normal((3, 3) if stack is None else (stack, 3, 3))
        m[..., rng.integers(3)] *= rng.random() < 0.3  # sometimes a zero column
        (got, numerator), want = _filter(qc, m, vb), sum_form_filter(qc, m, vb)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert numerator.tobytes() == np.sum((qc @ m) * vb, axis=-1).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), stack=st.integers(1, 6))
    def test_numerators_give_the_minimized_residual(self, seed, stack):
        # min_f ||diag(f) Q M - V||^2 = ||V||^2 - sum_i numerator_i f_i, the
        # residual the accelerated sweep compares its candidates by.
        rng = np.random.default_rng(seed)
        qc = bump_camera_matrix(rng)
        qc[rng.integers(31)] = 0.0
        vb = orthonormalize(builtin_cmf()).basis
        m = np.eye(3) + 0.3 * rng.standard_normal((stack, 3, 3))
        f, numerator = _filter(qc, m, vb)
        deviation = (f[..., None] * qc) @ m - vb
        direct = np.sum(deviation * deviation, axis=(-2, -1))
        assert np.max(np.abs(3.0 - np.sum(numerator * f, axis=-1) - direct)) < 1e-12


class TestFilterHalfStepDigits:
    @pytest.mark.parametrize("delta, kappa_floor", [(3e-2, 50.0), (1.5e-3, 1e3), (1.7e-5, 1e5)],
                             ids=["kappa 1e2", "kappa 1e3", "kappa 1e5"])
    def test_row_form_loses_digits_as_kappa_not_kappa_squared(self, delta, kappa_floor):
        # Two near-equal channels make M = G^-1 W ill conditioned.  The row
        # form (QM)_i . V_i / (QM)_i . (QM)_i stays within a few eps * kappa(M)
        # of the exact value.  The moment form q_i^T M v_i / q_i^T M M^T q_i
        # loses digits as kappa(M)^2: 1.4e-13 relative at kappa 61 and 6.9e-7
        # at kappa 1.1e5 on seed 0, so the half-step keeps the row form.
        vb = orthonormalize(builtin_cmf()).basis
        for seed in range(3):
            base = bump_camera_matrix(np.random.default_rng(seed))
            qc = base.copy()
            qc[:, 1] = base[:, 0] + delta * base[:, 1]
            qc[5] = 0.0  # a degenerate row for the pin
            m = basis_score(np.ones(31), qc, vb)[0]
            kappa = np.linalg.cond(m)
            assert kappa > kappa_floor
            want = exact_row_form_filter(qc, m, vb, DEGENERATE_ROW_NORM)
            got = _filter(qc, m, vb)[0]
            assert got[5] == want[5] == 0.0
            assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * kappa * np.max(np.abs(want))


def reference_trace(row, initial, run, qc, vb):
    """The trace rebuilt one sweep at a time, each filter from the transform its sweep took."""

    def swept(i):
        rows, transforms, scores = run.history[i]
        k = rows.tolist().index(row)
        return transforms[k], float(scores[k])

    def residual(f, m):
        deviation = (f[:, None] * qc) @ m - vb
        return float(np.sum(deviation * deviation))

    f, (m, score) = initial[row], swept(0)
    points = [(0, score, residual(f, m), f)]
    for i in range(1, int(run.stop[row]) + 1):
        m, score = swept(i)
        f = _filter(qc, m, vb)[0]
        points.append((i, score, residual(f, m), f))
    return points


class TestTraceRebuild:
    @pytest.mark.parametrize("max_iterations", [3, 2000])
    def test_stacked_rebuild_equals_the_per_sweep_loop(self, max_iterations):
        cases = []
        for seed in (1, 2, 3):
            qc = bump_camera_matrix(np.random.default_rng(seed))
            cases.append((qc, orthonormalize(builtin_cmf()).basis, seed))
        for seed in (4, 5):
            qm, xm = solvable_toy_pair(np.random.default_rng(seed))
            cases.append((qm, np.linalg.qr(xm)[0], seed))
        outcomes, extrapolated = set(), 0
        for qc, vb, seed in cases:
            rng = np.random.default_rng(seed)
            initial = np.vstack([np.ones(len(qc)), 1.0 - rng.random((7, len(qc)))])
            moments = Moments.of(qc, vb)
            run = _sweep(initial, moments, 1e-9, max_iterations)
            final = np.where(run[3] <= CAPPED, run[1], -np.inf)
            winner = int(np.argmax(final))
            for row in range(len(initial)):
                if run[3][row] > CAPPED:
                    continue
                outcomes.add((row == winner, int(run[3][row])))
                extrapolated += int(run.extrapolations[row])
                got = _trace(row, initial, run, moments)
                want = reference_trace(row, initial, run, qc, vb)
                assert len(got) == len(want)
                for k, (i, score, residual, f) in enumerate(want):
                    assert (k, got.vora_values[k], got.residuals[k]) == (i, score, residual)
                    assert got.filters[k].tobytes() == f.tobytes()
                    # Each recorded score is that of the rebuilt filter: the
                    # history holds the transform the sweep actually took.
                    assert abs(basis_score(f, qc, vb)[1] - score) < 1e-12
                assert np.all(np.diff(got.residuals) <= 1e-12)
        expected = CAPPED if max_iterations == 3 else CONVERGED
        assert (True, expected) in outcomes
        assert extrapolated > 0


def test_extrapolate_keeps_the_public_solves_bits(rng, monkeypatch):
    # _extrapolate calls the LAPACK gufunc behind np.linalg.solve, as vora._score does.
    taken, images = rng.standard_normal((2, 5, 4, 9))
    taken[2] = images[2] = 1.0      # no residual at all: only the ridge keeps the system nonsingular
    fast = als._extrapolate(taken, images, 1)
    monkeypatch.setattr(als, "_solve", lambda gram, rhs, signature: np.linalg.solve(gram, rhs))
    assert fast.tobytes() == als._extrapolate(taken, images, 1).tobytes()


def refuse_every_extrapolation(monkeypatch, guard):
    """Patch the sweep so that each extrapolation fails ``guard``.

    Returns None, or for the residual guard the list that collects the
    extrapolations' rank flags.
    """
    if guard == "rank":
        # A zero transform pins every filter entry to 0.
        monkeypatch.setattr(als, "_extrapolate", lambda taken, images, latest: np.zeros((len(taken), 3, 3)))
        return None
    # Thrown far off, the extrapolation scores lower and leaves a larger residual.
    monkeypatch.setattr(als, "_extrapolate", lambda taken, images, latest: images[:, latest].reshape(-1, 3, 3) + 50.0)
    if guard == "score":
        return None
    # Its Vora-Value is inflated to pass the score test: only the residual test refuses it.
    real, ranks = als.moment_score, []

    def inflating(f, moments):
        m, score, full = real(f, moments)
        if f.ndim == 3 and f.shape[1] == 2:
            score = score.copy()
            score[:, 1] += 1.0
            ranks.extend(full[:, 1].tolist())
        return m, score, full

    monkeypatch.setattr(als, "moment_score", inflating)
    return ranks


@functools.cache
def toy_runs():
    """(camera, observer, config, starts, seed, solution) for the acceptance suite's toy pairs, as C06 runs them."""
    runs = []
    for index, (qm, xm) in enumerate(make_toys()):
        q, x, config = SensorSet(TOY_GRID, qm), SensorSet(TOY_GRID, xm), AlsConfig(max_iterations=4000)
        runs.append((q, x, config, 32, index, optimize_als(q, x, config, starts=32, seed=index)))
    return runs


class TestPolish:
    def test_toy_winners_reach_the_fixed_point_without_losing_score(self):
        # The multistart winners of the acceptance suite's toy pairs, polished afresh.
        for q, x, _, _, _, solution in toy_runs():
            qm = q.channels
            assert solution.converged
            f, vb = solution.trace.filters[-1], orthonormalize(x).basis
            polished, polish = _polish(f, Moments.of(qm, vb))
            assert polish.met_tolerance
            assert polish.iterations < als.POLISH_MAX_SWEEPS
            assert basis_score(polished, qm, vb)[1] >= basis_score(f, qm, vb)[1]
            normalized = polished / np.max(polished)
            swept = _filter(qm, basis_score(normalized, qm, vb)[0], vb)[0]
            assert np.max(np.abs(swept - normalized)) < 1e-8

    @staticmethod
    def assert_polish_is_plain_iteration(camera, monkeypatch, guard):
        vb = orthonormalize(builtin_cmf()).basis
        qc = camera.channels
        f = optimize_als(camera, builtin_cmf(), AlsConfig(epsilon=1e-5)).trace.filters[-1]
        # Every extrapolation fails one safeguard, so each must fall back to
        # the plain sweep: the polish is then plain fixed-point iteration.
        ranks = refuse_every_extrapolation(monkeypatch, guard)
        moments = Moments.of(qc, vb)
        polished, polish = _polish(f, moments)
        m, plain, sweeps = basis_score(f, qc, vb)[0], f, 0
        while True:
            swept, sweeps = _filter(qc, m, vb)[0], sweeps + 1
            if np.max(np.abs(swept - plain)) < als.POLISH_STEP_TOL * np.max(np.abs(f)):
                break
            plain, m = swept, moment_score(swept, moments)[0]
        assert polish.met_tolerance
        assert polish.iterations == sweeps > 10
        assert polished.tobytes() == plain.tobytes()
        if ranks is not None:
            assert ranks and all(ranks)

    def test_a_lower_scoring_extrapolation_is_refused(self, bump_camera, monkeypatch):
        self.assert_polish_is_plain_iteration(bump_camera, monkeypatch, "score")

    @pytest.mark.parametrize("guard", ["rank", "residual"])
    def test_a_rank_losing_or_residual_raising_extrapolation_is_refused(self, bump_camera, monkeypatch, guard):
        self.assert_polish_is_plain_iteration(bump_camera, monkeypatch, guard)


class TestAgainstPlainAls:
    def test_accelerated_winner_scores_at_least_the_plain_winner(self):
        # The paper's plain ALS from the same starts, on the C06 toy pairs and
        # on bump cameras: acceleration may find more, never less.
        cases = [run[:5] + (run[5].score,) for run in toy_runs()]
        for seed in range(8):
            camera = SensorSet(DEFAULT_GRID, bump_camera_matrix(np.random.default_rng(seed)))
            solution = optimize_als(camera, builtin_cmf(), starts=8, seed=seed)
            cases.append((camera, builtin_cmf(), AlsConfig(), 8, seed, solution.score))
        for q, x, config, starts, seed, score in cases:
            initial = config.start_stack(q.grid, starts, seed)
            moments = Moments.of(q.channels, orthonormalize(x).basis)
            _, final, _, outcome = plain_als_sweep(initial, moments, config.epsilon, config.max_iterations)
            assert float(score) >= np.max(final[outcome != RANK_LOSS]) - MONOTONE_SLACK

    def test_work_record_counts_the_run(self, bump_camera):
        x = builtin_cmf()
        single = optimize_als(bump_camera, x)
        assert single.work.row_sweeps == single.iterations
        assert 0 < single.work.extrapolations < single.iterations
        config, v = AlsConfig(), orthonormalize(x)
        initial = config.start_stack(DEFAULT_GRID, 6, 4)
        run = _sweep(initial, Moments.of(bump_camera.channels, v.basis), config.epsilon, config.max_iterations)
        solution = optimize_als(bump_camera, x, config, starts=6, seed=4)
        winner = int(np.argmax(run.final))
        assert solution.work.row_sweeps == int(run.stop.sum())
        assert (solution.iterations, solution.work.extrapolations) == (run.stop[winner], run.extrapolations[winner])


class TestOptimizeAls:
    def test_colorimetric_camera_converges_immediately(self):
        x = builtin_cmf()
        solution = optimize_als(x, x)
        assert solution.converged
        assert solution.iterations == 1
        assert float(solution.score) == 1.0
        assert np.max(np.abs(solution.filter.values - 1.0)) < 1e-12

    def test_trace_opens_on_the_row_gradient_ascent_records(self, bump_camera):
        # Both optimizers score their start with basis_score, so traces from
        # the same start share their first Vora-Value bit for bit.
        x = builtin_cmf()
        als_start = optimize_als(bump_camera, x).trace.vora_values[0]
        ga_start = optimize_ga(bump_camera, x, GaConfig(max_iterations=1)).trace.vora_values[0]
        assert als_start == ga_start

    def test_improves_and_reports_consistently(self, bump_camera):
        x = builtin_cmf()
        solution = optimize_als(bump_camera, x)
        assert solution.converged
        assert float(solution.score) > solution.trace.vora_values[0]
        recomputed = vora_by_projector(apply_filter(solution.filter, bump_camera), x)
        assert abs(float(solution.score) - float(recomputed)) < 1e-12
        assert len(solution.trace) == solution.iterations + 1
        assert float(np.max(solution.filter.values)) == pytest.approx(1.0, abs=1e-12)

    def test_trace_monotone_and_residual_affine(self, bump_camera):
        x = builtin_cmf()
        solution = optimize_als(bump_camera, x)
        values = solution.trace.vora_values
        assert np.all(np.diff(values) >= -1e-12)
        residuals = solution.trace.residuals
        assert np.all(np.diff(residuals) <= 1e-12)
        # Once the transform is optimal for its filter, residual = 3 - 3 vora.
        assert abs(residuals[-1] - (3.0 - 3.0 * values[-1])) < 1e-6

    def test_fixed_point_under_extra_sweep(self, bump_camera):
        x = builtin_cmf()
        v = orthonormalize(x)
        solution = optimize_als(bump_camera, x)
        f, qc = solution.filter.values, bump_camera.channels
        swept = _filter(qc, basis_score(f, qc, v.basis)[0], v.basis)[0]
        assert np.max(np.abs(swept - f)) < 1e-8

    def test_target_basis_equivalence(self, rng, bump_camera):
        x = builtin_cmf()
        t = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
        x_mixed = SensorSet(DEFAULT_GRID, x.channels @ t)
        a = optimize_als(bump_camera, x)
        b = optimize_als(bump_camera, x_mixed)
        la = min(len(a.trace), len(b.trace))
        assert np.max(np.abs(a.trace.vora_values[:la] - b.trace.vora_values[:la])) < 1e-10

    def test_nonconvergence_flag(self, bump_camera):
        x = builtin_cmf()
        solution = optimize_als(bump_camera, x, AlsConfig(max_iterations=2))
        assert not solution.converged
        assert solution.iterations == 2

    def test_initial_rank_loss_reports_iteration(self):
        x = builtin_cmf()
        dead = SpectralCurve(DEFAULT_GRID, np.zeros(31))
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
        with pytest.raises(RankDeficient) as caught:
            optimize_als(q, x)
        assert str(caught.value) == "filter lost a camera channel at iteration 1"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AlsConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            AlsConfig(max_iterations=0)
        with pytest.raises(ValueError):
            AlsConfig(initial_filter="nonsense")


class TestMultistart:
    @staticmethod
    def sequential_runs(q, x, config, starts, seed):
        """Single-start ``optimize_als`` from each start of a multistart run, or None where it loses rank."""
        rng = np.random.default_rng(seed)
        runs = []
        for k in range(starts):
            start = config if k == 0 else replace(config, initial_filter=random_filter(q.grid, rng))
            try:
                runs.append(optimize_als(q, x, start))
            except RankDeficient:
                runs.append(None)
        return runs

    def assert_equals_best_sequential_run(self, q, x, config, starts, seed):
        """Multistart must be bit for bit the sequential run it picks, and return the runs."""
        runs = self.sequential_runs(q, x, config, starts, seed)
        # The winner has the highest last trace score, the first such start on ties.
        best = max((r for r in runs if r is not None), key=lambda r: r.trace.vora_values[-1])
        got = optimize_als(q, x, config, starts=starts, seed=seed)
        assert np.array_equal(got.filter.values, best.filter.values)
        assert np.array_equal(got.correction.m, best.correction.m)
        assert float(got.score) == float(best.score)
        assert (got.iterations, got.converged) == (best.iterations, best.converged)
        assert len(got.trace) == len(best.trace)
        assert np.array_equal(got.trace.vora_values, best.trace.vora_values)
        assert np.array_equal(got.trace.residuals, best.trace.residuals)
        assert np.array_equal(got.trace.filters, best.trace.filters)
        return runs, best

    def test_matches_best_sequential_run(self, rng):
        cases = []
        for pair_rng, seed in ((rng, 5), (np.random.default_rng(4), 4)):
            qm, xm = solvable_toy_pair(pair_rng)
            toy = SensorSet(TOY_GRID, qm), SensorSet(TOY_GRID, xm)
            cases.append((*toy, AlsConfig(max_iterations=2000), 4, seed))
        for seed in (1, 2, 3):
            camera = SensorSet(DEFAULT_GRID, bump_camera_matrix(np.random.default_rng(seed)))
            cases.append((camera, builtin_cmf(), AlsConfig(), 8, seed))
        for q, x, config, starts, seed in cases:
            runs, best = self.assert_equals_best_sequential_run(q, x, config, starts, seed)
            assert best.converged
            assert float(best.score) >= float(runs[0].score) - 1e-12

    def test_capped_winner_matches_best_sequential_run(self, bump_camera):
        _, best = self.assert_equals_best_sequential_run(
            bump_camera, builtin_cmf(), AlsConfig(max_iterations=3), 8, 11
        )
        assert not best.converged
        assert best.iterations == 3
        # A capped run is not polished: its filter is the last traced one, scaled.
        last = best.trace.filters[-1]
        assert np.array_equal(best.filter.values, last / np.max(last))

    def test_rank_deficient_starts_are_skipped(self, bump_camera):
        dead = SpectralCurve(DEFAULT_GRID, np.zeros(31))
        runs, _ = self.assert_equals_best_sequential_run(
            bump_camera, builtin_cmf(), AlsConfig(initial_filter=dead), 6, 12
        )
        assert runs[0] is None

    def test_deterministic_for_fixed_seed(self, rng):
        qm, xm = solvable_toy_pair(rng)
        q = SensorSet(TOY_GRID, qm)
        x = SensorSet(TOY_GRID, xm)
        a = optimize_als(q, x, AlsConfig(max_iterations=2000), starts=8, seed=3)
        b = optimize_als(q, x, AlsConfig(max_iterations=2000), starts=8, seed=3)
        assert np.array_equal(a.filter.values, b.filter.values)
        assert float(a.score) == float(b.score)

    def test_start_stack_draws_one_stream(self):
        rng = np.random.default_rng(9)
        draws = np.stack([random_filter(DEFAULT_GRID, rng).values for _ in range(4)])
        ones = AlsConfig().start_stack(DEFAULT_GRID, 4, 9)
        assert ones[0].tobytes() == np.ones(DEFAULT_GRID.count).tobytes()
        assert ones[1:].tobytes() == draws[:3].tobytes()
        assert AlsConfig(initial_filter="random").start_stack(DEFAULT_GRID, 4, 9).tobytes() == draws.tobytes()

    def test_requires_a_start(self, bump_camera):
        with pytest.raises(ValueError):
            optimize_als(bump_camera, builtin_cmf(), starts=0)

    @pytest.mark.parametrize(
        "starts, dropped, named",
        [(1, [0], 0), (3, [1], 1), (3, [0, 1, 2], 0)],
        ids=["single start", "one of three", "every start"],
    )
    def test_a_vora_value_drop_raises_from_either_entry_point(self, bump_camera, monkeypatch, starts, dropped, named):
        # The first sweep's scores of the chosen starts are pushed 0.5 below
        # their start: a drop no round-off explains, which must not pass for
        # a skippable start or for rank loss.  The starts are scored by
        # basis_score, every sweep by moment_score.
        real, calls = als.moment_score, []

        def dropping(f, moments):
            m, score, full = real(f, moments)
            calls.append(None)
            if len(calls) == 1:
                score = score.copy()
                score[dropped] -= 0.5
            return m, score, full

        monkeypatch.setattr(als, "moment_score", dropping)
        with pytest.raises(ConsistencyError, match=f"at iteration 1 of start {named}$"):
            optimize_als(bump_camera, builtin_cmf(), starts=starts, seed=5)


class TestSolutionTypes:
    def test_trace_rejects_decreasing_vora(self):
        with pytest.raises(ConsistencyError, match="at iteration 1$"):
            ConvergenceTrace([0.9, 0.8], [0.3, 0.6], np.ones((2, 4)))

    def test_trace_accepts_round_off_dips(self):
        assert len(ConvergenceTrace([0.9, 0.9 - 5e-13], [0.3, 0.3], np.ones((2, 4)))) == 2

    @pytest.mark.parametrize(
        "vora_values, residuals, filters",
        [([0.9, 0.95], [0.3], np.ones((2, 4))), ([0.9, 0.95], [0.3, 0.15], np.ones((3, 4)))],
        ids=["residuals", "filters"],
    )
    def test_trace_rejects_a_row_count_mismatch(self, vora_values, residuals, filters):
        with pytest.raises(ShapeError, match="rows"):
            ConvergenceTrace(vora_values, residuals, filters)

    def test_trace_rejects_an_empty_trace(self):
        with pytest.raises(ValueError, match="at least the initial point"):
            ConvergenceTrace([], [], np.empty((0, 4)))

    def test_trace_holds_read_only_copies(self):
        vora_values, residuals, filters = np.array([0.9, 0.95]), np.array([0.3, 0.15]), np.ones((2, 4))
        trace = ConvergenceTrace(vora_values, residuals, filters)
        vora_values[:] = 0.0
        residuals[:] = 0.0
        filters[:] = 0.0
        assert trace.vora_values.tolist() == [0.9, 0.95]
        assert trace.residuals.tolist() == [0.3, 0.15]
        assert np.all(trace.filters == 1.0)
        for column in (trace.vora_values, trace.residuals, trace.filters):
            with pytest.raises(ValueError):
                column[0] = 0.5

    @pytest.mark.parametrize("optimize, config", [(optimize_als, AlsConfig), (optimize_ga, GaConfig)],
                             ids=["als", "ga"])
    @pytest.mark.parametrize("max_iterations", [1, 3, 10_000])
    def test_iterations_are_the_trace_rows_less_one(self, bump_camera, optimize, config, max_iterations):
        solution = optimize(bump_camera, builtin_cmf(), config(max_iterations=max_iterations))
        assert solution.iterations == len(solution.trace) - 1
        assert solution.trace.filters.shape == (len(solution.trace), DEFAULT_GRID.count)
        if not solution.converged:
            assert solution.iterations == max_iterations
