"""Alternating least-squares filter optimizer.

Each sweep solves two closed-form least-squares problems in turn: the 3x3
transform that best maps the filtered camera onto the orthonormalized target
basis, then the per-wavelength filter entries that best map the transformed
camera onto the same basis.  Both half-steps are exact minimizers of the same
squared residual, so the residual never increases and the Vora-Value never
decreases.  Iteration stops once a sweep improves the Vora-Value by less than
``epsilon``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, RankDeficient
from .solution import (MONOTONE_SLACK, FilterSolution, Polish, SolverConfig, TracePoint,
                       every_start_lost_rank, finish)
from .spectra import (
    CorrectionMatrix,
    OrthoBasis,
    SensorSet,
    SpectralCurve,
    orthonormalize,
    require_same_grid,
)
from .vora import basis_score

# Rows of QM with squared norm below this contribute nothing; their filter
# entry is pinned to 0 for reproducibility.
DEGENERATE_ROW_NORM = 1e-20

# After the Vora-Value stopping rule fires, unrecorded sweeps take the filter
# the rest of the way to the ALS fixed point: the Vora-Value locates the
# optimum to round-off long before the iterate stops moving, so a
# fixed-point-quality filter needs this polish.  It is Anderson-accelerated
# over the last POLISH_DEPTH steps and bounded so pathological instances
# cannot spin.
POLISH_STEP_TOL = 1e-9
POLISH_MAX_SWEEPS = 5000
POLISH_DEPTH = 5

# Why a row of the lockstep sweep stopped; converged and capped rows have a solution.
CONVERGED, CAPPED, RANK_LOSS = range(3)


@dataclass(frozen=True)
class AlsConfig(SolverConfig):
    """Stopping rule and starting point for the ALS solver.

    ``epsilon`` is the minimum Vora-Value increase per sweep.
    """


def _filter(qc: np.ndarray, m: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """Filter half-step: per-row entries minimizing ||diag(f) (Q M) - V||^2_F.

    Each row is an independent scalar least-squares problem with solution
    (QM)_i . V_i / (QM)_i . (QM)_i; rows with vanishing source norm get 0.
    ``m`` is one transform or a stack of them.
    """
    qm = qc @ m
    q0, q1, q2 = qm[..., 0], qm[..., 1], qm[..., 2]
    # The additions np.sum makes over the length-3 axis, in its order and from
    # its 0.0 start (so an all -0.0 row still sums to +0.0), without the
    # reduction's overhead.  A sum of squares has no -0.0 to lose.
    numerator = 0.0 + q0 * vb[:, 0] + q1 * vb[:, 1] + q2 * vb[:, 2]
    denominator = q0 * q0 + q1 * q1 + q2 * q2
    degenerate = denominator < DEGENERATE_ROW_NORM
    return np.where(degenerate, 0.0, numerator / np.where(degenerate, 1.0, denominator))


def solve_m(f: SpectralCurve, q: SensorSet, v: OrthoBasis) -> CorrectionMatrix:
    """Least-squares 3x3 transform M minimizing ||diag(f) Q M - V||^2_F."""
    require_same_grid(f.grid, q.grid, v.grid)
    m, _, full = basis_score(f.values, q.channels, v.basis)
    if not full:
        raise RankDeficient("filtered camera is rank deficient (columns are numerically dependent)")
    return CorrectionMatrix(m)


def solve_f(q: SensorSet, m: CorrectionMatrix, v: OrthoBasis) -> SpectralCurve:
    """Per-row filter entries minimizing ||diag(f) (Q M) - V||^2_F; see ``_filter``."""
    require_same_grid(q.grid, v.grid)
    return SpectralCurve(q.grid, _filter(q.channels, m.m, v.basis))


def optimize_als(
    q: SensorSet, x: SensorSet, config: AlsConfig | None = None, starts: int = 1, seed: int = 0
) -> FilterSolution:
    """Best ALS solution over the starts of ``config.start_stack``, swept in lockstep.

    ALS converges to a fixed point but not necessarily the global optimum, so
    further seeded random starts guard against bad basins.  The solution is
    rebuilt from the winning row of one ``_sweep``, so it is exactly what a
    single-start run from the winning start gives.  A start that loses rank
    is passed over; ``RankDeficient`` (tagged with the iteration index) is
    raised only when every start does.  A sweep that lowers a Vora-Value
    raises ``ConsistencyError`` (see ``_sweep``).  Returns with
    ``converged=False`` when ``max_iterations`` is reached first.
    """
    config = config or AlsConfig()
    require_same_grid(q.grid, x.grid)
    initial = config.start_stack(q.grid, starts, seed)
    v = orthonormalize(x)
    run = _sweep(initial, q.channels, v.basis, config.epsilon, config.max_iterations)
    _, scores, stop, outcome = run
    lost = outcome == RANK_LOSS
    if lost.all():
        i = int(stop[0])
        raise every_start_lost_rank(starts, RankDeficient(
            "initial filter leaves the camera rank deficient (iteration 0)" if i == 0
            else f"filter zeroed a camera channel at iteration {i}"
        ))
    return _solution(int(np.argmax(np.where(lost, -np.inf, scores[-1]))), initial, run, q, v)


def _sweep(initial: np.ndarray, qc: np.ndarray, vb: np.ndarray, epsilon: float, max_iterations: int):
    """ALS from each row of ``initial`` in lockstep: the solver's one sweep loop.

    A row stops once a sweep gains less than ``epsilon`` (converged), at
    ``max_iterations`` (capped), or on rank loss.  A full-rank sweep that
    lowers any row's Vora-Value by more than ``MONOTONE_SLACK`` raises
    ``ConsistencyError`` naming the start and the sweep, for every entry
    point alike.  Returns ``(transforms, scores, stop, outcome)``: per sweep i
    (0 is the start) each row's transform and Vora-Value for its sweep-i
    filter, and per row the sweep it stopped at and why.  Only these K x 10
    floats are kept per sweep; ``_solution`` rebuilds a row's filters.
    """
    m, score, full = basis_score(initial, qc, vb)
    transforms, scores = [m.copy()], [score.copy()]
    stop = np.zeros(len(initial), dtype=int)
    outcome = np.where(full, CAPPED, RANK_LOSS)
    live = np.flatnonzero(full)
    for i in range(1, max_iterations + 1):
        if not live.size:
            break
        m_live, score_live, full = basis_score(_filter(qc, m[live], vb), qc, vb)
        delta = score_live - score[live]
        m[live], score[live], stop[live] = m_live, score_live, i
        transforms.append(m.copy())
        scores.append(score.copy())
        going = full & ~(delta < epsilon)
        if not going.all():
            dropped = np.flatnonzero(full & (delta < -MONOTONE_SLACK))
            if dropped.size:
                k = dropped[0]
                raise ConsistencyError(
                    f"ALS Vora-Value dropped by {-delta[k]:.3e} at iteration {i} of start {live[k]}"
                )
            outcome[live] = np.select([~full, delta < epsilon], [RANK_LOSS, CONVERGED], CAPPED)
            live = live[going]
    return transforms, scores, stop, outcome


def _solution(row: int, initial: np.ndarray, run: tuple, q: SensorSet, v: OrthoBasis) -> FilterSolution:
    """Solution of a converged or capped ``_sweep`` row, polished if converged."""
    _, _, stop, outcome = run
    points = _trace(row, initial, run, q.channels, v.basis)
    converged = bool(outcome[row] == CONVERGED)
    f, polish = points[-1].filter_values, None
    if converged:
        f, polish = _polish_to_fixed_point(f, q.channels, v.basis)
    return finish(f, q, v, points, int(stop[row]), converged, polish)


def _trace(row: int, initial: np.ndarray, run: tuple, qc: np.ndarray, vb: np.ndarray) -> list[TracePoint]:
    """The trace a run from ``initial[row]`` records, rebuilt from ``_sweep``'s transforms.

    Sweep i's filter is the filter half-step from sweep i - 1's transform; its
    residual is taken against that transform (the start's against its own).
    All sweeps are rebuilt with one stacked half-step and one stacked residual.
    """
    transforms, scores, stop, _ = run
    count = int(stop[row])
    m = np.stack([transforms[max(i - 1, 0)][row] for i in range(count + 1)])
    f = np.concatenate([initial[row][None], _filter(qc, m[1:], vb)])
    deviation = (f[..., None] * qc) @ m - vb
    residuals = np.sum(deviation * deviation, axis=(-2, -1))
    return [
        TracePoint(i, float(scores[i][row]), float(residuals[i]), f[i]) for i in range(count + 1)
    ]


def _polish_to_fixed_point(f: np.ndarray, qc: np.ndarray, vb: np.ndarray) -> tuple[np.ndarray, Polish]:
    """Take a converged iterate to the ALS fixed point with unrecorded sweeps.

    Type-II Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011)
    on the sweep map G(f) = ``_filter(qc, basis_score(f)[0], vb)`` over the
    last ``POLISH_DEPTH`` steps.  The extrapolated iterate is taken only when
    its filtered camera is full rank and it scores at least as high as the
    plain sweep G(f), which is taken otherwise, so the Vora-Value cannot
    fall.  Stops once max|G(f) - f| < ``POLISH_STEP_TOL`` times the input's
    largest entry, after ``POLISH_MAX_SWEEPS`` sweeps, or on rank loss.
    Returns the last G(f) and how the polish ended.
    """
    scale = float(np.max(np.abs(f))) or 1.0
    m = basis_score(f, qc, vb)[0]
    images, steps = [], []
    for sweep in range(1, POLISH_MAX_SWEEPS + 1):
        g = _filter(qc, m, vb)
        step = g - f
        if float(np.max(np.abs(step))) < POLISH_STEP_TOL * scale:
            return g, Polish(sweep, True)
        images.append(g)
        steps.append(step)
        del images[:-POLISH_DEPTH - 1], steps[:-POLISH_DEPTH - 1]
        candidates = g[None]
        if len(steps) > 1:
            gamma = np.linalg.lstsq(np.diff(steps, axis=0).T, step, rcond=None)[0]
            candidates = np.stack([g, g - gamma @ np.diff(images, axis=0)])
        ms, scores, full = basis_score(candidates, qc, vb)
        take = int(len(candidates) > 1 and full[1] and scores[1] >= scores[0])
        if not full[take]:
            return g, Polish(sweep, False)
        f, m = candidates[take], ms[take]
    return g, Polish(POLISH_MAX_SWEEPS, False)
