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
from .solution import (MONOTONE_SLACK, ConvergenceTrace, FilterSolution, Polish, SolverConfig,
                       every_start_lost_rank, finish)
from .spectra import (
    CorrectionMatrix,
    OrthoBasis,
    SensorSet,
    SpectralCurve,
    orthonormalize,
    require_same_grid,
)
from .vora import Moments, basis_score, moment_score

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
    product, square = qm * vb, qm * qm
    # The additions np.sum makes over the length-3 axis, in its order and from
    # its 0.0 start (so an all -0.0 row still sums to +0.0), without the
    # reduction's overhead.  A sum of squares has no -0.0 to lose.
    numerator = 0.0 + product[..., 0] + product[..., 1] + product[..., 2]
    denominator = square[..., 0] + square[..., 1] + square[..., 2]
    degenerate = denominator < DEGENERATE_ROW_NORM
    if degenerate.any():
        return np.where(degenerate, 0.0, numerator / np.where(degenerate, 1.0, denominator))
    return numerator / denominator


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
    moments = Moments.of(q.channels, v.basis)
    run = _sweep(initial, moments, config.epsilon, config.max_iterations)
    _, final, stop, outcome = run
    lost = outcome == RANK_LOSS
    if lost.all():
        i = int(stop[0])
        raise every_start_lost_rank(starts, RankDeficient(
            "initial filter leaves the camera rank deficient (iteration 0)" if i == 0
            else f"filter zeroed a camera channel at iteration {i}"
        ))
    return _solution(int(np.argmax(np.where(lost, -np.inf, final))), initial, run, q, v, moments)


def _sweep(initial: np.ndarray, moments: Moments, epsilon: float, max_iterations: int):
    """ALS from each row of ``initial`` in lockstep: the solver's one sweep loop.

    A row stops once a sweep gains less than ``epsilon`` (converged), at
    ``max_iterations`` (capped), or on rank loss.  A full-rank sweep that
    lowers any row's Vora-Value by more than ``MONOTONE_SLACK`` raises
    ``ConsistencyError`` naming the start and the sweep, for every entry
    point alike.  The starts are scored by ``basis_score``, as gradient ascent
    scores its start, so both optimizers' traces open on the same row; the
    sweeps by ``moment_score``.  Only the live rows are swept, as one stack
    that shrinks when rows stop.

    Returns ``(history, final, stop, outcome)``: per sweep i (0 is the start)
    the rows it swept, in order, with their transforms and Vora-Values for
    their sweep-i filters; and per row its last Vora-Value, the sweep it
    stopped at and why.  Only these K x 10 floats are kept per sweep;
    ``_trace`` rebuilds a row's filters.
    """
    qc, vb = moments.camera, moments.basis
    m, score, full = basis_score(initial, qc, vb)
    rows = np.arange(len(initial))
    history = [(rows, m, score)]
    final, stop = score.copy(), np.zeros(len(initial), dtype=int)
    outcome = np.where(full, CAPPED, RANK_LOSS)
    rows, m, score = rows[full], m[full], score[full]
    for i in range(1, max_iterations + 1):
        if not rows.size:
            break
        m, swept, full = moment_score(_filter(qc, m, vb), moments)
        delta, score = swept - score, swept
        history.append((rows, m, score))
        going = full & ~(delta < epsilon)
        if not going.all():
            dropped = np.flatnonzero(full & (delta < -MONOTONE_SLACK))
            if dropped.size:
                k = dropped[0]
                raise ConsistencyError(
                    f"ALS Vora-Value dropped by {-delta[k]:.3e} at iteration {i} of start {rows[k]}"
                )
            done = rows[~going]
            outcome[done] = np.where(full[~going], CONVERGED, RANK_LOSS)
            final[done], stop[done] = score[~going], i
            rows, m, score = rows[going], m[going], score[going]
    else:
        final[rows], stop[rows] = score, max_iterations
    return history, final, stop, outcome


def _solution(
    row: int, initial: np.ndarray, run: tuple, q: SensorSet, v: OrthoBasis, moments: Moments
) -> FilterSolution:
    """Solution of a converged or capped ``_sweep`` row, polished if converged."""
    _, _, _, outcome = run
    trace = _trace(row, initial, run, moments)
    converged = bool(outcome[row] == CONVERGED)
    f, polish = trace.filters[-1], None
    if converged:
        f, polish = _polish_to_fixed_point(f, moments)
    return finish(f, q, v, trace, converged, polish)


def _trace(row: int, initial: np.ndarray, run: tuple, moments: Moments) -> ConvergenceTrace:
    """The trace a run from ``initial[row]`` records, rebuilt from ``_sweep``'s history.

    Sweep i's filter is the filter half-step from sweep i - 1's transform; its
    residual is taken against that transform (the start's against its own).
    All sweeps are rebuilt with one stacked half-step and one stacked
    residual, taken on diag(f) Q itself: by moments it would be
    tr(M^T G M) - 2 tr(M^T W) + ||V||^2, whose cancellation leaves round-off
    of either sign where the residual is 0.
    """
    history, _, stop, _ = run
    qc, vb = moments.camera, moments.basis
    transforms, scores, seen = [], [], None
    for rows, m, score in history[:int(stop[row]) + 1]:
        if rows is not seen:
            seen, k = rows, int(np.searchsorted(rows, row))
        transforms.append(m[k])
        scores.append(float(score[k]))
    m = np.stack([transforms[0], *transforms[:-1]])
    f = np.concatenate([initial[row][None], _filter(qc, m[1:], vb)])
    deviation = (f[..., None] * qc) @ m - vb
    residuals = np.sum(deviation * deviation, axis=(-2, -1))
    return ConvergenceTrace(scores, residuals, f)


def _polish_to_fixed_point(f: np.ndarray, moments: Moments) -> tuple[np.ndarray, Polish]:
    """Take a converged iterate to the ALS fixed point with unrecorded sweeps.

    Type-II Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011)
    on the sweep map G(f) = ``_filter(qc, moment_score(f)[0], vb)`` over the
    last ``POLISH_DEPTH`` steps.  The extrapolated iterate is taken only when
    its filtered camera is full rank and it scores at least as high as the
    plain sweep G(f), which is taken otherwise, so the Vora-Value cannot
    fall.  Stops once max|G(f) - f| < ``POLISH_STEP_TOL`` times the input's
    largest entry, after ``POLISH_MAX_SWEEPS`` sweeps, or on rank loss.
    Returns the last G(f) and how the polish ended.
    """
    qc, vb = moments.camera, moments.basis
    scale = float(np.max(np.abs(f))) or 1.0
    m = moment_score(f, moments)[0]
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
        ms, scores, full = moment_score(candidates, moments)
        take = int(len(candidates) > 1 and full[1] and scores[1] >= scores[0])
        if not full[take]:
            return g, Polish(sweep, False)
        f, m = candidates[take], ms[take]
    return g, Polish(POLISH_MAX_SWEEPS, False)
