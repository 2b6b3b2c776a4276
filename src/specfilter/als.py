"""Alternating least-squares filter optimizer.

Each sweep solves two closed-form least-squares problems in turn: the 3x3
transform that best maps the filtered camera onto the orthonormalized target
basis, then the per-wavelength filter entries that best map the transformed
camera onto the same basis.  Both half-steps are exact minimizers of the same
squared residual, so the residual never increases and the Vora-Value never
decreases.

The sweeps are Anderson-accelerated on the transform map T: M -> M(f(M)),
the filter half-step followed by the transform half-step.  Each sweep scores
the plain image T(M) and an extrapolation of the last few transforms side by
side, and takes the extrapolated one only when it keeps the camera at full
rank, scores at least as high and leaves no larger Luther residual.  A
recorded sweep is the sweep taken, plain or extrapolated, so both trace
columns stay monotone.  Iteration stops once a sweep improves the
Vora-Value by less than ``epsilon``; the converged winner is then polished
to the ALS fixed point by the same loop, unrecorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError
from .solution import (MONOTONE_SLACK, ConvergenceTrace, FilterSolution, Polish, SolverConfig, Stop,
                       Work, every_start_lost_rank, finish, lost_rank)
from .spectra import OrthoBasis, SensorSet, orthonormalize, require_same_grid
from .vora import Moments, _solve, basis_score, moment_score

# Rows of QM with squared norm below this contribute nothing; their filter
# entry is pinned to 0 for reproducibility.
DEGENERATE_ROW_NORM = 1e-20

# Type-II Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011)
# over the last ANDERSON_DEPTH steps of each row.  Its small least-squares
# problems are solved by normal equations whose diagonal is raised by
# ANDERSON_RIDGE times their trace, so collinear steps still give finite
# coefficients; a poor extrapolation is refused by the safeguard anyway.
ANDERSON_DEPTH = 5
ANDERSON_RIDGE = 1e-12

# After the Vora-Value stopping rule fires, unrecorded sweeps take the filter
# the rest of the way to the ALS fixed point: the Vora-Value locates the
# optimum to round-off long before the iterate stops moving, so a
# fixed-point-quality filter needs this polish.  It stops once a plain sweep
# moves no filter entry by POLISH_STEP_TOL times the filter's peak, and is
# bounded so pathological instances cannot spin.
POLISH_STEP_TOL = 1e-9
POLISH_MAX_SWEEPS = 5000


@dataclass(frozen=True)
class AlsConfig(SolverConfig):
    """Stopping rule and starting point for the ALS solver.

    ``epsilon`` is the minimum Vora-Value increase per sweep.
    """


def _filter(qc: np.ndarray, m: np.ndarray, vb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Filter half-step: per-row entries minimizing ||diag(f) (Q M) - V||^2_F.

    Each row is an independent scalar least-squares problem with solution
    f_i = (QM)_i . V_i / (QM)_i . (QM)_i; rows with vanishing source norm get
    0.  Returns f and the numerators (QM)_i . V_i, from which the minimized
    residual is ||V||^2_F - sum_i numerator_i f_i.  ``m`` is one transform or
    a stack of them.
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
        return np.where(degenerate, 0.0, numerator / np.where(degenerate, 1.0, denominator)), numerator
    return numerator / denominator, numerator


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
    raises ``ConsistencyError`` (see ``_sweep``).  Returns with stop
    ``CAPPED`` when ``max_iterations`` is reached first.
    """
    config = config or AlsConfig()
    require_same_grid(q.grid, x.grid)
    initial = config.start_stack(q.grid, starts, seed)
    v = orthonormalize(x)
    moments = Moments.of(q.channels, v.basis)
    run = _sweep(initial, moments, config.epsilon, config.max_iterations)
    lost = run.outcome == int(Stop.RANK_LOSS)
    if lost.all():
        raise every_start_lost_rank(starts, lost_rank(int(run.stop[0])))
    return _solution(int(np.argmax(np.where(lost, -np.inf, run.final))), initial, run, q, v, moments)


class _Run(NamedTuple):
    """What ``_sweep`` keeps of a run.

    ``history`` holds, per sweep i (0 is the start), the rows it swept, in
    order, with the transforms their sweep-i filters were formed from (at
    i = 0 the start's own ``basis_score`` transform) and those filters'
    Vora-Values: K x 10 floats per sweep.  Per row: its last Vora-Value, the
    sweep it stopped at, why (a ``Stop``: converged, capped or rank loss),
    and how many extrapolated sweeps it took.
    """

    history: list
    final: np.ndarray
    stop: np.ndarray
    outcome: np.ndarray
    extrapolations: np.ndarray


def _sweep(initial: np.ndarray, moments: Moments, epsilon: float, max_iterations: int,
           step_tol: float = 0.0) -> _Run:
    """Accelerated ALS from each row of ``initial`` in lockstep: the solver's one sweep loop.

    Each sweep forms, per row, the plain image T(M) of its last transform M
    and, once the row has two sweeps behind it, the ``_extrapolate`` d
    transform, and takes both through one stacked filter half-step and one
    stacked ``moment_score``.  The extrapolated transform is taken when its
    filter keeps the camera at full rank, scores at least the plain one's
    Vora-Value and leaves a Luther residual no larger; otherwise the plain
    image is.

    A row stops at ``max_iterations`` (capped), on rank loss of the plain
    image, and (converged) once a sweep gains less than ``epsilon`` or its
    plain image moves no filter entry by ``step_tol`` times the start's
    largest entry.  The multistart screen stops on ``epsilon``, the polish
    on ``step_tol``.  A full-rank sweep that lowers any row's Vora-Value by
    more than ``MONOTONE_SLACK`` raises ``ConsistencyError`` naming the start
    and the sweep, for every entry point alike.  The starts are scored by ``basis_score``, as gradient
    ascent scores its start, so both optimizers' traces open on the same
    row; the sweeps by ``moment_score``.  Only the live rows are swept, as
    one stack that shrinks when rows stop; ``_trace`` rebuilds a row's
    filters.
    """
    qc, vb = moments.camera, moments.basis
    m, score, full = basis_score(initial, qc, vb)
    rows = np.arange(len(initial))
    history = [(rows, m, score)]
    final, stop = score.copy(), np.zeros(len(initial), dtype=int)
    outcome = np.where(full, int(Stop.CAPPED), int(Stop.RANK_LOSS))
    extrapolations = np.zeros(len(initial), dtype=int)
    tolerance = step_tol * np.max(np.abs(initial), axis=-1)
    rows, image, score, f, tolerance = rows[full], m[full], score[full], initial[full], tolerance[full]
    # Each live row's last transforms M and their images T(M), flattened: a
    # ring whose slot (i - 1) % slots holds sweep i's, the same for every row.
    slots = ANDERSON_DEPTH + 1
    taken, images = np.empty((len(rows), slots, 9)), np.empty((len(rows), slots, 9))
    k = np.arange(len(rows))
    for i in range(1, max_iterations + 1):
        if not rows.size:
            break
        candidates, pick = image[:, None], np.zeros(len(rows), dtype=int)
        if i > 2:
            filled = min(i - 1, slots)
            extrapolated = _extrapolate(taken[:, :filled], images[:, :filled], (i - 2) % slots)
            candidates = np.stack([image, extrapolated], axis=1)
        swept, numerator = _filter(qc, candidates, vb)
        transforms, scores, ranks = moment_score(swept, moments)
        if i > 2:
            gains = np.sum(numerator * swept, axis=-1)
            pick = (ranks[:, 1] & (scores[:, 1] >= scores[:, 0]) & (gains[:, 1] >= gains[:, 0])).astype(int)
        full = ranks[:, 0]
        m, image = candidates[k, pick], transforms[k, pick]
        delta, score = scores[k, pick] - score, scores[k, pick]
        dropped = np.flatnonzero(full & (delta < -MONOTONE_SLACK))
        if dropped.size:
            j = dropped[0]
            raise ConsistencyError(
                f"ALS Vora-Value dropped by {-delta[j]:.3e} at iteration {i} of start {rows[j]}"
            )
        history.append((rows, m, score))
        extrapolations[rows] += pick
        taken[:, (i - 1) % slots], images[:, (i - 1) % slots] = m.reshape(-1, 9), image.reshape(-1, 9)
        going = full & ~(delta < epsilon)
        if step_tol:
            going &= ~(np.max(np.abs(swept[:, 0] - f), axis=-1) < tolerance)
            f = swept[k, pick]
        if not going.all():
            done = rows[~going]
            # Assigned, not np.where'd: numpy takes Enum operands slowly.
            outcome[done] = Stop.CONVERGED
            outcome[done[~full[~going]]] = Stop.RANK_LOSS
            final[done], stop[done] = score[~going], i
            rows, image, score, f, tolerance = rows[going], image[going], score[going], f[going], tolerance[going]
            taken, images, k = taken[going], images[going], k[:len(rows)]
    else:
        final[rows], stop[rows] = score, max_iterations
    return _Run(history, final, stop, outcome, extrapolations)


def _extrapolate(taken: np.ndarray, images: np.ndarray, latest: int) -> np.ndarray:
    """Type-II Anderson extrapolation of each row's transforms M_j and images T(M_j).

    With residuals r_j = T(M_j) - M_j over a row's last L >= 2 steps, ``latest``
    indexing the newest, the coefficients g minimize
    ||r_latest - sum_j g_j (r_j - r_latest)||, and the extrapolated transform
    is T(M_latest) - sum_j g_j (T(M_j) - T(M_latest)): Walker and Ni's
    differences of consecutive steps, recombined, so the steps may sit in any
    order.  The L x L normal equations of every row are solved as one stack,
    ridged by ``ANDERSON_RIDGE`` times their trace, so none is singular and
    ``vora._solve`` needs no singular-matrix guard.
    """
    residuals = images - taken
    steps = residuals - residuals[:, latest, None]
    gram = steps @ steps.swapaxes(-1, -2)
    ridge = ANDERSON_RIDGE * np.trace(gram, axis1=-2, axis2=-1) + np.finfo(float).tiny
    gram += ridge[:, None, None] * np.eye(gram.shape[-1])
    gamma = _solve(gram, steps @ residuals[:, latest, :, None], signature="dd->d")
    mixed = images[:, latest] - (gamma.swapaxes(-1, -2) @ (images - images[:, latest, None]))[:, 0]
    return mixed.reshape(-1, 3, 3)


def _solution(
    row: int, initial: np.ndarray, run: _Run, q: SensorSet, v: OrthoBasis, moments: Moments
) -> FilterSolution:
    """Solution of a converged or capped ``_sweep`` row, polished if converged."""
    trace = _trace(row, initial, run, moments)
    stop = Stop(run.outcome[row])
    f, polish = trace.filters[-1], None
    if stop == Stop.CONVERGED:
        f, polish = _polish(f, moments)
    return finish(f, q, v, trace, stop, Work(int(run.stop.sum()), int(run.extrapolations[row]), polish))


def _trace(row: int, initial: np.ndarray, run: _Run, moments: Moments) -> ConvergenceTrace:
    """The trace a run from ``initial[row]`` records, rebuilt from ``_sweep``'s history.

    Sweep i's filter is the filter half-step from the transform recorded for
    sweep i, plain or extrapolated; its residual is taken against that
    transform (the start's against its own).  All sweeps are rebuilt with
    one stacked half-step and one stacked residual, taken on diag(f) Q
    itself: by moments it would be tr(M^T G M) - 2 tr(M^T W) + ||V||^2,
    whose cancellation leaves round-off of either sign where the residual
    is 0.
    """
    qc, vb = moments.camera, moments.basis
    transforms, scores, seen = [], [], None
    for rows, m, score in run.history[:int(run.stop[row]) + 1]:
        if rows is not seen:
            seen, k = rows, int(np.searchsorted(rows, row))
        transforms.append(m[k])
        scores.append(float(score[k]))
    m = np.stack(transforms)
    f = np.concatenate([initial[row][None], _filter(qc, m[1:], vb)[0]])
    deviation = (f[..., None] * qc) @ m - vb
    residuals = np.sum(deviation * deviation, axis=(-2, -1))
    return ConvergenceTrace(scores, residuals, f)


def _polish(f: np.ndarray, moments: Moments) -> tuple[np.ndarray, Polish]:
    """Take a converged iterate to the ALS fixed point: ``_sweep`` from ``f`` on ``step_tol``.

    Unrecorded; stops once a plain sweep moves no entry by more than
    ``POLISH_STEP_TOL`` times ``f``'s largest entry, after
    ``POLISH_MAX_SWEEPS`` sweeps, or on rank loss.  Returns the filter that
    last sweep started from (the last one, if capped), which the step test
    certifies as a fixed point, and how the polish ended.  Where that
    filter's ``basis_score`` is below ``f``'s, which round-off alone causes
    at an optimum the score cannot rise from, ``f`` is returned instead.
    """
    run = _sweep(f[None], moments, -np.inf, POLISH_MAX_SWEEPS, POLISH_STEP_TOL)
    sweeps = int(run.stop[0])
    last = sweeps - int(Stop(run.outcome[0]) != Stop.CAPPED)
    if last > 0:
        polished = _filter(moments.camera, run.history[last][1][0], moments.basis)[0]
        if basis_score(polished, moments.camera, moments.basis)[1] >= run.history[0][2][0]:
            f = polished
    return f, Polish(sweeps, Stop(run.outcome[0]) == Stop.CONVERGED)
