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

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConsistencyError, RankDeficient
from .solution import FilterSolution, SolverConfig, TracePoint, finish
from .spectra import (
    CorrectionMatrix,
    OrthoBasis,
    SensorSet,
    SpectralCurve,
    WavelengthGrid,
    orthonormalize,
    require_same_grid,
)
from .vora import basis_score

# Rows of QM with squared norm below this contribute nothing; their filter
# entry is pinned to 0 for reproducibility.
DEGENERATE_ROW_NORM = 1e-20

# After the Vora-Value stopping rule fires, extra unrecorded sweeps contract
# the filter the rest of the way to the ALS fixed point: the Vora-Value locates
# the optimum to round-off long before the iterate stops moving, so a
# fixed-point-quality filter needs this polish.  Bounded so pathological
# instances cannot spin.
POLISH_STEP_TOL = 1e-9
POLISH_MAX_SWEEPS = 5000


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
    numerator = np.sum(qm * vb, axis=-1)
    denominator = np.sum(qm * qm, axis=-1)
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


def optimize_als(q: SensorSet, x: SensorSet, config: AlsConfig | None = None) -> FilterSolution:
    """Run the alternating least-squares sweep until the Vora-Value stalls.

    Raises ``RankDeficient`` (tagged with the iteration index) if the filter
    ever zeroes out a camera channel; returns with ``converged=False`` when
    ``max_iterations`` is reached first.
    """
    config = config or AlsConfig()
    require_same_grid(q.grid, x.grid)
    qc = q.channels
    v = orthonormalize(x)
    vb = v.basis

    # The transform half-step (``basis_score``) also scores its filter: both
    # need G^-1 W, so each sweep costs one 3x3 solve plus one rank check.
    f = config.resolve_initial(q.grid).values
    m, score_prev, full = basis_score(f, qc, vb)
    if not full:
        raise RankDeficient("initial filter leaves the camera rank deficient (iteration 0)")
    score_prev = float(score_prev)
    points = [TracePoint(0, score_prev, _residual(f, qc, m, vb), f)]

    converged = False
    iterations = 0
    for i in range(1, config.max_iterations + 1):
        # m currently holds this sweep's transform (solved for the previous filter).
        f = _filter(qc, m, vb)
        m_next, score, full = basis_score(f, qc, vb)
        if not full:
            raise RankDeficient(f"filter zeroed a camera channel at iteration {i}")
        score = float(score)
        points.append(TracePoint(i, score, _residual(f, qc, m, vb), f))
        iterations = i

        delta = score - score_prev
        if delta < -1e-12:
            raise ConsistencyError(
                f"ALS Vora-Value dropped by {-delta:.3e} at iteration {i}"
            )
        if delta < config.epsilon:
            converged = True
            break
        score_prev = score
        m = m_next

    if converged:
        f = _polish_to_fixed_point(f, qc, vb)
    return finish(f, q, x, v, points, iterations, converged)


def _polish_to_fixed_point(f: np.ndarray, qc: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """Contract a converged iterate to the ALS fixed point with unrecorded sweeps."""
    scale = float(np.max(np.abs(f))) or 1.0
    for _ in range(POLISH_MAX_SWEEPS):
        m, _, full = basis_score(f, qc, vb)
        if not full:
            break
        f_next = _filter(qc, m, vb)
        step = float(np.max(np.abs(f_next - f)))
        f = f_next
        if step < POLISH_STEP_TOL * scale:
            break
    return f


def random_filter(grid: WavelengthGrid, rng: np.random.Generator) -> SpectralCurve:
    """A random starting filter with entries uniform in (0, 1]."""
    return SpectralCurve(grid, 1.0 - rng.random(grid.count))


def _batched_final_scores(
    initial: np.ndarray, qc: np.ndarray, vb: np.ndarray, epsilon: float, max_iterations: int
) -> np.ndarray:
    """Final Vora-Value of an ALS run from each row of ``initial``, in lockstep.

    All starts advance together through the stacked half-steps; a start
    freezes once its per-sweep gain drops below ``epsilon`` and is scored
    -inf if it hits rank deficiency or a beyond-round-off decrease (the
    sequential runner would raise for those; here the start is simply
    discarded).
    """
    f = initial
    m, scores, active = basis_score(f, qc, vb)
    dead = ~active
    scores[dead] = -np.inf

    for _ in range(max_iterations):
        if not np.any(active):
            break
        f = np.where(active[:, None], _filter(qc, m, vb), f)
        m_new, new_scores, full = basis_score(f, qc, vb)
        delta = new_scores - scores
        dropped = active & (~full | (delta < -1e-12))
        dead |= dropped
        active &= ~dropped

        scores = np.where(active, new_scores, scores)
        scores[dead] = -np.inf
        active &= delta >= epsilon
        m = np.where(active[:, None, None], m_new, m)

    return scores


def optimize_als_multistart(
    q: SensorSet,
    x: SensorSet,
    config: AlsConfig | None = None,
    starts: int = 32,
    seed: int = 0,
) -> FilterSolution:
    """Best ALS solution over the configured start plus ``starts - 1`` random ones.

    ALS converges to a fixed point but not necessarily the global optimum, so
    restarting from seeded random filters (entries uniform in (0, 1]) guards
    against bad basins.  All starts are screened in one vectorized sweep and
    the winner is re-run sequentially, so the returned solution is exactly
    what ``optimize_als`` produces from the winning start.
    """
    config = config or AlsConfig()
    require_same_grid(q.grid, x.grid)
    if starts < 1:
        raise ValueError(f"need at least one start, got {starts}")
    rng = np.random.default_rng(seed)
    initial = np.empty((starts, q.grid.count))
    initial[0] = config.resolve_initial(q.grid).values
    for row in range(1, starts):
        initial[row] = random_filter(q.grid, rng).values

    vb = orthonormalize(x).basis
    scores = _batched_final_scores(
        initial, q.channels, vb, config.epsilon, config.max_iterations
    )
    if not np.any(np.isfinite(scores)):
        raise RankDeficient("every start hit rank deficiency before converging")
    winner = int(np.argmax(scores))
    if winner > 0:
        config = replace(config, initial_filter=SpectralCurve(q.grid, initial[winner]))
    return optimize_als(q, x, config)


def _residual(f: np.ndarray, qc: np.ndarray, m: np.ndarray, basis: np.ndarray) -> float:
    deviation = (f[:, None] * qc) @ m - basis
    return float(np.sum(deviation * deviation))
