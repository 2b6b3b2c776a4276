"""Gradient-ascent Vora-Value optimizer, the comparison baseline for ALS.

The objective is nu(f) = (1/3) trace(P{diag(f) Q} P{X}) as a function of the
per-wavelength filter entries.  The gradient follows from the differential of
an orthogonal projector: with A = diag(f) Q, G = A^T A, W = A^T V and
S = G^-1 W (V an orthonormal basis of the observer),

    dnu/df_i = (2/3) * sum_j Q_ij C_ij,   C = (V - A S) S^T,

which is the projector-differential contraction rearranged so no n-by-n
matrix is ever formed.  The derivation is self-certified: the test suite
requires agreement with central finite differences before the gradient is
trusted.

Each iteration runs one trial loop over a step schedule: the backtracking
line search's halving steps, or a fixed step as a one-trial schedule with
Armijo constant 0, which accepts any trial that does not lower the
Vora-Value.  The run's ``Stop`` is set where the loop ends: ``CONVERGED`` on
the ``epsilon`` rule, ``STATIONARY`` when no backtracking trial is accepted,
``OVERSHOT`` when the first fixed step lowers the Vora-Value (a later
overshoot ends the run as ``CONVERGED``), and ``CAPPED`` at
``max_iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient
from .solution import (ConvergenceTrace, FilterSolution, SolverConfig, Stop, Work, every_start_lost_rank,
                       finish, lost_rank)
from .spectra import OrthoBasis, SensorSet, orthonormalize, require_same_grid
from .vora import basis_score

# Backtracking line search: each iteration tries INITIAL_STEP first and
# multiplies the step by SHRINK until the Armijo test with constant
# SUFFICIENT_INCREASE passes.  It gives up once the step underflows MIN_STEP;
# the iterate is then numerically stationary.  The schedule is built on each
# run from these names, so a patched value takes effect.
INITIAL_STEP = 1.0
SHRINK = 0.5
SUFFICIENT_INCREASE = 1e-4
MIN_STEP = 1e-14


@dataclass(frozen=True)
class GaConfig(SolverConfig):
    """Step rule and stopping rule for gradient ascent.

    By default each iteration starts at ``INITIAL_STEP`` and shrinks by
    ``SHRINK`` until the Armijo sufficient-increase test with constant
    ``SUFFICIENT_INCREASE`` passes, which makes the Vora-Value trace
    monotone.  A given ``fixed_step`` is the only trial instead, taken
    unless it lowers the Vora-Value, and reproduces the slow-convergence
    behaviour of plain ascent.  Stopping mirrors the ALS rule: quit when an
    iteration improves the Vora-Value by less than ``epsilon``.
    """

    fixed_step: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.fixed_step is not None and (isinstance(self.fixed_step, bool) or not 0 < self.fixed_step < np.inf):
            raise ValueError(f"fixed_step must be positive and finite, got {self.fixed_step!r}")


def _gradient_arrays(fq: np.ndarray, qc: np.ndarray, vb: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Gradient of the Vora-Value at the filtered camera ``fq`` = diag(f) Q, given its full-rank
    ``basis_score`` transform ``m``."""
    c = (vb - fq @ m) @ m.T
    return (2.0 / 3.0) * np.add.reduce(qc * c, axis=1)


def optimize_ga(
    q: SensorSet, x: SensorSet, config: GaConfig | None = None, starts: int = 1, seed: int = 0
) -> FilterSolution:
    """Maximize the Vora-Value by gradient ascent from each of ``config.start_stack``'s starts.

    The starts run one after another; the first highest-scoring solution
    wins.  A start that loses rank is passed over, and ``RankDeficient``
    (tagged with the iteration index) is raised only when every start does.
    """
    config = config or GaConfig()
    require_same_grid(q.grid, x.grid)
    initial = config.start_stack(q.grid, starts, seed)
    v = orthonormalize(x)
    best, first_loss = None, None
    # A huge fixed step overflows its trial's scoring; that trial then fails
    # the rank or Armijo test like any other, so numpy's warning adds nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for f in initial:
            try:
                candidate = _ascend(f, q, v, config)
            except RankDeficient as exc:
                first_loss = first_loss or exc
                continue
            if best is None or candidate.score > best.score:
                best = candidate
    if best is None:
        raise every_start_lost_rank(starts, first_loss)
    return best


def _ascend(f: np.ndarray, q: SensorSet, v: OrthoBasis, config: GaConfig) -> FilterSolution:
    """One gradient-ascent run from filter ``f`` against the orthonormal observer basis ``v``.

    Each iteration takes the first trial of the step schedule that keeps the
    camera at full rank and passes the Armijo test.
    """
    qc, vb = q.channels, v.basis
    fq = f[:, None] * qc
    m, score, full = basis_score(f, qc, vb, fq)
    if not full:
        raise lost_rank(0)
    score = float(score)
    scores, filters = [score], [f]
    if config.fixed_step is None:
        steps, step, armijo = [], INITIAL_STEP, SUFFICIENT_INCREASE
        while step >= MIN_STEP:
            steps.append(step)
            step *= SHRINK
    else:
        steps, armijo = (config.fixed_step,), 0.0

    stop, trials = Stop.CAPPED, 0
    for i in range(1, config.max_iterations + 1):
        grad = _gradient_arrays(fq, qc, vb, m)
        grad_norm_sq = float(grad @ grad)
        for step in steps:
            trial = f + step * grad
            trial_fq = trial[:, None] * qc
            new_m, new_score, full = basis_score(trial, qc, vb, trial_fq)
            trials += 1
            if full and new_score >= score + armijo * step * grad_norm_sq:
                break
        else:
            if config.fixed_step is None:
                # No step yields sufficient increase: numerically stationary.
                stop = Stop.STATIONARY
            elif not full:
                raise lost_rank(i)
            else:
                # Fixed step overshot: keep the better iterate and stop.  An
                # overshoot on the very first step has reached nothing.
                stop = Stop.OVERSHOT if i == 1 else Stop.CONVERGED
            break

        f, fq, m, new_score = trial, trial_fq, new_m, float(new_score)
        scores.append(new_score)
        filters.append(f)
        delta = new_score - score
        score = new_score
        if delta < config.epsilon:
            stop = Stop.CONVERGED
            break

    scores = np.array(scores)
    trace = ConvergenceTrace(scores, 3.0 - 3.0 * scores, filters)
    return finish(f, q, v, trace, stop, Work(line_search_trials=trials))
