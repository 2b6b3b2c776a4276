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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .als import random_filter
from .errors import RankDeficient
from .solution import FilterSolution, SolverConfig, TracePoint, finish
from .spectra import SensorSet, SpectralCurve, orthonormalize, require_same_grid
from .vora import basis_score

# Line search gives up once the step underflows this; the iterate is then
# numerically stationary.
MIN_STEP = 1e-14


@dataclass(frozen=True)
class GaConfig(SolverConfig):
    """Step rule and stopping rule for gradient ascent.

    ``step_rule="backtracking"`` (default) starts each iteration at
    ``initial_step`` and shrinks by ``shrink`` until the Armijo sufficient-
    increase test with constant ``sufficient_increase`` passes, which makes
    the Vora-Value trace monotone.  ``step_rule="fixed"`` takes ``fixed_step``
    unconditionally and reproduces the slow-convergence behaviour of plain
    ascent.  Stopping mirrors the ALS rule: quit when an iteration improves
    the Vora-Value by less than ``epsilon``.
    """

    step_rule: str = "backtracking"
    initial_step: float = 1.0
    shrink: float = 0.5
    sufficient_increase: float = 1e-4
    fixed_step: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        if self.step_rule not in ("backtracking", "fixed"):
            raise ValueError(f"unknown step rule {self.step_rule!r}")
        if not (self.initial_step > 0 and self.fixed_step > 0 and self.sufficient_increase > 0):
            raise ValueError("step parameters must be positive")
        if not (0.0 < self.shrink < 1.0):
            raise ValueError(f"shrink factor must be in (0, 1), got {self.shrink}")


def _gradient_arrays(f: np.ndarray, qc: np.ndarray, vb: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Gradient of the Vora-Value at filter ``f``, given its full-rank ``basis_score`` transform ``m``."""
    c = (vb - (f[:, None] * qc) @ m) @ m.T
    return (2.0 / 3.0) * np.sum(qc * c, axis=1)


def vora_gradient(f: SpectralCurve, q: SensorSet, x: SensorSet) -> np.ndarray:
    """Partial derivatives of the Vora-Value with respect to each filter entry."""
    require_same_grid(f.grid, q.grid, x.grid)
    vb = orthonormalize(x).basis
    m, _, full = basis_score(f.values, q.channels, vb)
    if not full:
        raise RankDeficient("filtered camera is rank deficient")
    return _gradient_arrays(f.values, q.channels, vb, m)


def optimize_ga(q: SensorSet, x: SensorSet, config: GaConfig | None = None) -> FilterSolution:
    """Maximize the Vora-Value by gradient ascent over the filter entries."""
    config = config or GaConfig()
    require_same_grid(q.grid, x.grid)
    qc = q.channels
    v = orthonormalize(x)
    vb = v.basis

    f = config.resolve_initial(q.grid).values
    m, score, full = basis_score(f, qc, vb)
    if not full:
        raise RankDeficient("initial filter leaves the camera rank deficient (iteration 0)")
    score = float(score)
    points = [TracePoint(0, score, 3.0 - 3.0 * score, f)]

    converged = False
    iterations = 0
    for i in range(1, config.max_iterations + 1):
        grad = _gradient_arrays(f, qc, vb, m)
        grad_norm_sq = float(grad @ grad)

        if config.step_rule == "fixed":
            candidate = f + config.fixed_step * grad
            new_m, new_score, full = basis_score(candidate, qc, vb)
            if not full:
                raise RankDeficient(f"filter lost a camera channel at iteration {i}")
            new_score = float(new_score)
            if new_score < score:
                # Fixed step overshot: keep the better iterate and stop.  An
                # overshoot on the very first step has reached nothing.
                converged = iterations > 0
                break
        else:
            step = config.initial_step
            candidate = None
            while step >= MIN_STEP:
                trial = f + step * grad
                trial_m, trial_score, full = basis_score(trial, qc, vb)
                if full and trial_score >= score + config.sufficient_increase * step * grad_norm_sq:
                    candidate, new_m, new_score = trial, trial_m, float(trial_score)
                    break
                step *= config.shrink
            if candidate is None:
                # No step yields sufficient increase: numerically stationary.
                converged = True
                break

        f, m = candidate, new_m
        iterations = i
        points.append(TracePoint(i, new_score, 3.0 - 3.0 * new_score, f))
        delta = new_score - score
        score = new_score
        if delta < config.epsilon:
            converged = True
            break

    return finish(f, q, x, v, points, iterations, converged)


def optimize_ga_multistart(
    q: SensorSet,
    x: SensorSet,
    config: GaConfig | None = None,
    starts: int = 32,
    seed: int = 0,
) -> FilterSolution:
    """Best gradient-ascent solution over the configured start plus random restarts."""
    config = config or GaConfig()
    if starts < 1:
        raise ValueError(f"need at least one start, got {starts}")
    rng = np.random.default_rng(seed)
    best = optimize_ga(q, x, config)
    for _ in range(starts - 1):
        candidate_config = replace(config, initial_filter=random_filter(q.grid, rng))
        try:
            candidate = optimize_ga(q, x, candidate_config)
        except RankDeficient:
            continue
        if candidate.score > best.score:
            best = candidate
    return best
