"""Configuration base, result types and result finisher shared by the ALS and
gradient-ascent solvers.

A solver's history is a ``ConvergenceTrace`` of three columns (Vora-Values,
Luther residuals, and the T x n filter stack) whose row i is iteration i; a
``FilterSolution``'s iteration count is that trace's length less one.  Why a
solver stopped is a ``Stop``, set by the solver where it stops; whether the
solution converged follows from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConsistencyError, RankDeficient
from .spectra import (
    CorrectionMatrix,
    OrthoBasis,
    SensorSet,
    SpectralCurve,
    WavelengthGrid,
    frozen_array,
    require_same_grid,
)
from .vora import VoraScore, basis_score

# A Vora-Value trace may dip by at most this much between iterations before
# we call it a bug rather than round-off.
MONOTONE_SLACK = 1e-12


def require_monotone(iterations: Sequence[int], vora_values: np.ndarray, prefix: str = "") -> None:
    """Raise ``ConsistencyError``, led by ``prefix``, where a Vora-Value falls by over ``MONOTONE_SLACK``."""
    falls = np.flatnonzero(vora_values[1:] < vora_values[:-1] - MONOTONE_SLACK)
    if falls.size:
        k = int(falls[0]) + 1
        raise ConsistencyError(
            f"{prefix}Vora-Value decreased from {float(vora_values[k - 1])!r} to "
            f"{float(vora_values[k])!r} at iteration {iterations[k]}"
        )


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_integer(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule and starting point common to both solvers.

    ``initial_filter`` is an explicit curve or one of the names ``"ones"``
    (neutral filter) and ``"random"`` (a seeded random draw, see
    ``start_stack``).  ``epsilon``, positive and finite, is the minimum
    Vora-Value increase per iteration; the generous defaults make hitting
    ``max_iterations`` a signal, not a nuisance.
    """

    epsilon: float = 1e-9
    max_iterations: int = 10_000
    initial_filter: SpectralCurve | str = "ones"

    def __post_init__(self):
        if isinstance(self.epsilon, bool) or not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        _require_integer("max_iterations", self.max_iterations)
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not isinstance(self.initial_filter, SpectralCurve) and self.initial_filter not in ("ones", "random"):
            raise ValueError(f"unknown initial filter preset {self.initial_filter!r}")

    def start_stack(self, grid: WavelengthGrid, starts: int, seed: int) -> np.ndarray:
        """The solvers' one start rule: a ``starts`` x n stack of starting filters.

        Row 0 is ``initial_filter`` and every later row a random filter,
        1 - U[0, 1) per entry so in (0, 1], all drawn in one call of one
        ``default_rng(seed)``: under ``"random"`` row 0 is its first draw and
        the later rows continue the same stream.
        """
        _require_integer("starts", starts)
        if starts < 1:
            raise ValueError(f"need at least one start, got {starts}")
        if not _is_integer(seed) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        stack = np.ones((starts, grid.count))
        if isinstance(self.initial_filter, SpectralCurve):
            require_same_grid(self.initial_filter.grid, grid)
            stack[0] = self.initial_filter.values
        # numpy fills a (k, n) draw row by row, so row i is the i-th of k draws of n.
        first = 0 if self.initial_filter == "random" else 1
        stack[first:] = 1.0 - np.random.default_rng(seed).random((starts - first, grid.count))
        return stack


def lost_rank(i: int) -> RankDeficient:
    """The error of a start whose filter at iteration ``i`` leaves the camera rank deficient."""
    if i == 0:
        return RankDeficient("initial filter leaves the camera rank deficient (iteration 0)")
    return RankDeficient(f"filter lost a camera channel at iteration {i}")


def every_start_lost_rank(starts: int, first: RankDeficient) -> RankDeficient:
    """The error of a solve whose every start lost rank; ``first`` is start 0's own.

    Both solvers pass over a start that loses rank and raise only when none
    is left.  A single start raises its own error unchanged.
    """
    if starts == 1:
        return first
    return RankDeficient(f"all {starts} starts lost rank; start 0: {first}")


@dataclass(frozen=True)
class ConvergenceTrace:
    """Per-iteration optimizer history as T-row columns; row i is iteration i.

    ``vora_values`` and ``residuals`` hold T floats and ``filters`` is T x n,
    row 0 being the initial filter.  All three are ``frozen_array`` copies, so
    finite, and the Vora-Value column never decreases by more than
    ``MONOTONE_SLACK``.
    """

    vora_values: np.ndarray
    residuals: np.ndarray
    filters: np.ndarray

    def __post_init__(self):
        rows = len(frozen_array(self, "vora_values", (None,), "Vora-Value rows"))
        frozen_array(self, "residuals", (rows,), "residual rows")
        frozen_array(self, "filters", (rows, None), "filter rows")
        if not rows:
            raise ValueError("a convergence trace needs at least the initial point")
        require_monotone(range(rows), self.vora_values)

    def __len__(self) -> int:
        return len(self.vora_values)


class Stop(enum.IntEnum):
    """Why a solve stopped.

    ``CONVERGED``: an iteration gained less than ``epsilon``, or a fixed
    gradient-ascent step overshot after accepted steps.  ``STATIONARY``: no
    line-search trial gave sufficient increase.  ``OVERSHOT``: the first fixed
    step overshot, which has reached nothing.  ``CAPPED``: ``max_iterations``
    came first.  ``RANK_LOSS``: the filter lost a camera channel; no solution
    carries it, but ALS keeps it per start.
    """

    CONVERGED, STATIONARY, OVERSHOT, CAPPED, RANK_LOSS = range(5)


@dataclass(frozen=True)
class Polish:
    """How an ALS fixed-point polish ended: its sweeps and whether it met its step tolerance."""

    iterations: int
    met_tolerance: bool


@dataclass(frozen=True)
class Work:
    """The work a solve did; a count its solver does not keep is ``None``.

    ALS keeps ``row_sweeps`` (sweeps summed over all starts) and
    ``extrapolations`` (accelerated sweeps the winner recorded), and a
    converged ALS run its ``polish``.  Gradient ascent keeps
    ``line_search_trials``: how many trial filters it scored after the start.
    """

    row_sweeps: int | None = None
    extrapolations: int | None = None
    polish: Polish | None = None
    line_search_trials: int | None = None


@dataclass(frozen=True)
class FilterSolution:
    """An optimized filter, its least-squares correction partner, history and work.

    The reported filter is rescaled so its maximum entry is 1, or its largest
    magnitude when no entry is positive (the correction matrix absorbs the
    scale, and the Vora-Value is unchanged).  ``stop`` says why the solver
    stopped, and ``work`` what the solve cost, in its solver's own counts.
    """

    filter: SpectralCurve
    correction: CorrectionMatrix
    score: VoraScore
    trace: ConvergenceTrace
    stop: Stop
    work: Work

    @property
    def iterations(self) -> int:
        """Iterations taken after the start: the trace's rows less one."""
        return len(self.trace) - 1

    @property
    def converged(self) -> bool:
        """Whether the solver stopped at an optimum: on its stopping rule or at a stationary point."""
        return self.stop in (Stop.CONVERGED, Stop.STATIONARY)


def finish(
    f: np.ndarray, q: SensorSet, v: OrthoBasis, trace: ConvergenceTrace, stop: Stop, work: Work
) -> FilterSolution:
    """Package a solver's last filter iterate ``f`` as a ``FilterSolution``.

    ``v`` is the orthonormal observer basis the correction matrix maps onto;
    the reported score is the rescaled filter's ``basis_score`` against it.
    ``work`` is the solver's own ``Work`` record, kept as given.
    """
    peak = float(np.max(f))
    if peak <= 0.0:
        peak = float(np.max(np.abs(f))) or 1.0
    filter_curve = SpectralCurve(q.grid, f / peak)
    m, score, full = basis_score(filter_curve.values, q.channels, v.basis)
    if not full:
        raise RankDeficient("filtered camera is rank deficient (columns are numerically dependent)")
    return FilterSolution(
        filter=filter_curve,
        correction=CorrectionMatrix(m),
        score=VoraScore(score),
        trace=trace,
        stop=stop,
        work=work,
    )
