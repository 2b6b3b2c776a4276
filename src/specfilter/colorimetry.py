"""Color-measurement evaluation: simulate responses, correct, convert, score.

The harness mirrors the usual filter-evaluation protocol: for every illuminant
in a scene collection, render camera responses and ground-truth XYZ for every
reflectance, fit a linear correction from camera space to XYZ, convert both
sides to CIELAB against the perfect-reflecting-diffuser white point, and pool
the per-pair color differences into summary statistics.  ``SceneEngine``
holds the filter-independent half (signals, truths, white points, truth Lab)
so that scoring many filters against one scene set renders it once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidWhitePoint, RankDeficient, ShapeError
from .spectra import (
    SensorSet,
    WavelengthGrid,
    frozen_array,
    full_rank,
    require_same_grid,
)
from .vora import VoraScore, vora_value


@dataclass(frozen=True)
class SceneSet:
    """Illuminant and reflectance spectra sampled on one wavelength grid.

    ``illuminants`` is L x n, one illuminant per row; ``reflectances`` is
    n x m, one reflectance per column as a spectral table holds them.  Both
    are ``frozen_array`` copies, whose C order fixes the last bits of
    ``SceneEngine``'s products.
    """

    illuminants: np.ndarray
    reflectances: np.ndarray
    grid: WavelengthGrid

    def __post_init__(self):
        n = self.grid.count
        illuminants = frozen_array(self, "illuminants", (None, n), "illuminants")
        reflectances = frozen_array(self, "reflectances", (n, None), "reflectances")
        if not illuminants.size or not reflectances.size:
            raise ValueError("scene set needs at least one illuminant and one reflectance")


@dataclass(frozen=True)
class DeltaEStats:
    """Summary of a pooled CIELAB color-difference distribution."""

    mean: float
    median: float
    p95: float
    p99: float
    max: float

    def __post_init__(self):
        values = (self.mean, self.median, self.p95, self.p99, self.max)
        if any(v < 0 for v in values):
            raise ValueError("color differences cannot be negative")
        if not (self.median <= self.p95 <= self.p99 <= self.max and self.mean <= self.max):
            raise ValueError(f"inconsistent statistic ordering: {values}")

    @classmethod
    def from_samples(cls, delta_e: np.ndarray) -> "DeltaEStats":
        median, p95, p99 = np.percentile(delta_e, (50, 95, 99))
        low, high = float(np.min(delta_e)), float(np.max(delta_e))
        return cls(
            # Round-off can carry the float mean of a near-constant sample
            # past its extremes; the exact mean lies between them.
            mean=min(max(float(np.mean(delta_e)), low), high),
            median=float(median),
            p95=float(p95),
            p99=float(p99),
            max=high,
        )


@dataclass(frozen=True)
class EvaluationReport:
    """Vora-Value plus color-error statistics of one camera over one scene set."""

    vora_value: VoraScore
    delta_e: DeltaEStats
    pair_count: int
    negative_xyz_count: int
    correction_mode: str


def _checked_qr(responses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factors (Q, R) of m-by-3 camera responses, or of a stack (..., m, 3) of them.

    The rank rule of every least-squares fit: at least three pairs, and
    every matrix of full rank by ``full_rank`` with G read off the factors
    as R^T R; ``RankDeficient.index`` locates the first matrix that is not.
    QR works at the responses' own condition number where the normal
    equations would square it.
    """
    q, r = np.linalg.qr(responses)
    if responses.shape[-2] < 3:
        full = np.zeros(responses.shape[:-2], dtype=bool)
    else:
        # A C-ordered copy of R^T multiplies in under half the time of the view.
        full = full_rank(responses, np.ascontiguousarray(np.swapaxes(r, -1, -2)) @ r)
    if not np.all(full):
        raise RankDeficient(
            "camera response matrix is rank deficient (need >= 3 independent pairs)",
            index=tuple(int(i) for i in np.argwhere(~full)[0]),
        )
    return q, r


def fit_correction(responses: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Least-squares 3x3 map from m-by-3 camera responses to m-by-3 XYZ targets.

    ``responses`` is one m-by-3 matrix or a stack (..., m, 3) of them;
    ``targets`` broadcasts against it and the result gains the same leading
    axes.  Each fit is the thin QR solve C = R^-1 Q^T T, under the rank rule
    of ``_checked_qr``.  ``SceneEngine`` applies it under global correction;
    per illuminant it takes the fitted values Q Q^T T without forming C.
    """
    m = responses.shape[-2]
    if m != targets.shape[-2]:
        raise ShapeError(f"{m} responses vs {targets.shape[-2]} targets")
    q, r = _checked_qr(responses)
    return np.linalg.solve(r, np.swapaxes(q, -1, -2) @ targets)


# CIE 1976 L*a*b* companding constants: cube root above (6/29)^3, linear below.
_LAB_THRESHOLD = (6.0 / 29.0) ** 3
_LAB_SLOPE = 841.0 / 108.0  # (1/3) (29/6)^2
_LAB_OFFSET = 4.0 / 29.0


def _lab_f(t: np.ndarray) -> np.ndarray:
    """CIE Lab companding f(t) of an array: the cube root above (6/29)^3, linear at and below it.

    The cube root is taken once over the whole array and the linear segment
    only where it applies, which gives the bits of ``np.where`` over both
    branches.  The linear segment extends to negative arguments unchanged,
    the standard signed handling for out-of-gamut corrected values.
    """
    t = np.asarray(t, dtype=float)
    f = np.cbrt(t, out=np.empty_like(t))
    linear = t <= _LAB_THRESHOLD
    f[linear] = _LAB_SLOPE * t[linear] + _LAB_OFFSET
    return f


def xyz_to_lab(xyz: np.ndarray, white: np.ndarray) -> np.ndarray:
    """CIE 1976 L*a*b* of XYZ rows (last axis of length 3) relative to a white point."""
    if np.any(white <= 0):
        raise InvalidWhitePoint("perfect-diffuser white point has a non-positive component")
    fx, fy, fz = np.moveaxis(_lab_f(xyz / white), -1, 0)
    return np.stack([116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)], axis=-1)


class SceneEngine:
    """The filter-independent half of an evaluation, computed once per scene set.

    Construction renders the L x n x m signal stack (each illuminant times
    every reflectance), the ground-truth XYZ and its Lab, and each
    illuminant's perfect-diffuser white point, which must be positive.
    ``delta_e`` then scores one camera, or a stack of them, against it; the
    stack costs L*n*m floats of memory and each camera ``pair_count`` = L*m
    pairs.  Per illuminant, a camera's corrected XYZ are the least-squares
    fitted values Q Q^T T from the thin QR of its responses, so no
    correction matrix is solved for or applied; under global correction
    they are its responses times the one pooled ``fit_correction``.
    """

    def __init__(self, observer: SensorSet, scenes: SceneSet, correction_mode: str = "per-illuminant"):
        if correction_mode not in ("per-illuminant", "global"):
            raise ValueError(f"unknown correction mode {correction_mode!r}")
        require_same_grid(observer.grid, scenes.grid)
        self.grid = scenes.grid
        self.correction_mode = correction_mode
        signals = scenes.illuminants[:, :, None] * scenes.reflectances      # L x n x m
        self._signals_t = signals.transpose(0, 2, 1)                         # L x m x n
        self._truths = self._signals_t @ observer.channels                   # L x m x 3
        self.pair_count = self._truths.shape[0] * self._truths.shape[1]
        # Each white point from its own contiguous row: one product over the
        # whole illuminant stack would change the last bits.
        self._whites = np.stack([observer.channels.T @ light for light in scenes.illuminants])[:, None, :]
        self._truth_lab = xyz_to_lab(self._truths, self._whites)

    def delta_e(self, channels: np.ndarray) -> tuple[np.ndarray, int | np.ndarray]:
        """Pooled per-pair Delta E of an n-by-3 camera and its count of negative corrected XYZ.

        ``channels`` may also be an (F, n, 3) stack of cameras; both results
        then gain a leading F axis, and each camera's results are bit for bit
        those it gets alone.  One batched QR covers every camera (and every
        illuminant in per-illuminant mode); a rank-deficient one raises
        ``RankDeficient`` with ``index[0]`` its position in the stack.
        """
        if channels.ndim not in (2, 3) or channels.shape[-2:] != (self.grid.count, 3):
            raise ShapeError(f"camera must be {self.grid.count}x3 or a stack of them, got {channels.shape}")
        lead = channels.shape[:-2]
        responses = self._signals_t @ channels[..., None, :, :]             # (F x) L x m x 3
        if self.correction_mode == "global":
            fit = fit_correction(responses.reshape(*lead, -1, 3), self._truths.reshape(-1, 3))
            corrected = responses @ fit[..., None, :, :]
        else:
            q, _ = _checked_qr(responses)
            corrected = q @ (np.swapaxes(q, -1, -2) @ self._truths)
        d0, d1, d2 = np.moveaxis(xyz_to_lab(corrected, self._whites) - self._truth_lab, -1, 0)
        errors = np.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
        negative = np.sum(corrected < 0, axis=(-3, -2, -1))
        return errors.reshape(*lead, -1), negative if lead else int(negative)


def evaluate(
    camera: SensorSet,
    observer: SensorSet,
    scenes: SceneSet,
    correction_mode: str = "per-illuminant",
) -> EvaluationReport:
    """Color-error statistics of a camera over a scene set.

    For each illuminant: render camera responses and ground-truth XYZ for all
    reflectances, fit the correction matrix (per illuminant, or one global fit
    over all pairs when ``correction_mode="global"``), convert both sides to
    CIELAB against that illuminant's perfect-diffuser white point, and pool
    the color differences.  A bad white point is reported before any
    correction fit can fail.  Negative corrected XYZ components pass through
    the linear Lab segment and are tallied in the report.  Scoring many
    cameras against one scene set is cheaper through one ``SceneEngine``.
    """
    require_same_grid(camera.grid, observer.grid, scenes.grid)
    pooled, negative = SceneEngine(observer, scenes, correction_mode).delta_e(camera.channels)
    return EvaluationReport(
        vora_value=vora_value(camera, observer),
        delta_e=DeltaEStats.from_samples(pooled),
        pair_count=int(pooled.size),
        negative_xyz_count=negative,
        correction_mode=correction_mode,
    )
