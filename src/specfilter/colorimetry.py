"""Color-measurement evaluation: simulate responses, correct, convert, score.

The harness mirrors the usual filter-evaluation protocol: for every illuminant
in a scene collection, render camera responses and ground-truth XYZ for every
reflectance, correct the responses to their least-squares fit of the XYZ
(per illuminant, or pooled over every illuminant under global correction),
convert both sides to CIELAB against the perfect-reflecting-diffuser white
point, and pool the per-pair color differences into summary statistics.
Both correction modes run one arithmetic, ``_fitted``; they differ only in
which pairs each fit pools.  ``SceneEngine``
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

# Per illuminant, each illuminant's pairs get their own fit; global pools all.
CORRECTION_MODES = ("per-illuminant", "global")


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


def _fitted(responses: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Least-squares fitted values of XYZ ``targets`` on m-by-3 camera responses or a stack of them.

    The fit C = argmin |A C - T| is never formed: its fitted values A C are
    Q Q^T T, from the thin QR A = Q R, which works at the responses' own
    condition number where the normal equations would square it.  A stack
    (..., m, 3) of responses fits each matrix on its own, and ``targets``
    broadcasts against it.  The rank rule of every fit: at least three
    pairs, and every matrix of full rank by ``full_rank`` with G read off
    the factors as R^T R; ``RankDeficient.index`` locates the first matrix
    that is not.
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
    return q @ (np.swapaxes(q, -1, -2) @ targets)


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
    pairs.  A camera's corrected XYZ are the least-squares fitted values
    Q Q^T T from the thin QR of its responses (``_fitted``), so no
    correction matrix is solved for or applied.  The mode sets only the
    shape the truths are held in, and so which pairs one fit pools: L x m x 3
    fits each illuminant on its own, (L*m) x 3 under global correction fits
    every pair at once.
    """

    def __init__(self, observer: SensorSet, scenes: SceneSet, correction_mode: str = "per-illuminant"):
        if correction_mode not in CORRECTION_MODES:
            raise ValueError(f"unknown correction mode {correction_mode!r}, expected one of {CORRECTION_MODES}")
        require_same_grid(observer.grid, scenes.grid)
        self.grid = scenes.grid
        self.correction_mode = correction_mode
        signals = scenes.illuminants[:, :, None] * scenes.reflectances      # L x n x m
        self._signals_t = signals.transpose(0, 2, 1)                         # L x m x n
        truths = self._signals_t @ observer.channels                         # L x m x 3
        self.pair_count = truths.shape[0] * truths.shape[1]
        # Each white point from its own contiguous row: one product over the
        # whole illuminant stack would change the last bits.
        self._whites = np.stack([observer.channels.T @ light for light in scenes.illuminants])[:, None, :]
        self._truth_lab = xyz_to_lab(truths, self._whites)
        self._truths = truths.reshape(-1, 3) if correction_mode == "global" else truths

    def delta_e(self, channels: np.ndarray) -> tuple[np.ndarray, int | np.ndarray]:
        """Pooled per-pair Delta E of an n-by-3 camera and its count of negative corrected XYZ.

        ``channels`` may also be an (F, n, 3) stack of cameras; both results
        then gain a leading F axis, and each camera's results are bit for bit
        those it gets alone.  One batched QR covers every camera (and every
        illuminant in per-illuminant mode); a rank-deficient one raises
        ``RankDeficient`` with ``index[0]`` its position in the stack.  The
        responses are viewed in the truths' shape for the fit, and the
        fitted values back in theirs.
        """
        if channels.ndim not in (2, 3) or channels.shape[-2:] != (self.grid.count, 3):
            raise ShapeError(f"camera must be {self.grid.count}x3 or a stack of them, got {channels.shape}")
        lead = channels.shape[:-2]
        responses = self._signals_t @ channels[..., None, :, :]             # (F x) L x m x 3
        corrected = _fitted(responses.reshape(*lead, *self._truths.shape), self._truths).reshape(responses.shape)
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
    reflectances, correct the responses to their least-squares fitted values
    (per illuminant, or one global fit over all pairs when
    ``correction_mode="global"``), convert both sides to
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
