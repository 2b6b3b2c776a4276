"""Color-measurement evaluation: simulate responses, correct, convert, score.

The harness mirrors the usual filter-evaluation protocol: for every illuminant
in a scene collection, render camera responses and ground-truth XYZ for every
reflectance, fit a linear correction from camera space to XYZ, convert both
sides to CIELAB against the perfect-reflecting-diffuser white point, and pool
the per-pair color differences into summary statistics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidWhitePoint, RankDeficient, ShapeError, SpaceMismatch
from .spectra import (
    CorrectionMatrix,
    SensorSet,
    SpectralCurve,
    WavelengthGrid,
    apply_filter,
    full_rank,
    require_same_grid,
)
from .vora import VoraScore, vora_value


class Space(enum.Enum):
    CAMERA_RGB = "camera_rgb"
    XYZ = "xyz"
    CIELAB = "cielab"


@dataclass(frozen=True)
class ColorTriple:
    """A three-component color in a named space."""

    space: Space
    components: tuple[float, float, float]

    def __post_init__(self):
        components = tuple(float(c) for c in self.components)
        if len(components) != 3 or not all(np.isfinite(c) for c in components):
            raise ValueError(f"color needs 3 finite components, got {self.components!r}")
        object.__setattr__(self, "components", components)

    def as_array(self) -> np.ndarray:
        return np.array(self.components)


@dataclass(frozen=True)
class SceneSet:
    """Illuminant and reflectance collections sharing one wavelength grid."""

    illuminants: tuple[SpectralCurve, ...]
    reflectances: tuple[SpectralCurve, ...]
    grid: WavelengthGrid

    def __post_init__(self):
        illuminants = tuple(self.illuminants)
        reflectances = tuple(self.reflectances)
        if not illuminants or not reflectances:
            raise ValueError("scene set needs at least one illuminant and one reflectance")
        for curve in illuminants + reflectances:
            require_same_grid(curve.grid, self.grid)
        object.__setattr__(self, "illuminants", illuminants)
        object.__setattr__(self, "reflectances", reflectances)

    def illuminant_matrix(self) -> np.ndarray:
        return np.stack([c.values for c in self.illuminants], axis=1)

    def reflectance_matrix(self) -> np.ndarray:
        return np.stack([c.values for c in self.reflectances], axis=1)


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
        return cls(
            mean=float(np.mean(delta_e)),
            median=float(np.percentile(delta_e, 50)),
            p95=float(np.percentile(delta_e, 95)),
            p99=float(np.percentile(delta_e, 99)),
            max=float(np.max(delta_e)),
        )


@dataclass(frozen=True)
class EvaluationReport:
    """Vora-Value plus color-error statistics for one camera/filter/scene combination."""

    vora: VoraScore
    delta_e: DeltaEStats
    pair_count: int
    negative_xyz_count: int
    correction_mode: str
    provenance: tuple[tuple[str, str], ...] = ()


def sensor_response(
    sensors: SensorSet,
    illuminant: SpectralCurve,
    reflectance: SpectralCurve,
    space: Space = Space.CAMERA_RGB,
) -> ColorTriple:
    """Tristimulus response of a sensor set to illuminant times reflectance."""
    require_same_grid(sensors.grid, illuminant.grid, reflectance.grid)
    signal = illuminant.values * reflectance.values
    return ColorTriple(space, tuple(sensors.channels.T @ signal))


def fit_correction(
    camera_responses: list[ColorTriple], xyz_targets: list[ColorTriple]
) -> CorrectionMatrix:
    """Least-squares 3x3 map from camera responses to XYZ targets.

    Needs at least three pairs with a full-rank response matrix.
    """
    if len(camera_responses) != len(xyz_targets):
        raise ShapeError(
            f"{len(camera_responses)} responses vs {len(xyz_targets)} targets"
        )
    responses = np.array([t.components for t in camera_responses])
    targets = np.array([t.components for t in xyz_targets])
    return CorrectionMatrix(_fit_matrix(responses, targets))


def _fit_matrix(responses: np.ndarray, targets: np.ndarray) -> np.ndarray:
    if responses.shape[0] < 3 or not full_rank(responses, responses.T @ responses):
        raise RankDeficient("camera response matrix is rank deficient (need >= 3 independent pairs)")
    solution, _, _, _ = np.linalg.lstsq(responses, targets, rcond=None)
    return solution


# CIE 1976 L*a*b* companding constants: cube root above (6/29)^3, linear below.
_LAB_THRESHOLD = (6.0 / 29.0) ** 3
_LAB_SLOPE = 841.0 / 108.0  # (1/3) (29/6)^2
_LAB_OFFSET = 4.0 / 29.0


def _lab_f(t: np.ndarray) -> np.ndarray:
    # The linear segment extends to negative arguments unchanged, which is the
    # standard signed handling for out-of-gamut corrected values.
    t = np.asarray(t, dtype=float)
    return np.where(t > _LAB_THRESHOLD, np.cbrt(t), _LAB_SLOPE * t + _LAB_OFFSET)


def _lab_from_xyz(xyz: np.ndarray, white: np.ndarray) -> np.ndarray:
    ratios = xyz / white
    fx, fy, fz = _lab_f(ratios[..., 0]), _lab_f(ratios[..., 1]), _lab_f(ratios[..., 2])
    return np.stack([116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)], axis=-1)


def xyz_to_lab(xyz: ColorTriple, white: ColorTriple) -> ColorTriple:
    """CIE 1976 L*a*b* of an XYZ triple relative to a white point."""
    if xyz.space is not Space.XYZ or white.space is not Space.XYZ:
        raise SpaceMismatch("xyz_to_lab needs XYZ inputs")
    white_arr = white.as_array()
    if np.any(white_arr <= 0):
        raise InvalidWhitePoint(f"white point must be strictly positive, got {white.components}")
    return ColorTriple(Space.CIELAB, tuple(_lab_from_xyz(xyz.as_array(), white_arr)))


def delta_e(a: ColorTriple, b: ColorTriple) -> float:
    """Euclidean distance between two CIELAB triples (Delta E*ab, 1976)."""
    if a.space is not Space.CIELAB or b.space is not Space.CIELAB:
        raise SpaceMismatch("delta_e compares CIELAB triples")
    return float(np.linalg.norm(a.as_array() - b.as_array()))


def evaluate(
    camera: SensorSet,
    filter: SpectralCurve | None,
    observer: SensorSet,
    scenes: SceneSet,
    correction_mode: str = "per-illuminant",
    provenance: tuple[tuple[str, str], ...] = (),
) -> EvaluationReport:
    """Color-error statistics of a (possibly filtered) camera over a scene set.

    For each illuminant: render camera responses and ground-truth XYZ for all
    reflectances, fit the correction matrix (per illuminant, or one global fit
    over all pairs when ``correction_mode="global"``), convert both sides to
    CIELAB against that illuminant's perfect-diffuser white point, and pool
    the color differences.  Negative corrected XYZ components pass through the
    linear Lab segment and are tallied in the report.
    """
    if correction_mode not in ("per-illuminant", "global"):
        raise ValueError(f"unknown correction mode {correction_mode!r}")
    require_same_grid(camera.grid, observer.grid, scenes.grid)
    effective = camera if filter is None else apply_filter(filter, camera)

    reflectances = scenes.reflectance_matrix()               # n x m
    per_illuminant: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for illuminant in scenes.illuminants:
        signal = illuminant.values[:, None] * reflectances   # n x m
        responses = signal.T @ effective.channels            # m x 3
        truths = signal.T @ observer.channels                # m x 3
        white = observer.channels.T @ illuminant.values
        if np.any(white <= 0):
            raise InvalidWhitePoint(
                "perfect-diffuser white point has a non-positive component"
            )
        per_illuminant.append((responses, truths, white))

    if correction_mode == "global":
        pooled_responses = np.concatenate([r for r, _, _ in per_illuminant])
        pooled_truths = np.concatenate([t for _, t, _ in per_illuminant])
        global_m = _fit_matrix(pooled_responses, pooled_truths)

    errors = []
    negative = 0
    for responses, truths, white in per_illuminant:
        m = global_m if correction_mode == "global" else _fit_matrix(responses, truths)
        corrected = responses @ m
        negative += int(np.sum(corrected < 0))
        lab_corrected = _lab_from_xyz(corrected, white)
        lab_truth = _lab_from_xyz(truths, white)
        errors.append(np.linalg.norm(lab_corrected - lab_truth, axis=1))

    pooled = np.concatenate(errors)
    return EvaluationReport(
        vora=vora_value(effective, observer),
        delta_e=DeltaEStats.from_samples(pooled),
        pair_count=int(pooled.size),
        negative_xyz_count=negative,
        correction_mode=correction_mode,
        provenance=tuple(provenance),
    )
