"""Spectral filter design toolkit.

Solve for the transmissive prefilter that makes a three-channel camera as
colorimetric as possible (maximum Vora-Value against a reference observer),
by alternating least squares or gradient ascent, and evaluate candidate
filters with CIELAB color-error statistics over illuminant/reflectance
collections.
"""

from .als import AlsConfig, optimize_als, optimize_als_multistart, random_filter, solve_f, solve_m
from .colorimetry import (
    DeltaEStats,
    EvaluationReport,
    SceneSet,
    evaluate,
    fit_correction,
    xyz_to_lab,
)
from .errors import (
    ConsistencyError,
    GridMismatch,
    InvalidWhitePoint,
    OutOfRange,
    ParseError,
    RankDeficient,
    ShapeError,
    SpecFilterError,
)
from .gradient import GaConfig, optimize_ga, optimize_ga_multistart, vora_gradient
from .ingest import (
    DatasetManifest,
    SpectralTable,
    builtin_cmf,
    load_cmf,
    load_scene_set,
    load_sensor_set,
    parse_manifest,
    parse_spectral_csv,
    read_manifest,
    read_spectral_csv,
    serialize_spectral_csv,
)
from .solution import ConvergenceTrace, FilterSolution, TracePoint
from .spectra import (
    DEFAULT_GRID,
    CorrectionMatrix,
    OrthoBasis,
    SensorSet,
    SpectralCurve,
    WavelengthGrid,
    apply_filter,
    orthonormalize,
    projector,
    resample,
)
from .vora import VoraScore, luther_residual, residual_identity_check, vora_value

__version__ = "0.1.0"

__all__ = [
    "AlsConfig",
    "ConsistencyError",
    "ConvergenceTrace",
    "CorrectionMatrix",
    "DEFAULT_GRID",
    "DatasetManifest",
    "DeltaEStats",
    "EvaluationReport",
    "FilterSolution",
    "GaConfig",
    "GridMismatch",
    "InvalidWhitePoint",
    "OrthoBasis",
    "OutOfRange",
    "ParseError",
    "RankDeficient",
    "SceneSet",
    "SensorSet",
    "ShapeError",
    "SpecFilterError",
    "SpectralCurve",
    "SpectralTable",
    "TracePoint",
    "VoraScore",
    "WavelengthGrid",
    "apply_filter",
    "builtin_cmf",
    "evaluate",
    "fit_correction",
    "load_cmf",
    "load_scene_set",
    "load_sensor_set",
    "luther_residual",
    "optimize_als",
    "optimize_als_multistart",
    "optimize_ga",
    "optimize_ga_multistart",
    "orthonormalize",
    "parse_manifest",
    "parse_spectral_csv",
    "projector",
    "random_filter",
    "read_manifest",
    "read_spectral_csv",
    "resample",
    "residual_identity_check",
    "serialize_spectral_csv",
    "solve_f",
    "solve_m",
    "vora_gradient",
    "vora_value",
    "xyz_to_lab",
]
