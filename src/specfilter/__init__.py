"""Spectral filter design toolkit.

Solve for the transmissive prefilter that makes a three-channel camera as
colorimetric as possible (maximum Vora-Value against a reference observer),
by alternating least squares or gradient ascent, and evaluate candidate
filters with CIELAB color-error statistics over illuminant/reflectance
collections.
"""

from .als import AlsConfig, optimize_als
from .colorimetry import (
    DeltaEStats,
    EvaluationReport,
    SceneEngine,
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
from .gradient import GaConfig, optimize_ga
from .ingest import (
    DatasetManifest,
    SpectralTable,
    builtin_cmf,
    load_cmf,
    load_scene_set,
    load_sensor_set,
    load_spectra,
    parse_manifest,
    parse_spectral_csv,
    read_manifest,
    read_spectral_csv,
    serialize_spectral_csv,
)
from .solution import ConvergenceTrace, FilterSolution
from .spectra import (
    DEFAULT_GRID,
    CorrectionMatrix,
    OrthoBasis,
    SensorSet,
    SpectralCurve,
    WavelengthGrid,
    apply_filter,
    orthonormalize,
)
from .vora import VoraScore, vora_value

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
    "SceneEngine",
    "SceneSet",
    "SensorSet",
    "ShapeError",
    "SpecFilterError",
    "SpectralCurve",
    "SpectralTable",
    "VoraScore",
    "WavelengthGrid",
    "apply_filter",
    "builtin_cmf",
    "evaluate",
    "fit_correction",
    "load_cmf",
    "load_scene_set",
    "load_sensor_set",
    "load_spectra",
    "optimize_als",
    "optimize_ga",
    "orthonormalize",
    "parse_manifest",
    "parse_spectral_csv",
    "read_manifest",
    "read_spectral_csv",
    "serialize_spectral_csv",
    "vora_value",
    "xyz_to_lab",
]
