import os

import numpy as np
import pytest

from specfilter.gradient import _gradient_arrays
from specfilter.spectra import DEFAULT_GRID, SensorSet, SpectralCurve, WavelengthGrid
from specfilter.vora import basis_score

TOY_GRID = WavelengthGrid(400.0, 10.0, 4)

_TOY_BASE = np.array(
    [
        [1.0, 0.15, 0.05],
        [0.3, 1.0, 0.2],
        [0.1, 0.4, 1.0],
        [0.05, 0.1, 0.5],
    ]
)


def toy_observer_matrix(rng: np.random.Generator) -> np.ndarray:
    """Random well-conditioned positive 4x3 sensor matrix."""
    return _TOY_BASE * rng.uniform(0.6, 1.4, size=(4, 3)) + rng.uniform(0.0, 0.08, size=(4, 3))


def solvable_toy_pair(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(camera, observer) 4x3 pair whose optimal filter attains Vora-Value 1.

    The camera is a per-row rescaling of a mixed observer, so diag(f*) Q
    spans the observer exactly for a known interior positive f*.  Rejection
    keeps the unfiltered camera meaningfully sub-colorimetric (vora <= 0.99)
    so convergence races between optimizers are non-trivial.
    """
    while True:
        xm = toy_observer_matrix(rng)
        f_star = rng.uniform(0.35, 1.2, size=4)
        if f_star.max() / f_star.min() < 2.0:
            continue
        mix = np.eye(3) + rng.uniform(-0.25, 0.25, size=(3, 3))
        qm = (xm @ mix) / f_star[:, None]
        vx, _ = np.linalg.qr(xm)
        if basis_score(np.ones(4), qm, vx)[1] <= 0.99:
            return qm, xm


def random_filter(grid: WavelengthGrid, rng: np.random.Generator) -> SpectralCurve:
    """A random filter with entries uniform in (0, 1]: one row of ``SolverConfig.start_stack``'s draw."""
    return SpectralCurve(grid, 1.0 - rng.random(grid.count))


def ga_gradient(f: np.ndarray, qc: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """The Vora-Value gradient gradient ascent takes at a full-rank filter ``f``."""
    return _gradient_arrays(f[:, None] * qc, qc, vb, basis_score(f, qc, vb)[0])


def bump_camera_matrix(rng: np.random.Generator, grid: WavelengthGrid = DEFAULT_GRID) -> np.ndarray:
    """Smooth positive three-channel sensitivities with randomized bands.

    Gaussian bumps with a small broadband floor: realistic conditioning, so
    the toolkit's tight floating-point contracts (monotone traces, 1e-12
    slacks) are exercised as intended.
    """
    wl = grid.wavelengths()
    centers = rng.uniform([580.0, 520.0, 440.0], [640.0, 570.0, 490.0])
    widths = rng.uniform(25.0, 55.0, size=3)
    amplitudes = rng.uniform(0.7, 1.0, size=3)
    channels = amplitudes * np.exp(-0.5 * ((wl[:, None] - centers) / widths) ** 2) + 0.01
    return channels


@pytest.fixture
def rng():
    return np.random.default_rng(20240)


@pytest.fixture
def bump_camera(rng):
    return SensorSet(DEFAULT_GRID, bump_camera_matrix(rng))


def dataset_dir() -> str:
    """Directory holding the user-supplied measured datasets, if any."""
    return os.environ.get("SPECFILTER_DATA", os.path.join(os.path.dirname(__file__), "..", "data"))


def dataset_path(name: str) -> str:
    return os.path.join(dataset_dir(), name)


def require_dataset(*names: str) -> list[str]:
    """Paths to named dataset files, skipping the test when any is missing."""
    paths = [dataset_path(name) for name in names]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        pytest.skip(
            "SKIP: measured dataset not present "
            f"({', '.join(os.path.basename(p) for p in missing)} not found under {dataset_dir()}); "
            "see README for how to supply it"
        )
    return paths
