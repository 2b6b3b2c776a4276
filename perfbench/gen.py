"""Seeded synthetic inputs for the benchmark workloads.

Every input the program reads during a run, apart from the repository's
fixture scene set that ``convergence`` evaluates on, is written here as files
in the program's own CSV and manifest formats.  Floats are written with
``repr`` so the program parses exactly the arrays this module keeps in memory
for the reference checker.
"""

from __future__ import annotations

import os

import numpy as np

# The program's working grid: 400-700 nm in 10 nm steps.
GRID = 400.0 + 10.0 * np.arange(31)

# The paper's scene collection size (SFU set: 102 illuminants, 1995
# reflectances), written on a finer 380-780 nm / 4 nm grid so every load has
# to parse a large file and resample it onto GRID.
SCENE_GRID = 380.0 + 4.0 * np.arange(101)
ILLUMINANTS = 102
REFLECTANCES = 1995

# Seed of the fixed camera line used by the design workloads.  Gradient
# ascent's iteration count is chaotic in the camera (a 1 % change of the bump
# parameters moves it between 1.4k and 6.7k iterations), so cameras drawn
# from the run seed would make the per-run median depend on the draw rather
# than on the code.
CAMERA_LINE_SEED = 20242


def bump_camera(rng: np.random.Generator, wavelengths: np.ndarray = GRID) -> np.ndarray:
    """Smooth positive three-channel sensitivities (the test suite's recipe)."""
    centers = rng.uniform([580.0, 520.0, 440.0], [640.0, 570.0, 490.0])
    widths = rng.uniform(25.0, 55.0, size=3)
    amplitudes = rng.uniform(0.7, 1.0, size=3)
    return amplitudes * np.exp(-0.5 * ((wavelengths[:, None] - centers) / widths) ** 2) + 0.01


def camera_line(size: int) -> list[np.ndarray]:
    """The first ``size`` cameras of the fixed line."""
    rng = np.random.default_rng(CAMERA_LINE_SEED)
    return [bump_camera(rng) for _ in range(size)]


def smooth_filter(rng: np.random.Generator) -> np.ndarray:
    """A positive transmittance curve on GRID with maximum exactly 1."""
    center = rng.uniform(450.0, 650.0)
    width = rng.uniform(40.0, 120.0)
    depth = rng.uniform(0.3, 0.8)
    values = 1.0 - depth * np.exp(-0.5 * ((GRID - center) / width) ** 2)
    return values / values.max()


def _planck(wavelengths_nm: np.ndarray, temperature: float) -> np.ndarray:
    lam = wavelengths_nm * 1e-9
    c2 = 1.4387769e-2
    return lam ** -5 / np.expm1(c2 / (lam * temperature))


def illuminant_set(rng: np.random.Generator) -> np.ndarray:
    """SCENE_GRID x ILLUMINANTS smooth positive SPDs: blackbodies with smooth tints."""
    out = np.empty((SCENE_GRID.size, ILLUMINANTS))
    for j in range(ILLUMINANTS):
        spd = _planck(SCENE_GRID, rng.uniform(2500.0, 10000.0))
        tint = 1.0 + 0.3 * np.sin(
            2.0 * np.pi * (SCENE_GRID - 380.0) / rng.uniform(150.0, 500.0) + rng.uniform(0, 2 * np.pi)
        )
        spd = spd * tint
        out[:, j] = spd / spd.max()
    return out


def reflectance_set(rng: np.random.Generator) -> np.ndarray:
    """SCENE_GRID x REFLECTANCES smooth reflectances in (0, 1): a logistic of a cosine series."""
    phase = np.pi * (SCENE_GRID - 380.0) / 400.0
    basis = np.cos(np.outer(phase, np.arange(5)))                      # 101 x 5
    coeffs = rng.normal(0.0, 1.0, size=(5, REFLECTANCES)) * np.array([1.5, 1.2, 0.9, 0.6, 0.4])[:, None]
    return 0.02 + 0.96 / (1.0 + np.exp(-(basis @ coeffs)))


def write_table(path: str, wavelengths: np.ndarray, columns: np.ndarray, names: list[str]) -> None:
    """Write a spectral CSV (wavelength first, one column per spectrum) with round-trip floats."""
    lines = ["wavelength," + ",".join(names)]
    for wl, row in zip(wavelengths.tolist(), columns.tolist()):
        lines.append(repr(wl) + "," + ",".join(map(repr, row)))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_camera(path: str, channels: np.ndarray) -> None:
    write_table(path, GRID, channels, ["r", "g", "b"])


def write_filter(path: str, values: np.ndarray) -> None:
    write_table(path, GRID, values[:, None], ["transmittance"])


def write_scene_set(directory: str, illuminants: np.ndarray, reflectances: np.ndarray,
                    camera_file: str) -> str:
    """Write the illuminant and reflectance tables plus a manifest; returns the manifest path."""
    write_table(os.path.join(directory, "illuminants.csv"), SCENE_GRID, illuminants,
                [f"illum{j:03d}" for j in range(illuminants.shape[1])])
    write_table(os.path.join(directory, "reflectances.csv"), SCENE_GRID, reflectances,
                [f"refl{j:04d}" for j in range(reflectances.shape[1])])
    manifest = os.path.join(directory, "scenes.txt")
    with open(manifest, "w", encoding="utf-8") as handle:
        handle.write(
            f"camera = {camera_file}\ncmf = cie1931\n"
            "illuminants = illuminants.csv\nreflectances = reflectances.csv\n"
        )
    return manifest
