"""Independent reference and output checks for the benchmark.

Nothing here imports the program's metric or colorimetry code: the Vora-Value
is recomputed from thin QR factors, and CIELAB colour differences from a
separate implementation of the per-illuminant protocol.  Each ``check_*``
returns ``None`` for a correct op and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import os

import numpy as np

from gen import GRID

# Agreement required between the program's numbers and the references.
VORA_TOL = 1e-9
STATS_RTOL = 1e-9
MONOTONE_SLACK = 1e-12
PAIR_COUNT = 102 * 1995


def read_table(path: str) -> tuple[list[str], np.ndarray]:
    """(header cells, numeric block) of a CSV with one header row; '#' lines skipped."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [ln.strip() for ln in handle if ln.strip() and not ln.lstrip().startswith("#")]
    header = lines[0].split(",")
    block = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]], dtype=float)
    return header, block


def on_grid(path: str) -> np.ndarray:
    """Data columns of a spectral CSV, linearly interpolated onto GRID."""
    _, block = read_table(path)
    wl = block[:, 0]
    return np.stack([np.interp(GRID, wl, block[:, j]) for j in range(1, block.shape[1])], axis=1)


def vora_value(a: np.ndarray, x: np.ndarray) -> float:
    """(1/3) trace(P_A P_X) as the squared Frobenius norm of Qa^T Qx over 3."""
    qa, _ = np.linalg.qr(a)
    qx, _ = np.linalg.qr(x)
    return float(np.sum((qa.T @ qx) ** 2) / 3.0)


def _lab(xyz: np.ndarray, white: np.ndarray) -> np.ndarray:
    t = xyz / white
    threshold = (6.0 / 29.0) ** 3
    f = np.where(t > threshold, np.cbrt(t), t / (3.0 * (6.0 / 29.0) ** 2) + 4.0 / 29.0)
    return np.stack([116.0 * f[:, 1] - 16.0, 500.0 * (f[:, 0] - f[:, 1]), 200.0 * (f[:, 1] - f[:, 2])], axis=1)


def delta_e(camera: np.ndarray, observer: np.ndarray, illuminants: np.ndarray,
            reflectances: np.ndarray) -> np.ndarray:
    """Pooled Delta E*ab with one least-squares camera-to-XYZ fit per illuminant."""
    out = []
    for j in range(illuminants.shape[1]):
        signal = reflectances * illuminants[:, j:j + 1]
        rgb = signal.T @ camera
        xyz = signal.T @ observer
        fit, *_ = np.linalg.lstsq(rgb, xyz, rcond=None)
        white = observer.T @ illuminants[:, j]
        out.append(np.linalg.norm(_lab(rgb @ fit, white) - _lab(xyz, white), axis=1))
    return np.concatenate(out)


def delta_e_stats(samples: np.ndarray) -> dict[str, float]:
    return {
        "mean": float(np.mean(samples)),
        "median": float(np.percentile(samples, 50)),
        "p95": float(np.percentile(samples, 95)),
        "p99": float(np.percentile(samples, 99)),
        "max": float(np.max(samples)),
    }


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1e-300)


def _load_report(out: str) -> dict:
    with open(os.path.join(out, "report.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _missing(out: str, names: tuple[str, ...]) -> str | None:
    for name in names:
        if not os.path.isfile(os.path.join(out, name)):
            return f"missing output {name}"
    return None


def check_optimize(rc: int, out: str, camera: np.ndarray, observer: np.ndarray) -> str | None:
    """Exit code agrees with ``converged``; filter peak is 1; Vora-Value and trace hold up."""
    if rc not in (0, 2):
        return f"exit code {rc}"
    reason = _missing(out, ("filter.csv", "trace.csv", "iteration_filters.csv", "report.json"))
    if reason:
        return reason
    solution = _load_report(out)["solution"]
    if solution["converged"] != (rc == 0):
        return f"exit code {rc} disagrees with converged={solution['converged']}"
    _, filt = read_table(os.path.join(out, "filter.csv"))
    if filt.shape != (GRID.size, 2) or not np.array_equal(filt[:, 0], GRID):
        return f"filter.csv has shape {filt.shape} or the wrong grid"
    f = filt[:, 1]
    if abs(float(np.max(f)) - 1.0) > 1e-12:
        return f"filter maximum is {float(np.max(f))!r}, not 1"
    score = vora_value(f[:, None] * camera, observer)
    if abs(score - solution["vora_value"]) > VORA_TOL:
        return f"Vora-Value {solution['vora_value']!r} vs reference {score!r}"
    _, trace = read_table(os.path.join(out, "trace.csv"))
    if trace.shape[0] != solution["iterations"] + 1:
        return f"trace.csv has {trace.shape[0]} rows for {solution['iterations']} iterations"
    if np.any(np.diff(trace[:, 1]) < -MONOTONE_SLACK):
        return "trace.csv Vora-Value decreases"
    return None


def check_evaluate(rc: int, out: str, want_stats: dict[str, float], want_vora: float) -> str | None:
    """Delta E statistics and Vora-Value match the reference; every pair was scored."""
    if rc != 0:
        return f"exit code {rc}"
    reason = _missing(out, ("evaluation.csv", "evaluation.txt", "report.json"))
    if reason:
        return reason
    evaluation = _load_report(out)["evaluation"]
    if evaluation["pair_count"] != PAIR_COUNT:
        return f"pair_count {evaluation['pair_count']} != {PAIR_COUNT}"
    for key, want in want_stats.items():
        if not _close(evaluation["delta_e"][key], want, STATS_RTOL):
            return f"delta_e {key} {evaluation['delta_e'][key]!r} vs reference {want!r}"
    if abs(evaluation["vora_value"] - want_vora) > VORA_TOL:
        return f"Vora-Value {evaluation['vora_value']!r} vs reference {want_vora!r}"
    return None


def check_trace_compare(rc: int, out: str, rows: int, samples: dict[int, float]) -> str | None:
    """Every row of both traces is present with a mean Delta E; sampled rows match the reference.

    ``samples`` maps a 0-based data-row index of compare.csv to its reference mean Delta E.
    """
    if rc != 0:
        return f"exit code {rc}"
    reason = _missing(out, ("compare.csv",))
    if reason:
        return reason
    with open(os.path.join(out, "compare.csv"), "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if lines[:1] != ["iteration,method,vora_value,mean_delta_e"]:
        return "compare.csv header is wrong"
    data = [ln.split(",") for ln in lines[1:]]
    if len(data) != rows:
        return f"compare.csv has {len(data)} rows, expected {rows}"
    if any(len(cells) != 4 or not cells[3] for cells in data):
        return "compare.csv has a row without a mean Delta E"
    for index, want in samples.items():
        got = float(data[index][3])
        if not _close(got, want, STATS_RTOL):
            return f"compare.csv row {index} mean Delta E {got!r} vs reference {want!r}"
    return None
