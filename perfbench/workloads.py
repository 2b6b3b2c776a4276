"""The four benchmark workloads: seeded set-up, the ops of one pass, and their checks.

An op is one ``specfilter.cli.main(argv)`` call.  ``setup`` writes every input
the program reads into ``workdir`` and computes the references the checks
compare against, without using the program's own metric or colorimetry code.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import check
import gen

WHY = {
    "design-als": "ALS multistart screen, re-run and polish are ~90% of the op; gradient and "
                  "colorimetry do no work, so it bypasses the evaluation engine",
    "design-ga": "gradient ascent, its line-search basis_score calls and rank checks dominate; "
                 "1 of 8 cameras stops at the 10k cap and writes 10k-column iteration filters",
    "evaluate-paper": "one filter per 102x1995 scene set on 4 nm files: parse, resample and "
                      "203,490-pair colorimetry share the op, no solver runs",
    "convergence": "trace-compare of a 60-sweep ALS and a 600-iteration GA trace with both "
                   "filter files: hundreds of evaluate calls per op and the per-column resample",
}

# Each op of convergence re-evaluates every recorded iteration of both traces.
# Both runs are capped so the op's size does not depend on the seeded camera:
# uncapped ALS takes 71-174 sweeps on these cameras, gradient ascent thousands.
ALS_TRACE_CAP = 60
GA_TRACE_CAP = 600

# Cameras per pass of the design workloads, few enough that each input is
# repeated many times in a run: an input's time is the median of its
# repeats.  The first 8 cameras of the line include one that stops at the
# 10k gradient-ascent cap.
ALS_CAMERAS = 24
GA_CAMERAS = 8


@dataclass
class Op:
    argv: list[str]
    out: str
    check: Callable[[int, str], str | None]


@dataclass
class Prepared:
    ops: list[Op]           # one pass; the run draws each pass's order from the seed
    warmup: Op | None       # run once, untimed, at the end of set-up
    # Runs of the reference kernel (see run.py) timed after each op, the
    # fastest kept.  Long ops need more: two runs, about 10 ms, sample the
    # host's speed well beside a 40 ms op but poorly beside a 1 s one.
    reference_repeats: int = 2


def observer() -> np.ndarray:
    from specfilter.cie1931 import CIE_1931_2DEG_400_700_10NM

    return CIE_1931_2DEG_400_700_10NM[:, 1:]


def _design(optimizer_args: list[str], cameras: int, workdir: str,
            reference_repeats: int = 2) -> Prepared:
    x = observer()
    out = os.path.join(workdir, "out")
    ops = []
    for k, camera in enumerate(gen.camera_line(cameras)):
        path = os.path.join(workdir, f"camera{k:02d}.csv")
        gen.write_camera(path, camera)
        # Each camera has a fixed seed of its own, part of the camera line: the
        # ALS winner's sweep count is chaotic in the random starts, and starts
        # drawn from the run seed moved the median op 12% from seed to seed.
        argv = ["optimize", "--camera", path, *optimizer_args, "--seed", str(k), "--out", out]
        ops.append(Op(argv, out, partial(check.check_optimize, camera=camera, observer=x)))
    return Prepared(ops, ops[0], reference_repeats)


def setup_design_als(seed: int, workdir: str, root: str) -> Prepared:
    return _design(["--optimizer", "als", "--starts", "32"], ALS_CAMERAS, workdir)


def setup_design_ga(seed: int, workdir: str, root: str) -> Prepared:
    return _design(["--optimizer", "ga"], GA_CAMERAS, workdir, reference_repeats=6)


def setup_evaluate_paper(seed: int, workdir: str, root: str) -> Prepared:
    rng = np.random.default_rng(seed)
    x = observer()
    camera = gen.bump_camera(rng)
    gen.write_camera(os.path.join(workdir, "camera.csv"), camera)
    illuminants = gen.illuminant_set(rng)
    reflectances = gen.reflectance_set(rng)
    manifest = gen.write_scene_set(workdir, illuminants, reflectances, "camera.csv")
    il = np.stack([np.interp(gen.GRID, gen.SCENE_GRID, c) for c in illuminants.T], axis=1)
    rf = np.stack([np.interp(gen.GRID, gen.SCENE_GRID, c) for c in reflectances.T], axis=1)

    out = os.path.join(workdir, "out")
    ops = []
    filters = [None] + [gen.smooth_filter(rng) for _ in range(6)]
    for k, values in enumerate(filters):
        argv = ["evaluate", "--scenes", manifest, "--out", out]
        effective = camera
        if values is not None:
            path = os.path.join(workdir, f"filter{k}.csv")
            gen.write_filter(path, values)
            argv += ["--filter", path]
            effective = values[:, None] * camera
        stats = check.delta_e_stats(check.delta_e(effective, x, il, rf))
        vora = check.vora_value(effective, x)
        ops.append(Op(argv, out, partial(check.check_evaluate, want_stats=stats, want_vora=vora)))
    return Prepared(ops, ops[0])


def _read_manifest(path: str) -> dict[str, str]:
    entries = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, value = line.partition("=")
                entries[key.strip()] = value.strip()
    return entries


def setup_convergence(seed: int, workdir: str, root: str) -> Prepared:
    from specfilter import cli

    rng = np.random.default_rng(seed)
    x = observer()
    camera = gen.bump_camera(rng)
    camera_path = os.path.join(workdir, "camera.csv")
    gen.write_camera(camera_path, camera)
    runs = {}
    for label, cap in (("als", ALS_TRACE_CAP), ("ga", GA_TRACE_CAP)):
        out = os.path.join(workdir, label)
        rc = cli.main(["optimize", "--camera", camera_path, "--optimizer", label,
                       "--max-iters", str(cap), "--out", out])
        reason = check.check_optimize(rc, out, camera, x)
        if reason:
            raise RuntimeError(f"convergence set-up: {label} optimize failed: {reason}")
        _, filters = check.read_table(os.path.join(out, "iteration_filters.csv"))
        runs[label] = (out, filters[:, 1:])

    scenes = os.path.join(root, "fixtures", "scenes.txt")
    manifest = _read_manifest(scenes)
    base = os.path.dirname(scenes)
    il = check.on_grid(os.path.join(base, manifest["illuminants"]))
    rf = check.on_grid(os.path.join(base, manifest["reflectances"]))

    samples = {}
    offset = 0
    for label in ("als", "ga"):
        filters = runs[label][1]
        count = filters.shape[1]
        for j in sorted({0, count // 2, count - 1}):
            effective = filters[:, j][:, None] * camera
            samples[offset + j] = float(np.mean(check.delta_e(effective, x, il, rf)))
        offset += count

    (als_out, _), (ga_out, _) = runs["als"], runs["ga"]
    out = os.path.join(workdir, "out")
    argv = [
        "trace-compare", os.path.join(als_out, "trace.csv"), os.path.join(ga_out, "trace.csv"),
        "--label-a", "als", "--label-b", "ga",
        "--filters-a", os.path.join(als_out, "iteration_filters.csv"),
        "--filters-b", os.path.join(ga_out, "iteration_filters.csv"),
        "--camera", camera_path, "--scenes", scenes, "--out", out,
    ]
    op = Op(argv, out, partial(check.check_trace_compare, rows=offset, samples=samples))
    # The two optimize runs above already warmed the program; an op-sized
    # warm-up would triple the set-up time.
    return Prepared([op], None, reference_repeats=6)


SETUP = {
    "design-als": setup_design_als,
    "design-ga": setup_design_ga,
    "evaluate-paper": setup_evaluate_paper,
    "convergence": setup_convergence,
}
