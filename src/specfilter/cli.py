"""Command-line front end: optimize filters, evaluate them, compare traces.

Every run is reproducible from its flags: all randomness hangs off ``--seed``
and floats are written with round-trip precision, so identical invocations
produce byte-identical filter and trace files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from collections.abc import Iterator

import numpy as np

from .als import AlsConfig, optimize_als
from .colorimetry import EvaluationReport, SceneEngine, evaluate
from .errors import RankDeficient, SpecFilterError
from .gradient import GaConfig, optimize_ga
from .ingest import (CMF_CHOICES, load_cmf, load_scene_set, load_sensor_set, load_spectra,
                     read_manifest, read_spectral_csv, serialize_spectral_csv)
from .solution import ConvergenceTrace, Stop, require_monotone
from .spectra import SensorSet, SpectralCurve, apply_filter


# The warning of each stop reason that leaves a solution unconverged (exit 2),
# formatted with --max-iters.
UNCONVERGED_WARNINGS = {
    Stop.CAPPED: "did not converge within {} iterations",
    Stop.OVERSHOT: "first fixed step overshot; stopped at iteration 0",
}


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips the float exactly."""
    return repr(float(value))


def _digest(sha, *labels: str):
    """A loader's ``record``: feeds ``sha`` each input the loader hands it as
    label, NUL, data, NUL, labelled in turn by ``labels``."""
    names = iter(labels)

    def record(data: bytes) -> None:
        for part in (next(names).encode("utf-8"), b"\x00", data, b"\x00"):
            sha.update(part)
    return record


def _trace_csv(trace: ConvergenceTrace) -> Iterator[str]:
    yield "iteration,vora_value,residual\n"
    for i, (vora, residual) in enumerate(zip(trace.vora_values.tolist(), trace.residuals.tolist())):
        yield f"{i},{_fmt(vora)},{_fmt(residual)}\n"


def _stats_row(report: EvaluationReport) -> list[str]:
    s = report.delta_e
    return ["vora_value,mean,median,p95,p99,max\n",
            f"{_fmt(report.vora_value)},{_fmt(s.mean)},{_fmt(s.median)},"
            f"{_fmt(s.p95)},{_fmt(s.p99)},{_fmt(s.max)}\n"]


def _stats_table(name: str, report: EvaluationReport) -> list[str]:
    header = f"{'Method':<14}{'Vora-Value':>12}{'mean':>9}{'median':>9}{'95%':>9}{'99%':>9}{'max':>9}"
    s = report.delta_e
    row = (f"{name:<14}{float(report.vora_value):>12.4f}{s.mean:>9.3f}{s.median:>9.3f}"
           f"{s.p95:>9.3f}{s.p99:>9.3f}{s.max:>9.3f}")
    return [header + "\n", "-" * len(header) + "\n", row + "\n"]


def _write_run(out: str, payload: dict, *files) -> None:
    """Make ``out``, write each ``(name, format, *args)`` of ``files`` as
    the lines of ``format(*args)``, then ``report.json`` of ``payload``.

    Each line is written as soon as it is formatted: no two files, and no
    two lines of a table, are held at once.  The small report is strict
    JSON, formatted first: a nan or inf in ``payload`` raises
    ``ValueError`` before ``out`` is made.
    """
    report = (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").splitlines(keepends=True)
    os.makedirs(out, exist_ok=True)
    for name, fmt, *args in (*files, ("report.json", iter, report)):
        with open(os.path.join(out, name), "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(fmt(*args))


def cmd_optimize(args) -> int:
    sha = hashlib.sha256()
    camera = load_sensor_set(args.camera, _digest(sha, "camera"))
    cmf = load_cmf(args.cmf, _digest(sha, "cmf"))

    if args.fixed_step is not None and args.optimizer == "als":
        print(f"warning: --fixed-step {args.fixed_step} is unused; it applies only to --optimizer ga",
              file=sys.stderr)
    started = time.perf_counter()
    stopping = dict(epsilon=args.epsilon, max_iterations=args.max_iters, initial_filter=args.init)
    if args.optimizer == "als":
        config, solve, step_rule = AlsConfig(**stopping), optimize_als, None
    else:
        config, solve = GaConfig(fixed_step=args.fixed_step, **stopping), optimize_ga
        step_rule = "backtracking" if args.fixed_step is None else "fixed"
    solution = solve(camera, cmf, config, starts=args.starts, seed=args.seed)
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    trace = solution.trace
    wavelengths = solution.filter.grid.wavelengths()
    files = (("filter.csv", serialize_spectral_csv, wavelengths, ("transmittance",), solution.filter.values[:, None]),
             ("trace.csv", _trace_csv, trace),
             ("iteration_filters.csv", serialize_spectral_csv,
              wavelengths, (f"iter{i}" for i in range(len(trace))), trace.filters.T))
    payload = {
        "command": "optimize",
        "optimizer": args.optimizer,
        "inputs": {"camera": args.camera, "cmf": args.cmf, "digest": "sha256:" + sha.hexdigest()},
        "config": {
            "epsilon": args.epsilon,
            "max_iterations": args.max_iters,
            "init": args.init,
            "seed": args.seed,
            "starts": args.starts,
            "step_rule": step_rule,
            "fixed_step": args.fixed_step if step_rule == "fixed" else None,
        },
        "camera_channel_peaks": [float(v) for v in camera.channel_peaks()],
        "solution": {
            "vora_value": float(solution.score),
            "initial_vora_value": float(trace.vora_values[0]),
            "iterations": solution.iterations,
            "converged": solution.converged,
            "stop": solution.stop.name.lower(),
            **dataclasses.asdict(solution.work),
            "correction_matrix": [[float(v) for v in row] for row in solution.correction.m],
        },
        "outputs": {name.removesuffix(".csv"): name for name, *_ in files},
        "timing_ms": elapsed_ms,
    }
    _write_run(args.out, payload, *files)

    if not solution.converged:
        print("warning: " + UNCONVERGED_WARNINGS[solution.stop].format(args.max_iters), file=sys.stderr)
        return 2
    print(
        f"{args.optimizer}: vora_value {float(solution.score):.6f} "
        f"after {solution.iterations} iterations -> {args.out}"
    )
    return 0


def _scene_inputs(args, sha):
    """The camera, CMF and scene set of a scoring run, and their ``report.json`` ``inputs``.

    The ``--scenes`` manifest is read first.  Each of ``--camera`` and
    ``--cmf`` falls back to the manifest's key; a camera named by neither is
    an input error.  Camera, CMF, illuminants and reflectances are then
    loaded in that order, each fed to ``sha`` under its name.
    """
    manifest = read_manifest(args.scenes)
    inputs = {"camera": args.camera or manifest.camera, "cmf": args.cmf or manifest.cmf, "scenes": args.scenes,
              "illuminants": manifest.illuminants, "reflectances": manifest.reflectances}
    if inputs["camera"] is None:
        raise SpecFilterError("no camera file given (flag --camera or manifest key 'camera')")
    camera = load_sensor_set(inputs["camera"], _digest(sha, "camera"))
    cmf = load_cmf(inputs["cmf"], _digest(sha, "cmf"))
    scenes = load_scene_set(manifest, _digest(sha, "illuminants", "reflectances"))
    return camera, cmf, scenes, inputs


def cmd_evaluate(args) -> int:
    sha = hashlib.sha256()
    camera, cmf, scenes, inputs = _scene_inputs(args, sha)
    effective = camera
    if args.filter:
        _, columns = load_spectra(args.filter, 1, _digest(sha, "filter"))
        transmittance = SpectralCurve(camera.grid, columns[:, 0])
        try:
            effective = apply_filter(transmittance, camera)
        except RankDeficient as exc:
            raise RankDeficient(f"{args.filter}: {exc}") from None

    started = time.perf_counter()
    report = evaluate(effective, cmf, scenes, correction_mode=args.correction)
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    payload = {
        "command": "evaluate",
        "inputs": {**inputs, "filter": args.filter, "digest": "sha256:" + sha.hexdigest()},
        "camera_channel_peaks": [float(v) for v in camera.channel_peaks()],
        "evaluation": dataclasses.asdict(report),
        "timing_ms": elapsed_ms,
    }
    label = "filtered" if args.filter else "baseline"
    _write_run(args.out, payload,
               ("evaluation.csv", _stats_row, report), ("evaluation.txt", _stats_table, label, report))

    print(*_stats_table(label, report), sep="", end="")
    return 0


def _read_trace(path: str, record) -> list[tuple[int, float]]:
    """(iteration, Vora-Value) rows of a trace CSV, held to ``ConvergenceTrace``'s rules.

    On top of the parser's checks, the header must be exactly
    ``iteration,vora_value,residual`` and the iterations integers.  The
    file's bytes go to ``record``.
    """
    table = read_spectral_csv(path, record)
    if (table.key_name, table.column_names) != ("iteration", ("vora_value", "residual")):
        raise SpecFilterError(f"{path} is not a trace CSV (expected iteration,vora_value,residual)")
    fractional = table.wavelengths[table.wavelengths != np.floor(table.wavelengths)]
    if fractional.size:
        raise SpecFilterError(f"{path}: iteration {float(fractional[0])!r} is not an integer")
    iterations = [int(i) for i in table.wavelengths.tolist()]
    require_monotone(iterations, table.columns[:, 0], prefix=f"{path}: ")
    return list(zip(iterations, table.columns[:, 0].tolist()))


# Illuminant-reflectance pairs scored per SceneEngine.delta_e call: about 113
# filters per block on fixtures/, one at paper scale (102 x 1995 pairs), so
# the per-block (filters, L, m, 3) intermediates stay small on any trace.
PAIR_BUDGET = 4096


def _mean_delta_es(engine: SceneEngine, camera: SensorSet, filters: np.ndarray,
                   names: tuple[str, ...], path: str) -> np.ndarray:
    """Mean per-pair Delta E of the camera behind each filter row, scored in stacked blocks."""
    block = max(1, PAIR_BUDGET // engine.pair_count)
    means = []
    for start in range(0, len(filters), block):
        cameras = filters[start:start + block, :, None] * camera.channels
        try:
            pooled, _ = engine.delta_e(cameras)
        except RankDeficient as exc:
            raise RankDeficient(f"{path} {names[start + exc.index[0]]}: {exc}") from None
        means.append(np.mean(pooled, axis=-1))
    return np.concatenate(means)


def _read_filters(path: str, trace_path: str, rows: list, record) -> tuple[np.ndarray, tuple[str, ...]]:
    """The filters of iteration-filters file ``path`` as rows, and their column names.

    The file must hold one column per row of trace ``trace_path``, in order,
    the column of iteration k named ``iter<k>``.  Its bytes go to ``record``.
    """
    names, columns = load_spectra(path, record=record)
    if len(names) != len(rows):
        raise SpecFilterError(f"{path} has {len(names)} iteration filters but {trace_path} has {len(rows)} trace rows")
    for name, (iteration, _) in zip(names, rows):
        if name != f"iter{iteration}":
            raise SpecFilterError(f"{path} column {name} does not match {trace_path} (expected iter{iteration})")
    return columns.T, names


def cmd_trace_compare(args) -> int:
    # A label is a compare.csv cell: a comma, double quote or line break in
    # it would split the row for a CSV reader, and equal labels would make
    # the two traces' rows indistinguishable.
    for flag, label in (("--label-a", args.label_a), ("--label-b", args.label_b)):
        if "," in label or '"' in label or label.splitlines() != [label]:
            raise SpecFilterError(
                f"{flag} must be non-empty and hold no comma, double quote or line break, got {label!r}")
    if args.label_a == args.label_b:
        raise SpecFilterError(f"--label-a and --label-b must differ, both are {args.label_a!r}")
    scoring = bool(args.filters_a or args.filters_b)
    if scoring and not args.scenes:
        raise SpecFilterError("--filters-a/--filters-b need --scenes")
    sha = hashlib.sha256()
    sides = (("a", args.label_a, args.trace_a, args.filters_a), ("b", args.label_b, args.trace_b, args.filters_b))
    rows = [_read_trace(trace, _digest(sha, f"trace_{side}")) for side, _, trace, _ in sides]
    scene_inputs, filters = {}, [None, None]
    if scoring:
        # Read only to score: without a filters file, inputs the scoring would
        # reject do not fail the run.
        camera, cmf, scenes, scene_inputs = _scene_inputs(args, sha)
        filters = [_read_filters(path, trace, trace_rows, _digest(sha, f"filters_{side}")) if path else None
                   for (side, _, trace, path), trace_rows in zip(sides, rows)]

    started = time.perf_counter()
    engine = SceneEngine(cmf, scenes, args.correction) if scoring else None
    lines = ["iteration,method,vora_value,mean_delta_e\n"]
    for (_, label, _, path), trace_rows, loaded in zip(sides, rows, filters):
        mean_des = [""] * len(trace_rows)
        if loaded:
            mean_des = map(repr, _mean_delta_es(engine, camera, *loaded, path).tolist())
        lines += [f"{iteration},{label},{_fmt(vora)},{mean_de}\n"
                  for (iteration, vora), mean_de in zip(trace_rows, mean_des)]
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    payload = {
        "command": "trace-compare",
        "inputs": {"trace_a": args.trace_a, "trace_b": args.trace_b, "filters_a": args.filters_a,
                   "filters_b": args.filters_b, **scene_inputs, "digest": "sha256:" + sha.hexdigest()},
        "config": {"label_a": args.label_a, "label_b": args.label_b, "correction": args.correction},
        "timing_ms": elapsed_ms,
    }
    _write_run(args.out, payload, ("compare.csv", iter, lines))
    print(f"wrote {os.path.join(args.out, 'compare.csv')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specfilter",
        description="Design and evaluate spectral filters that make a camera more colorimetric.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("optimize", help="solve for the filter maximizing the Vora-Value", allow_abbrev=False)
    opt.add_argument("--camera", required=True, help="camera sensitivities CSV (wavelength,r,g,b)")
    opt.add_argument("--cmf", default="cie1931", help=CMF_CHOICES)
    opt.add_argument("--optimizer", choices=("als", "ga"), default="als")
    opt.add_argument("--epsilon", type=float, default=1e-9, help="minimum Vora-Value gain per iteration")
    opt.add_argument("--max-iters", type=int, default=10_000)
    opt.add_argument("--init", choices=("ones", "random"), default="ones")
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--starts", type=int, default=1, help="starts: --init's filter, then seeded random ones")
    opt.add_argument("--fixed-step", type=float,
                     help="take this fixed step in place of the backtracking line search (ga only)")
    opt.add_argument("--out", default=".", help="output directory")
    opt.set_defaults(func=cmd_optimize)

    ev = sub.add_parser("evaluate", help="color-error statistics over a scene collection", allow_abbrev=False)
    ev.add_argument("--camera", help="camera CSV (falls back to the manifest's camera)")
    ev.add_argument("--filter", help="filter CSV from a prior optimize run")
    ev.add_argument("--cmf", help=CMF_CHOICES + " (falls back to the manifest)")
    ev.add_argument("--scenes", required=True, help="dataset manifest file")
    ev.add_argument("--correction", choices=("per-illuminant", "global"), default="per-illuminant")
    ev.add_argument("--out", default=".", help="output directory")
    ev.set_defaults(func=cmd_evaluate)

    cmp_parser = sub.add_parser("trace-compare", help="merge two convergence traces for plotting",
                                allow_abbrev=False)
    cmp_parser.add_argument("trace_a")
    cmp_parser.add_argument("trace_b")
    cmp_parser.add_argument("--label-a", default="a")
    cmp_parser.add_argument("--label-b", default="b")
    cmp_parser.add_argument("--filters-a", help="iteration_filters.csv for trace A")
    cmp_parser.add_argument("--filters-b", help="iteration_filters.csv for trace B")
    cmp_parser.add_argument("--camera", help="camera CSV (falls back to the manifest's camera)")
    cmp_parser.add_argument("--cmf", help=CMF_CHOICES + " (falls back to the manifest)")
    cmp_parser.add_argument("--scenes", help="dataset manifest for per-iteration mean delta E")
    cmp_parser.add_argument("--correction", choices=("per-illuminant", "global"), default="per-illuminant")
    cmp_parser.add_argument("--out", default=".", help="output directory")
    cmp_parser.set_defaults(func=cmd_trace_compare)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: in-process callers run many ops, and each
    # parse_args call fills a fresh namespace, so no defaults leak between them.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of an unconverged solve here.
        if exc.code != 2:
            raise
        return 1
    try:
        return args.func(args)
    except (SpecFilterError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
