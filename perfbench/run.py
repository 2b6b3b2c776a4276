"""Run one benchmark workload against the program in the current checkout.

    python3 perfbench/run.py --workload design-als --seed 1 --seconds 35 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.  One
client in one process drives ``specfilter.cli.main`` in a closed loop, with
BLAS held to one thread.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()
# One client, no extra threads: BLAS must not start a pool of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import random
import resource
import shutil
import statistics

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "op_s_p50": "ref_s",
    "op_s_tail": "ref_s",
    "ops_per_s": "1/ref_s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs ops with their output silenced, times them, and checks their outputs."""

    def __init__(self, cli, sink):
        self.cli = cli
        self.sink = sink
        self.attempted = 0
        self.failures: dict[str, int] = {}

    def run(self, op, main=None) -> tuple[float, bool]:
        """(wall time of the op, whether it passed its check)."""
        main = main or self.cli.main
        shutil.rmtree(op.out, ignore_errors=True)
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            started = time.perf_counter()
            try:
                rc, error = main(op.argv), None
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                rc, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
        self.attempted += 1
        if error is None:
            try:
                error = op.check(rc, op.out)
            except Exception as exc:  # unreadable output fails the op
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures[error] = self.failures.get(error, 0) + 1
        return elapsed, error is None

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


# The tail is taken over this many nominal passes, whatever the number of
# passes the run made, so the input it lands on does not change with the
# host's speed.
TAIL_PASSES = 10
MIN_PASSES = 3

# Op times are reported in reference seconds (unit ``ref_s``): the op's wall
# time divided by the wall time of a fixed reference kernel measured right
# before and right after it, times REFERENCE_SECONDS, the kernel's time on a
# quiet baseline host.  The shared host runs 1.3 to 1.5 times slower for
# minutes at a time; the kernel slows with it, so the ratio keeps to the
# program's own cost.  REFERENCE_SECONDS only fixes the unit and must never
# change, or runs from before and after stop being comparable.
REFERENCE_SECONDS = 0.004


class Reference:
    """A fixed mix of small numpy factorizations and interpreter work, like the ops' own."""

    def __init__(self, repeats: int):
        import numpy as np

        self.np = np
        self.repeats = repeats
        self.matrix = np.random.default_rng(0).standard_normal((120, 120))

    def _once(self) -> float:
        started = time.perf_counter()
        for _ in range(6):
            self.np.linalg.qr(self.matrix)
            [i * i for i in range(3000)]
        return time.perf_counter() - started

    def seconds(self) -> float:
        """Fastest of ``repeats`` runs of the kernel."""
        return min(self._once() for _ in range(self.repeats))


def _passes(ops, seconds, seed, run, min_passes=MIN_PASSES):
    """Runs whole passes over ``ops`` until ``seconds`` have passed, at least ``min_passes``.

    Each pass runs the ops in a new order drawn from ``seed``.  An op's time
    depends on the ops run before it (most likely through the allocator and
    cache state they leave behind), so one fixed order would move every
    input's time from seed to seed.
    """
    rng = random.Random(seed)
    started = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - started < seconds:
        for op in rng.sample(ops, len(ops)):
            run(op)
        passes += 1
    return passes


def _tail(durations):
    """(value, percentile) of the highest percentile with ten samples beyond it.

    ``durations`` holds one time per input, each counted TAIL_PASSES times.  A run of
    fewer than 20 such ops has no percentile above the median with ten samples
    beyond it, so it reports the median.
    """
    ordered = sorted(durations * TAIL_PASSES)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _dir_bytes(path):
    if not os.path.isdir(path):
        return 0
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def _blas_threads():
    """Threads OpenBLAS will use, asked from the loaded library; None if it cannot be found."""
    import ctypes

    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record():
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "specfilter", "cli.py")):
        print(f"perfbench: no program under {src}/specfilter; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from specfilter import cli

    import tracing
    import workloads

    if args.workload not in workloads.SETUP:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.SETUP)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    work_root = os.path.join(root, "perfbench", ".work")
    workdir = os.path.join(work_root, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    with open(os.devnull, "w", encoding="utf-8") as sink:
        runner = Runner(cli, sink)
        try:
            setup_times = []
            for repeat in range(SETUP_REPEATS):
                started = time.perf_counter()
                directory = os.path.join(workdir, f"setup{repeat}")
                os.makedirs(directory)
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    prepared = workloads.SETUP[args.workload](args.seed, directory, root)
                if prepared.warmup is not None:
                    runner.run(prepared.warmup)
                setup_times.append(time.perf_counter() - started)
            if args.trace:
                metrics = _traced(runner, prepared, args, work_root, cli, tracing)
            else:
                metrics = _untraced(runner, prepared, args.seconds, args.seed)
                metrics["setup_s"] = import_s + statistics.median(setup_times)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": machine_record()}))
    for reason, count in sorted(runner.failures.items()):
        print(f"failure x{count}: {reason}")
    units = END_TO_END_UNITS if not args.trace else {m: u for m, u, _ in tracing.LAYER_METRICS}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def _untraced(runner, prepared, seconds, seed):
    """End-to-end metrics over whole passes that fill ``seconds``.

    Each op's time is its wall time in reference seconds, against the
    reference kernel timed just before and just after it.  An input's time is
    the median over its repeats in the run, and every metric is taken over
    these per-input times, one per input, so neither the number of passes nor
    the op order moves it.
    """
    reference = Reference(prepared.reference_repeats)
    ref_s: dict[int, list[float]] = {}
    wall_s: dict[int, list[float]] = {}
    passed: dict[int, bool] = {}
    before = reference.seconds()

    def run(op):
        nonlocal before
        elapsed, ok = runner.run(op)
        after = reference.seconds()
        ref_s.setdefault(id(op), []).append(elapsed * 2 * REFERENCE_SECONDS / (before + after))
        wall_s.setdefault(id(op), []).append(elapsed)
        passed[id(op)] = passed.get(id(op), True) and ok
        before = after

    passes = _passes(prepared.ops, seconds, seed, run)
    durations = [statistics.median(ref_s[id(op)]) for op in prepared.ops]
    completed = sum(passed[id(op)] for op in prepared.ops)
    tail, percentile = _tail(durations)
    wall = statistics.median(statistics.median(wall_s[id(op)]) for op in prepared.ops)
    print(f"ops {passes * len(prepared.ops)} in {passes} passes over {len(durations)} inputs, "
          f"failed_ratio {runner.failed / runner.attempted:.4f}, op_s_tail is p{percentile:.1f} "
          f"of {TAIL_PASSES} nominal passes, median wall time per op {wall:.6f} s")
    return {
        "op_s_p50": statistics.median(durations),
        "op_s_tail": tail,
        "ops_per_s": completed / sum(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced(runner, prepared, args, work_root, cli, tracing):
    """Each op runs twice, untraced and traced, alternating which goes first."""
    tracer = tracing.Tracer()
    traced_main = tracer.wrap(tracing.ROOT_SPAN, cli.main)
    untraced_s, traced_s, per_op = [], [], []

    def run(op):
        index = len(per_op)
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if not traced:
                untraced_s.append(runner.run(op)[0])
                continue
            tracer.install()
            tracer.begin_op(index)
            try:
                traced_s.append(runner.run(op, traced_main)[0])
            finally:
                tracer.uninstall()
            values = tracer.end_op()
            values["cli.bytes_written"] = _dir_bytes(op.out)
            per_op.append(values)

    _passes(prepared.ops, args.seconds, args.seed, run, min_passes=1)
    if tracer.missing:
        print(f"not traced (absent from the program): {', '.join(tracer.missing)}")
    os.makedirs(work_root, exist_ok=True)
    tracer.dump(os.path.join(work_root, f"spans-{args.workload}-s{args.seed}.jsonl"), _START)
    return tracing.summarize(per_op, traced_s, untraced_s)


if __name__ == "__main__":
    sys.exit(main())
