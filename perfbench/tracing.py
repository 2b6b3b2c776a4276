"""Span and counter tracing for the benchmark's traced run.

The program has no tracing of its own, so this module wraps its public
functions from outside: each is patched under the name its caller looks it up
by (``specfilter.cli.evaluate``, ``specfilter.gradient.basis_score`` ...) and
only while a traced op runs.  A span records name, start, end, parent span and
op id; its self time is its duration minus the time covered by its children.
Hot leaf functions (called thousands of times per op) are rolled up into one
record per (op, parent span, name) with call count, total and self time, so
memory and overhead stay bounded.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter


def _after_als(tracer, token, args, kwargs, result):
    tracer.counts["als.sweeps"] += result.iterations


def _after_ga(tracer, token, args, kwargs, result):
    tracer.counts["gradient.iterations"] += result.iterations
    # One basis_score call scores the start; every later one is a line-search trial.
    tracer.counts["gradient.line_search_trials"] += tracer.calls["vora.basis_score"] - token - 1
    tracer.counts["gradient.capped"] += int(not result.converged)


def _before_ga(tracer, args, kwargs):
    return tracer.calls["vora.basis_score"]


def _after_solution(tracer, token, args, kwargs, result):
    tracer.counts["solution.trace_points"] += len(result.trace)


def _after_cli_als(tracer, token, args, kwargs, result):
    _after_als(tracer, token, args, kwargs, result)
    _after_solution(tracer, token, args, kwargs, result)


def _after_cli_ga(tracer, token, args, kwargs, result):
    _after_ga(tracer, token, args, kwargs, result)
    _after_solution(tracer, token, args, kwargs, result)


def _after_parse(tracer, token, args, kwargs, result):
    tracer.counts["ingest.bytes_parsed"] += len(args[0])


def _after_interp(tracer, token, args, kwargs, result):
    columns = args[1]
    tracer.counts["ingest.columns_resampled"] += columns.shape[1]
    # Keep the array referenced so its id cannot be reused within the op.
    tracer.resampled_arrays[id(columns)] = columns


def _after_evaluate(tracer, token, args, kwargs, result):
    tracer.counts["colorimetry.pairs"] += result.pair_count


# (module, attribute, span name, rolled up, before hook, after hook)
PATCHES = [
    ("specfilter.cli", "read_manifest", "ingest.read_manifest", False, None, None),
    ("specfilter.cli", "read_spectral_csv", "ingest.read_spectral_csv", False, None, None),
    ("specfilter.cli", "load_sensor_set", "ingest.load_sensor_set", False, None, None),
    ("specfilter.cli", "load_cmf", "ingest.load_cmf", False, None, None),
    ("specfilter.cli", "load_scene_set", "ingest.load_scene_set", False, None, None),
    ("specfilter.ingest", "parse_spectral_csv", "ingest.parse_spectral_csv", False, None, _after_parse),
    ("specfilter.ingest", "interp_columns", "ingest.interp_columns", True, None, _after_interp),
    ("specfilter.cli", "optimize_als", "als.optimize_als", False, None, _after_cli_als),
    ("specfilter.cli", "optimize_als_multistart", "als.optimize_als_multistart", False, None, _after_solution),
    ("specfilter.als", "optimize_als", "als.optimize_als", False, None, _after_als),
    ("specfilter.cli", "optimize_ga", "gradient.optimize_ga", False, _before_ga, _after_cli_ga),
    ("specfilter.cli", "optimize_ga_multistart", "gradient.optimize_ga_multistart", False, None, _after_solution),
    ("specfilter.gradient", "optimize_ga", "gradient.optimize_ga", False, _before_ga, _after_ga),
    ("specfilter.gradient", "basis_score", "vora.basis_score", True, None, None),
    ("specfilter.als", "vora_value", "vora.vora_value", True, None, None),
    ("specfilter.gradient", "vora_value", "vora.vora_value", True, None, None),
    ("specfilter.colorimetry", "vora_value", "vora.vora_value", True, None, None),
    ("specfilter.als", "rank_ratio", "spectra.rank_ratio", True, None, None),
    ("specfilter.gradient", "rank_ratio", "spectra.rank_ratio", True, None, None),
    ("specfilter.colorimetry", "rank_ratio", "spectra.rank_ratio", True, None, None),
    ("specfilter.spectra", "rank_ratio", "spectra.rank_ratio", True, None, None),
    ("specfilter.cli", "evaluate", "colorimetry.evaluate", False, None, _after_evaluate),
]

ROOT_SPAN = "cli.main"


class Tracer:
    """Collects spans and counters for traced ops; patches only between install and uninstall."""

    def __init__(self):
        self.spans: list[dict] = []
        self.calls: Counter = Counter()     # running call count per span name
        self.counts: Counter = Counter()    # per-op counters set by hooks
        self.resampled_arrays: dict = {}
        self._totals: defaultdict = defaultdict(float)
        self._selfs: defaultdict = defaultdict(float)
        self._op_calls: Counter = Counter()
        self._rollups: dict = {}
        self._stack: list[list] = []        # open frames: [id children point to, child time]
        self._next_id = 0
        self._op = None
        self._patches = []
        self.missing: list[str] = []        # patch points the program no longer has
        for module_name, attr, name, rollup, before, after in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, original, self.wrap(name, original, rollup, before, after)))

    def wrap(self, name, fn, rollup=False, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(tracer, args, kwargs) if before else None
            parent = tracer._stack[-1][0] if tracer._stack else None
            if rollup:
                frame = [parent, 0.0]
            else:
                frame = [tracer._next_id, 0.0]
                tracer._next_id += 1
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer._close(name, frame, parent, start, end, rollup)
            if after:
                after(tracer, token, args, kwargs, result)
            return result

        return wrapper

    def _close(self, name, frame, parent, start, end, rollup):
        duration = end - start
        own = duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self._op_calls[name] += 1
        self._totals[name] += duration
        self._selfs[name] += own
        if rollup:
            record = self._rollups.setdefault((self._op, parent, name), [0, 0.0, 0.0])
            record[0] += 1
            record[1] += duration
            record[2] += own
        else:
            self.spans.append({"id": frame[0], "name": name, "start": start, "end": end,
                               "parent": parent, "op": self._op, "self_s": own})

    def install(self):
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def begin_op(self, op_id):
        self._op = op_id
        self.counts.clear()
        self.resampled_arrays.clear()
        self._totals.clear()
        self._selfs.clear()
        self._op_calls.clear()

    def end_op(self) -> dict[str, float]:
        """Per-layer values of the op just traced."""
        t, s, c, k = self._totals, self._selfs, self._op_calls, self.counts
        values = {
            "als.solve_s": t["als.optimize_als"],
            "als.screen_s": s["als.optimize_als_multistart"],
            "als.sweeps": k["als.sweeps"],
            "gradient.solve_s": t["gradient.optimize_ga"],
            "gradient.iterations": k["gradient.iterations"],
            "gradient.line_search_trials": k["gradient.line_search_trials"],
            "gradient.capped": k["gradient.capped"],
            "spectra.rank_checks": c["spectra.rank_ratio"],
            "spectra.rank_s": t["spectra.rank_ratio"],
            "vora.basis_score_calls": c["vora.basis_score"],
            "vora.s": t["vora.basis_score"] + t["vora.vora_value"],
            "colorimetry.evaluate_calls": c["colorimetry.evaluate"],
            "colorimetry.s": t["colorimetry.evaluate"],
            "colorimetry.pairs": k["colorimetry.pairs"],
            "ingest.parse_s": t["ingest.parse_spectral_csv"],
            "ingest.bytes_parsed": k["ingest.bytes_parsed"],
            "ingest.resample_s": t["ingest.interp_columns"],
            "ingest.columns_resampled": k["ingest.columns_resampled"],
            "ingest.columns_distinct": sum(a.shape[1] for a in self.resampled_arrays.values()),
            "cli.self_s": s[ROOT_SPAN],
            "solution.trace_points": k["solution.trace_points"],
        }
        self.resampled_arrays.clear()
        self._op = None
        return values

    def dump(self, path: str, origin: float) -> None:
        """Write spans and roll-ups as JSON lines, times relative to ``origin``."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = dict(span, start=span["start"] - origin, end=span["end"] - origin)
                handle.write(json.dumps(record) + "\n")
            for (op, parent, name), (calls, total, own) in self._rollups.items():
                handle.write(json.dumps({"rollup": name, "op": op, "parent": parent, "calls": calls,
                                         "total_s": total, "self_s": own}) + "\n")


# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("als.solve_s", "s", "lower"),
    ("als.screen_s", "s", "lower"),
    ("als.sweeps", "count", "lower"),
    ("gradient.solve_s", "s", "lower"),
    ("gradient.iterations", "count", "lower"),
    ("gradient.line_search_trials", "count", "lower"),
    ("gradient.trials_per_iteration", "ratio", "lower"),
    ("gradient.capped", "ratio", "lower"),
    ("spectra.rank_checks", "count", "lower"),
    ("spectra.rank_s", "s", "lower"),
    ("vora.basis_score_calls", "count", "lower"),
    ("vora.s", "s", "lower"),
    ("colorimetry.evaluate_calls", "count", "lower"),
    ("colorimetry.s_per_filter", "s", "lower"),
    ("colorimetry.pairs", "count", "lower"),
    ("ingest.parse_s", "s", "lower"),
    ("ingest.bytes_parsed", "B", "lower"),
    ("ingest.resample_s", "s", "lower"),
    ("ingest.columns_resampled", "count", "lower"),
    ("ingest.columns_used_ratio", "ratio", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("solution.trace_points", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Per-layer metrics: median over traced ops for times, mean for counts, and
# ratios of totals, so a ratio weights every op by its size.
_MEDIAN = ("als.solve_s", "als.screen_s", "gradient.solve_s", "spectra.rank_s", "vora.s",
           "ingest.parse_s", "ingest.resample_s", "cli.self_s")
_MEAN = ("als.sweeps", "gradient.iterations", "gradient.line_search_trials", "gradient.capped",
         "spectra.rank_checks", "vora.basis_score_calls", "colorimetry.evaluate_calls",
         "colorimetry.pairs", "ingest.bytes_parsed", "ingest.columns_resampled",
         "cli.bytes_written", "solution.trace_points")


def _ratio(per_op, numerator, denominator):
    den = sum(v[denominator] for v in per_op)
    return sum(v[numerator] for v in per_op) / den if den else 0.0


def summarize(per_op: list[dict], traced_s: list[float], untraced_s: list[float]) -> dict[str, float]:
    out = {name: statistics.median(v[name] for v in per_op) for name in _MEDIAN}
    out.update({name: statistics.fmean(v[name] for v in per_op) for name in _MEAN})
    out["gradient.trials_per_iteration"] = _ratio(per_op, "gradient.line_search_trials", "gradient.iterations")
    out["colorimetry.s_per_filter"] = _ratio(per_op, "colorimetry.s", "colorimetry.evaluate_calls")
    out["ingest.columns_used_ratio"] = _ratio(per_op, "ingest.columns_distinct", "ingest.columns_resampled")
    out["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s)
    return out
