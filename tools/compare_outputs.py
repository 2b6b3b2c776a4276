"""List every output that differs between two source trees, run for run.

Run from the repository root: ``python tools/compare_outputs.py PARENT_SRC CHANGE_SRC``,
where each argument is a tree's ``src`` directory (the one holding
``specfilter/``).  Each tree runs the same eight commands on ``fixtures/``
in a temporary directory of its own, with its ``src`` on ``PYTHONPATH``:
``optimize`` (ALS with 4 starts, GA capped at 600 iterations, and GA to
convergence, whose ``iteration_filters.csv`` is 2,385 columns wide),
``evaluate`` (plain, and with the ALS filter under global correction) and
``trace-compare`` of the ALS and capped GA traces (unscored, with both filters
files, and with the GA's only under global correction).

Every file a run writes is compared byte for byte, and so are its stdout,
stderr and exit code, after each tree's temporary directory is replaced by
``<run>``.  ``report.json`` is compared as JSON less ``timing_ms``, the one
key that differs between identical runs.  The result is a Markdown list of
what differs, for a CI job summary.  A CSV or ``report.json`` that differs
only in its numbers is given with the count of numbers that differ and the
largest relative difference among them, so a change that moves values in
their last bits reads as such.  It uses only the standard library and
exits 0 whether or not outputs differ, since a change may move them on
purpose; it exits 2 on a usage error.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# Each run's name (its output directory under the tree's temporary
# directory) and specfilter arguments; "{run}" is that temporary directory.
# Later runs read the files of the first two.
RUNS = {
    "als": ["optimize", "--camera", "{fixtures}/synthetic_camera.csv", "--optimizer", "als",
            "--starts", "4", "--seed", "2"],
    "ga": ["optimize", "--camera", "{fixtures}/synthetic_camera.csv", "--optimizer", "ga", "--max-iters", "600"],
    "ga-uncapped": ["optimize", "--camera", "{fixtures}/synthetic_camera.csv", "--optimizer", "ga"],
    "evaluate": ["evaluate", "--scenes", "{fixtures}/scenes.txt"],
    "evaluate-filter": ["evaluate", "--scenes", "{fixtures}/scenes.txt", "--filter", "{run}/als/filter.csv",
                        "--correction", "global"],
    "compare": ["trace-compare", "{run}/als/trace.csv", "{run}/ga/trace.csv", "--label-a", "als", "--label-b", "ga"],
    "compare-scored": ["trace-compare", "{run}/als/trace.csv", "{run}/ga/trace.csv", "--label-a", "als",
                       "--label-b", "ga", "--filters-a", "{run}/als/iteration_filters.csv",
                       "--filters-b", "{run}/ga/iteration_filters.csv", "--scenes", "{fixtures}/scenes.txt"],
    "compare-b-global": ["trace-compare", "{run}/als/trace.csv", "{run}/ga/trace.csv", "--label-a", "als",
                         "--label-b", "ga", "--filters-b", "{run}/ga/iteration_filters.csv",
                         "--scenes", "{fixtures}/scenes.txt", "--correction", "global"],
}


def run_tree(src: str) -> dict[str, bytes]:
    """Every output of the eight runs of the tree at ``src``, keyed ``<run>/<file>``, paths normalized."""
    outputs = {}
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        def normalize(data: bytes) -> bytes:
            return data.replace(tmp.encode(), b"<run>")

        for name, argv in RUNS.items():
            argv = [arg.format(run=tmp, fixtures=FIXTURES) for arg in argv]
            out = os.path.join(tmp, name)
            result = subprocess.run([sys.executable, "-m", "specfilter", *argv, "--out", out],
                                    capture_output=True, env=env, cwd=tmp, check=False)
            outputs[f"{name}/exit code"] = str(result.returncode).encode()
            outputs[f"{name}/stdout"] = normalize(result.stdout)
            outputs[f"{name}/stderr"] = normalize(result.stderr)
            for path in sorted(pathlib.Path(out).glob("*")) if os.path.isdir(out) else ():
                data = normalize(path.read_bytes())
                if path.name == "report.json":
                    report = json.loads(data)
                    report.pop("timing_ms", None)
                    data = json.dumps(report, indent=2, sort_keys=True).encode()
                outputs[f"{name}/{path.name}"] = data
    return outputs


# A decimal number as repr and json write them: optional sign, digits, fraction, exponent.
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def numeric_difference(parent: bytes, change: bytes) -> tuple[int, float] | None:
    """(numbers that differ, their largest relative difference) between two texts alike but for numbers.

    Each text is cut at its numbers; None when the text between them differs
    or one text holds more numbers.  Relative differences are taken against
    the larger magnitude of the two, so 0 against any other number is 1.
    """
    old, new = parent.decode(), change.decode()
    if NUMBER.split(old) != NUMBER.split(new):
        return None
    count, largest = 0, 0.0
    for a, b in zip(map(float, NUMBER.findall(old)), map(float, NUMBER.findall(new))):
        if a != b:
            count += 1
            largest = max(largest, abs(a - b) / max(abs(a), abs(b)))
    return count, largest


def describe(name: str, parent: bytes | None, change: bytes | None) -> str:
    """One Markdown list item for an output that differs."""
    numbers = None
    if parent is not None and change is not None and name.endswith((".csv", "/report.json")):
        numbers = numeric_difference(parent, change)
    if numbers is None:
        return f"- `{name}`"
    return f"- `{name}`: {numbers[0]} numbers differ, by at most {numbers[1]:.2g} relative"


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isfile(os.path.join(src, "specfilter", "cli.py")) for src in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (run_tree(src) for src in argv)
    names = sorted(parent.keys() | change.keys())
    # An output only one tree wrote differs too.
    differ = [name for name in names if parent.get(name) != change.get(name)]
    print("### Outputs against the parent\n")
    print(f"{len(RUNS)} runs on `fixtures/`, `{argv[0]}` against `{argv[1]}`: "
          + (f"{len(differ)} of {len(names)} outputs differ.\n" if differ else f"all {len(names)} outputs identical."))
    for name in differ:
        print(describe(name, parent.get(name), change.get(name)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
