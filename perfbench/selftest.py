"""Self-test of the benchmark's output checks: good outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For each command it produces real outputs
with the program, requires the check to pass them, then corrupts one output
at a time and requires the check to report a failure.  Exits 1 if any
expectation is not met.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _edit_json(path, edit):
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    edit(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _edit_lines(path, edit):
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(edit(lines)) + "\n")


def _scale_filter(lines):
    return [lines[0]] + [f"{wl},{float(v) * 0.5!r}" for wl, v in (ln.split(",") for ln in lines[1:])]


def _swap_trace(lines):
    return [lines[0], lines[2], lines[1]] + lines[3:]


def _blank_delta_e(lines):
    cells = lines[5].split(",")
    return lines[:5] + [",".join(cells[:3] + [""])] + lines[6:]


def _nudge_row(index):
    def edit(lines):
        cells = lines[index + 1].split(",")
        cells[3] = repr(float(cells[3]) * (1 + 1e-6))
        return lines[:index + 1] + [",".join(cells)] + lines[index + 2:]
    return edit


def _bump_stat(payload):
    payload["evaluation"]["delta_e"]["mean"] *= 1 + 1e-6


def _bump_pairs(payload):
    payload["evaluation"]["pair_count"] -= 1


def _bump_vora(payload):
    payload["solution"]["vora_value"] += 1e-6


def _flip_converged(payload):
    payload["solution"]["converged"] = not payload["solution"]["converged"]


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from specfilter import cli

    import workloads

    workdir = os.path.join(root, "perfbench", ".work", f"selftest-p{os.getpid()}")
    problems = []

    def expect(label, op, rc, corrupt=None, passes=False):
        pristine = op.out + ".pristine"
        shutil.copytree(op.out, pristine)
        try:
            if corrupt:
                corrupt(op.out)
            reason = op.check(rc, op.out)
        finally:
            shutil.rmtree(op.out)
            shutil.move(pristine, op.out)
        ok = (reason is None) == passes
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {reason or 'passed'}")
        if not ok:
            problems.append(label)

    try:
        for name, cases in (
            ("design-ga", [
                ("filter not normalized", 0, lambda d: _edit_lines(os.path.join(d, "filter.csv"), _scale_filter)),
                ("reported Vora-Value off by 1e-6", 0, lambda d: _edit_json(os.path.join(d, "report.json"), _bump_vora)),
                ("exit code disagrees with converged", 0, lambda d: _edit_json(os.path.join(d, "report.json"), _flip_converged)),
                ("trace decreases", 0, lambda d: _edit_lines(os.path.join(d, "trace.csv"), _swap_trace)),
                ("trace.csv missing", 0, lambda d: os.remove(os.path.join(d, "trace.csv"))),
                ("exit code 1", 1, None),
            ]),
            ("evaluate-paper", [
                ("mean Delta E off by 1e-6 relative", 0, lambda d: _edit_json(os.path.join(d, "report.json"), _bump_stat)),
                ("one pair missing", 0, lambda d: _edit_json(os.path.join(d, "report.json"), _bump_pairs)),
                ("report.json missing", 0, lambda d: os.remove(os.path.join(d, "report.json"))),
            ]),
            ("convergence", [
                ("row without Delta E", 0, lambda d: _edit_lines(os.path.join(d, "compare.csv"), _blank_delta_e)),
                ("row dropped", 0, lambda d: _edit_lines(os.path.join(d, "compare.csv"), lambda ls: ls[:-1])),
                ("sampled Delta E off by 1e-6 relative", 0,
                 lambda d: _edit_lines(os.path.join(d, "compare.csv"), _nudge_row(0))),
            ]),
        ):
            directory = os.path.join(workdir, name)
            os.makedirs(directory)
            with open(os.devnull, "w", encoding="utf-8") as sink, \
                    contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                op = workloads.SETUP[name](1, directory, root).ops[0]
                rc = cli.main(op.argv)
            expect(f"{name}: program output", op, rc, passes=True)
            for label, forced_rc, corrupt in cases:
                expect(f"{name}: {label}", op, rc if forced_rc == 0 else forced_rc, corrupt)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"selftest: {'all expectations met' if not problems else f'{len(problems)} not met'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
