"""Print the tracked size numbers of the program (ROADMAP aim 2), one per line.

Run from the repository root: ``python tools/size_report.py``.  It prints
net ``src/`` lines, code lines in total and per module, the count of public
names, the count of CLI options, and the benchmark's orphaned patch points.
It gates nothing: CI appends its output to the tier-1 job summary.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "specfilter"

# A code line holds a token other than a comment, newline, indent or dedent,
# and is not part of a module, class or function docstring.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    code = {line for token in tokens if token.type not in LAYOUT
            for line in range(token.start[0], token.end[0] + 1)}
    return len(code - docstrings)


def main() -> None:
    texts = {path.name: path.read_text(encoding="utf-8") for path in sorted(SOURCE.glob("*.py"))}
    # As `cat src/specfilter/*.py | wc -l` counts them.
    net = sum(text.count("\n") for text in texts.values())
    print(f"Net src/ lines: {net}")
    per_module = {name: code_lines(text) for name, text in texts.items()}
    print(f"Code lines: {sum(per_module.values())}")
    print("Code lines per module:", ", ".join(f"{name} {lines}" for name, lines in per_module.items()))

    sys.path[:0] = [str(SOURCE.parent), str(ROOT / "perfbench")]
    import specfilter
    from specfilter.cli import build_parser
    import tracing

    print(f"Public names: {len(specfilter.__all__)}")
    # Every value a user can set counts toward the program's size: the
    # arguments of each subcommand, --help left out.
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    print("CLI options:", sum(not isinstance(a, argparse._HelpAction)
                              for p in sub.choices.values() for a in p._actions))
    # perfbench/tracing.py wraps program functions under the names their
    # callers look them up by; a name the program no longer has leaves its
    # traced layer reading 0, so the orphaned patch points are listed.
    missing = tracing.Tracer().missing
    print(f"Orphaned benchmark patch points: {len(missing)}", *missing, sep="\n- ")


if __name__ == "__main__":
    main()
