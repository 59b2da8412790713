"""Lines of src/qcrit that a pytest run never executes.

    PYTHONPATH=src python tools/never_run.py [--fail-on REGEX] [PYTEST ARGS]

Runs pytest in this process under a sys.settrace line tracer, with its
report on stderr, and prints one JSON object on stdout: for each module
of src/qcrit with a line that never ran, its path and those lines as
"number: source text", and under "count" the number of such lines. The
executable lines of a module are the line starts of its code objects
(dis.findlinestarts), so blank lines, comments and docstrings never
count. With --fail-on, the exit code is 1 if a line that never ran
matches REGEX, searched in "path:line: text [in NAME]", with NAME the
module-level function or class that holds the line (empty for
module-level code); else it is pytest's own. Tracing makes the tests
several times slower. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import dis
import json
import re
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcrit"


def executable_lines(path: Path) -> dict[int, str]:
    """The line starts of every code object compiled from path, each with
    the name of the module-level function or class that holds it."""
    lines, todo = {}, [(compile(path.read_text(), str(path), "exec"), "")]
    while todo:
        # a code object comes after the one that holds it, so a def line
        # ends up with the name of its function
        code, top = todo.pop()
        lines.update((n, top) for _, n in dis.findlinestarts(code) if n)
        todo.extend((c, top or c.co_name) for c in code.co_consts
                    if hasattr(c, "co_code"))
    return lines


def run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with pytest_args under the tracer: its exit code, and
    the lines that ran, by file name."""
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.settrace(call)
    threading.settrace(call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fail-on", metavar="REGEX",
                        help="exit 1 if a line that never ran matches")
    args, pytest_args = parser.parse_known_args(argv)
    code, ran = run(pytest_args)
    report, count, matched = {}, 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        never = sorted(set(lines) - ran.get(str(path), set()))
        if not never:
            continue
        text = path.read_text().splitlines()
        rel = str(path.relative_to(ROOT))
        report[rel] = [f"{n}: {text[n - 1].strip()}" for n in never]
        count += len(never)
        if args.fail_on:
            named = [f"{rel}:{line} [in {lines[n]}]"
                     for n, line in zip(never, report[rel])]
            matched += [line for line in named if re.search(args.fail_on, line)]
    print(json.dumps({"count": count, **report}, indent=1))
    for line in matched:
        print(f"never ran: {line}", file=sys.stderr)
    return 1 if matched else code


if __name__ == "__main__":
    sys.exit(main())
