"""Statements of src/sectorflow that the tier-1 suite never executes.

    python3 tests/unreached.py        # from the root of a checkout, ~80 s on two shared cores

Runs the tier-1 suite (pytest on tests/) in this process under a
sys.settrace line collector limited to src/sectorflow, then prints each
statement none of whose own lines ran, per module: its line number and its
first line of source. A compound statement's own lines are its header,
not its body; a statement with no bytecode (a function's docstring) is
never listed. Subprocess runs are not traced: a statement that only the
tests' child interpreters execute is listed too. A function stops being
traced once all its lines have run, but the suite still runs about three
times slower than untraced, so a test with a time budget may fail here;
its statements count all the same. The file name keeps it out of the
repository's pytest run. Exits with pytest's exit code.
"""

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sectorflow"


def executable_lines(code):
    """The line numbers that code and the code objects nested in it can report."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def statements(tree):
    """(line, own lines) of each statement: its span minus the spans of the statements inside it."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for inner in ast.walk(node):
            if inner is not node and isinstance(inner, ast.stmt):
                own -= set(range(inner.lineno, inner.end_lineno + 1))
        for decorator in getattr(node, "decorator_list", ()):
            own.add(decorator.lineno)
        yield node.lineno, own


def main():
    unseen = {}  # code object -> its lines not yet run, or None outside the package
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            unseen[frame.f_code].discard(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        # a code object all of whose lines have run is not traced again
        code = frame.f_code
        if code not in unseen:
            inside = code.co_filename.startswith(prefix)
            unseen[code] = {line for _, _, line in code.co_lines()} - {None} if inside else None
        lines = unseen[code]
        if not lines:
            return None
        lines.discard(frame.f_lineno)
        return local

    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    ran = defaultdict(set)  # file name -> lines that ran
    for c, lines in unseen.items():
        if lines is not None:
            ran[c.co_filename] |= {line for _, _, line in c.co_lines()} - lines

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        reachable = executable_lines(compile(source, str(path), "exec"))
        lines = source.splitlines()
        missed = sorted(
            line for line, own in statements(ast.parse(source))
            if own & reachable and not own & ran[str(path)]
        )
        total += len(missed)
        print("%s: %d" % (path.name, len(missed)))
        for line in missed:
            print("  %4d  %s" % (line, lines[line - 1].strip()))
    print("%d statements never executed" % total)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
