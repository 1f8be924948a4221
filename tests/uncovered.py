"""Print every statement of the package that the tier-1 tests never
execute, one `path:line: source` line each:

    PYTHONPATH=src python tests/uncovered.py [pytest arguments]

The tests run in this process under `sys.settrace`, which records the lines
executed in `src/mipcert`; a statement counts as run when any line of it
(of its header, for a compound statement) ran.  Extra arguments go to
pytest (default: the tier-1 suite, quiet).  Tracing makes the suite several
times slower.  pytest does not collect this file.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "mipcert"


def statements(path):
    """(first, last) line spans of the module's statements that compile to
    code: a simple statement's whole span, a compound one's header.  A
    docstring, `global`, `nonlocal` and `try:` compile to none."""
    spans = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(
                node, (ast.Global, ast.Nonlocal, ast.Try)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        body = getattr(node, "body", None)
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        last = body[0].lineno - 1 if body else node.end_lineno
        spans.append((first, max(first, last)))
    return sorted(spans)


def main(args):
    prefix = str(PACKAGE) + "/"
    executed = {}   # file name -> lines executed

    def local(frame, event, arg):
        executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set()).add(frame.f_lineno)
        return local

    if any(name.startswith("mipcert") for name in sys.modules):
        raise SystemExit("mipcert is imported already, so its module lines would go unseen")
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args or ["-q", "-p", "no:cacheprovider",
                                      str(TESTS), str(TESTS.parent / "bench")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        seen = executed.get(str(path), set())
        for first, last in statements(path):
            if seen.isdisjoint(range(first, last + 1)):
                print(f"{path.relative_to(TESTS.parent)}:{first}: {source[first - 1].strip()}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
