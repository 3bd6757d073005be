"""Reach report: which functions of the package does no golden command enter?

Run from anywhere with ``python3 tests/reach.py``.  It uses only the
standard library and pytest is not asked to collect it.  It replays
``tests/golden/corpus.json`` in this process (as ``tests/golden/replay.py``
does) under ``sys.setprofile`` and prints, one per line, every function and
method defined in ``src/gradedlie`` that no command entered, as
``file:line qualified.name``, then a count.

The hygiene scan of ``test_hygiene.py`` matches names, so a definition
whose name is also used elsewhere (``Field.add`` next to ``Echelon.add``)
passes it even when only tests call it; this report sees code objects, so
it has no such blind spot.  A function it lists is not necessarily dead:
it may guard an input the corpus never gives, or serve the tracer of
``bench/``.  Each one is a question for the corpus or for the library.
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gradedlie")


def defined_functions(path: str) -> dict:
    """(first line of the code object) -> qualified name of every ``def``
    in the file, nested ones included."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[first] = prefix + child.name
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def entered_code() -> set:
    """(file, first line) of every package code object entered while the
    golden corpus is replayed."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests", "golden")]
    from replay import replay

    prefix = PACKAGE + os.sep
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                seen.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        replay()
    finally:
        sys.setprofile(None)
    return seen


def main() -> int:
    seen = entered_code()
    total = missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        for line, qualname in sorted(defined_functions(path).items()):
            total += 1
            if (path, line) not in seen:
                missed += 1
                print(f"{name}:{line} {qualname}")
    print(f"{missed} of {total} functions in src/gradedlie not entered by the golden corpus")
    return 0


if __name__ == "__main__":
    sys.exit(main())
