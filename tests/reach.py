"""Reach gate: every statement of the package is run by the golden corpus
or by tier-1, or it is listed in ALLOWED with its reason.

Run from anywhere with ``python3 tests/reach.py``.  It uses only the
standard library and pytest, and pytest is not asked to collect it (like
``tests/mutants.py`` it is outside tier-1; it takes a few minutes).  Under
``sys.settrace`` it replays ``tests/golden/corpus.json`` in this process
(as ``tests/golden/replay.py`` does) and then runs the tier-1 suite in
process with ``pytest.main``.  Code in subprocesses that tests spawn is
not traced.

The statements of ``src/gradedlie/*.py`` come from ``ast``; a string
expression statement (a docstring) and a ``try`` header emit no line of
their own and are not counted.  A statement is run when a line event falls
in its span: the whole statement when it is simple, its header up to the
first statement of its body when it is compound.  The script prints each
statement no run reached and ALLOWED does not name, as
``file:line text``, then the counts, and exits 1 if any such statement is
left or pytest failed.

ALLOWED maps (file, statement text with its whitespace runs collapsed to
one space) to a one-line reason.  It holds only runtime consistency checks
that no valid run may reach and statements that run only in a subprocess;
a guard that input can reach needs a test instead, and one that nothing
can reach goes.  ``test_hygiene.py`` checks that every key still names a
statement of ``src/`` and gives a reason.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gradedlie")

ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "runs only as `python -m gradedlie.cli`, in a subprocess",
    ("freelie.py", 'raise ValueError("generator monomial has no factors")'):
        "misuse guard: callers ask for factors of composite monomials only",
    ("freelie.py", 'raise ValueError("composite monomial is not a generator")'):
        "misuse guard: callers ask for the generator of leaves only",
    ("freelie.py", 'raise ValueError( f"[{self.monomial_str(a)}, {self.monomial_str(b)}] '
                   'violates the" " Hall condition" )'):
        "misuse guard: callers intern pairs that passed is_hall_pair",
    ("freelie.py", 'raise RuntimeError( "Hall rewriting cycle on " '
                   'f"[{self.monomial_str(a)},{self.monomial_str(b)}]" )'):
        "consistency check: Hall rewriting terminates, so no pair recurs",
    ("freelie.py", 'raise AssertionError("Witt formula gave a non-integer")'):
        "consistency check: the Witt sum is divisible by m",
    ("onerelator.py", 'raise DecompositionError("relator not expressible over the '
                      'generators (internal error)")'):
        "consistency check: the generators span F, so r is in it",
    ("onerelator.py", 'raise DecompositionError( f"relator not expressible over the '
                      'rebased family " f"(weight cap {jmax})" )'):
        "consistency check: at j = w(r) // w(h) + 1 the family spans r's weight",
    ("presented.py", 'raise AssertionError( f"inferred presentation inconsistent at'
                     ' weight {n}" )'):
        "consistency check: the inferred presentation's dims equal the span dims",
    ("raag.py", 'raise AssertionError("lex-BFS says not chordal but no induced cycle found")'):
        "consistency check: a graph with no perfect elimination order has a hole",
    ("raag.py", 'raise AssertionError("simplicial neighborhood is not complete")'):
        "consistency check: the first vertex of a perfect elimination order is simplicial",
}


def _spans(tree: ast.Module):
    """(first line, last line, node) of every counted statement: the whole
    statement when simple, the header above its body when compound."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Try, ast.TryStar)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(first, body[0].lineno - 1) if body else node.end_lineno
        yield first, last, node


def statements(path: str) -> list:
    """(first line, last line, key text) of every counted statement of the
    file, the key text as ALLOWED spells it."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines = [line.encode() for line in source.splitlines(keepends=True)]

    def text(node):
        # ast offsets count UTF-8 bytes; the end offset is into the last line
        chunk = b"".join(lines[node.lineno - 1:node.end_lineno])
        end = len(chunk) - len(lines[node.end_lineno - 1]) + node.end_col_offset
        return " ".join(chunk[node.col_offset:end].decode().split())

    return sorted((first, last, text(node)) for first, last, node in _spans(ast.parse(source)))


def traced_lines(run) -> tuple:
    """(file -> the lines of package code that `run()` executed, the
    result of `run()`)."""
    prefix = PACKAGE + os.sep
    hits = defaultdict(set)
    tracers = {}

    def local_for(filename):
        add = hits[filename].add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        got = tracers.get(filename)
        if got is None:
            got = tracers[filename] = local_for(filename)
        return got

    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return hits, result


def _run_all() -> int:
    """Replay the golden corpus, then run tier-1; pytest's exit code.  The
    package is first imported in here, under the tracer, so its
    module-level statements count."""
    from replay import replay
    import pytest

    replay()
    return int(pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")]))


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests", "golden")]
    os.chdir(ROOT)
    hits, pytest_code = traced_lines(_run_all)
    total = unreached = allowed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = hits.get(path, set())
        for first, last, text in statements(path):
            total += 1
            if any(line in lines for line in range(first, last + 1)):
                continue
            unreached += 1
            if (name, text) in ALLOWED:
                allowed += 1
            else:
                print(f"{name}:{first} {text[:100]}")
    left = unreached - allowed
    print(f"{unreached} of {total} statements in src/gradedlie not run by the golden corpus"
          f" or tier-1; {allowed} of them in ALLOWED, {left} left; pytest exit {pytest_code}")
    return 1 if left or pytest_code else 0


if __name__ == "__main__":
    sys.exit(main())
