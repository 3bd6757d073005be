"""Source hygiene: no module of the package imports a name it never uses,
and nothing it defines goes unreferenced.

Stdlib ``ast`` scans.  Every name bound by an import statement in
``src/gradedlie/*.py`` must be read somewhere in the same module, either as
a name in the code or inside a string annotation.  Every function, method
and class defined there, dunder methods aside, must be referred to by name
or attribute somewhere in ``src/``: a definition only tests use belongs in
``tests/oracles.py``.  The scan matches bare names, so it cannot tell two
definitions of one name apart: a method only tests call passes whenever
the library uses the same name elsewhere (``Field.add`` passed while
``Echelon.add`` was in use).  ``python3 tests/reach.py`` covers that blind
spot: it fails on any statement that neither the golden corpus nor tier-1
runs, unless its ``ALLOWED`` table names it; every key of that table must
still name a statement of ``src/`` and come with a reason.  The
``"Class.method"`` strings of ``bench/tracer.py``'s ``WRAPS`` table count
too, since the tracer looks those up by name, and each of them must
resolve as the tracer resolves it.  The mutation table of ``tests/mutants.py`` must stay runnable: each
old text occurs exactly once in its file and each named test exists.
Every hypothesis ``@given`` test carries a ``@seed``, so tier-1 draws the
same examples on every run.  Files are opened in two places only: the
input reader ``fields.load`` and the ``--out`` writer ``cli._emit``.
"""

import ast
import functools
import importlib
import types
from pathlib import Path

import pytest

import mutants
import reach

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gradedlie"


def imported_names(tree: ast.Module) -> dict:
    """Bound name -> line of every import outside ``from __future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations such as "Optional[GradedSubalgebra]"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = sorted(f"{name} (line {line})" for name, line in imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional\nx: 'Optional[int]' = 1\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os"}


def defined_names(tree: ast.Module) -> list:
    """(name, line) of every function, method and class except dunders."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(node.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, kinds)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def referenced_names(tree: ast.Module) -> set:
    """Names read as a plain name or as an attribute."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def wraps_table(tree: ast.Module) -> list:
    """The (module, attribute path, layer) entries of ``WRAPS`` tables."""
    entries = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPS" for t in node.targets
        ):
            entries += ast.literal_eval(node.value)
    return entries


def wrapped_names(tree: ast.Module) -> set:
    """The dotted parts of the attribute paths in a ``WRAPS`` table."""
    return {part for _, path, _ in wraps_table(tree) for part in path.split(".")}


@functools.lru_cache(maxsize=None)
def library_references(root: Path) -> frozenset:
    """Names read in ``root/src``, plus the parts of the ``WRAPS`` paths of
    ``root/bench/tracer.py``; references from ``root/tests`` do not count."""
    refs = set()
    for path in sorted((root / "src").rglob("*.py")):
        refs |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    tracer = root / "bench" / "tracer.py"
    refs |= wrapped_names(ast.parse(tracer.read_text(encoding="utf-8")))
    return frozenset(refs)


def unreferenced_definitions(path: Path, root: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    refs = library_references(root)
    return sorted(f"{name} (line {line})" for name, line in defined_names(tree)
                  if name not in refs)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unreferenced_definitions(path):
    unreferenced = unreferenced_definitions(path, ROOT)
    assert not unreferenced, (
        f"{path.name} defines names the library never refers to "
        f"(a test-only one belongs in tests/oracles.py): {', '.join(unreferenced)}"
    )


def test_scan_sees_an_unreferenced_definition():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self): self.used()\n"
        "    def used(self): pass\n"
        "    def wrapped(self): pass\n"
        "    def orphan(self): pass\n"
        "def helper(): return A()\n"
        "WRAPS = [('m', 'A.wrapped', 'layer')]\n"
        "helper()\n"
    )
    refs = referenced_names(tree) | wrapped_names(tree)
    assert {name for name, _ in defined_names(tree)} - refs == {"orphan"}


def test_scan_sees_a_test_only_definition(tmp_path):
    for part in ("src", "tests", "bench"):
        (tmp_path / part).mkdir()
    (tmp_path / "src" / "m.py").write_text(
        "class A:\n"
        "    def used(self): pass\n"
        "    def wrapped(self): pass\n"
        "    def tested(self): pass\n"
        "A().used()\n"
    )
    (tmp_path / "tests" / "test_m.py").write_text("def test_a(): A().tested()\n")
    (tmp_path / "bench" / "tracer.py").write_text("WRAPS = [('m', 'A.wrapped', 'layer')]\n")
    assert unreferenced_definitions(tmp_path / "src" / "m.py", tmp_path) == ["tested (line 4)"]


def test_mutant_table_is_well_formed():
    seen = set()
    for path, old, new, tests in mutants.MUTANTS:
        assert path.startswith("src/gradedlie/") and old and old != new and tests
        assert (path, old, new) not in seen
        seen.add((path, old, new))
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        assert count == 1, f"{path}: {old!r} occurs {count} times"
        for node in tests:
            file, _, name = node.partition("::")
            tree = ast.parse((ROOT / file).read_text(encoding="utf-8"))
            functions = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
            assert name.split("[")[0] in functions, node


def test_reach_allowlist_names_statements_with_reasons():
    texts = {name: {text for _, _, text in reach.statements(str(PACKAGE / name))}
             for name in {name for name, _ in reach.ALLOWED}}
    stale = [key for key in reach.ALLOWED if key[1] not in texts[key[0]]]
    assert not stale, f"ALLOWED keys that name no statement of src/: {stale}"
    assert all(reason.strip() for reason in reach.ALLOWED.values())


def test_reach_counts_statements_by_their_spans(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "'''doc'''\n"
        "def f(a,\n      b):\n    '''doc'''\n    try:\n"
        "        return g(\n            a)\n    except KeyError:\n        raise   ValueError(b)\n"
    )
    # docstrings and try headers are not counted; a compound statement
    # spans its header, a simple one all its lines; keys collapse whitespace
    spans = [(first, last, text.split(":")[0]) for first, last, text in
             reach.statements(str(path))]
    assert spans == [(2, 3, "def f(a, b)"), (6, 7, "return g( a)"), (9, 9, "raise ValueError(b)")]


def unresolved_wraps(wraps: list, modules: dict) -> list:
    """Paths of ``WRAPS`` entries the tracer cannot install: a module
    function that does not exist, or a ``Class.attr`` that is not in the
    class's own ``__dict__`` (the tracer replaces it there)."""
    bad = []
    for modname, path, _ in wraps:
        module = modules[modname]
        owner, _, attr = path.rpartition(".")
        if owner:
            cls = getattr(module, owner, None)
            found = cls is not None and attr in vars(cls)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            bad.append(path)
    return bad


def test_every_traced_name_resolves():
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    wraps = wraps_table(tree)
    modules = {name: importlib.import_module(f"gradedlie.{name}") for name, _, _ in wraps}
    unresolved = unresolved_wraps(wraps, modules)
    assert wraps and not unresolved, f"WRAPS names the tracer cannot find: {unresolved}"


def test_wraps_check_sees_an_unresolved_name():
    class Base:
        def inherited(self):
            pass

    class Sub(Base):
        def own(self):
            pass

    module = types.SimpleNamespace(Sub=Sub, helper=len)
    wraps = [("m", path, "layer") for path in
             ("Sub.own", "Sub.inherited", "Sub.missing", "Missing.own", "helper", "gone")]
    assert unresolved_wraps(wraps, {"m": module}) == [
        "Sub.inherited", "Sub.missing", "Missing.own", "gone"
    ]


def callee_name(node: ast.expr):
    """The name a decorator or a call refers to, bare or as an attribute."""
    func = node.func if isinstance(node, ast.Call) else node
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def unseeded_property_tests(tree: ast.Module) -> list:
    """(name, line) of every function decorated with ``given`` but not
    with ``seed``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = {callee_name(d) for d in node.decorator_list}
            if "given" in names and "seed" not in names:
                out.append((node.name, node.lineno))
    return out


def test_every_property_test_is_seeded():
    unseeded = [f"{path.name}::{name} (line {line})"
                for path in sorted((ROOT / "tests").glob("test_*.py"))
                for name, line in unseeded_property_tests(
                    ast.parse(path.read_text(encoding="utf-8")))]
    assert not unseeded, f"@given tests without @seed: {', '.join(unseeded)}"


def test_scan_sees_an_unseeded_property_test():
    tree = ast.parse(
        "@seed(1)\n@given(st.data())\ndef test_a(data): pass\n"
        "@given(st.data())\n@settings(max_examples=5)\ndef test_b(data): pass\n"
        "def test_c():\n"
        "    @hypothesis.given(st.data())\n    def check(data): pass\n"
    )
    assert {name for name, _ in unseeded_property_tests(tree)} == {"test_b", "check"}


# (module, function) of the only places that may open a file
OPENERS = {("fields.py", "load"), ("cli.py", "_emit")}


def open_calls(tree: ast.Module) -> list:
    """(innermost enclosing function or "<module>", line) of each call of a
    name or attribute ``open``, ``read_text`` or ``read_bytes``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and callee_name(child) in (
                "open", "read_text", "read_bytes"
            ):
                found.append((where, child.lineno))
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_files_are_opened_only_at_the_input_boundary():
    calls = [(path.name, where, line) for path in sorted(PACKAGE.glob("*.py"))
             for where, line in open_calls(ast.parse(path.read_text(encoding="utf-8")))]
    stray = [f"{name}:{line} in {where}" for name, where, line in calls
             if (name, where) not in OPENERS]
    assert not stray, f"files opened outside fields.load and cli._emit: {', '.join(stray)}"
    assert {(name, where) for name, where, _ in calls} == OPENERS


def test_scan_sees_a_stray_open():
    tree = ast.parse(
        "def load(p):\n    return open(p)\n"
        "def other(p):\n    def inner():\n        return io.open(p)\n"
        "    return p.read_text()\n"
        "open('x')\nlen('open')\n"
    )
    assert open_calls(tree) == [("load", 2), ("inner", 5), ("other", 6), ("<module>", 7)]
