"""Source hygiene: no module of the package imports a name it never uses,
and nothing it defines goes unreferenced.

Stdlib ``ast`` scans.  Every name bound by an import statement in
``src/gradedlie/*.py`` must be read somewhere in the same module, either as
a name in the code or inside a string annotation.  Every function, method
and class defined there, dunder methods aside, must be referred to by name
or attribute somewhere in ``src/``, ``tests/`` or ``bench/``; the
``"Class.method"`` strings of ``bench/tracer.py``'s ``WRAPS`` table count,
since the tracer looks those up by name, and each of them must resolve as
the tracer resolves it.  The mutation table of ``tests/mutants.py`` must
stay runnable: each old text occurs exactly once in its file and each
named test exists.  Every hypothesis ``@given`` test carries a ``@seed``,
so tier-1 draws the same examples on every run.
"""

import ast
import functools
import importlib
import types
from pathlib import Path

import pytest

import mutants

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
def all_references() -> frozenset:
    refs = set()
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            refs |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    tracer = ROOT / "bench" / "tracer.py"
    refs |= wrapped_names(ast.parse(tracer.read_text(encoding="utf-8")))
    return frozenset(refs)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unreferenced_definitions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    refs = all_references()
    unreferenced = sorted(f"{name} (line {line})" for name, line in defined_names(tree)
                          if name not in refs)
    assert not unreferenced, (
        f"{path.name} defines names nothing refers to: {', '.join(unreferenced)}"
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


def decorator_name(node: ast.expr):
    func = node.func if isinstance(node, ast.Call) else node
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def unseeded_property_tests(tree: ast.Module) -> list:
    """(name, line) of every function decorated with ``given`` but not
    with ``seed``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = {decorator_name(d) for d in node.decorator_list}
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
