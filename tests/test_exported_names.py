"""Every exported name has a caller in the library or the benchmark, and
one import path: its layer module.

A name in a layer module's ``__all__`` that only tests use is public API
without a user. The check reads the sources with ``ast``: a name counts as
used when it appears as a name or an attribute anywhere in ``src/siolab``
or in the non-test files of ``bench``. Import lists and ``__all__`` strings
are not uses. The package itself binds only ``__version__``.

The library starts no thread or process of its own: parallelism is left to
BLAS, and ``bench/spans.py`` keeps one span stack for one thread.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "siolab").glob("*.py")) + sorted(
    p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_")
)


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def test_every_exported_name_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = {(path.stem, name) for path, tree in trees.items()
                if path.parent.name == "siolab" for name in _exports(tree)}
    assert len({module for module, _ in exported}) == 6
    unused = sorted(f"{module}.{name}" for module, name in exported
                    if name not in used)
    assert unused == []


def test_the_package_binds_only_its_version():
    # it re-exported 40 layer names, a second import path for each
    path = ROOT / "src" / "siolab" / "__init__.py"
    body = ast.parse(path.read_text(), filename=str(path)).body
    assert len(body) == 2, [ast.unparse(node) for node in body[2:]]
    docstring, version = body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value.value, str)
    assert isinstance(version, ast.Assign) and isinstance(version.value.value, str)
    assert [ast.unparse(target) for target in version.targets] == ["__version__"]


def test_no_module_imports_a_thread_or_process_pool():
    banned = {"threading", "concurrent", "multiprocessing"}
    found = []
    for path in sorted((ROOT / "src" / "siolab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {m}" for m in modules if m.split(".")[0] in banned]
    assert found == []
