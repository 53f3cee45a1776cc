"""Every exported name has a caller in the library or the benchmark.

A name in a layer module's ``__all__`` that only tests use is public API
without a user. The check reads the sources with ``ast``: a name counts as
used when it appears as a name or an attribute anywhere in ``src/siolab``
or in the non-test files of ``bench``. Import lists and ``__all__`` strings
are not uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "siolab").glob("*.py")) + sorted(
    p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_")
)
# the paper's P and Q, documented in README as the library's projections
EXEMPT = {"riesz_projections"}


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
                    if name not in used and name not in EXEMPT)
    assert unused == []
