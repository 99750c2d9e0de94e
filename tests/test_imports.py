"""Every name a module imports is used: deleting a function must not leave
its imports behind. The modules are parsed, not imported; a name counts as
used when the module reads it somewhere or exports it in __all__."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "toric_gec"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(set(imported) - loaded - exported)


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    unused = {p.name: _unused_imports(ast.parse(p.read_text())) for p in modules}
    assert len(modules) > 1
    assert not {name: names for name, names in unused.items() if names}
