"""Every module-level import of the package is used.

A deletion that leaves an import behind keeps a dead dependency between
modules; this guard reads each module's syntax tree (no import runs) and
lists the imported names that nothing in the module refers to.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "slemma"


def unused_imports(path: Path) -> list[str]:
    """`<file>:<line> <name>` for each module-level import of `path`
    whose name is never referenced; `__future__` imports are exempt."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_module_imports():
    unused = [item for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
              for item in unused_imports(path)]
    assert unused == []


def unreferenced_definitions(paths: list[Path]) -> list[str]:
    """`<file>:<line> <name>` for each top-level function or class of the
    modules in `paths` that no code of those modules refers to outside the
    definition itself.  Importing a name counts as a reference, so the
    package's exports in `__init__.py` do."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    defined, used = {}, set()
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = f"{path.name}:{node.lineno} {node.name}"
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    used.add(name)
    return [where for name, where in defined.items() if name not in used]


def test_every_top_level_definition_is_referenced():
    assert unreferenced_definitions(sorted(SRC.glob("*.py"))) == []
