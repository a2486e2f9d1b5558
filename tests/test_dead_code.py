"""Dead code in the package: imports a module never uses, and module-level
private functions and classes that nothing in the package references."""

import ast
import pathlib

import hypcert

SRC = pathlib.Path(hypcert.__file__).parent
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def read_names(tree) -> set[str]:
    """Names the module reads, plus the names listed in its __all__; the
    package's __all__ is computed, as the union of the modules' lists."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        is_all = isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        if is_all and isinstance(node.value, ast.List):
            names.update(ast.literal_eval(node.value))
    return names


def test_every_import_is_used():
    unused = []
    for name, tree in TREES.items():
        if name == "__init__.py":
            continue
        used = read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{name}: {b}" for b in bound if b not in used]
    assert unused == []


def test_every_private_helper_is_referenced():
    referenced = set()
    for tree in TREES.values():
        referenced |= read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    orphans = [
        f"{name}: {node.name}"
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert orphans == []
