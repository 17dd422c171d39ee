"""Import hygiene of the package, checked with the standard library's
`ast` module: no module imports a name it never uses, and the package's
`__all__` lists each public name once and every one resolves."""

import ast
from pathlib import Path

import cycorder

SRC = Path(cycorder.__file__).parent

# comparator re-exports cyclo without using it: bench/spans.py wraps
# comparator.cyclo to trace polynomial construction
ALLOWED_UNUSED = {("comparator", "cyclo")}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the statement's line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def declared_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def test_every_import_is_used_or_exported():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        kept = used_names(tree) | set(declared_all(tree))
        for name, line in imported_names(tree).items():
            if name not in kept and (path.stem, name) not in ALLOWED_UNUSED:
                unused.append(f"{path.name}:{line}: {name}")
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_package_all_resolves_once():
    names = cycorder.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(cycorder, n)]
    assert not missing, missing
