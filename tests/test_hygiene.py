"""Import hygiene of the package, checked with the standard library's
`ast` module: no module imports a name it never uses, every module-level
private name is read somewhere in the package, every public function
and class is read somewhere in the package, the suite or the benchmark,
and the package's `__all__` lists each public name once and every one
resolves."""

import ast
from pathlib import Path

import cycorder

SRC = Path(cycorder.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

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


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each module-level `_name` (not a dunder) a def, class or assignment
    binds, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        private = (n for n in targets if n.startswith("_") and not n.startswith("__"))
        names.update(dict.fromkeys(private, node.lineno))
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Names read as a variable or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


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


def test_every_private_name_is_read():
    """A helper left without a caller by a simplification fails here."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(read_names, trees.values()))
    dead = [
        f"{name}:{line}: {priv}"
        for name, tree in trees.items()
        for priv, line in private_definitions(tree).items()
        if priv not in read
    ]
    assert not dead, "defined but never read: " + ", ".join(dead)


def test_every_public_definition_is_read():
    """A public function or class left without a caller by a
    simplification fails here.  A read inside its own definition (a
    recursive call) does not count; a read in `tests/` or `bench/` does."""
    paths = [*sorted(SRC.glob("*.py")), *sorted(ROOT.glob("tests/*.py")),
             *sorted(ROOT.glob("bench/*.py"))]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    read_in = {path: read_names(tree) for path, tree in trees.items()}
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            same = (read_names(stmt) for stmt in trees[path].body if stmt is not node)
            others = (names for other, names in read_in.items() if other != path)
            if not any(node.name in names for names in (*same, *others)):
                unread.append(f"{path.name}:{node.lineno}: {node.name}")
    assert not unread, "defined but never read: " + ", ".join(unread)


def test_package_all_resolves_once():
    names = cycorder.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(cycorder, n)]
    assert not missing, missing
