"""Static checks on the package sources."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "setstat").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that the module never reads; a name listed
    in the module's __all__ counts as read (a re-export)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_import_check_flags_an_unread_name():
    source = "import math\nimport os\nfrom json import dumps, loads\n__all__ = ['loads']\nos.sep\n"
    tree = ast.parse(source)
    assert _unused_imports(tree) == ["dumps (line 3)", "math (line 1)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_modules_have_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level private names (a leading underscore, not a dunder) that
    a module binds with def, class or assignment, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [
                t.id
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                for t in ast.walk(t)
                if isinstance(t, ast.Name)
            ]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                names[name] = node.lineno
    return names


def _orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no module reads, neither as a loaded
    name nor as an attribute (module._name)."""
    trees = {module: ast.parse(text, filename=module) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    )


def test_orphan_check_flags_an_unread_private_helper():
    sources = {
        "a.py": "_LIMIT = 3\n_A, _B = 1, 2\ndef _used():\n    return _LIMIT + _A\n"
                "def _orphan():\n    _used = 1\nclass _Gone:\n    pass\n__all__ = []\n",
        "b.py": "from . import a\n\ndef f():\n    return a._used()\n",
    }
    assert _orphaned_private_names(sources) == [
        "a.py: _B (line 2)", "a.py: _Gone (line 7)", "a.py: _orphan (line 5)"
    ]


def test_package_private_helpers_all_have_a_reader():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert sum(len(_private_definitions(ast.parse(t))) for t in sources.values()) > 50
    assert _orphaned_private_names(sources) == []
