"""Every name a package module imports is used, exported or marked.

No linter ships with the test dependencies, so this standard-library check
stands in for one: an imported name that its module never reads and does not
list in its `__all__` fails, unless the import line carries `# noqa: F401`
(a binding kept for code outside the package).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qmeas"


def _exported(tree) -> set:
    """The names of a literal module-level `__all__`, if there is one."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the source neither reads nor exports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            marked = any("# noqa: F401" in lines[k - 1] for k in (node.lineno, alias.lineno))
            if name != "*" and name not in used and not marked:
                unused.append((alias.lineno, name))
    return unused


def test_the_check_flags_only_unused_unexported_unmarked_names():
    source = (
        "import os\n"
        "import os.path\n"
        "import sys  # noqa: F401\n"
        "from math import (\n"
        "    pi,\n"
        "    tau,\n"
        "    e,\n"
        ")\n"
        "from json import *\n"
        "__all__ = ['tau']\n"
        "print(e)\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "os"), (5, "pi")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used_exported_or_marked(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
