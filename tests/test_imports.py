"""Every name a package module imports is used, exported or marked.

No linter ships with the test dependencies, so this standard-library check
stands in for one: an imported name that its module never reads and does not
list in its `__all__` fails, unless the import line carries `# noqa: F401`
(a binding kept for code outside the package).  Such a marked, unused import
must be a binding that `ALIASES` in bench/test_bench.py pins, so none is left
behind once the bench stops pinning it.

The same AST walk keeps the argument-kind check to one implementation: only
`operators._require_type` writes "x must be a Kind, got T".
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qmeas"
KIND_MESSAGE = re.compile(r"must be an? [A-Z]\w*, got")


def _exported(tree) -> set:
    """The names of a literal module-level `__all__`, if there is one."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def _unread_imports(source: str):
    """(line, name, module imported from, marked) of every imported name the
    source neither reads nor exports; marked means the line has `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        home = node.module if isinstance(node, ast.ImportFrom) else None
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            marked = any("# noqa: F401" in lines[k - 1] for k in (node.lineno, alias.lineno))
            if name != "*" and name not in used:
                yield alias.lineno, name, home, marked


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the source neither reads nor exports
    and does not mark."""
    return [(line, name) for line, name, _, marked in _unread_imports(source) if not marked]


def unpinned_marks(module: str, source: str, aliases) -> list:
    """(line, name) of every marked, unread import of `module` that no
    (home, name, users) row of `aliases` pins, i.e. lists `module` among its users."""
    pinned = {(user, home, name) for home, name, users in aliases for user in users}
    return [
        (line, name)
        for line, name, home, marked in _unread_imports(source)
        if marked and (module, home, name) not in pinned
    ]


def _bench_aliases() -> list:
    """`ALIASES` of bench/test_bench.py, read as a literal without importing the bench."""
    tree = ast.parse((ROOT / "bench" / "test_bench.py").read_text(encoding="utf-8"))
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "ALIASES" for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/test_bench.py defines no ALIASES")


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


def test_the_pin_check_flags_only_marks_no_alias_pins():
    aliases = [("operators", "herm_eig", ["povm"]), ("povm", "marginal", ["cli"])]
    source = (
        "from .operators import herm_eig  # noqa: F401\n"
        "from .povm import marginal  # noqa: F401\n"
        "from .operators import tensor_product  # noqa: F401\n"
        "from .states import pure_state  # noqa: F401\n"
        "pure_state\n"
    )
    assert unpinned_marks("povm", source, aliases) == [(2, "marginal"), (3, "tensor_product")]
    assert unpinned_marks("cli", source, aliases) == [(1, "herm_eig"), (3, "tensor_product")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_marked_unused_import_is_a_binding_the_bench_pins(path):
    source = path.read_text(encoding="utf-8")
    assert unpinned_marks(path.stem, source, _bench_aliases()) == []


def _top_level_names(source: str) -> set:
    """Names a module defines at its top level: functions, classes and
    assignment targets (imported names excluded)."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def borrowed_private_imports(source: str, sources: dict) -> list:
    """(line, name, module) of every `from .module import _name` whose module,
    a key of `sources` (`__init__` for the package itself), does not define
    `_name` at its top level but only passes on an import of it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        home = node.module or "__init__"
        defined = _top_level_names(sources[home])
        found += [
            (alias.lineno, alias.name, home)
            for alias in node.names
            if alias.name.startswith("_") and alias.name not in defined
        ]
    return found


def test_the_private_import_check_flags_only_names_their_module_does_not_define():
    sources = {
        "a": "import math\ndef _f():\n    pass\n_X: int = 1\nclass _C:\n    pass\n",
        "b": "from .a import _f\n_Y = _Z = 2\n",
        "__init__": "__version__ = '1'\n",
    }
    source = (
        "from .a import _f, _X, _C, math\n"
        "from .b import (\n"
        "    _f,\n"
        "    _Z,\n"
        ")\n"
        "from .a import _W\n"
        "from . import __version__\n"
    )
    assert borrowed_private_imports(source, sources) == [(3, "_f", "b"), (6, "_W", "a")]


def test_private_names_are_imported_only_from_the_module_that_defines_them():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    found = {stem: borrowed_private_imports(text, sources) for stem, text in sources.items()}
    assert {stem: rows for stem, rows in found.items() if rows} == {}


def kind_messages(source: str) -> list:
    """(line, text) of every string constant, f-string parts included, that
    reads like a kind check's message ("c must be an EprBellConfig, got int")."""
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and KIND_MESSAGE.search(node.value)
    )


def test_the_kind_message_check_flags_only_messages_naming_a_class():
    source = (
        "def f(p, what, n):\n"
        "    raise ValueError(f\"{what} must be a Pvm, got {type(p).__name__}\")\n"
        "C = 'c must be an EprBellConfig, got int'\n"
        "GRID = f'{what} must be an outcome grid, got {p}'\n"
        "LOW = f'{what} must be >= 2, got {n}'\n"
        "INT = 'n must be an integer, got 3.0'\n"
    )
    assert kind_messages(source) == [(2, " must be a Pvm, got "), (3, "c must be an EprBellConfig, got int")]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "operators.py"], ids=lambda p: p.name
)
def test_only_the_operators_guard_writes_a_kind_message(path):
    assert kind_messages(path.read_text(encoding="utf-8")) == []
