"""The package root re-exports every module's public names, and only those."""

import importlib
import subprocess
import sys

from helpers import child_env

import qmeas

MODULES = (
    "experiments", "nonideality", "operators", "povm", "premeasurement", "sampling", "states"
)


def test_root_all_is_the_union_of_the_module_all_lists():
    modules = [importlib.import_module(f"qmeas.{name}") for name in MODULES]
    assert sorted(qmeas.__all__) == sorted(name for m in modules for name in m.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(qmeas, name) is getattr(module, name), name


def test_importing_the_package_does_not_load_the_cli():
    # `import qmeas` is what every run pays before any work; the CLI layer stays out of it.
    code = "import sys, qmeas; print('qmeas.cli' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=child_env()
    )
    assert out.stdout.strip() == "False"


def test_the_cli_imports_nothing_beyond_numpy_and_the_standard_library():
    # numpy is the one runtime dependency; a stray import would make it two.
    code = (
        "import sys; before = set(sys.modules); import qmeas.cli; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before} "
        "- {m.split('.')[0] for m in before})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=child_env()
    )
    added = set(out.stdout.split())
    assert "numpy" in added and "qmeas" in added
    assert added - {"numpy", "qmeas"} - sys.stdlib_module_names == set()


def test_operator_is_a_checked_matrix_with_no_arithmetic_of_its_own():
    # arithmetic is numpy's, on `.mat`
    assert [name for name in dir(qmeas.Operator) if not name.startswith("_")] == ["dim", "mat"]
