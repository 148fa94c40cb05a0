"""The package's public surface: ``mapdflow.__all__`` and the names its
``__init__`` imports are one list, and every listed name resolves. The
package's modules import only the standard library, its declared
dependencies (numpy and scipy) and the package itself, so that no test
extra, such as networkx, reaches the library. Loading the package and its
command line leaves ``scipy.optimize`` unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mapdflow


def imported_names():
    tree = ast.parse(Path(mapdflow.__file__).read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_exported_name_resolves():
    assert len(set(mapdflow.__all__)) == len(mapdflow.__all__)
    for name in mapdflow.__all__:
        assert getattr(mapdflow, name, None) is not None, name


def test_every_imported_name_is_exported():
    names = imported_names()
    assert names, "the package imports nothing from its modules"
    assert sorted(names) == sorted(mapdflow.__all__)


def test_modules_import_only_stdlib_and_declared_dependencies():
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy", "mapdflow"}
    modules = sorted(Path(mapdflow.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            for top in tops:
                assert top in allowed, f"{path.name} imports {top}"


def test_flow_runs_never_load_the_assignment_optimizer():
    # scipy.optimize serves only the linear strategy, which imports it on
    # its first call; a fresh interpreter that loads the package and its
    # command line must not pay for it.
    src = str(Path(mapdflow.__file__).parent.parent)
    code = ("import sys, mapdflow, mapdflow.cli; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
