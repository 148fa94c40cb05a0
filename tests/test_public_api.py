"""The package's public surface: ``mapdflow.__all__`` and the names its
``__init__`` imports are one list, and every listed name resolves."""

import ast
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
