import ast
import importlib
from pathlib import Path

import pytest

import nosignal


def test_every_exported_name_resolves():
    # the lazy table names the submodule that defines each export; a stale
    # entry (a name the submodule no longer has) fails here, not at use
    missing = []
    for name in nosignal.__all__:
        try:
            getattr(nosignal, name)
        except AttributeError:
            missing.append(name)
    assert missing == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        nosignal.no_such_name


def test_each_modules_all_lists_its_exports():
    # a module that defines __all__ names the same set as the lazy table
    differ = {}
    for module, names in nosignal._EXPORTS.items():
        defined = getattr(importlib.import_module(f"nosignal.{module}"), "__all__", None)
        if defined is not None and set(defined) != set(names.split()):
            differ[module] = sorted(set(defined) ^ set(names.split()))
    assert differ == {}


def test_every_export_is_used_inside_the_package():
    # a name that no module of the package reads is a view only the tests
    # call; the strings in __all__ and _EXPORTS are constants, not names
    used = set()
    for path in Path(nosignal.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(nosignal.__all__) - used) == []
