"""The public names of the package: each module's ``__all__`` lists only
names the module defines, and ``carcino`` re-exports only listed names,
so deleting a public helper cannot leave a dangling export behind."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import carcino

MODULES = sorted(info.name for info in pkgutil.iter_modules(carcino.__path__))


def _exports(module) -> set[str]:
    """__all__, or for a module without one the public names it defines
    (what ``from module import *`` would take)."""
    if hasattr(module, "__all__"):
        return set(module.__all__)
    return {
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__
    }


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_names_the_module_defines(name):
    module = importlib.import_module(f"carcino.{name}")
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"carcino.{name}.__all__ names undefined {export!r}"
        value = getattr(module, export)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, f"{export} is defined in {value.__module__}"


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(carcino.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "carcino/__init__.py imports only its own modules"
        exports = _exports(importlib.import_module(f"carcino.{node.module}"))
        unlisted = [alias.name for alias in node.names if alias.name not in exports]
        assert unlisted == [], f"carcino imports {unlisted}, not exported by {node.module}"


def _unused_imports(source: str) -> list[str]:
    """Names an import statement of source binds that no Name node of
    source reads (an attribute base is a Name too). from __future__
    imports, and lines marked ``# noqa: F401``, are not counted."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    """No module imports a name it does not use; the package's own
    __init__.py imports to re-export, and is checked above instead."""
    path = Path(carcino.__file__).with_name(f"{name}.py")
    unused = _unused_imports(path.read_text(encoding="utf-8"))
    assert unused == [], f"carcino.{name} imports unused {unused}"
