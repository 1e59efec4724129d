"""Package structure: the public names and the module dependencies."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import jcsim

# The jcsim modules a module may import, for the modules held to a list.
ALLOWED_IMPORTS = {
    "jcsim.beamform": set(),
    "jcsim.radar": set(),
    "jcsim.poweralloc": {"jcsim.rate"},
}


def test_public_names_resolve():
    """Every ``__all__`` name of the package, its subpackage and its modules resolves."""
    names = ["jcsim"] + [info.name for info in pkgutil.walk_packages(jcsim.__path__, "jcsim.")]
    assert "jcsim.harness" in names and set(ALLOWED_IMPORTS) <= set(names)
    modules = [importlib.import_module(name) for name in names]
    missing = [
        f"{module.__name__}.{attr}"
        for module in modules
        for attr in getattr(module, "__all__", ())
        if not hasattr(module, attr)
    ]
    assert not missing, f"unresolved __all__ names: {missing}"


def jcsim_imports(name: str) -> set[str]:
    """The ``jcsim`` modules that module ``name`` imports, relative imports resolved."""
    path = Path(jcsim.__file__).parent.joinpath(*name.split(".")[1:]).with_suffix(".py")
    package = name.rsplit(".", 1)[0].split(".")
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            if node.level or module.split(".")[0] == "jcsim":
                found.add(module)
        elif isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names if alias.name.split(".")[0] == "jcsim"}
    return found


@pytest.mark.parametrize("name", sorted(ALLOWED_IMPORTS))
def test_module_imports_only_its_allowed_jcsim_modules(name):
    extra = jcsim_imports(name) - ALLOWED_IMPORTS[name]
    assert not extra, f"{name} imports {sorted(extra)}"


def test_submodule_attributes_are_the_submodules():
    """No package re-exports a name that shadows one of its own submodules."""
    names = [info.name for info in pkgutil.walk_packages(jcsim.__path__, "jcsim.")]
    shadowed = []
    for name in names:
        module = importlib.import_module(name)
        parent, attr = name.rsplit(".", 1)
        if getattr(importlib.import_module(parent), attr) is not module:
            shadowed.append(name)
    assert not shadowed, f"package attributes that are not their submodule: {shadowed}"


def unused_imports(path: Path) -> set[str]:
    """Names that the module at ``path`` imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return imported - used - exported


def test_no_module_imports_a_name_it_does_not_use():
    """An unused-import check with the stdlib alone; package ``__init__`` files re-export."""
    root = Path(jcsim.__file__).parent
    unused = {
        str(path.relative_to(root)): names
        for path in sorted(root.rglob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path))
    }
    assert not unused, f"unused imports: {unused}"
