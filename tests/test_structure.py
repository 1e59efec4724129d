"""Package structure: the public names and the module dependencies."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import jcsim

# The jcsim modules a module may import, for the modules held to a list.
ALLOWED_IMPORTS = {
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
