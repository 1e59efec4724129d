"""Package structure: the public names and the module dependencies."""

import ast
import importlib
import pkgutil
from pathlib import Path

import jcsim


def test_public_names_resolve_and_radar_needs_numpy_alone():
    """Every ``__all__`` name of the package, its subpackage and its modules
    resolves, and ``jcsim.radar`` imports no other ``jcsim`` module."""
    names = ["jcsim"] + [info.name for info in pkgutil.walk_packages(jcsim.__path__, "jcsim.")]
    assert "jcsim.harness" in names and "jcsim.radar" in names
    modules = [importlib.import_module(name) for name in names]
    missing = [
        f"{module.__name__}.{attr}"
        for module in modules
        for attr in getattr(module, "__all__", ())
        if not hasattr(module, attr)
    ]
    assert not missing, f"unresolved __all__ names: {missing}"

    tree = ast.parse(Path(jcsim.__file__).with_name("radar.py").read_text())
    internal = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == "jcsim":
                internal.append(module)
        elif isinstance(node, ast.Import):
            internal += [alias.name for alias in node.names if alias.name.split(".")[0] == "jcsim"]
    assert not internal, f"jcsim.radar imports {internal}"
