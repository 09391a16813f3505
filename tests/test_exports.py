"""Every name a package lists in ``__all__`` resolves, so ``import *`` works,
and no module imports a name it never uses."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("package", ["rawnoise", "rawnoise.estimator", "rawnoise.io"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


def test_no_module_imports_a_name_it_never_uses():
    """Every imported name is read, or listed in ``__all__``."""
    unused = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        read = {node.id for node in nodes if isinstance(node, ast.Name)}
        for node in nodes:
            if isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) == "__all__" for target in node.targets):
                read |= set(ast.literal_eval(node.value))
        unused += [f"{path.relative_to(ROOT)}:{node.lineno} {name}" for node in nodes
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
                   if name not in read]
    assert unused == []
