"""The package's modules form layers: each imports only modules below it."""

import ast
from pathlib import Path

import darcais

LAYERS = ("errors", "arith", "polynomial", "series", "polymod", "numfield", "certify", "cli")
# The package facade and the ``python -m`` entry point sit above every layer.
ENTRY_POINTS = ("__init__", "__main__")
PACKAGE = Path(darcais.__file__).parent


def sibling_imports(module: str) -> set[str]:
    """Sibling modules named by the relative imports of one module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        if node.module is not None:
            found.add(node.module.split(".")[0])
        else:
            # ``from . import x``: x is an edge only if it names a module,
            # not a package attribute such as ``__version__``.
            found.update(a.name for a in node.names if a.name in LAYERS)
    return found


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == set(LAYERS) | set(ENTRY_POINTS)


def test_imports_point_strictly_down():
    for rank, module in enumerate(LAYERS):
        for target in sibling_imports(module):
            assert LAYERS.index(target) < rank, f"{module} imports {target}"
