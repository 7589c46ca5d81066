"""The code-set layer imports nothing from the layers built on it."""

import ast
from pathlib import Path

import pytest

import pacsdiv

PACKAGE = Path(pacsdiv.__file__).parent
UPPER_LAYERS = {"corpus", "cohorts", "cli"}


def _imported_modules(path):
    """Package modules ``path`` imports anywhere, function bodies and guarded blocks included."""
    dotted = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is relative to the (flat) package
            base = ".".join(filter(None, ["pacsdiv" if node.level else "", node.module]))
            dotted += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("pacsdiv.")}


@pytest.mark.parametrize("module", ["diversity", "taxonomy"])
def test_kernel_layer_imports_no_upper_layer(module):
    imported = _imported_modules(PACKAGE / f"{module}.py")
    assert imported, "found no package imports at all"
    assert not imported & UPPER_LAYERS
