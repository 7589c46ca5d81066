"""The code-set layer imports nothing from the layers built on it, and
the package exports no test-only code."""

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


KERNEL_IMPORTS = {"diversity": {"taxonomy"}, "taxonomy": {"errors"}}


@pytest.mark.parametrize("module", sorted(KERNEL_IMPORTS))
def test_kernel_layer_imports_exactly(module):
    assert _imported_modules(PACKAGE / f"{module}.py") == KERNEL_IMPORTS[module]


# reference code the tests compare the package against (tests/helpers.py)
TEST_ONLY_NAMES = (
    "weitzman_recursive_oracle",
    "weitzman_permutation_oracle",
    "ORACLE_SIZE_CAP",
    "SetTooLarge",
    "distance",
    "lca_level",
)


@pytest.mark.parametrize("name", TEST_ONLY_NAMES)
def test_package_exports_no_test_only_code(name):
    assert not hasattr(pacsdiv, name)
    assert name not in pacsdiv.__all__
