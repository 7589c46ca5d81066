"""The code-set layer imports nothing from the layers built on it, the
package exports no test-only code, and every private name it defines is
used."""

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


def _module_private_names(tree):
    """Names of the module-level private functions, classes and constants of a module."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_no_unreferenced_private_names():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    # every read of a name: plain, as an attribute, or imported by name
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    defined = [(module, name) for module, tree in trees.items() for name in _module_private_names(tree)]
    assert defined, "found no private names at all"
    assert [(module, name) for module, name in defined if name not in used] == []
