"""The code-set layer imports nothing from the layers built on it, the
package exports no test-only code and declares each export once, in its
module's ``__all__``, every private name it defines is used, every
public name and dataclass field has a reader in the package and every
config field has a setter."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import pacsdiv
from pacsdiv.cli import RunConfig

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


def test_kernel_module_exports_only_the_kernel():
    assert pacsdiv.diversity.__all__ == ["weitzman_diversity"]


# routes with one reader each, folded into it: a cohort's diversities,
# the distributions' histogram and the integer keyings' builder
@pytest.mark.parametrize("name", ["compute_diversities", "diversity_histogram", "integer_key_scheme"])
def test_package_exports_no_single_reader_route(name):
    assert not hasattr(pacsdiv, name)
    assert name not in pacsdiv.__all__


def _module_names(tree):
    """Names of the module-level functions, classes and constants of a module."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return names


def _module_private_names(tree):
    """Names of the module-level private functions, classes and constants of a module."""
    return [name for name in _module_names(tree) if name.startswith("_") and not name.startswith("__")]


def _package_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


# the modules the package re-exports, in the order of pacsdiv.__all__
LIBRARY_MODULES = ("cohorts", "corpus", "diversity", "errors", "taxonomy", "years")


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_module_all_is_its_public_definitions(module):
    public = [name for name in _module_names(_package_trees()[f"{module}.py"]) if not name.startswith("_")]
    declared = importlib.import_module(f"pacsdiv.{module}").__all__
    assert public
    assert sorted(declared) == sorted(public)


def test_package_exports_exactly_its_modules_all():
    trees = _package_trees()
    assert set(trees) == {f"{module}.py" for module in LIBRARY_MODULES} | {"__init__.py", "cli.py"}
    joined = [name for module in LIBRARY_MODULES for name in importlib.import_module(f"pacsdiv.{module}").__all__]
    assert pacsdiv.__all__ == joined
    assert len(set(joined)) == len(joined)
    # no name is declared a second time in __init__.py, as a definition or as an import
    init = trees["__init__.py"]
    bound = _module_names(init) + [
        alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names
    ]
    assert [name for name in bound if not name.startswith("_") and name != "*"] == []


def _read_names(trees):
    """Every name the trees read: plain, as an attribute, or imported by name."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_no_unreferenced_private_names():
    trees = _package_trees()
    used = _read_names(trees.values())
    defined = [(module, name) for module, tree in trees.items() for name in _module_private_names(tree)]
    assert defined, "found no private names at all"
    assert [(module, name) for module, name in defined if name not in used] == []


def test_no_public_name_without_a_reader():
    trees = _package_trees()
    # the re-exports in __init__.py are not readers
    used = _read_names(tree for module, tree in trees.items() if module != "__init__.py")
    methods = [
        f"{node.name}.{item.name}"
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    ]
    assert methods, "found no public methods at all"
    public = sorted(pacsdiv.__all__) + methods
    assert [name for name in public if name.rpartition(".")[2] not in used] == []


def _call_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


@pytest.mark.parametrize("config", [pacsdiv.IngestConfig, RunConfig], ids=lambda cls: cls.__name__)
def test_no_config_field_without_a_setter(config):
    # set means passed by keyword to the class itself or to dataclasses.replace
    passed = {
        keyword.arg
        for tree in _package_trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _call_name(node) in (config.__name__, "replace")
        for keyword in node.keywords
    }
    assert [field.name for field in dataclasses.fields(config) if field.name not in passed] == []


def _is_dataclass(node):
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(getattr(d, "id", None) == "dataclass" for d in decorators)


def test_no_result_field_without_a_reader():
    # a field nothing reads is a value no caller needs, such as an
    # argument handed back in a result. Matching is by attribute name
    # only: a field passes when any attribute of its name is read, so a
    # field named like another object's attribute (a ``period`` beside
    # ``cfg.period``) is not caught.
    trees = _package_trees()
    read = {
        node.attr
        for module, tree in trees.items()
        if module != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        f"{node.name}.{item.target.id}"
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    assert fields, "found no dataclass fields at all"
    assert [name for name in fields if name.rpartition(".")[2] not in read] == []
