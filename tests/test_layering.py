"""The code-set layer imports nothing from the layers built on it, the
package exports no test-only code and declares each export once, in its
module's ``__all__``, every private name it defines is used, every
public name but the two library routes and every dataclass field has a
reader in the package, only the kernel module counts bits, only one
function tests a publication year against a range, every config field
has a setter, the benchmark's checks read only names the test
reference defines, every module parses as the oldest Python that
pyproject.toml claims and the CI workflow runs the ROADMAP's tier-1
command on every Python from that one to 3.13."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import helpers
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


def test_benchmark_checks_use_only_names_helpers_defines():
    # perfbench/checks.py loads tests/helpers.py as ``helpers``; a name it
    # reads that the reference lost would surface only as a failed benchmark
    root = Path(__file__).parent.parent
    tree = ast.parse((root / "perfbench" / "checks.py").read_text(encoding="utf-8"))
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "helpers"
    }
    assert used, "found no helpers.<name> in perfbench/checks.py"
    assert [name for name in sorted(used) if not hasattr(helpers, name)] == []


def test_kernel_module_exports_only_the_kernel():
    assert pacsdiv.diversity.__all__ == ["weitzman_diversity"]


# routes with one reader each, folded into it: a cohort's diversities,
# the distributions' histogram, the integer keyings' builder and the
# citation-count distribution, which each ``SeriesEntry`` carries
@pytest.mark.parametrize(
    "name",
    ["compute_diversities", "diversity_histogram", "integer_key_scheme", "citation_distribution_by_diversity"],
)
def test_package_exports_no_single_reader_route(name):
    assert not hasattr(pacsdiv, name)
    assert name not in pacsdiv.__all__


# second names for a value: a dataclass whose fields renamed the summary
# table's rows, and a NewType of str that no code checked
@pytest.mark.parametrize("name", ["SummaryStats", "AuthorId"])
def test_package_exports_no_second_name_for_a_value(name):
    assert not hasattr(pacsdiv, name)
    assert not hasattr(pacsdiv.corpus, name)
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


# the library's routes to one code set's diversity and to one author's
# code union; the tables reach the same values through the private mask
# step in diversity.py, so these are the public names nothing in the
# package reads
LIBRARY_ROUTES = ("Corpus.author_unions", "weitzman_diversity")


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
    assert sorted(name for name in public if name.rpartition(".")[2] not in used) == sorted(LIBRARY_ROUTES)


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


def test_only_the_kernel_module_counts_bits():
    # a popcount outside diversity.py would be a second mask-to-diversity step
    counting = [
        module
        for module, tree in _package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _call_name(node) == "bit_count"
    ]
    assert counting, "found no bit_count call at all"
    assert set(counting) == {"diversity.py"}


def _names_a_year(node):
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return name.endswith("year")


def test_one_function_files_papers_by_year():
    # a second function testing a year against a range would be a second
    # way to pick a range's papers, beside the one filing step
    filing = {
        (module, function.name)
        for module, tree in _package_trees().items()
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In) and _names_a_year(node.left)
    }
    assert [module for module, _ in filing] == ["corpus.py"]


# the oldest Python that pyproject.toml's requires-python admits, as (major, minor)
PYTHON_FLOOR = tuple(
    int(part)
    for part in re.search(
        r'requires-python = ">=(\d+)\.(\d+)"', (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    ).groups()
)


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_module_parses_as_the_oldest_python_claimed(module):
    # feature_version rejects syntax newer than the floor (except*, type
    # statements, generic function syntax); whether the package also runs
    # there takes a run on that Python, which no test here can make
    assert PYTHON_FLOOR == (3, 10), "the floor moved: update the README's Testing section"
    ast.parse((PACKAGE / module).read_text(encoding="utf-8"), feature_version=PYTHON_FLOOR)


def test_ci_runs_the_tier1_command_on_every_python_claimed():
    # the workflow runs only once pushed; offline, it must parse and hold
    # the ROADMAP's tier-1 line as its test step
    yaml = pytest.importorskip("yaml")
    root = Path(__file__).parents[1]
    workflow = yaml.safe_load((root / ".github/workflows/tier1.yml").read_text(encoding="utf-8"))
    roadmap = (root / "ROADMAP.md").read_text(encoding="utf-8")
    tier1 = re.search(r"^\*\*Tier-1 verify:\*\* `(.+)`$", roadmap, re.MULTILINE).group(1)
    (job,) = workflow["jobs"].values()
    assert job["strategy"]["matrix"]["python-version"] == [f"3.{minor}" for minor in range(PYTHON_FLOOR[1], 14)]
    assert [step["run"] for step in job["steps"] if "run" in step] == ["pip install pytest hypothesis pyyaml", tier1]


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
