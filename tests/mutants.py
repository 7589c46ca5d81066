"""Mutation sweep: each named mutation must make the tests named with it fail.

    python tests/mutants.py [NAME ...]

Each entry of ``MUTATIONS`` names a file, the exact text to replace,
its replacement and the tests that must catch it. The named tests first
run once, together, on an unmutated copy of the tree and must pass
there. Then, for each mutation, the tree is copied afresh into a
temporary directory, the text is replaced, and pytest runs only that
mutation's tests against the copy's ``src``. Each mutation is reported
as:

- killed: the named tests failed (pytest's exit code is shown);
- survived: they all passed, so no test named here catches it;
- stale: the text is not found exactly once in the file;
- timed out: a pytest run outlasted ``TIMEOUT_S``.

Exits 1 on any entry not killed, or when the named tests do not
pass on the unmutated tree. A survivor is a finding about the tests;
never drop or weaken its entry to make the sweep pass. Names given on
the command line run only those mutations.

pytest does not collect this file; the whole list takes minutes.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # per pytest run; a mutation that makes a test loop forever is not a kill
# what a copy leaves out: history, caches and the benchmark's records
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "BENCH_*.json", ".work")


class Mutation(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTATIONS = [
    Mutation(
        "cumulative-filing-includes-window-end",
        "src/pacsdiv/corpus.py",
        "if year < period.end][:1]",
        "if year <= period.end][:1]",
        ("tests/test_cohorts.py::test_author_unions_match_raw_recount",),
    ),
    Mutation(
        "windows-in-callers-order",
        "src/pacsdiv/corpus.py",
        'in_end_order = sorted(windows, key=attrgetter("end"))',
        "in_end_order = list(windows)",
        (
            "tests/test_cohorts.py::test_group_fractions_cumulative_windows_in_any_order",
            "tests/test_cli.py::test_every_table_matches_raw_recount",
        ),
    ),
    Mutation(
        "share-cohorts-sorted",
        "src/pacsdiv/cohorts.py",
        "zip(cohorts, corpus._file_by_year(cohorts))",
        "zip(sorted(cohorts), corpus._file_by_year(sorted(cohorts)))",
        ("tests/test_cli.py::test_every_table_matches_raw_recount",),
    ),
    Mutation(
        "share-loads-leniently",
        "src/pacsdiv/cli.py",
        'if command == "validate":\n        cfg = replace(cfg, lenient=True)',
        'if command in ("validate", "share"):\n        cfg = replace(cfg, lenient=True)',
        ("tests/test_cli.py::test_every_table_matches_raw_recount",),
    ),
    Mutation(
        "band-labels-from-0",
        "src/pacsdiv/cohorts.py",
        'labels = tuple(f"band{i}" for i in range(1, len(bounds) + 1))',
        'labels = tuple(f"band{i}" for i in range(len(bounds)))',
        ("tests/test_cli.py::test_citation_tables_match_raw_recount",),
    ),
    Mutation(
        "closed-interval-hi-plus-one",
        "src/pacsdiv/cohorts.py",
        "bounds.append((_bound(lo), _bound(hi)))",
        "bounds.append((_bound(lo), _bound(hi) + 1))",
        ("tests/test_cli.py::test_group_tables_match_raw_recount",),
    ),
    Mutation(
        "config-file-drops-bands",
        "src/pacsdiv/cli.py",
        "settings.update(_load_config_file(args.config))",
        'settings.update({k: v for k, v in _load_config_file(args.config).items() if k != "bands"})',
        ("tests/test_cli.py::test_flag_and_config_file_give_the_same_run",),
    ),
    Mutation(
        "distribution-misses-the-maximum",
        "src/pacsdiv/cohorts.py",
        "for c in range(max(cited) + 1)",
        "for c in range(max(cited))",
        (
            "tests/test_acceptance.py::test_criterion_conservation",
            "tests/test_cohorts.py::test_citation_distribution_fixture",
        ),
    ),
    Mutation(
        "distribution-over-citations",
        "src/pacsdiv/cohorts.py",
        "cited[c] / len(records)",
        "cited[c] / max(sum(counts), len(records))",
        (
            "tests/test_acceptance.py::test_criterion_conservation",
            "tests/test_cohorts.py::test_citation_distribution_fixture",
        ),
    ),
]


def _copy(work: Path, name: str) -> Path:
    tree = work / name
    shutil.copytree(ROOT, tree, ignore=_IGNORE)
    return tree


def _pytest(tree: Path, tests: tuple[str, ...]) -> int | None:
    """pytest's exit code on ``tests`` in ``tree``, stopping at the first failure; None on timeout."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def _apply(tree: Path, mutation: Mutation) -> bool:
    """Replace the mutation's text in ``tree``; False when it is not there exactly once."""
    path = tree / mutation.path
    source = path.read_text(encoding="utf-8") if path.is_file() else ""
    if source.count(mutation.old) != 1:
        return False
    path.write_text(source.replace(mutation.old, mutation.new), encoding="utf-8")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only these mutations (default: all)")
    args = parser.parse_args(argv)
    known = {mutation.name for mutation in MUTATIONS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutations: {', '.join(unknown)}")
    chosen = [mutation for mutation in MUTATIONS if not args.names or mutation.name in args.names]

    started = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        named = tuple(dict.fromkeys(test for mutation in chosen for test in mutation.tests))
        baseline = _pytest(_copy(work, "unmutated"), named)
        if baseline != 0:
            print(f"the named tests do not pass on the unmutated tree (pytest exit {baseline})")
            return 1
        outcomes = []
        for mutation in chosen:
            tree = _copy(work, mutation.name)
            if not _apply(tree, mutation):
                outcome = "stale"
            else:
                code = _pytest(tree, mutation.tests)
                outcome = {0: "survived", None: "timed out"}.get(code, f"killed (pytest exit {code})")
            shutil.rmtree(tree)
            outcomes.append(outcome)
            print(f"{mutation.name}: {outcome}", flush=True)
    bad = sum(not outcome.startswith("killed") for outcome in outcomes)
    killed = len(outcomes) - bad
    print(f"{killed} killed, {bad} not killed, of {len(outcomes)} in {time.monotonic() - started:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
